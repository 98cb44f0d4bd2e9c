"""Benchmark regression gate (scripts/check_bench_regression.py)."""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression", REPO / "scripts" / "check_bench_regression.py"
)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


def write_report(directory, records, name="BENCH_x.json"):
    path = directory / name
    path.write_text(json.dumps({"version": 1, "records": records}))
    return path


def rec(test, mb_per_s=10.0, ratio=4.0, **extra):
    return {"test": test, "MB_per_s": mb_per_s, "ratio": ratio, **extra}


FIVE = [rec(f"t{i}", mb_per_s=10.0 + i) for i in range(5)]


@pytest.fixture()
def dirs(tmp_path):
    base = tmp_path / "baselines"
    fresh = tmp_path / "fresh"
    base.mkdir()
    fresh.mkdir()
    return base, fresh


def run(base, fresh, *extra):
    return gate.main(
        ["--fresh-dir", str(fresh), "--baseline-dir", str(base), *extra]
    )


class TestGateVerdicts:
    def test_identical_reports_pass(self, dirs):
        base, fresh = dirs
        write_report(base, FIVE)
        write_report(fresh, FIVE)
        assert run(base, fresh) == 0

    def test_single_test_minus_15_percent_fails(self, dirs):
        """The acceptance fixture: one benchmark, throughput down 15%."""
        base, fresh = dirs
        write_report(base, [rec("roundtrip", mb_per_s=10.0)])
        write_report(fresh, [rec("roundtrip", mb_per_s=8.5)])
        assert run(base, fresh) == 1

    def test_one_of_many_regressing_fails_despite_normalization(self, dirs):
        base, fresh = dirs
        write_report(base, FIVE)
        slow = [dict(r) for r in FIVE]
        slow[2]["MB_per_s"] *= 0.80
        write_report(fresh, slow)
        assert run(base, fresh) == 1

    def test_uniform_slowdown_reads_as_machine_speed(self, dirs, capsys):
        """A 2x across-the-board slowdown is normalized away by design."""
        base, fresh = dirs
        write_report(base, FIVE)
        write_report(fresh, [dict(r, MB_per_s=r["MB_per_s"] / 2) for r in FIVE])
        assert run(base, fresh) == 0
        assert "normalization" in capsys.readouterr().out

    def test_ratio_drop_fails_and_improvement_passes(self, dirs):
        base, fresh = dirs
        write_report(base, FIVE)
        write_report(fresh, [dict(r, ratio=r["ratio"] * 0.95) for r in FIVE])
        assert run(base, fresh) == 1
        write_report(fresh, [dict(r, ratio=r["ratio"] * 1.5) for r in FIVE])
        assert run(base, fresh) == 0

    def test_bound_violation_fails_unconditionally(self, dirs):
        """max_rel_err > rel_bound is a correctness bug, not a perf tolerance."""
        base, fresh = dirs
        good = [rec("roundtrip", max_rel_err=9e-4, rel_bound=1e-3)]
        write_report(base, good)
        write_report(fresh, [rec("roundtrip", max_rel_err=2e-3, rel_bound=1e-3)])
        assert run(base, fresh) == 1
        write_report(fresh, good)
        assert run(base, fresh) == 0

    def test_baseline_test_missing_from_fresh_fails(self, dirs):
        base, fresh = dirs
        write_report(base, FIVE)
        write_report(fresh, FIVE[:-1])  # silently skipped benchmark
        assert run(base, fresh) == 1

    def test_new_fresh_test_is_only_a_note(self, dirs, capsys):
        base, fresh = dirs
        write_report(base, FIVE)
        write_report(fresh, FIVE + [rec("brand-new")])
        assert run(base, fresh) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_missing_fresh_file_fails(self, dirs):
        base, fresh = dirs
        write_report(base, FIVE)
        assert run(base, fresh) == 1

    def test_no_baselines_at_all_fails_with_hint(self, dirs, capsys):
        base, fresh = dirs
        write_report(fresh, FIVE)
        assert run(base, fresh) == 1
        assert "--update-baselines" in capsys.readouterr().err


class TestUpdateBaselines:
    def test_promotes_fresh_reports(self, dirs):
        base, fresh = dirs
        write_report(fresh, FIVE)
        assert run(base, fresh, "--update-baselines") == 0
        assert (base / "BENCH_x.json").exists()
        assert run(base, fresh) == 0  # now in agreement

    def test_nothing_to_promote_fails(self, dirs):
        base, fresh = dirs
        assert run(base, fresh, "--update-baselines") == 1


class TestReportLoading:
    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"version": 2, "records": []}))
        with pytest.raises(ValueError, match="version"):
            gate.load_report(str(path))

    def test_bad_tolerances_rejected(self, dirs):
        base, fresh = dirs
        with pytest.raises(SystemExit):
            run(base, fresh, "--throughput-tolerance", "1.5")


def test_committed_baselines_are_self_consistent():
    """The repo's own baselines must pass the gate against themselves."""
    baselines = REPO / "benchmarks" / "baselines"
    assert list(baselines.glob("BENCH_*.json")), "no committed baselines"
    assert gate.main(
        ["--fresh-dir", str(baselines), "--baseline-dir", str(baselines)]
    ) == 0


class TestCodecPathGate:
    def test_mismatch_fails_with_update_hint(self, dirs, capsys):
        base, fresh = dirs
        write_report(base, [rec("t", codec_path="scalar")])
        write_report(fresh, [rec("t", codec_path="vectorized")])
        assert run(base, fresh) == 1
        assert "--update-baselines" in capsys.readouterr().out

    def test_matching_paths_pass(self, dirs):
        base, fresh = dirs
        write_report(base, [rec("t", codec_path="vectorized")])
        write_report(fresh, [rec("t", codec_path="vectorized")])
        assert run(base, fresh) == 0

    def test_unstamped_baseline_reads_as_scalar(self, dirs):
        """Baselines written before stamping existed imply the scalar coder."""
        base, fresh = dirs
        write_report(base, [rec("t")])
        write_report(fresh, [rec("t", codec_path="vectorized")])
        assert run(base, fresh) == 1
        write_report(fresh, [rec("t", codec_path="scalar")])
        assert run(base, fresh) == 0

    def test_unstamped_fresh_record_is_not_checked(self, dirs):
        base, fresh = dirs
        write_report(base, [rec("t", codec_path="vectorized")])
        write_report(fresh, [rec("t")])
        assert run(base, fresh) == 0


def table3_records(roundtrip_mb_s, host_factor=1.0):
    """A minimal table3-shaped report at ``host_factor`` x reference speed."""
    ref = gate._PREVEC_REFERENCE
    recs = [
        rec(t, mb_per_s=round(ref["anchor_MB_s"] * host_factor, 3), ratio=None)
        for t in ref["anchor_tests"]
    ]
    recs.append(rec(ref["test"], mb_per_s=roundtrip_mb_s))
    return recs


class TestSpeedupGate:
    """The table3 round trip is gated against a frozen scalar-coder reference."""

    NAME = "BENCH_table3.json"

    def test_fast_roundtrip_passes(self, dirs, capsys):
        base, fresh = dirs
        recs = table3_records(roundtrip_mb_s=12.0)  # 10x the 1.199 reference
        write_report(base, recs, name=self.NAME)
        write_report(fresh, recs, name=self.NAME)
        assert run(base, fresh) == 0
        assert "speedup gate" in capsys.readouterr().out

    def test_scalar_era_throughput_fails(self, dirs, capsys):
        base, fresh = dirs
        recs = table3_records(roundtrip_mb_s=1.2)  # ~1x: the vectorization lost
        write_report(base, recs, name=self.NAME)
        write_report(fresh, recs, name=self.NAME)
        assert run(base, fresh) == 1
        assert "speedup regression" in capsys.readouterr().out

    def test_normalized_by_host_speed(self, dirs):
        """On a half-speed host, half the absolute throughput still passes."""
        base, fresh = dirs
        recs = table3_records(roundtrip_mb_s=6.0, host_factor=0.5)
        write_report(base, recs, name=self.NAME)
        write_report(fresh, recs, name=self.NAME)
        assert run(base, fresh) == 0  # 6.0 / (1.199 * 0.5) ~ 10x
        slow = table3_records(roundtrip_mb_s=6.0, host_factor=2.0)
        write_report(base, slow, name=self.NAME)
        write_report(fresh, slow, name=self.NAME)
        assert run(base, fresh) == 1  # 6.0 / (1.199 * 2.0) ~ 2.5x

    def test_zero_disables_the_gate(self, dirs):
        base, fresh = dirs
        recs = table3_records(roundtrip_mb_s=1.2)
        write_report(base, recs, name=self.NAME)
        write_report(fresh, recs, name=self.NAME)
        assert run(base, fresh, "--min-speedup", "0") == 0

    def test_missing_roundtrip_record_fails(self, dirs):
        base, fresh = dirs
        recs = table3_records(roundtrip_mb_s=12.0)[:-1]
        write_report(base, recs, name=self.NAME)
        write_report(fresh, recs, name=self.NAME)
        assert run(base, fresh) == 1

    def test_other_reports_not_gated(self, dirs):
        base, fresh = dirs
        recs = table3_records(roundtrip_mb_s=1.2)
        write_report(base, recs, name="BENCH_other.json")
        write_report(fresh, recs, name="BENCH_other.json")
        assert run(base, fresh) == 0


def write_stamped_report(directory, records, bench="x", run_id="fresh-run",
                         name="BENCH_x.json"):
    """A fresh report the way benchmarks/_emit.py writes them post-stamping."""
    path = directory / name
    path.write_text(json.dumps({
        "version": 1,
        "bench": bench,
        "records": records,
        "stamp": {"run_id": run_id},
    }))
    return path


def write_ledger(path, runs, bench="x"):
    """Each run is ``(run_id, ts, records)``, appended as one entry."""
    import sys

    sys.path.insert(0, str(REPO / "src"))
    try:
        from repro.observe.ledger import append_entry, make_entry
    finally:
        sys.path.pop(0)
    for run_id, ts, records in runs:
        append_entry(str(path), make_entry(
            bench, records, run_id, git={}, machine={}, ts=ts,
        ))


class TestLedgerTrendGate:
    def history(self, tmp_path, mb_values, bench="x"):
        ledger = tmp_path / "ledger.jsonl"
        write_ledger(ledger, [
            (f"old{i}", 1000.0 + i, [rec("t1", mb_per_s=v)])
            for i, v in enumerate(mb_values)
        ], bench=bench)
        return ledger

    def test_steady_trend_passes(self, dirs, tmp_path, capsys):
        base, fresh = dirs
        ledger = self.history(tmp_path, [9.8, 10.0, 10.2])
        write_report(base, [rec("t1", mb_per_s=10.0)])
        write_stamped_report(fresh, [rec("t1", mb_per_s=10.0)])
        assert run(base, fresh, "--ledger", str(ledger)) == 0
        assert "ledger trend" in capsys.readouterr().out

    def test_trend_regression_fails(self, dirs, tmp_path, capsys):
        base, fresh = dirs
        ledger = self.history(tmp_path, [10.0, 10.0, 10.0])
        write_report(base, [rec("t1", mb_per_s=6.0)])  # stale frozen baseline
        write_stamped_report(fresh, [rec("t1", mb_per_s=6.0)])
        assert run(base, fresh, "--ledger", str(ledger)) == 1
        assert "ledger trend: throughput regression" in capsys.readouterr().out

    def test_fresh_runs_own_entry_excluded(self, dirs, tmp_path):
        """The bench run appends itself before the gate reads the ledger."""
        base, fresh = dirs
        ledger = self.history(tmp_path, [10.0, 10.0])
        write_ledger(ledger, [("fresh-run", 2000.0, [rec("t1", mb_per_s=6.0)])])
        write_report(base, [rec("t1", mb_per_s=6.0)])
        write_stamped_report(fresh, [rec("t1", mb_per_s=6.0)], run_id="fresh-run")
        # Median must come from the two old runs (10.0), not be dragged to
        # 6.0 by the fresh run's own line: 6/10 < 0.85 fails.
        assert run(base, fresh, "--ledger", str(ledger)) == 1

    def test_empty_ledger_is_a_note_not_a_failure(self, dirs, tmp_path, capsys):
        base, fresh = dirs
        write_report(base, [rec("t1")])
        write_stamped_report(fresh, [rec("t1")])
        assert run(base, fresh, "--ledger", str(tmp_path / "none.jsonl")) == 0
        assert "no prior runs" in capsys.readouterr().out

    def test_ledger_only_mode_without_baselines(self, dirs, tmp_path, capsys):
        base, fresh = dirs  # baseline dir left empty
        ledger = self.history(tmp_path, [10.0, 10.0, 10.0])
        write_stamped_report(fresh, [rec("t1", mb_per_s=10.0)])
        assert run(base, fresh, "--ledger", str(ledger)) == 0
        out = capsys.readouterr().out
        assert "gating on the ledger trend only" in out
        write_stamped_report(fresh, [rec("t1", mb_per_s=6.0)])
        assert run(base, fresh, "--ledger", str(ledger)) == 1

    def test_mismatched_codec_path_history_skipped(self, dirs, tmp_path, capsys):
        base, fresh = dirs
        ledger = tmp_path / "ledger.jsonl"
        write_ledger(ledger, [
            ("old0", 1000.0, [rec("t1", mb_per_s=60.0, codec_path="vectorized")]),
            ("old1", 1001.0, [rec("t1", mb_per_s=10.0, codec_path="scalar")]),
        ])
        fresh_rec = rec("t1", mb_per_s=9.5, codec_path="scalar")
        write_report(base, [fresh_rec])
        write_stamped_report(fresh, [fresh_rec])
        # Against the scalar history (10.0) this passes; folding the
        # vectorized 60.0 into the median would fail it.
        assert run(base, fresh, "--ledger", str(ledger)) == 0

    def test_window_limits_history(self, dirs, tmp_path):
        base, fresh = dirs
        # A slow early era, then a fast recent era the window isolates.
        ledger = self.history(tmp_path, [5.0, 5.0, 5.0, 10.0, 10.0])
        write_report(base, [rec("t1", mb_per_s=6.0)])
        write_stamped_report(fresh, [rec("t1", mb_per_s=6.0)])
        assert run(base, fresh, "--ledger", str(ledger),
                   "--ledger-window", "2") == 1  # vs recent 10.0: 0.6x
        assert run(base, fresh, "--ledger", str(ledger),
                   "--ledger-window", "5") == 0  # vs overall median 5.0: 1.2x

    def test_bad_ledger_args_rejected(self, dirs):
        base, fresh = dirs
        with pytest.raises(SystemExit):
            run(base, fresh, "--ledger", "x", "--ledger-window", "0")
        with pytest.raises(SystemExit):
            run(base, fresh, "--ledger", "x", "--ledger-tolerance", "1.5")


class TestQualityGate:
    def quality_rec(self, rel_p99=1e-3, rel_bias=-2e-6):
        return rec("roundtrip", rel_p99=rel_p99, rel_bias=rel_bias)

    def test_unchanged_quality_passes_with_note(self, dirs, capsys):
        base, fresh = dirs
        write_report(base, [self.quality_rec()])
        write_report(fresh, [self.quality_rec()])
        assert run(base, fresh) == 0
        assert "quality gate" in capsys.readouterr().out

    def test_p99_growth_beyond_tolerance_fails(self, dirs, capsys):
        base, fresh = dirs
        write_report(base, [self.quality_rec(rel_p99=1e-3)])
        write_report(fresh, [self.quality_rec(rel_p99=1.5e-3)])
        assert run(base, fresh) == 1
        assert "p99 rel error" in capsys.readouterr().out

    def test_p99_improvement_passes(self, dirs):
        base, fresh = dirs
        write_report(base, [self.quality_rec(rel_p99=1e-3)])
        write_report(fresh, [self.quality_rec(rel_p99=5e-4)])
        assert run(base, fresh) == 0

    def test_bias_magnitude_growth_fails(self, dirs, capsys):
        base, fresh = dirs
        write_report(base, [self.quality_rec(rel_bias=-2e-6)])
        write_report(fresh, [self.quality_rec(rel_bias=+4e-6)])  # |bias| doubled
        assert run(base, fresh) == 1
        assert "signed rel bias" in capsys.readouterr().out

    def test_near_zero_baseline_bias_uses_floor(self, dirs):
        """A tiny baseline bias must not make any nonzero fresh bias fail."""
        base, fresh = dirs
        write_report(base, [self.quality_rec(rel_bias=1e-16)])
        write_report(fresh, [self.quality_rec(rel_bias=5e-10)])
        assert run(base, fresh) == 0

    def test_baseline_without_quality_keys_is_skipped(self, dirs):
        """Pre-stamping baselines bootstrap cleanly: no keys, no gate."""
        base, fresh = dirs
        write_report(base, [rec("roundtrip")])
        write_report(fresh, [self.quality_rec(rel_p99=9e-3)])
        assert run(base, fresh) == 0

    def test_custom_tolerance(self, dirs):
        base, fresh = dirs
        write_report(base, [self.quality_rec(rel_p99=1e-3)])
        write_report(fresh, [self.quality_rec(rel_p99=1.1e-3)])
        assert run(base, fresh) == 0  # +10% inside the default 25%
        assert run(base, fresh, "--quality-tolerance", "0.05") == 1

    def test_bad_quality_tolerance_rejected(self, dirs):
        base, fresh = dirs
        with pytest.raises(SystemExit):
            run(base, fresh, "--quality-tolerance", "1.5")
