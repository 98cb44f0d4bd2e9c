"""Overhead gate (scripts/check_overhead.py), on stub timings."""

import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_overhead", REPO / "scripts" / "check_overhead.py"
)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


def stub_pair(base_s, variant_s, budget=0.05, log=None, problem=None):
    """A pair whose sides return ``base_s``/``variant_s`` in turn: the
    warm-up's time first, then one per round."""

    def build(workdir):
        def side(name, times):
            times = iter(times)

            def run():
                if log is not None:
                    log.append(name)
                return next(times)

            return run

        return side("baseline", base_s), side("variant", variant_s), lambda: problem

    return gate.Pair("stub", "stub work", budget, len(base_s) - 1, build)


class TestVerdict:
    def test_median_over_budget_fails(self, tmp_path):
        pair = stub_pair([1.0] * 6, [1.0, 1.10, 1.02, 1.08, 1.09, 1.01])
        passed, line = gate.run_pair(pair, str(tmp_path))
        assert not passed
        assert "median +8.0%" in line and "5 rounds" in line and "FAIL" in line

    def test_median_under_budget_passes(self, tmp_path):
        """Two stalled rounds out of five move the median nothing."""
        pair = stub_pair([1.0] * 6, [1.0, 1.50, 1.02, 1.03, 1.40, 1.01])
        passed, line = gate.run_pair(pair, str(tmp_path))
        assert passed
        assert "median +3.0%" in line and line.endswith(": ok")

    def test_failed_check_fails_a_pair_within_budget(self, tmp_path):
        pair = stub_pair([1.0] * 4, [1.0] * 4, problem="stream changed")
        passed, line = gate.run_pair(pair, str(tmp_path))
        assert not passed
        assert line.endswith("FAIL (stream changed)")

    def test_baseline_is_floored(self):
        """A 1 ms baseline counts as 5 ms: 4 ms of variant reads -20%."""
        assert gate.overheads([(0.001, 0.004)]) == [0.004 / 0.005 - 1.0]


class TestRounds:
    def test_rounds_alternate_which_side_runs_first(self, tmp_path):
        log = []
        gate.run_pair(stub_pair([1.0] * 5, [1.0] * 5, log=log), str(tmp_path))
        warmup, rounds = log[:2], log[2:]
        assert warmup == ["baseline", "variant"]
        assert [tuple(rounds[i:i + 2]) for i in range(0, len(rounds), 2)] == [
            ("baseline", "variant"),
            ("variant", "baseline"),
            ("baseline", "variant"),
            ("variant", "baseline"),
        ]

    def test_warm_up_is_not_timed(self):
        """A slow first run on either side enters no round."""
        times = gate.paired_times(
            iter([0.001, 1.0, 1.0, 1.0]).__next__,
            iter([100.0, 1.02, 1.02, 1.02]).__next__,
            rounds=3,
        )
        assert times == [(1.0, 1.02)] * 3


def test_table_pins_the_six_budgets():
    assert [(p.name, p.budget, p.rounds) for p in gate.PAIRS] == [
        ("tracing", 0.05, 9),
        ("profiler", 0.05, 9),
        ("quality", 0.05, 21),
        ("safeguards", 0.10, 25),
        ("journal", 0.03, 15),
        ("policy", 0.03, 15),
    ]
