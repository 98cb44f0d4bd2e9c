#!/usr/bin/env python
"""Gate CI on benchmark regressions against committed baselines.

Usage::

    python scripts/check_bench_regression.py \
        [--fresh-dir .] [--baseline-dir benchmarks/baselines] \
        [--throughput-tolerance 0.10] [--ratio-tolerance 0.02] \
        [--update-baselines]

Compares every fresh ``BENCH_<name>.json`` (written by the benchmark
suite, see ``benchmarks/_emit.py``) against the committed baseline of the
same name and fails (exit 1) on:

* **throughput** -- a test's MB/s dropping more than the tolerance
  (default 10%).  With three or more comparable tests the per-test
  fresh/baseline factors are first normalized by their median, which
  cancels a uniform machine-speed difference between the baseline host
  and the CI runner and isolates *relative* regressions (one test
  getting slower than its peers).  With fewer tests the factors are
  compared absolutely -- noisier, so prefer wider tolerances there.
* **compression ratio** -- deterministic, so compared absolutely: a drop
  beyond the tolerance (default 2%) fails; improvements always pass.
* **bound conformance** -- any fresh record carrying both
  ``max_rel_err`` and ``rel_bound`` with ``max_rel_err > rel_bound``
  fails unconditionally: the paper's guarantee is not a tolerance.
* **error quality** -- records carrying the point-wise error summary
  (``rel_p99`` / ``rel_bias``, stamped by ``benchmarks/_emit.py``'s
  ``quality_info``) are compared against the baseline's: the p99
  relative error growing beyond ``--quality-tolerance``, or the signed
  bias magnitude growing beyond the tolerance of the baseline's
  magnitude, fails.  The stream can honor the hard max-error bound
  while typical-point accuracy quietly degrades; this gate catches
  that.  Baselines recorded before quality stamping lack the keys and
  are skipped, so the gate bootstraps cleanly.
* **coverage** -- a baseline test missing from the fresh report, or a
  baseline file with no fresh counterpart (a silently skipped benchmark
  reads as "no regression" otherwise).
* **codec path** -- a test whose ``codec_path`` differs from the
  baseline's fails: timings taken with different entropy-coder
  implementations are not comparable, so a deliberate coder change must
  re-record its baselines with ``--update-baselines``.  Baselines written
  before path stamping are read as ``"scalar"``.
* **vectorization speedup** -- the ``table3`` SZ_T round trip must run at
  least ``--min-speedup`` times faster than the frozen pre-vectorization
  reference (the scalar-coder baseline committed before the batch Huffman
  + fused quantizer work), after normalizing by the preprocessing tests,
  which run code untouched by the vectorization and therefore anchor the
  host's speed relative to the reference host.

* **ledger trend** (opt-in via ``--ledger results/ledger.jsonl``) -- the
  fresh run is additionally compared against a *synthetic* baseline
  built from the perf ledger: per test, the median MB/s and ratio over
  the last ``--ledger-window`` runs (the fresh run's own appended entry
  is excluded via its ``run_id`` stamp).  This catches slow drift that a
  single frozen baseline file misses -- a 3%/PR regression never trips a
  10% point gate but moves the trailing median.  Uses the same
  median-normalized throughput comparison, with its own
  ``--ledger-tolerance``; an empty or too-short ledger is a note, not a
  failure, so the gate bootstraps cleanly.

Fresh tests without a baseline are reported but do not fail; run with
``--update-baselines`` to copy the fresh reports over the baselines
(the intended escape hatch after a deliberate perf change -- commit the
result; see CONTRIBUTING.md).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")

#: Bench-record keys that are never compared as metrics.
_META_KEYS = {"test", "group", "rounds", "spans", "codec_path"}

#: Frozen pre-vectorization reference for the speedup gate: the committed
#: BENCH_table3.json of the scalar (per-symbol loop) Huffman coder.  The
#: preprocessing tests exercise code the vectorization did not touch, so
#: (fresh preprocessing MB/s) / (reference preprocessing MB/s) estimates
#: how fast the current host is relative to the reference host, letting
#: the gate assert an algorithmic speedup rather than a hardware one.
_PREVEC_REFERENCE = {
    "report": "BENCH_table3.json",
    "test": "test_sz_t_roundtrip_traced",
    "roundtrip_MB_s": 1.199,
    "anchor_tests": (
        "test_preprocessing[base2]",
        "test_preprocessing[base_e]",
        "test_preprocessing[base10]",
    ),
    "anchor_MB_s": (722.974 + 754.153 + 764.227) / 3.0,
}


def load_payload(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != 1:
        raise ValueError(f"{path}: unsupported report version {payload.get('version')!r}")
    return payload


def load_report(path: str) -> dict[str, dict]:
    """``{test name: record}`` from one BENCH_*.json."""
    payload = load_payload(path)
    return {rec["test"]: rec for rec in payload.get("records", []) if "test" in rec}


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def check_throughput(
    base: dict[str, dict], fresh: dict[str, dict], tolerance: float
) -> tuple[list[str], list[str]]:
    """(failures, notes) for the MB/s comparison."""
    factors: dict[str, float] = {}
    for test, b in base.items():
        f = fresh.get(test)
        if f is None:
            continue
        b_tp, f_tp = b.get("MB_per_s"), f.get("MB_per_s")
        if isinstance(b_tp, (int, float)) and isinstance(f_tp, (int, float)) and b_tp > 0:
            factors[test] = f_tp / b_tp
    if not factors:
        return [], ["no comparable throughput records"]
    notes, failures = [], []
    if len(factors) >= 3:
        norm = _median(list(factors.values()))
        if norm <= 0:
            return [f"median throughput factor is {norm:.3f} (all tests collapsed)"], []
        notes.append(
            f"machine-speed normalization: median fresh/baseline factor {norm:.3f} "
            f"over {len(factors)} tests"
        )
    else:
        norm = 1.0
        notes.append(
            f"only {len(factors)} comparable test(s): absolute throughput "
            "comparison (no machine-speed normalization)"
        )
    for test, factor in sorted(factors.items()):
        relative = factor / norm
        if relative < 1.0 - tolerance:
            failures.append(
                f"throughput regression in {test}: {relative:.3f}x of baseline "
                f"(tolerance {1.0 - tolerance:.2f}x"
                + (", median-normalized)" if norm != 1.0 else ")")
            )
    return failures, notes


def check_ratio(
    base: dict[str, dict], fresh: dict[str, dict], tolerance: float
) -> list[str]:
    failures = []
    for test, b in sorted(base.items()):
        f = fresh.get(test)
        if f is None:
            continue
        b_r, f_r = b.get("ratio"), f.get("ratio")
        if isinstance(b_r, (int, float)) and isinstance(f_r, (int, float)) and b_r > 0:
            if f_r < b_r * (1.0 - tolerance):
                failures.append(
                    f"compression-ratio regression in {test}: "
                    f"{b_r:.3f} -> {f_r:.3f} (tolerance {tolerance * 100:.0f}%)"
                )
    return failures


def check_bounds(fresh: dict[str, dict]) -> list[str]:
    """Bound violations in fresh records are failures regardless of baseline."""
    failures = []
    for test, rec in sorted(fresh.items()):
        max_rel, bound = rec.get("max_rel_err"), rec.get("rel_bound")
        if isinstance(max_rel, (int, float)) and isinstance(bound, (int, float)):
            if max_rel > bound:
                failures.append(
                    f"bound violation in {test}: max rel error {max_rel:.3e} "
                    f"exceeds the relative bound {bound:.3e}"
                )
    return failures


def check_quality(
    base: dict[str, dict], fresh: dict[str, dict], tolerance: float
) -> tuple[list[str], list[str]]:
    """(failures, notes) for point-wise error-quality drift.

    Per test, when both records carry the key (baselines recorded before
    quality stamping are skipped):

    * ``rel_p99`` growing more than ``tolerance`` beyond the baseline's
      fails -- the stream still honors the hard bound, but typical-point
      accuracy degraded;
    * ``rel_bias`` magnitude growing beyond ``tolerance`` of the
      baseline's magnitude fails, with the reference floored at 1e-9 so
      a near-zero baseline bias doesn't turn any nonzero fresh bias
      into a failure.

    Improvements (smaller p99, smaller |bias|) always pass.
    """
    failures, notes = [], []
    compared = 0
    for test, b in sorted(base.items()):
        f = fresh.get(test)
        if f is None:
            continue
        b_p99, f_p99 = b.get("rel_p99"), f.get("rel_p99")
        if (
            isinstance(b_p99, (int, float))
            and isinstance(f_p99, (int, float))
            and b_p99 > 0
        ):
            compared += 1
            if f_p99 > b_p99 * (1.0 + tolerance):
                failures.append(
                    f"quality regression in {test}: p99 rel error "
                    f"{b_p99:.3e} -> {f_p99:.3e} "
                    f"(tolerance {tolerance * 100:.0f}%)"
                )
        b_bias, f_bias = b.get("rel_bias"), f.get("rel_bias")
        if isinstance(b_bias, (int, float)) and isinstance(f_bias, (int, float)):
            floor = max(abs(b_bias), 1e-9)
            if abs(f_bias) > floor * (1.0 + tolerance):
                failures.append(
                    f"quality regression in {test}: signed rel bias "
                    f"{b_bias:+.3e} -> {f_bias:+.3e} "
                    f"(tolerance {tolerance * 100:.0f}% of baseline magnitude)"
                )
    if compared and not failures:
        notes.append(
            f"quality gate: p99 rel error and bias within tolerance "
            f"({compared} test(s))"
        )
    return failures, notes


def check_codec_path(base: dict[str, dict], fresh: dict[str, dict]) -> list[str]:
    """Fail tests whose entropy-coder variant differs from the baseline's.

    A throughput comparison between different coder implementations is
    meaningless -- a 10x vectorization win would mask any amount of
    regression elsewhere (and vice versa).  Baselines recorded before
    stamping existed are treated as ``"scalar"``, the only variant then.
    """
    failures = []
    for test, f in sorted(fresh.items()):
        b = base.get(test)
        f_path = f.get("codec_path")
        if b is None or f_path is None:
            continue
        b_path = b.get("codec_path", "scalar")
        if f_path != b_path:
            failures.append(
                f"codec-path mismatch in {test}: baseline recorded with "
                f"{b_path!r}, fresh run used {f_path!r}; timings are not "
                "comparable across coder implementations -- if the change is "
                "deliberate, re-record with --update-baselines"
            )
    return failures


def check_speedup(fresh: dict[str, dict], min_speedup: float) -> tuple[list[str], list[str]]:
    """(failures, notes) for the vectorization speedup gate.

    Only meaningful for the table3 report; callers gate on the file name.
    """
    ref = _PREVEC_REFERENCE
    rec = fresh.get(ref["test"])
    tp = rec.get("MB_per_s") if rec else None
    if not isinstance(tp, (int, float)) or tp <= 0:
        return [
            f"speedup gate: no fresh throughput for {ref['test']!r} "
            "(benchmark not run?)"
        ], []
    anchors = [
        f.get("MB_per_s")
        for t in ref["anchor_tests"]
        if isinstance((f := fresh.get(t, {})).get("MB_per_s"), (int, float))
        and f["MB_per_s"] > 0
    ]
    notes = []
    if anchors:
        machine = (sum(anchors) / len(anchors)) / ref["anchor_MB_s"]
        notes.append(
            f"speedup gate: host speed {machine:.3f}x of the reference host "
            f"({len(anchors)} preprocessing anchor(s))"
        )
    else:
        machine = 1.0
        notes.append(
            "speedup gate: no preprocessing anchors in the fresh report; "
            "comparing absolute throughput (unnormalized)"
        )
    speedup = tp / (ref["roundtrip_MB_s"] * machine)
    notes.append(
        f"speedup gate: round trip {tp:.3f} MB/s is {speedup:.2f}x the "
        f"pre-vectorization reference ({ref['roundtrip_MB_s']:.3f} MB/s, "
        f"machine-normalized; gate {min_speedup:.1f}x)"
    )
    failures = []
    if speedup < min_speedup:
        failures.append(
            f"vectorization speedup regression: {ref['test']} runs "
            f"{speedup:.2f}x the pre-vectorization reference, below the "
            f"required {min_speedup:.1f}x"
        )
    return failures, notes


def ledger_baseline(
    entries: list[dict],
    bench: str,
    window: int,
    exclude_run_id: str | None,
    fresh: dict[str, dict],
) -> tuple[dict[str, dict], int]:
    """Synthetic ``{test: record}`` baseline from a ledger's trailing runs.

    Per test: the median MB/s and ratio over the bench's last ``window``
    entries, skipping the fresh run's own appended entry
    (``exclude_run_id``) and any record taken with a different
    ``codec_path`` than the fresh one (not comparable).  Returns the
    synthetic baseline and how many runs fed it.
    """
    runs = [
        e for e in entries
        if e.get("bench") == bench and e.get("run_id") != exclude_run_id
    ]
    runs.sort(key=lambda e: e.get("ts") or 0.0)
    runs = runs[-window:]
    values: dict[str, dict[str, list[float]]] = {}
    for entry in runs:
        for rec in entry.get("records", ()):
            test = rec.get("test")
            if not isinstance(test, str):
                continue
            f_path = fresh.get(test, {}).get("codec_path")
            if f_path is not None and rec.get("codec_path", "scalar") != f_path:
                continue
            slot = values.setdefault(test, {"MB_per_s": [], "ratio": []})
            for key in ("MB_per_s", "ratio"):
                v = rec.get(key)
                if isinstance(v, (int, float)) and v > 0:
                    slot[key].append(float(v))
    synth: dict[str, dict] = {}
    for test, slot in values.items():
        rec: dict = {"test": test}
        for key, vals in slot.items():
            if vals:
                rec[key] = _median(vals)
        if len(rec) > 1:
            synth[test] = rec
    return synth, len(runs)


def check_ledger_trend(
    ledger_path: str,
    fresh_path: str,
    window: int,
    throughput_tol: float,
    ratio_tol: float,
) -> tuple[list[str], list[str]]:
    """(failures, notes) comparing a fresh report to its ledger trend."""
    try:
        from repro.observe.ledger import read_ledger
    except ImportError:  # pragma: no cover - src/ not on the path
        return [], ["ledger gate skipped: repro package not importable"]
    payload = load_payload(fresh_path)
    bench = payload.get("bench")
    run_id = (payload.get("stamp") or {}).get("run_id")
    fresh = {r["test"]: r for r in payload.get("records", []) if "test" in r}
    entries = read_ledger(ledger_path, strict=False)
    synth, n_runs = ledger_baseline(entries, bench, window, run_id, fresh)
    if not synth:
        return [], [
            f"ledger trend: no prior runs for bench {bench!r} in "
            f"{ledger_path} (gate bootstraps once history accumulates)"
        ]
    notes = [
        f"ledger trend: comparing against the median of the last "
        f"{n_runs} run(s), {len(synth)} test(s)"
    ]
    failures, extra = check_throughput(synth, fresh, throughput_tol)
    notes.extend(f"ledger trend: {n}" for n in extra)
    failures.extend(check_ratio(synth, fresh, ratio_tol))
    return [f"ledger trend: {f}" for f in failures], notes


def check_coverage(base: dict[str, dict], fresh: dict[str, dict]) -> tuple[list[str], list[str]]:
    missing = sorted(set(base) - set(fresh))
    new = sorted(set(fresh) - set(base))
    failures = [f"baseline test {t!r} missing from the fresh report" for t in missing]
    notes = [
        f"new test {t!r} has no baseline (run --update-baselines to record one)"
        for t in new
    ]
    return failures, notes


def compare_file(
    baseline_path: str,
    fresh_path: str,
    throughput_tol: float,
    ratio_tol: float,
    min_speedup: float = 0.0,
    quality_tol: float = 0.25,
) -> tuple[list[str], list[str]]:
    base = load_report(baseline_path)
    fresh = load_report(fresh_path)
    failures: list[str] = []
    notes: list[str] = []
    for fails, extra in (
        check_throughput(base, fresh, throughput_tol),
        check_coverage(base, fresh),
        check_quality(base, fresh, quality_tol),
    ):
        failures.extend(fails)
        notes.extend(extra)
    failures.extend(check_ratio(base, fresh, ratio_tol))
    failures.extend(check_codec_path(base, fresh))
    failures.extend(check_bounds(fresh))
    if min_speedup > 0 and os.path.basename(fresh_path) == _PREVEC_REFERENCE["report"]:
        fails, extra = check_speedup(fresh, min_speedup)
        failures.extend(fails)
        notes.extend(extra)
    return failures, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh-dir", default=".",
                        help="directory holding the freshly generated "
                             "BENCH_*.json reports (default: repo root)")
    parser.add_argument("--baseline-dir", default=DEFAULT_BASELINE_DIR,
                        help=f"committed baselines (default {DEFAULT_BASELINE_DIR})")
    parser.add_argument("--throughput-tolerance", type=float, default=0.10,
                        help="max tolerated throughput drop after median "
                             "normalization (default 0.10 = 10%%)")
    parser.add_argument("--ratio-tolerance", type=float, default=0.02,
                        help="max tolerated compression-ratio drop "
                             "(default 0.02 = 2%%)")
    parser.add_argument("--quality-tolerance", type=float, default=0.25,
                        help="max tolerated growth of the p99 relative "
                             "error (and of the signed-bias magnitude) vs "
                             "the baseline (default 0.25 = 25%%; the bench "
                             "inputs are deterministic, so real drift means "
                             "a code change -- re-record deliberate changes "
                             "with --update-baselines)")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required table3 round-trip speedup over the "
                             "frozen pre-vectorization reference, after "
                             "machine normalization (default 5.0; 0 disables). "
                             "Measured speedup on the reference workload is "
                             "7.6x-10x depending on run noise; the default "
                             "leaves headroom so the gate trips on real "
                             "regressions, not scheduler jitter")
    parser.add_argument("--update-baselines", action="store_true",
                        help="copy the fresh reports over the baselines "
                             "instead of comparing (commit the result)")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="also gate on the perf-ledger trend: compare "
                             "each fresh report to the median of its last "
                             "--ledger-window runs in this ledger file "
                             "(default: off)")
    parser.add_argument("--ledger-window", type=int, default=5,
                        help="ledger runs feeding the trend median "
                             "(default 5)")
    parser.add_argument("--ledger-tolerance", type=float, default=0.15,
                        help="max tolerated throughput drop vs the ledger "
                             "trend median, after normalization "
                             "(default 0.15 = 15%%; wider than the baseline "
                             "gate because the trailing median drifts)")
    args = parser.parse_args(argv)
    if not 0 < args.throughput_tolerance < 1 or not 0 < args.ratio_tolerance < 1:
        parser.error("tolerances must be in (0, 1)")
    if not 0 < args.quality_tolerance < 1:
        parser.error("--quality-tolerance must be in (0, 1)")
    if args.min_speedup < 0:
        parser.error("--min-speedup must be >= 0")
    if args.ledger is not None and args.ledger_window < 1:
        parser.error("--ledger-window must be >= 1")
    if not 0 < args.ledger_tolerance < 1:
        parser.error("--ledger-tolerance must be in (0, 1)")

    fresh_files = sorted(glob.glob(os.path.join(args.fresh_dir, "BENCH_*.json")))
    if args.update_baselines:
        if not fresh_files:
            print(f"error: no BENCH_*.json in {args.fresh_dir} to promote",
                  file=sys.stderr)
            return 1
        os.makedirs(args.baseline_dir, exist_ok=True)
        for path in fresh_files:
            dest = os.path.join(args.baseline_dir, os.path.basename(path))
            shutil.copyfile(path, dest)
            print(f"baseline updated: {dest}")
        return 0

    baseline_files = sorted(glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json")))
    if not baseline_files:
        if args.ledger is None:
            print(f"error: no baselines in {args.baseline_dir}; run with "
                  "--update-baselines to record them", file=sys.stderr)
            return 1
        # Ledger-only mode: the trend gate below still applies.
        print(f"note: no baselines in {args.baseline_dir}; "
              "gating on the ledger trend only")

    all_failures: list[str] = []
    for baseline_path in baseline_files:
        name = os.path.basename(baseline_path)
        fresh_path = os.path.join(args.fresh_dir, name)
        print(f"== {name}")
        if not os.path.exists(fresh_path):
            all_failures.append(f"{name}: fresh report missing (benchmark not run?)")
            print(f"   FAIL: no fresh report at {fresh_path}")
            continue
        failures, notes = compare_file(
            baseline_path, fresh_path,
            args.throughput_tolerance, args.ratio_tolerance,
            args.min_speedup, args.quality_tolerance,
        )
        for note in notes:
            print(f"   note: {note}")
        for failure in failures:
            print(f"   FAIL: {failure}")
        if not failures:
            print("   OK")
        all_failures.extend(f"{name}: {f}" for f in failures)
    for path in fresh_files:
        name = os.path.basename(path)
        if os.path.exists(os.path.join(args.baseline_dir, name)):
            continue
        # No committed baseline yet -- the baseline-independent gate
        # (bound conformance) still applies.
        print(f"== {name}\n   note: no baseline (run --update-baselines)")
        failures = check_bounds(load_report(path))
        for failure in failures:
            print(f"   FAIL: {failure}")
        all_failures.extend(f"{name}: {f}" for f in failures)

    if args.ledger is not None:
        for path in fresh_files:
            name = os.path.basename(path)
            print(f"== {name} (ledger trend)")
            failures, notes = check_ledger_trend(
                args.ledger, path,
                args.ledger_window, args.ledger_tolerance, args.ratio_tolerance,
            )
            for note in notes:
                print(f"   note: {note}")
            for failure in failures:
                print(f"   FAIL: {failure}")
            if not failures:
                print("   OK")
            all_failures.extend(f"{name}: {f}" for f in failures)

    if all_failures:
        print(f"\nFAIL: {len(all_failures)} regression(s)", file=sys.stderr)
        return 1
    print("\nOK: all benchmarks within tolerance of their baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
