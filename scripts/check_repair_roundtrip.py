#!/usr/bin/env python
"""Seeded fault-injection gate: repair round-trips over corrupted parity-bearing streams.

Usage::

    PYTHONPATH=src python scripts/check_repair_roundtrip.py \
        [--seed 0] [--trials 25] [--report repair-report.json]

Each trial compresses a random field into a parity-bearing CHUNKED
stream, injects a random fault pattern whose per-group losses stay
within the parity budget -- chunk bit flips, tail truncation, parity
damage, or chunk headers whose codec-name length byte is zeroed -- and
asserts that :func:`repro.integrity.repair_stream` returns
the *byte-exact* original (so the stream CRC vouches for the repair).
A final over-budget trial asserts clean degradation: losses reported,
no crash, intact chunks still recoverable.

Every random choice derives from ``--seed``, so a CI failure reproduces
exactly by re-running with the same seed locally.  The per-trial
``RepairReport`` dicts are written to ``--report`` for artifact upload.
Exit status: 0 = every trial repaired byte-exactly, 1 = any mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro import RelativeBound, verify_stream
from repro.core.chunked import ChunkedCompressor
from repro.inspection import inspect_stream
from repro.integrity import repair_stream
from repro.testing import corrupt_chunk, corrupt_section, truncate

BOUND = RelativeBound(1e-2)


def make_stream(rng: np.random.Generator, parity: int, group_size: int):
    """A fresh parity-bearing stream over a random lognormal field."""
    n_chunks = int(rng.integers(3, 13))
    elems_per_chunk = 1000
    data = rng.lognormal(0.0, 1.0, size=n_chunks * elems_per_chunk)
    data = data.astype(np.float32)
    cc = ChunkedCompressor(
        chunk_bytes=elems_per_chunk * 4,
        parity=parity,
        group_size=group_size,
        executor="serial",
    )
    blob = cc.compress(data, BOUND)
    return blob, cc.last_chunk_count


def inject(rng: np.random.Generator, blob: bytes, n_chunks: int,
           parity: int, group_size: int) -> tuple[bytes, str]:
    """One random repairable fault pattern: ``(damaged_bytes, label)``."""
    kind = rng.choice(["chunks", "truncate", "parity", "header"])
    if kind == "header":
        # One chunk per group loses its codec name: a header that names
        # no codec at all, which readers must report, not trip over.
        chunks = inspect_stream(blob).chunks
        damaged = bytearray(blob)
        hit = []
        for g in range(0, n_chunks, group_size):
            index = int(rng.integers(g, min(g + group_size, n_chunks)))
            damaged[chunks[index].start + 5] = 0
            hit.append(index)
        return bytes(damaged), f"header{hit}"
    if kind == "truncate":
        # Cut into the last chunk only -- one erasure in the last group.
        cut = int(rng.integers(1, 200))
        return truncate(blob, len(blob) - cut), f"truncate[-{cut}]"
    if kind == "parity":
        damaged = corrupt_section(blob, "parity", n_bits=1,
                                  seed=int(rng.integers(2**31)))
        return damaged, "parity-bits"
    damaged = blob
    hit = []
    for g in range(0, n_chunks, group_size):
        members = list(range(g, min(g + group_size, n_chunks)))
        n_lost = int(rng.integers(1, min(parity, len(members)) + 1))
        for index in rng.choice(members, size=n_lost, replace=False):
            damaged = corrupt_chunk(damaged, int(index), n_bits=2,
                                    seed=int(rng.integers(2**31)))
            hit.append(int(index))
    return damaged, f"chunks{sorted(hit)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write per-trial RepairReport JSON to PATH")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    records = []
    failures = 0
    for trial in range(args.trials):
        parity = int(rng.integers(1, 3))
        group_size = int(rng.integers(4, 9))
        blob, n_chunks = make_stream(rng, parity, group_size)
        damaged, label = inject(rng, blob, n_chunks, parity, group_size)
        fixed, report = repair_stream(damaged)
        exact = fixed == blob
        ok = report.ok and exact and verify_stream(fixed).ok
        failures += not ok
        records.append({
            "trial": trial, "fault": label, "parity_k": parity,
            "group_size": group_size, "byte_exact": exact,
            "report": report.to_dict(),
        })
        status = "ok" if ok else "FAIL"
        print(f"trial {trial:3d}: k={parity} m={group_size} "
              f"{label:<24s} {report.summary()} [{status}]")

    # Over-budget sanity: more losses than parity must degrade, not crash.
    blob, n_chunks = make_stream(rng, parity=1, group_size=8)
    damaged = blob
    for index in range(min(3, n_chunks)):
        damaged = corrupt_chunk(damaged, index, seed=int(rng.integers(2**31)))
    fixed, report = repair_stream(damaged)
    degraded_ok = (not report.ok) and report.n_lost >= 2
    failures += not degraded_ok
    records.append({
        "trial": "over-budget", "fault": "chunks[0..2] with k=1",
        "byte_exact": False, "report": report.to_dict(),
    })
    print(f"over-budget: {report.summary()} "
          f"[{'ok' if degraded_ok else 'FAIL'}]")

    if args.report:
        with open(args.report, "w") as fh:
            json.dump({"seed": args.seed, "failures": failures,
                       "records": records}, fh, indent=2)
    if failures:
        print(f"FAILED: {failures} trial(s) did not round-trip", file=sys.stderr)
        return 1
    print(f"all {args.trials} repair trials round-tripped byte-exactly "
          f"(seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
