"""Figure 4: multiprecision distortion at equal compression ratio.

The paper fixes CR ~= 7 on NYX ``dark_matter_density``, compresses with
SZ_ABS (absolute bound), FPZIP and SZ_T, and inspects a slice both over
the full [0, 1] range and zoomed into [0, 0.1]: the absolute bound wrecks
the small-value (dense) regions; FPZIP keeps them but needs a sloppy 0.5
relative bound to reach the ratio, distorting mid-range values; SZ_T
reaches the same ratio at a ~3x tighter relative bound.

This module regenerates the figure as PGM panels (plus ASCII previews)
and, quantitatively, the per-compressor relative bound achieved at the
common ratio and per-value-range error statistics.
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.compressors import AbsoluteBound, PrecisionBound, RelativeBound, get_compressor
from repro.compressors.fpzip import max_relative_error
from repro.data import load_field
from repro.experiments.common import Table
from repro.metrics.error import measure_errors
from repro.viz import save_pgm, to_gray

__all__ = ["run", "tune_bound_for_ratio"]

TARGET_RATIO = 7.0
_SLICE = 0.5  # relative slice position (paper: slice 100 of 512)


def tune_bound_for_ratio(
    compress,
    lo: float,
    hi: float,
    target: float,
    nbytes: int,
    iters: int = 18,
    tol: float = 0.03,
) -> tuple[float, bytes]:
    """Bisect a monotone bound parameter until CR hits ``target``.

    ``compress(bound) -> blob``; assumes ratio grows with the bound.
    """
    blob_best = None
    bound_best = hi
    for _ in range(iters):
        mid = math.sqrt(lo * hi)  # geometric bisection: bounds span decades
        blob = compress(mid)
        ratio = nbytes / len(blob)
        if abs(ratio - target) / target <= tol:
            return mid, blob
        if ratio > target:
            hi = mid
            bound_best, blob_best = mid, blob
        else:
            lo = mid
    if blob_best is None:
        blob_best = compress(hi)
        bound_best = hi
    return bound_best, blob_best


def run(scale: float = 1.0, out_dir: str | None = None, target: float = TARGET_RATIO) -> Table:
    data = load_field("NYX", "dark_matter_density", scale=scale)
    nbytes = data.nbytes

    panels: dict[str, np.ndarray] = {}
    table = Table(
        title=f"Figure 4 -- multiprecision distortion at CR ~= {target:g} (NYX dmd)",
        columns=[
            "compressor", "achieved CR", "eq. rel bound",
            "max rel err", "avg rel err [0,0.1]", "max abs err [0,0.1]",
        ],
    )

    # SZ_ABS: absolute bound tuned to the target ratio.
    sz_abs = get_compressor("SZ_ABS")
    eb, blob = tune_bound_for_ratio(
        lambda b: sz_abs.compress(data, AbsoluteBound(b)),
        1e-6 * float(data.max()), float(data.max()), target, nbytes,
    )
    panels["SZ_ABS"] = sz_abs.decompress(blob)
    _add_row(table, "SZ_ABS", nbytes / len(blob), f"abs {eb:.3g}", data, panels["SZ_ABS"])

    # FPZIP: precision lowered until the ratio is reached.
    fpzip = get_compressor("FPZIP")
    best = None
    for p in range(32, 9, -1):
        blob = fpzip.compress(data, PrecisionBound(p))
        if nbytes / len(blob) >= target:
            best = (p, blob)
            break
    if best is None:
        raise RuntimeError(f"FPZIP cannot reach ratio {target} on this field")
    p, blob = best
    panels["FPZIP"] = fpzip.decompress(blob)
    _add_row(
        table, "FPZIP", nbytes / len(blob),
        f"rel {max_relative_error(p, data.dtype):.3g}", data, panels["FPZIP"],
    )

    # SZ_T: relative bound tuned to the target ratio.
    sz_t = get_compressor("SZ_T")
    br, blob = tune_bound_for_ratio(
        lambda b: sz_t.compress(data, RelativeBound(b)), 1e-6, 0.9, target, nbytes,
    )
    panels["SZ_T"] = sz_t.decompress(blob)
    _add_row(table, "SZ_T", nbytes / len(blob), f"rel {br:.3g}", data, panels["SZ_T"])

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        k = int(data.shape[0] * _SLICE)
        save_pgm(os.path.join(out_dir, "fig4_original.pgm"), to_gray(data[k], 0, 1))
        save_pgm(os.path.join(out_dir, "fig4_original_zoom.pgm"), to_gray(data[k], 0, 0.1))
        for name, recon in panels.items():
            save_pgm(os.path.join(out_dir, f"fig4_{name}.pgm"), to_gray(recon[k], 0, 1))
            save_pgm(os.path.join(out_dir, f"fig4_{name}_zoom.pgm"), to_gray(recon[k], 0, 0.1))
    table.notes.append(
        "paper: at CR 7, FPZIP needs rel bound 0.5 vs SZ_T's 0.15; SZ_ABS "
        "distorts the dense [0,0.1] region"
    )
    return table


def _add_row(table: Table, name: str, ratio: float, setting: str, data, recon) -> None:
    focus = (data > 0) & (data <= 0.1)
    dense = measure_errors(data[focus], recon[focus])
    table.add(
        name, ratio, setting,
        measure_errors(data, recon).max_rel, dense.avg_rel, dense.max_abs,
    )
