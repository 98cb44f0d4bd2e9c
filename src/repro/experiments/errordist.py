"""Error-distribution study (supplementary; the paper's reference [7]).

Compresses NYX fields with SZ_ABS and ZFP_A at the same absolute bound
and characterizes the signed error distributions: SZ's linear-scaling
quantization is near-uniform over the bound and uses the whole budget;
ZFP's transform-domain truncation is bell-shaped and over-preserving.
The same contrast carries into the log domain for SZ_T vs ZFP_T, which is
why ZFP_T's maximum relative error sits so far below the bound in
Table IV.
"""

from __future__ import annotations

import numpy as np

from repro.compressors import AbsoluteBound, RelativeBound, get_compressor
from repro.data import load_field
from repro.experiments.common import Table
from repro.metrics.distribution import error_autocorrelation, error_distribution
from repro.metrics.error import relative_residuals

__all__ = ["run"]

FIELDS = ("dark_matter_density", "temperature")


def run(scale: float = 1.0) -> Table:
    table = Table(
        title="Error distributions -- SZ (uniform) vs ZFP (bell-shaped)",
        columns=[
            "field", "compressor", "bound kind", "std/bound", "kurtosis",
            "KS uniform", "KS normal", "verdict", "fill", "lag-1 autocorr",
        ],
    )
    for fname in FIELDS:
        data = load_field("NYX", fname, scale=scale)
        eb = 1e-3 * float(abs(data).max())
        cases = [
            ("SZ_ABS", AbsoluteBound(eb), eb, "abs"),
            ("ZFP_A", AbsoluteBound(eb), eb, "abs"),
            ("SZ_T", RelativeBound(1e-2), 1e-2, "rel"),
            ("ZFP_T", RelativeBound(1e-2), 1e-2, "rel"),
        ]
        for cname, bound, ebv, kind in cases:
            comp = get_compressor(cname)
            recon = comp.decompress(comp.compress(data, bound))
            if kind == "abs":
                dist = error_distribution(data, recon, ebv)
            else:
                # relative errors scaled per point: err/|x| vs the bound
                rel = relative_residuals(data, recon)
                dist = error_distribution(np.zeros_like(rel), rel, ebv)
            verdict = "uniform" if dist.looks_uniform else "normal-ish"
            ac1 = float(error_autocorrelation(data, recon, 1)[0])
            table.add(
                fname, cname, kind, dist.std, dist.excess_kurtosis,
                dist.uniform_ks, dist.normal_ks, verdict, dist.fill, ac1,
            )
    table.notes.append(
        "reference [7]: SZ errors ~ uniform on [-eb, eb] (std/bound ~ 0.58, "
        "kurtosis ~ -1.2, full fill) and spatially white; ZFP errors "
        "bell-shaped, over-preserved and correlated within blocks"
    )
    return table
