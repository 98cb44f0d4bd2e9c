"""Parallel-execution substrate (the paper's Section VI-F testbed).

The paper times file-per-process dumping/loading of NYX on a GPFS
supercomputer at 1024-4096 cores.  Without that machine we provide:

* :mod:`repro.parallel.comm` -- an in-process, mpi4py-shaped SPMD
  communicator (threads + barriers) so rank-structured code runs and is
  testable on one machine;
* :mod:`repro.parallel.io_model` -- a GPFS contention model anchored on
  the aggregate bandwidths implied by the paper's own uncompressed
  dump/load times;
* :mod:`repro.parallel.cluster` -- the simulated cluster combining
  *measured* per-rank compressor rates/ratios with the I/O model to
  regenerate Figure 6's dump/load breakdowns at any rank count.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.parallel.cluster import (
        CompressorProfile,
        DumpLoadBreakdown,
        SimulatedCluster,
        measure_profile,
    )
    from repro.parallel.comm import FakeComm, run_spmd
    from repro.parallel.io_model import GPFSModel
    from repro.parallel.runner import (
        DumpSummary,
        RankTiming,
        dump_file_per_process,
        load_file_per_process,
    )

__all__ = [
    "CompressorProfile",
    "DumpLoadBreakdown",
    "DumpSummary",
    "RankTiming",
    "dump_file_per_process",
    "load_file_per_process",
    "FakeComm",
    "GPFSModel",
    "SimulatedCluster",
    "measure_profile",
    "run_spmd",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.parallel.cluster": (
        "CompressorProfile", "DumpLoadBreakdown", "SimulatedCluster", "measure_profile",
    ),
    "repro.parallel.comm": ("FakeComm", "run_spmd"),
    "repro.parallel.io_model": ("GPFSModel",),
    "repro.parallel.runner": (
        "DumpSummary", "RankTiming", "dump_file_per_process", "load_file_per_process",
    ),
})
