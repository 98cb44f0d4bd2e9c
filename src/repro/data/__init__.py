"""Synthetic HPC application datasets (Table I substitute).

The paper evaluates on real snapshots of HACC, CESM-ATM, NYX and Hurricane
ISABEL.  Those multi-GB datasets are not redistributable here, so this
package synthesizes fields with the same statistical fingerprints the
paper's effects depend on -- value distribution (log-normal densities,
signed velocities, [0,1] fractions), smoothness spectrum, zero fraction
and sign structure -- at laptop-friendly sizes.  DESIGN.md section 2
documents the substitution argument.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.data.datasets import (
        APPLICATIONS,
        Field,
        application_names,
        field_names,
        load_field,
    )
    from repro.data.generators import gaussian_random_field, spectral_noise

__all__ = [
    "APPLICATIONS",
    "Field",
    "application_names",
    "field_names",
    "gaussian_random_field",
    "load_field",
    "spectral_noise",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.data.datasets": (
        "APPLICATIONS", "Field", "application_names", "field_names", "load_field",
    ),
    "repro.data.generators": ("gaussian_random_field", "spectral_noise"),
})
