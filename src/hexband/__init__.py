"""hexband: band-structure engine for periodic quantum graphs on hexagonal lattices.

The package computes dispersion relations eta(theta) for mono-, bi-, and
trilayer hexagonal structures with Robin vertex data, classifies band touches
(conical, parabolic, crossings, gaps), maps the dispersion variable back to
physical spectra through Hill-discriminant analysis, and covers rational
magnetic flux variants.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EngineError,
    GridError,
    InputError,
    NoClosedFormError,
    ResolutionError,
    ValidationError,
    VariantError,
)
from .lattice import (
    ADMISSIBILITY_TOL,
    CouplingParams,
    FluxSpec,
    StackConfig,
    StackVariant,
    VertexParams,
    diagonal_slice,
    full_grid,
    structure_function,
)
from .floquet import (
    DispersionRoots,
    FloquetMatrix,
    assemble,
    char_poly,
    closed_form_roots,
    numeric_roots,
)
from .hill import (
    LambdaInterval,
    Monodromy,
    PotentialSpec,
    SpectrumResult,
    bands_from_root_surface,
    dirichlet_spectrum,
    discriminant,
    integrate_monodromy,
    invert_discriminant,
)
from .bands import (
    DispersionSurface,
    TouchReport,
    adjacent_separations,
    classify_touches,
    diagonal_theta_for_f,
    gap_width_closed_form,
    roots_at,
    sample_diagonal,
)
from .magnetic import (
    assemble_robin,
    closed_form_roots_q2,
    g_function,
    magnetic_classify,
    q2_quartic_coeffs,
    reduced_zone_grid,
)

__all__ = [
    "ADMISSIBILITY_TOL",
    "ConfigError",
    "CouplingParams",
    "DispersionRoots",
    "DispersionSurface",
    "EngineError",
    "FloquetMatrix",
    "FluxSpec",
    "GridError",
    "InputError",
    "LambdaInterval",
    "Monodromy",
    "NoClosedFormError",
    "PotentialSpec",
    "ResolutionError",
    "SpectrumResult",
    "StackConfig",
    "StackVariant",
    "TouchReport",
    "ValidationError",
    "VariantError",
    "VertexParams",
    "__version__",
    "adjacent_separations",
    "assemble",
    "assemble_robin",
    "bands_from_root_surface",
    "char_poly",
    "classify_touches",
    "closed_form_roots",
    "closed_form_roots_q2",
    "diagonal_slice",
    "diagonal_theta_for_f",
    "dirichlet_spectrum",
    "discriminant",
    "full_grid",
    "g_function",
    "gap_width_closed_form",
    "integrate_monodromy",
    "invert_discriminant",
    "magnetic_classify",
    "numeric_roots",
    "q2_quartic_coeffs",
    "reduced_zone_grid",
    "roots_at",
    "sample_diagonal",
    "structure_function",
]
