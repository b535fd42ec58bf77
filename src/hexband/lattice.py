"""Lattice-level model description: stack variants, their layouts, parameters,
quasimomentum.

A unit cell of the hexagonal lattice carries two vertices per layer (the a/b
sublattices).  Vertex coupling constants alpha are the Robin data divided by
the slope normalization of the edge eigenbasis; the inter-layer coupling t0
(or the pair t_a, t_b) enters quadratically.  The structure function

    F(theta) = 1 + exp(i theta1) + exp(i theta2)

collects the three in-cell/neighbor-cell hops of one sublattice; |F|^2 spans
[0, 9] with zeros exactly at +-(2pi/3, -2pi/3) and maximum at (0, 0).

``LAYOUTS`` is the one place that says how each variant is built: which alpha
roles its layers carry and which vertices its inter-layer edges join, with
which coupling.  A variant's dimension, the settings it reads and where its
closed forms exist all follow from its layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import GridError, InputError

ADMISSIBILITY_TOL = 1e-12  # |eta| <= 1 + tol counts as spectrally admissible


# ============================================================
#  Stack variants
# ============================================================

class StackVariant(Enum):
    """Supported layer stackings."""

    MONOLAYER = "monolayer"
    BILAYER_AA = "bilayer_aa"
    BILAYER_AA_TWO_PARAM = "bilayer_aa_two_param"
    BILAYER_AA_PRIME = "bilayer_aa_prime"
    HETERO_BILAYER = "hetero_bilayer"
    TRILAYER_HBN_G_HBN = "trilayer_hbn_g_hbn"
    TRILAYER_G_HBN_G = "trilayer_g_hbn_g"
    MAGNETIC_MONOLAYER = "magnetic_monolayer"


@dataclass(frozen=True)
class Layout:
    """How a stack is built from hexagonal layers, its vertices numbered
    (a1, b1, a2, b2, ...).  A layer "ab" decorates its (a, b) vertices with
    alpha_a and alpha_b, a plain layer "cc" both with alpha_c.  A bond
    (i, j, field) is an inter-layer edge of weight field**2, and each vertex
    scale is T = 3 + (sum of its bond weights) (Kuchment & Post, Commun.
    Math. Phys. 275, 2007).  A flux layout threads each hexagon with the
    flux p/q of ``flux_p`` and ``flux_q``."""

    layers: tuple[str, ...]
    bonds: tuple[tuple[int, int, str], ...] = ()
    flux: bool = False

    @property
    def fields(self) -> frozenset[str]:
        """The stack settings the layout reads."""
        return frozenset({"alpha_" + r for layer in self.layers for r in layer}
                         | {name for _, _, name in self.bonds}
                         | ({"flux_p", "flux_q"} if self.flux else set()))

    @property
    def paired(self) -> bool:
        """Whether the closed forms need the diagonal slice with
        alpha_b = -alpha_a and alpha_c = 0: the stacks with a plain layer."""
        return "cc" in self.layers


_AA = ((0, 2, "t0"), (1, 3, "t0"))            # a over a, b over b
_AA_PRIME = ((0, 3, "t0"), (1, 2, "t0"))      # a over b, b over a
_TRILAYER = _AA_PRIME + ((2, 5, "t0"), (3, 4, "t0"))

LAYOUTS = {
    StackVariant.MONOLAYER: Layout(("ab",)),
    StackVariant.BILAYER_AA: Layout(("ab", "ab"), _AA),
    StackVariant.BILAYER_AA_TWO_PARAM: Layout(("ab", "ab"),
                                              ((0, 2, "t_a"), (1, 3, "t_b"))),
    StackVariant.BILAYER_AA_PRIME: Layout(("ab", "ab"), _AA_PRIME),
    StackVariant.HETERO_BILAYER: Layout(("ab", "cc"), _AA_PRIME),
    StackVariant.TRILAYER_HBN_G_HBN: Layout(("ab", "cc", "ab"), _TRILAYER),
    StackVariant.TRILAYER_G_HBN_G: Layout(("cc", "ab", "cc"), _TRILAYER),
    # the q = 1 flux cell is the monolayer; the q = 2 cell's gauge-fixed
    # rows live in the magnetic module
    StackVariant.MAGNETIC_MONOLAYER: Layout(("ab",), flux=True),
}


# ============================================================
#  Parameter records
# ============================================================

@dataclass(frozen=True)
class VertexParams:
    """Robin vertex constants per sublattice (alpha_c for a third species)."""

    alpha_a: float = 0.0
    alpha_b: float = 0.0
    alpha_c: float = 0.0


@dataclass(frozen=True)
class CouplingParams:
    """Inter-layer coupling strengths.

    ``t0`` is the single coupling used by most variants, constrained to (0, 1].
    The two-parameter bilayer uses ``t_a``/``t_b`` instead (same constraint).
    """

    t0: float | None = None
    t_a: float | None = None
    t_b: float | None = None

    def __post_init__(self) -> None:
        for name, value in (("t0", self.t0), ("t_a", self.t_a), ("t_b", self.t_b)):
            if value is None:
                continue
            if not (0.0 < value <= 1.0):
                raise InputError(
                    f"coupling {name}={value!r} outside the open-closed range (0, 1]"
                )


@dataclass(frozen=True)
class FluxSpec:
    """Rational magnetic flux p/q per hexagon (in units of 2 pi).

    Stored gcd-reduced.  ``p`` must be positive; the Robin magnetic lattice
    supports q in {1, 2}.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise InputError("flux p and q must be integers")
        if self.p <= 0 or self.q <= 0:
            raise InputError(f"flux p/q = {self.p}/{self.q} must be positive")
        g = math.gcd(self.p, self.q)
        if g != 1:
            object.__setattr__(self, "p", self.p // g)
            object.__setattr__(self, "q", self.q // g)


@dataclass(frozen=True)
class StackConfig:
    """Full description of one periodic structure."""

    variant: StackVariant
    vertex: VertexParams = field(default_factory=VertexParams)
    coupling: CouplingParams | None = None
    flux: FluxSpec | None = None

    def __post_init__(self) -> None:
        v = self.variant
        wanted = {name for _, _, name in self.layout.bonds}
        couplings = vars(self.coupling or CouplingParams()).items()
        given = {name for name, value in couplings if value is not None}
        if given - wanted:
            raise InputError(f"{v.value} does not read the coupling "
                             f"{' or '.join(sorted(given - wanted))}")
        if wanted - given:
            raise InputError(
                f"{v.value} requires {' and '.join(sorted(wanted - given))}")
        if self.layout.flux:
            if self.flux is None:
                raise InputError("magnetic monolayer requires a flux specification")
            if self.flux.q not in (1, 2):
                raise InputError(
                    f"Robin magnetic lattice supports q in {{1, 2}}, got q={self.flux.q}"
                )
        elif self.flux is not None:
            raise InputError(f"{v.value} does not take a flux specification")

    @property
    def layout(self) -> Layout:
        return LAYOUTS[self.variant]

    @property
    def dim(self) -> int:
        """Number of dispersion branches (vertices per period cell)."""
        return 2 * (self.flux.q if self.flux else len(self.layout.layers))


# ============================================================
#  Structure function and sampling grids
# ============================================================

def structure_function(theta1, theta2):
    """F(theta) = 1 + exp(i theta1) + exp(i theta2) (vectorized)."""
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    return 1.0 + np.exp(1j * t1) + np.exp(1j * t2)


def _theta_batch(theta1, theta2=None):
    """theta as equal-length 1-D float arrays, and whether both were scalars;
    theta2 defaults to -theta1.  Equal-length 1-D arrays pass as they are:
    the refiners make hundreds of small calls a job."""
    t1 = np.asarray(theta1, dtype=float)
    t2 = -t1 if theta2 is None else np.asarray(theta2, dtype=float)
    if t1.ndim == 1 and t1.shape == t2.shape:
        return t1, t2, False
    t1, t2 = np.broadcast_arrays(t1, t2)
    return t1.reshape(-1), t2.reshape(-1), t1.ndim == 0


def _require_array_size(points: int, what: str) -> None:
    """Refuse, as a ``GridError``, a sampling of more float64 values than
    one numpy array holds (numpy's own refusal is a bare ``ValueError``)."""
    if points > np.iinfo(np.intp).max // 8:
        raise GridError(f"{what} is past numpy's array limit")


def diagonal_slice(n: int) -> np.ndarray:
    """n equally spaced theta1 values on [-pi, pi] (inclusive) for theta2 = -theta1.

    On this slice the structure function is real: F = 1 + 2 cos(theta1).
    """
    if not isinstance(n, int) or n < 2:
        raise GridError(f"diagonal slice needs an integer n >= 2, got {n!r}")
    _require_array_size(n, f"a diagonal slice of {n} points")
    return np.linspace(-np.pi, np.pi, n)


def full_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Meshgrid (indexing='ij') of an inclusive n x n grid over [-pi, pi]^2.

    The axis is mirror-symmetric bit for bit: its upper half is the negated
    lower half of ``linspace``, and the centre of an odd n is 0.0.  Each
    moves by less than 1.2e-15, toward the exact grid (n = 71 moves none).
    So theta and -theta give conjugate F at every grid point, and
    ``bands.roots_at`` serves each such pair with one engine row.
    """
    if not isinstance(n, int) or n < 2:
        raise GridError(f"full grid needs an integer n >= 2, got {n!r}")
    _require_array_size(n * n, f"a full grid of {n} x {n} points")
    axis = np.linspace(-np.pi, np.pi, n)
    half = n // 2
    axis[n - half:] = -axis[:half][::-1]
    if n % 2:
        axis[half] = 0.0
    return np.meshgrid(axis, axis, indexing="ij")
