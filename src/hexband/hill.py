"""Hill-discriminant analysis on the unit edge: monodromy, bands, inversion.

Every edge of the graph carries the same operator -y'' + q y with an even
potential q(x) = q(1 - x) on [0, 1].  The monodromy matrix at energy lambda is

    W(lambda) = [[c(1), s(1)], [c'(1), s'(1)]],   det W = 1,

built from the cosine/sine-type solutions (c(0)=1, c'(0)=0; s(0)=0, s'(0)=1).
The discriminant d(lambda) = c(1) + s'(1) controls everything: the dispersion
variable is eta = d(lambda)/2, Hill bands are the closures of {|d| < 2}, and
the Dirichlet spectrum {s(1; lambda) = 0} carries the flat (point-spectrum)
part, excluded from the band inversion.

The vertex-weighted discriminant mu_alpha(z) = c(1; z) + (alpha/2) s(1; z)
uses the convention alpha(v) = (alpha/2) deg(v); the alternative bookkeeping
alpha(v) = alpha deg(v) is exposed through ``convention="full"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import BandEdgeError, EngineError, InputError

WRONSKIAN_TOL = 1e-8          # |det W - 1| gate on every integration
EVENNESS_TOL = 1e-10          # |q(x) - q(1-x)| bound at construction,
                              # relative to max(1, max |q|)
DIRICHLET_WINDOW = 1e-8       # exclusion window around point spectrum
_ODE_TOL = 1e-10
_SMALL_LAMBDA = 1e-8          # switch to series solutions near lambda = 0


# ============================================================
#  Potential specification
# ============================================================

@dataclass(frozen=True)
class PotentialSpec:
    """Edge potential: identically zero, sampled two-column data, or a callable."""

    kind: str                                  # "zero" | "sampled" | "closure"
    x: np.ndarray | None = None                # sampled abscissae (increasing)
    values: np.ndarray | None = None           # sampled q values
    func: object | None = field(default=None, compare=False)

    @staticmethod
    def zero() -> "PotentialSpec":
        return PotentialSpec(kind="zero")

    @staticmethod
    def sampled(x, values) -> "PotentialSpec":
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != values.shape or len(x) < 2:
            raise InputError("sampled potential needs two equal-length 1-d columns")
        if np.any(np.diff(x) <= 0.0):
            raise InputError("sampled potential abscissae must be strictly increasing")
        if x[0] > 1e-12 or x[-1] < 1.0 - 1e-12:
            raise InputError("sampled potential must cover [0, 1]")
        spec = PotentialSpec(kind="sampled", x=x, values=values)
        spec._check_even()
        return spec

    @staticmethod
    def from_file(path) -> "PotentialSpec":
        try:
            data = np.loadtxt(path)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read sampled potential from {path!r}: {exc}")
        if data.ndim != 2 or data.shape[1] != 2:
            raise InputError("potential file must have exactly two columns")
        return PotentialSpec.sampled(data[:, 0], data[:, 1])

    @staticmethod
    def closure(func) -> "PotentialSpec":
        if not callable(func):
            raise InputError("closure potential must be callable")
        spec = PotentialSpec(kind="closure", func=func)
        spec._check_even()
        return spec

    def _check_even(self) -> None:
        probe = np.linspace(0.0, 1.0, 1001)
        q = self(probe)
        dev = float(np.max(np.abs(q - self(1.0 - probe))))
        # relative to the potential's size: interpolating q(1 - x) rounds
        # at the scale of max |q|
        if not dev <= EVENNESS_TOL * max(1.0, float(np.max(np.abs(q)))):
            raise InputError(
                f"potential is not even about x = 1/2 (max |q(x) - q(1-x)| = {dev:g})"
            )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "sampled":
            return np.interp(x, self.x, self.values)
        if self.kind == "closure":
            return np.asarray(self.func(x), dtype=float)
        raise InputError(f"unknown potential kind {self.kind!r}")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


# ============================================================
#  Monodromy
# ============================================================

@dataclass(frozen=True)
class Monodromy:
    """Endpoint data of the cosine/sine solutions at one energy."""

    lam: float
    c1: float
    c1_prime: float
    s1: float
    s1_prime: float

    @property
    def det(self) -> float:
        return self.c1 * self.s1_prime - self.c1_prime * self.s1

    @property
    def discriminant(self) -> float:
        return self.c1 + self.s1_prime


def _zero_potential_monodromy(lam: float) -> Monodromy:
    if lam > _SMALL_LAMBDA:
        w = np.sqrt(lam)
        return Monodromy(lam, np.cos(w), -w * np.sin(w), np.sin(w) / w, np.cos(w))
    if lam < -_SMALL_LAMBDA:
        w = np.sqrt(-lam)
        return Monodromy(lam, np.cosh(w), w * np.sinh(w), np.sinh(w) / w, np.cosh(w))
    c = 1.0 - lam / 2.0 + lam * lam / 24.0
    cp = -lam * (1.0 - lam / 6.0 + lam * lam / 120.0)
    s = 1.0 - lam / 6.0 + lam * lam / 120.0
    return Monodromy(lam, c, cp, s, c)


def integrate_monodromy(pot: PotentialSpec, lam: float) -> Monodromy:
    """Monodromy matrix entries at energy lambda (analytic for q = 0)."""
    lam = float(lam)
    if pot.is_zero:
        m = _zero_potential_monodromy(lam)
    else:
        def rhs(x, y):
            q = float(pot(x))
            return [y[1], (q - lam) * y[0], y[3], (q - lam) * y[2]]

        sol = solve_ivp(rhs, (0.0, 1.0), [1.0, 0.0, 0.0, 1.0],
                        method="DOP853", rtol=_ODE_TOL, atol=_ODE_TOL)
        if not sol.success:
            raise EngineError(f"monodromy integration failed at lambda={lam}: "
                              f"{sol.message}")
        c1, c1p, s1, s1p = sol.y[:, -1]
        m = Monodromy(lam, float(c1), float(c1p), float(s1), float(s1p))
    if abs(m.det - 1.0) > WRONSKIAN_TOL:
        raise EngineError(
            f"Wronskian drifted from 1 by {abs(m.det - 1.0):g} at lambda={lam}"
        )
    return m


def discriminant(pot: PotentialSpec, lam: float) -> float:
    """d(lambda) = c(1) + s'(1)."""
    return integrate_monodromy(pot, lam).discriminant


def hill_eta(pot: PotentialSpec, lam: float) -> float:
    """eta(lambda) = d(lambda)/2, the dispersion variable."""
    return 0.5 * discriminant(pot, lam)


def mu_alpha(pot: PotentialSpec, lam: float, alpha: float,
             convention: str = "half") -> float:
    """Vertex-weighted discriminant c(1) + (alpha/2) s(1) (or c + alpha s)."""
    m = integrate_monodromy(pot, lam)
    if convention == "half":
        return m.c1 + 0.5 * alpha * m.s1
    if convention == "full":
        return m.c1 + alpha * m.s1
    raise InputError(f"unknown discriminant convention {convention!r}")


def discriminant_derivative(pot: PotentialSpec, lam: float,
                            h: float = 1e-6) -> float:
    """d'(lambda) by central difference (analytic for the zero potential)."""
    if pot.is_zero and lam > _SMALL_LAMBDA:
        w = np.sqrt(lam)
        return -np.sin(w) / w
    step = h * max(1.0, abs(lam))
    return (discriminant(pot, lam + step) - discriminant(pot, lam - step)) / (2.0 * step)


# ============================================================
#  Dirichlet spectrum (point part)
# ============================================================

def dirichlet_spectrum(pot: PotentialSpec, lam_max: float,
                       tol: float = 1e-10) -> np.ndarray:
    """All zeros of s(1; lambda) up to lam_max, by bracketing + bisection.

    These are the edge-Dirichlet eigenvalues; on the graph they carry flat
    bands (pure-point spectrum) and are excluded from the band inversion.
    """
    if lam_max <= 0.0:
        return np.array([])
    q_bound = 10.0 if pot.is_zero else float(np.max(np.abs(pot(
        np.linspace(0.0, 1.0, 257))))) + 10.0
    lam_lo = -q_bound
    # dense scan: linear below 1, uniform in sqrt(lambda) above
    grid = [np.linspace(lam_lo, 1.0, 64, endpoint=False)]
    w_hi = np.sqrt(lam_max)
    grid.append(np.square(np.arange(1.0, w_hi + 0.05, 0.05)))
    lams = np.concatenate(grid)
    lams = lams[lams <= lam_max + 1.0]
    vals = np.array([integrate_monodromy(pot, l).s1 for l in lams])
    roots = []
    for i in range(len(lams) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(lams[i])
        elif a * b < 0.0:
            roots.append(brentq(lambda l: integrate_monodromy(pot, l).s1,
                                lams[i], lams[i + 1], xtol=tol))
    out = np.array([r for r in roots if r <= lam_max + tol])
    return np.unique(np.round(out, 12))


# ============================================================
#  Band inversion
# ============================================================

@dataclass(frozen=True)
class LambdaInterval:
    """One lambda interval of absolutely continuous spectrum."""

    eta_band: int       # index of the eta interval that produced it
    hill_band: int      # 1-based Hill band index
    lo: float
    hi: float


@dataclass(frozen=True)
class SpectrumResult:
    """Band-inversion output: ac intervals, pp points, diagnostics."""

    intervals: tuple[LambdaInterval, ...]
    dirichlet: np.ndarray
    diagnostics: tuple[str, ...]


def _band_brackets(pot: PotentialSpec, n_bands: int):
    """Per-band brackets [a_n, b_n] with the discriminant passing through +-2.

    Uses the Dirichlet eigenvalues, which sit in the (closed) spectral gaps:
    between consecutive ones the discriminant crosses the band monotonically.
    """
    lam_max = (n_bands + 1.5) ** 2 * np.pi ** 2
    nu = dirichlet_spectrum(pot, lam_max)
    if len(nu) < n_bands:
        raise EngineError("could not locate enough Dirichlet eigenvalues "
                          f"for {n_bands} bands")
    # point strictly below the first band: discriminant > 2 there
    lo = min(0.0, float(nu[0])) - 1.0
    while discriminant(pot, lo) <= 2.0:
        lo -= max(1.0, abs(lo))
        if lo < -1e6:
            raise EngineError("failed to bracket the lowest band edge")
    anchors = np.concatenate([[lo], nu[:n_bands]])
    return [(anchors[i], anchors[i + 1]) for i in range(n_bands)]


def invert_discriminant(pot: PotentialSpec, eta: float, hill_band: int,
                        brackets=None) -> float:
    """The unique lambda in the given Hill band with d(lambda)/2 = eta."""
    if not (-1.0 <= eta <= 1.0):
        raise InputError(f"eta={eta!r} outside [-1, 1] has no band preimage")
    if brackets is None:
        brackets = _band_brackets(pot, hill_band)
    a, b = brackets[hill_band - 1]
    f = lambda l: 0.5 * discriminant(pot, l) - eta
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise EngineError(
            f"inversion bracket failed for eta={eta} in band {hill_band}")
    return brentq(f, a, b, xtol=1e-12)


def bands_from_root_surface(pot: PotentialSpec, eta_intervals,
                            n_bands: int = 4) -> SpectrumResult:
    """Map eta intervals through the discriminant into lambda intervals.

    ``eta_intervals`` is a sequence of (lo, hi) pairs (dispersion-branch value
    ranges).  Ranges outside [-1, 1] are clipped; entirely inadmissible ranges
    are skipped.  Returns the ac intervals per Hill band, the Dirichlet points
    (point spectrum) in range, and diagnostics, which name every clip and
    skip and are the only report of them.
    """
    diagnostics: list[str] = []
    cleaned: list[tuple[int, float, float]] = []
    for idx, (lo, hi) in enumerate(eta_intervals):
        if lo > hi:
            lo, hi = hi, lo
        if lo > 1.0 or hi < -1.0:
            msg = (f"eta interval {idx} = [{lo:g}, {hi:g}] is entirely "
                   "inadmissible (|eta| > 1); skipped")
            diagnostics.append(msg)
            continue
        clipped_lo, clipped_hi = max(lo, -1.0), min(hi, 1.0)
        if clipped_lo != lo or clipped_hi != hi:
            msg = (f"eta interval {idx} clipped to [{clipped_lo:g}, "
                   f"{clipped_hi:g}] (inadmissible part dropped)")
            diagnostics.append(msg)
        cleaned.append((idx, clipped_lo, clipped_hi))
    if not cleaned:
        diagnostics.append("no admissible eta intervals: empty ac spectrum")
        return SpectrumResult((), np.array([]), tuple(diagnostics))

    brackets = _band_brackets(pot, n_bands)
    lam_max = max(b for _, b in brackets)
    intervals = []
    for band in range(1, n_bands + 1):
        for idx, lo, hi in cleaned:
            la = invert_discriminant(pot, lo, band, brackets)
            lb = invert_discriminant(pot, hi, band, brackets)
            lo_l, hi_l = min(la, lb), max(la, lb)
            intervals.append(LambdaInterval(idx, band, lo_l, hi_l))
    intervals.sort(key=lambda iv: (iv.lo, iv.hi))
    nu = dirichlet_spectrum(pot, lam_max)
    return SpectrumResult(tuple(intervals), nu, tuple(diagnostics))


# ============================================================
#  Slope pullback
# ============================================================

def cone_slope_lambda(pot: PotentialSpec, lam0: float, gamma_eta: float) -> float:
    """Physical cone slope: gamma_lambda = 2 gamma_eta / |d'(lambda0)|.

    Raises ``BandEdgeError`` where d' vanishes (band edges), since the
    eta -> lambda change of variables degenerates there.
    """
    dprime = discriminant_derivative(pot, lam0)
    if abs(dprime) < 1e-8:
        raise BandEdgeError(
            f"discriminant derivative vanishes at lambda={lam0:g}; "
            "slope pullback undefined at a band edge"
        )
    return 2.0 * gamma_eta / abs(dprime)


def mu_pullback_check(pot: PotentialSpec, eta0: float, gamma_eta: float,
                      hill_band: int = 1, delta: float = 1e-5):
    """Consistency of the chain rule for the pulled-back cone slope.

    Returns (gamma_chain, gamma_fd): the chain-rule value 2 gamma/|d'| at
    lambda0 = inverse(eta0), and a one-sided finite-difference slope of
    lambda(s) = inverse(eta0 + gamma s) along the slice arclength.
    """
    brackets = _band_brackets(pot, hill_band)
    lam0 = invert_discriminant(pot, eta0, hill_band, brackets)
    gamma_chain = cone_slope_lambda(pot, lam0, gamma_eta)   # BandEdgeError inside
    eta1 = eta0 + gamma_eta * delta
    if abs(eta1) > 1.0:
        eta1 = eta0 - gamma_eta * delta
    lam1 = invert_discriminant(pot, eta1, hill_band, brackets)
    gamma_fd = abs(lam1 - lam0) / delta
    return gamma_chain, gamma_fd
