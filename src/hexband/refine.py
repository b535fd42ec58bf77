"""Lockstep refinement of many minima and roots at once.

The classifiers refine every grid-level minimum of a separation profile
with a local minimizer, and the Hill layer refines every bracketed root of
a discriminant.  Run one solver call after another, the number of engine
calls grows with the number of minima or roots, which depends on the
inputs.  The routines here advance all of them together: each iteration
makes one batched objective call for the lanes that have not converged, so
the engine is called about as often for one lane as for twenty.

Each routine follows the scipy method that the callers used before, with
the same floating-point operations on every lane, so each lane comes out
bit for bit as one scipy call would give it:

* ``bounded_minima``: ``scipy.optimize.minimize_scalar(method="bounded")``
  (Brent's method on a bracket);
* ``nelder_mead_minima``: ``scipy.optimize.minimize(method="Nelder-Mead")``
  with bounds, default (non-adaptive) coefficients and no ``maxfev``;
* ``brent_roots``: ``scipy.optimize.brentq`` (Brent's root finder on a
  sign-changing bracket).

Each routine runs one generator per lane, a line for line copy of scipy's
``_minimize_scalar_bounded``, ``_minimize_neldermead`` or ``brentq.c`` on
Python floats.  A lane yields the points where it needs the objective and
receives the values there: a simplex lane asks for its n + 1 initial
vertices at once, then for one point per reflection, expansion or
contraction, and for its n shrink vertices at once.  ``_lockstep`` gathers
the points of all live lanes into one objective call per round, sends each
lane its values and collects what each lane returns, so lanes at different
steps share a round.  A round costs one Python step per live lane.
Holding every lane's state in numpy arrays instead costs a fixed ~75 array
operations a round, which only pays past a few dozen lanes: near 45 lanes
for ``brent_roots`` and 70 for ``bounded_minima`` with a cheap objective.
Over the benchmark's job lists of seeds 0-10, the largest calls have 41 and
26 lanes (medians 5 and 8), and the Nelder-Mead calls of the reduced zone
6.6 lanes on average.

An objective ``fn(x, lanes)`` returns the values of the lanes ``lanes`` at
the points ``x`` (one point, or one row of ``x``, per entry of ``lanes``).

The classifiers' shared stage lives here too, below ``bands`` and
``magnetic`` (which import each other as modules): ``pair_separations``
serves both minimizers, and ``classify_minima`` labels the refined minima
of the diagonal slice and of the reduced zone alike, from one ``roots``
call per labelling that holds the minima and the probes of every touch;
the two classifiers differ only in their roots, probe direction and
crossing test.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EngineError

DEFAULT_TOL_TOUCH = 1e-6       # refined separation below this counts as a touch
DEFAULT_TOL_SLOPE = 1e-4       # one-sided slope below this counts as flat
_SLOPE_STEP = 1e-6             # one-sided finite-difference step for slopes
                               # (small enough that quadratic contacts stay
                               # below DEFAULT_TOL_SLOPE)
_CURV_STEP = 1e-3              # central second-difference step for curvature
_PROBES = (-2.0 * _SLOPE_STEP, -_SLOPE_STEP, 2.0 * _SLOPE_STEP, _SLOPE_STEP,
           _CURV_STEP, -_CURV_STEP)   # probe offsets of a touch along its
                                      # direction: slopes, then curvature
_DEDUP_THETA = 1e-7            # refined minima of a pair closer than this coincide
_BRENT_RTOL = 4.0 * sys.float_info.epsilon   # brentq's default relative
                                               # tolerance
_BRENT_MAXITER = 100                           # and iteration limit


@dataclass(frozen=True)
class TouchReport:
    """One classified feature of an adjacent-branch separation profile."""

    kind: str                    # "cone" | "parabolic" | "crossing" | "gap"
    band_pair: tuple[int, int]   # adjacent sorted-branch indices (0-based)
    theta1: float | None         # location on the slice (None: flat profile)
    theta2: float | None
    f_value: float | None        # F at the location (real on the slice)
    value: float                 # eta at the touch / mid-gap level
    separation: float            # refined minimal separation
    gap_width: float | None      # = separation for gap records, else None
    gamma: float | None          # cone slope per branch (d eta / d theta1)
    curvature: float | None      # per-branch quadratic coefficient
    flat: bool = False           # True when the profile is constant in theta


def _lockstep(fn, lanes: list) -> list:
    """What each generator of ``lanes`` returns, the lanes run together.

    A lane yields a tuple of the points where it needs the objective and
    is sent the list of values there.  Each round gathers the points of
    every live lane into one ``fn(x, lanes)`` call, so a round costs one
    objective call however many lanes are live.
    """
    out = [None] * len(lanes)
    live = list(range(len(lanes)))
    sent = [None] * len(lanes)
    while True:
        asks, running = [], []
        for k in live:
            try:
                asks.append(lanes[k].send(sent[k]))
                running.append(k)
            except StopIteration as stop:
                out[k] = stop.value
        if not running:
            return out
        live, x, which = running, [], []
        for k, ask in zip(live, asks):
            x += ask
            which += [k] * len(ask)
        f = np.asarray(fn(np.array(x), np.array(which)), dtype=float).tolist()
        i = 0
        for k, ask in zip(live, asks):
            sent[k] = f[i:i + len(ask)]
            i += len(ask)


def _bounded_lane(a: float, b: float, xatol: float, maxfun: int):
    """One lane of ``bounded_minima``: scipy's ``_minimize_scalar_bounded``
    line for line, on Python floats; returns (xf, fx)."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    [fx] = yield (x,)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # a parabola through the three best points
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    # np.sign(xm - xf) + ((xm - xf) == 0); xm, xf are finite
                    rat = tol1 * (1.0 if xm - xf >= 0.0 else -1.0)
            else:
                golden = True
        # otherwise a golden-section step into the larger part
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        # np.sign(rat) + (rat == 0); rat is finite
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        [fu] = yield (x,)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def bounded_minima(fn, lo, hi, xatol: float,
                   maxfun: int = 500) -> tuple[np.ndarray, np.ndarray]:
    """Minimizers and minima of Brent's bounded method on every bracket
    [lo[k], hi[k]] (``maxfun`` is scipy's ``maxiter`` option)."""
    lanes = [_bounded_lane(a, b, float(xatol), maxfun)
             for a, b in zip(np.asarray(lo, dtype=float).tolist(),
                             np.asarray(hi, dtype=float).tolist())]
    found = _lockstep(fn, lanes)
    return (np.array([x for x, _ in found], dtype=float),
            np.array([f for _, f in found], dtype=float))


def _clip(x: float, lo: float, hi: float) -> float:
    """``np.clip`` of one float: its C ternaries, so that -0.0 and 0.0 tie
    as they do there (Python's ``max`` keeps the first of the two)."""
    x = x if x > lo or x != x else lo
    return x if x < hi or x != x else hi


def _by_value(sim: list, fsim: list) -> tuple[list, list]:
    """A simplex's vertices and values in ascending order of value, sorted
    stably, as np.argsort sorts at most 16 values."""
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    return [sim[i] for i in order], [fsim[i] for i in order]


def _toward(a: float, xbar: list, b: float, worst: list, box: list) -> list:
    """a * xbar + b * worst, clipped to the box coordinate by coordinate
    (scipy's a * xbar - c * worst is this with b = -c: the same bits)."""
    return [_clip(a * x + b * w, lo, hi) for x, w, (lo, hi) in zip(xbar, worst, box)]


def _nelder_mead_lane(x0: list, box: list, xatol: float, fatol: float,
                      maxiter: int):
    """One lane of ``nelder_mead_minima``: scipy's bounded, non-adaptive
    ``_minimize_neldermead`` line for line, on Python floats; returns the
    best vertex and the simplex's values."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    n = len(x0)
    x0 = [_clip(v, lo, hi) for v, (lo, hi) in zip(x0, box)]
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + nonzdelt) * y[k] if y[k] != 0 else zdelt
        sim.append(y)
    # vertices past the upper bound are reflected into the box, then clipped
    sim = [[_clip(2 * hi - v if v > hi else v, lo, hi) for v, (lo, hi) in zip(y, box)]
           for y in sim]
    fsim = yield sim
    # scipy sorts the first simplex twice; after a stable sort the second
    # pass changes nothing
    sim, fsim = _by_value(sim, fsim)
    for _ in range(maxiter - 1):
        best, worst = sim[0], sim[-1]
        if (all(abs(v - b) <= xatol for y in sim[1:] for v, b in zip(y, best))
                and all(abs(fsim[0] - f) <= fatol for f in fsim[1:])):
            break
        xbar = sim[0]
        for y in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, y)]
        xbar = [a / n for a in xbar]
        xr = _toward(1 + rho, xbar, -rho, worst, box)
        [fxr] = yield (xr,)
        doshrink = False
        if fxr < fsim[0]:
            xe = _toward(1 + rho * chi, xbar, -rho * chi, worst, box)
            [fxe] = yield (xe,)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:        # contraction outside the simplex
            xc = _toward(1 + psi * rho, xbar, -psi * rho, worst, box)
            [fxc] = yield (xc,)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                doshrink = True
        else:                       # contraction inside it
            xcc = _toward(1 - psi, xbar, psi, worst, box)
            [fxcc] = yield (xcc,)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                doshrink = True
        if doshrink:
            sim[1:] = [[_clip(b + sigma * (v - b), lo, hi)
                        for b, v, (lo, hi) in zip(best, y, box)] for y in sim[1:]]
            fsim[1:] = yield sim[1:]
        sim, fsim = _by_value(sim, fsim)
    return sim[0], fsim


def nelder_mead_minima(fn, x0, lower, upper, xatol: float, fatol: float,
                       maxiter: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimizers (m, n) and minima (m,) of bounded Nelder-Mead simplex
    descent from every start point x0[k] (x0 of shape (m, n)); the objective
    is given the points of a round as the rows of a (k, n) array."""
    x0 = np.asarray(x0, dtype=float)
    m, n = x0.shape
    box = list(zip(np.asarray(lower, dtype=float).tolist(),
                   np.asarray(upper, dtype=float).tolist()))
    lanes = [_nelder_mead_lane(x, box, float(xatol), float(fatol), maxiter)
             for x in x0.tolist()]
    found = _lockstep(fn, lanes)
    return (np.array([x for x, _ in found], dtype=float).reshape(m, n),
            np.min(np.array([f for _, f in found], dtype=float).reshape(m, n + 1),
                   axis=1))


def _brent_lane(xpre: float, xcur: float, xtol: float):
    """One lane of ``brent_roots``: scipy's ``brentq.c`` line for line, on
    Python floats; returns (root, objective evaluations)."""
    fpre, fcur = yield (xpre, xcur)
    calls = 2
    if fpre == 0.0:
        return xpre, calls
    if fcur == 0.0:
        return xcur, calls
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        # [xcur, xblk] brackets the root; xcur has the smaller |f|
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, calls
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:        # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                   # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:   # C gives inf or NaN: bisect
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        [fcur] = yield (xcur,)
        calls += 1
    raise EngineError(f"root finder did not converge in {_BRENT_MAXITER} "
                      f"iterations at x={xcur!r}")


def brent_roots(fn, lo, hi, xtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Roots found by Brent's method on every bracket [lo[k], hi[k]], and
    the objective evaluations each lane took (brentq's defaults otherwise).

    ``fn`` must change sign on every bracket (``ValueError`` otherwise, as
    from brentq).  A NaN objective value, or a lane still running after
    brentq's 100 iterations, raises ``EngineError``.
    """
    def values(x, lanes):
        f = np.asarray(fn(x, lanes), dtype=float)
        if np.isnan(f).any():
            raise EngineError("root finder objective is NaN at "
                              f"x={float(x[np.isnan(f)][0])!r}")
        return f

    lanes = [_brent_lane(a, b, float(xtol))
             for a, b in zip(np.asarray(lo, dtype=float).tolist(),
                             np.asarray(hi, dtype=float).tolist())]
    found = _lockstep(values, lanes)
    return (np.array([root for root, _ in found], dtype=float),
            np.array([calls for _, calls in found], dtype=int))


# ============================================================
#  Classification of refined minima
# ============================================================

def wrap_theta(t: float) -> float:
    """The angle t in [-pi, pi)."""
    return float((t + np.pi) % (2.0 * np.pi) - np.pi)


def pair_separations(roots, theta1, theta2, pairs: np.ndarray) -> np.ndarray:
    """Separation of the sorted branches pairs[k], pairs[k] + 1 at
    (theta1[k], theta2[k]), from one ``roots`` call."""
    values = roots(theta1, theta2).values
    return (values[:, 1:] - values[:, :-1])[np.arange(len(values)), pairs]


def classify_minima(roots, minima, direction, tol_touch: float,
                    tol_slope: float, f_values=None,
                    crossings: bool = False) -> list[TouchReport]:
    """Reports of the refined minima (pair, theta1, theta2, sep_star), sorted
    by band pair and theta1; minima of a pair less than ``_DEDUP_THETA``
    apart in both wrapped coordinates count once.  ``roots(theta1, theta2)``
    gives the sorted roots of a batch, ``f_values`` F at each minimum.
    It reports every minimum it is given; the diagonal classifier gives the
    minima of the half slice only, so there a feature has one record, and
    ``cli`` keeps a pair's narrowest gap (of exactly equal ones, the one at
    the larger |theta1|).

    A separation at most ``tol_touch`` is a touch.  With ``crossings``
    (labelled branches), a touch whose labelled branches trade order across
    it is a crossing; another is a cone when a one-sided slope exceeds
    ``tol_slope`` in absolute value, else parabolic.  One ``roots`` call
    serves the labelling: the minima, and every touch probed at
    theta + d * direction (an array) for each d of ``_PROBES``.  A crossing
    reads two of its probes and a cone four; the others cost nothing next
    to the fixed cost of a call.
    """
    kept = []
    for m, f in zip(minima, f_values or [None] * len(minima)):
        if not any(k[0] == m[0] and abs(wrap_theta(m[1] - k[1])) < _DEDUP_THETA
                   and abs(wrap_theta(m[2] - k[2])) < _DEDUP_THETA for k, _ in kept):
            kept.append((m, f))
    pairs = np.array([m[0] for m, _ in kept])
    theta = np.array([[m[1], m[2]] for m, _ in kept])
    touch = [i for i, (m, _) in enumerate(kept) if not m[3] > tol_touch]
    found = roots(*np.concatenate(
        [theta, *(theta[touch] + d * direction for d in _PROBES)]).T)
    k, t = len(kept), len(touch)
    center = found.values[:k]
    # seps[j]: the separation of touch j's pair at each probe
    probes = found.values[k:].reshape(len(_PROBES), t, found.values.shape[-1])
    rows, touch_pairs = np.arange(t), pairs[touch]
    seps = (probes[:, rows, touch_pairs + 1] - probes[:, rows, touch_pairs]).T.tolist()

    crossing = set()
    if crossings and touch:
        labels = found.branch_labels
        for j, i in enumerate(touch):
            left, right = k + t + j, k + 3 * t + j   # at -h and h: _PROBES[1], [3]
            at_right = dict(zip(labels[right], found.values[right]))
            # on the left, the lower label sits strictly below the upper one
            if at_right[labels[left][pairs[i]]] - at_right[labels[left][pairs[i] + 1]] > 0.0:
                crossing.add(i)

    # secant slopes taken strictly on each side of the contact point, so a
    # refinement offset of a few 1e-9 in theta cannot bias them
    h, hc = _SLOPE_STEP, _CURV_STEP
    slopes, curved = {}, {}
    for i, (far_left, near_left, far_right, near_right, plus, minus) in zip(touch, seps):
        if i in crossing:
            continue
        slopes[i] = ((far_left - near_left) / h, (far_right - near_right) / h)
        if not max(map(abs, slopes[i])) > tol_slope:
            curved[i] = (plus - 2.0 * kept[i][0][3] + minus) / hc ** 2

    reports = []
    for i, ((pair, t1, t2, sep), f_value) in enumerate(kept):
        kind = ("parabolic" if i in curved else "cone" if i in slopes
                else "crossing" if i in crossing else "gap")
        reports.append(TouchReport(
            kind=kind, band_pair=(pair, pair + 1), theta1=t1, theta2=t2,
            f_value=f_value, value=0.5 * float(center[i, pair] + center[i, pair + 1]),
            separation=sep, gap_width=sep if kind == "gap" else None,
            # linear contact: each branch moves at half the separation slope
            gamma=sum(map(abs, slopes[i])) / 4.0 if kind == "cone" else None,
            curvature=0.5 * curved[i] if kind == "parabolic" else None))
    reports.sort(key=lambda r: (r.band_pair, r.theta1))
    return reports
