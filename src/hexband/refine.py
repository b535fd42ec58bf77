"""Lockstep refinement of many minima and roots at once.

The classifiers refine every grid-level minimum of a separation profile
with a local minimizer, and the Hill layer refines every bracketed root of
a discriminant.  Run one solver call after another, the number of engine
calls grows with the number of minima or roots, which depends on the
inputs.  The routines here advance all of them together: each iteration
makes one batched objective call for the lanes that have not converged, so
the engine is called about as often for one lane as for twenty.

Each routine is a step-for-step transcription of the scipy method that the
callers used before, with the same floating-point operations on every
lane, so each lane comes out bit for bit as one scipy call would give it:

* ``bounded_minima``: ``scipy.optimize.minimize_scalar(method="bounded")``
  (Brent's method on a bracket);
* ``nelder_mead_minima``: ``scipy.optimize.minimize(method="Nelder-Mead")``
  with bounds, default (non-adaptive) coefficients and no ``maxfev``;
* ``brent_roots``: ``scipy.optimize.brentq`` (Brent's root finder on a
  sign-changing bracket).

An objective ``fn(x, lanes)`` returns the values of the lanes ``lanes`` at
the points ``x`` (one point, or one row of ``x``, per entry of ``lanes``).

The classifiers' shared stage lives here too, below ``bands`` and
``magnetic`` (which import each other as modules): ``pair_separations``
serves both minimizers and the probes, and ``classify_minima`` labels the
refined minima of the diagonal slice and of the reduced zone alike; the two
differ only in their roots, probe direction and crossing test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EngineError

DEFAULT_TOL_TOUCH = 1e-6       # refined separation below this counts as a touch
DEFAULT_TOL_SLOPE = 1e-4       # one-sided slope below this counts as flat
_SLOPE_STEP = 1e-6             # one-sided finite-difference step for slopes
                               # (small enough that quadratic contacts stay
                               # below DEFAULT_TOL_SLOPE)
_CURV_STEP = 1e-3              # central second-difference step for curvature
_DEDUP_THETA = 1e-7            # refined minima of a pair closer than this coincide
_BRENT_RTOL = 4.0 * np.finfo(float).eps  # brentq's default relative tolerance
_BRENT_MAXITER = 100                      # and iteration limit


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


def bounded_minima(fn, lo, hi, xatol: float,
                   maxfun: int = 500) -> tuple[np.ndarray, np.ndarray]:
    """Minimizers and minima of Brent's bounded method on every bracket
    [lo[k], hi[k]]."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    lanes = np.arange(len(a))
    xf = a + golden_mean * (b - a)
    nfc, fulc = xf.copy(), xf.copy()
    rat, e = np.zeros_like(xf), np.zeros_like(xf)
    fx = np.asarray(fn(xf, lanes), dtype=float)
    fnfc, ffulc = fx.copy(), fx.copy()
    x_out, f_out = np.empty_like(xf), np.empty_like(xf)
    for _ in range(maxfun - 1):
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        done = ~(np.abs(xf - xm) > (tol2 - 0.5 * (b - a)))
        if done.any():
            x_out[lanes[done]], f_out[lanes[done]] = xf[done], fx[done]
            keep = ~done
            (lanes, a, b, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, xm, tol1,
             tol2) = (v[keep] for v in (lanes, a, b, xf, fx, nfc, fnfc, fulc,
                                        ffulc, rat, e, xm, tol1, tol2))
            if not len(lanes):
                return x_out, f_out
        # a parabola through the three best points, where the step before
        # last was long enough and the parabola's minimum lies in the bracket
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                     & (p > q * (a - xf)) & (p < q * (b - xf)))
        rat_fit = np.divide(p + 0.0, q, out=np.zeros_like(p), where=parabolic)
        x_fit = xf + rat_fit
        toward = np.sign(xm - xf) + ((xm - xf) == 0)
        rat_fit = np.where(((x_fit - a) < tol2) | ((b - x_fit) < tol2),
                           tol1 * toward, rat_fit)
        # otherwise a golden-section step into the larger part
        e_golden = np.where(xf >= xm, a - xf, b - xf)
        e = np.where(parabolic, rat, e_golden)
        rat = np.where(parabolic, rat_fit, golden_mean * e_golden)
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = np.asarray(fn(x, lanes), dtype=float)

        better = fu <= fx
        a = np.where(better, np.where(x >= xf, xf, a), np.where(x < xf, x, a))
        b = np.where(better, np.where(x >= xf, b, xf), np.where(x < xf, b, x))
        to_nfc = ~better & ((fu <= fnfc) | (nfc == xf))
        to_fulc = ~better & ~to_nfc & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        shift = better | to_nfc
        fulc = np.where(shift, nfc, np.where(to_fulc, x, fulc))
        ffulc = np.where(shift, fnfc, np.where(to_fulc, fu, ffulc))
        nfc = np.where(better, xf, np.where(to_nfc, x, nfc))
        fnfc = np.where(better, fx, np.where(to_nfc, fu, fnfc))
        xf = np.where(better, x, xf)
        fx = np.where(better, fu, fx)
    x_out[lanes], f_out[lanes] = xf, fx
    return x_out, f_out


def _sorted_simplices(sim: np.ndarray, fsim: np.ndarray):
    """Each lane's vertices in ascending order of value (np.argsort per lane,
    as scipy sorts one simplex)."""
    order = np.argsort(fsim, axis=1)
    return (np.take_along_axis(sim, order[:, :, None], axis=1),
            np.take_along_axis(fsim, order, axis=1))


def nelder_mead_minima(fn, x0, lower, upper, xatol: float, fatol: float,
                       maxiter: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimizers (m, n) and minima (m,) of bounded Nelder-Mead simplex
    descent from every start point x0[k] (x0 of shape (m, n))."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
    m, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    for k in range(n):
        y = x0[:, k]
        sim[:, k + 1, k] = np.where(y != 0, (1 + nonzdelt) * y, zdelt)
    # vertices past the upper bound are reflected into the box, then clipped
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    fsim = np.asarray(fn(sim.reshape(-1, n), np.repeat(np.arange(m), n + 1)),
                      dtype=float).reshape(m, n + 1)
    # scipy sorts the first simplex twice; ties make that visible
    sim, fsim = _sorted_simplices(*_sorted_simplices(sim, fsim))

    live = np.arange(m)
    for _ in range(maxiter - 1):
        s, f = sim[live], fsim[live]
        done = ((np.max(np.abs(s[:, 1:] - s[:, :1]), axis=(1, 2)) <= xatol)
                & (np.max(np.abs(f[:, :1] - f[:, 1:]), axis=1) <= fatol))
        live, s, f = live[~done], s[~done], f[~done]
        if not len(live):
            break
        xbar = s[:, 0]
        for j in range(1, n):
            xbar = xbar + s[:, j]
        xbar = xbar / n
        worst = s[:, -1]
        xr = np.clip((1 + rho) * xbar - rho * worst, lower, upper)
        fxr = np.asarray(fn(xr, live), dtype=float)

        expand = fxr < f[:, 0]
        keep_r = ~expand & (fxr < f[:, -2])
        outside = ~expand & ~keep_r & (fxr < f[:, -1])
        inside = ~expand & ~keep_r & ~outside
        xe = np.clip((1 + rho * chi) * xbar - rho * chi * worst, lower, upper)
        xc = np.clip((1 + psi * rho) * xbar - psi * rho * worst, lower, upper)
        xcc = np.clip((1 - psi) * xbar + psi * worst, lower, upper)
        trial = np.where(expand[:, None], xe, np.where(outside[:, None], xc, xcc))
        ftrial = np.full(len(live), np.inf)
        probe = ~keep_r
        if probe.any():
            ftrial[probe] = fn(trial[probe], live[probe])

        take_trial = ((expand & (ftrial < fxr)) | (outside & (ftrial <= fxr))
                      | (inside & (ftrial < f[:, -1])))
        take_r = keep_r | (expand & ~take_trial)
        s[:, -1] = np.where(take_trial[:, None], trial,
                            np.where(take_r[:, None], xr, worst))
        f[:, -1] = np.where(take_trial, ftrial, np.where(take_r, fxr, f[:, -1]))
        shrink = (outside | inside) & ~take_trial
        if shrink.any():
            best = s[shrink, :1]
            moved = np.clip(best + sigma * (s[shrink, 1:] - best), lower, upper)
            s[shrink, 1:] = moved
            f[shrink, 1:] = np.asarray(
                fn(moved.reshape(-1, n), np.repeat(live[shrink], n)),
                dtype=float).reshape(-1, n)
        sim[live], fsim[live] = _sorted_simplices(s, f)
    return sim[:, 0], np.min(fsim, axis=1)


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

    xpre = np.array(lo, dtype=float)
    xcur = np.array(hi, dtype=float)
    m = len(xpre)
    lanes = np.arange(m)
    ends = values(np.concatenate([xpre, xcur]), np.concatenate([lanes, lanes]))
    fpre, fcur = ends[:m], ends[m:]
    calls = np.full(m, 2)
    roots = np.where(fpre == 0.0, xpre, xcur)
    live = (fpre != 0.0) & (fcur != 0.0)
    if np.any(live & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(a) and f(b) must have different signs")
    lanes, xpre, xcur, fpre, fcur = (v[live] for v in (lanes, xpre, xcur, fpre, fcur))
    xblk, fblk = np.zeros_like(xpre), np.zeros_like(xpre)
    spre, scur = np.zeros_like(xpre), np.zeros_like(xpre)
    for _ in range(_BRENT_MAXITER):
        # [xcur, xblk] brackets the root; xcur has the smaller |f|
        flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        step = xcur - xpre
        spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (xtol + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            roots[lanes[done]] = xcur[done]
            keep = ~done
            (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
             sbis) = (v[keep] for v in (lanes, xpre, xcur, xblk, fpre, fcur,
                                        fblk, spre, scur, delta, sbis))
            if not len(lanes):
                return roots, calls
        # secant or inverse quadratic step where the step before last was
        # long and |f| fell, kept if short enough; otherwise bisection
        trial = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
        stry = np.zeros_like(xcur)
        k = trial & (xpre == xblk)
        stry[k] = -fcur[k] * (xcur[k] - xpre[k]) / (fcur[k] - fpre[k])
        k = trial & (xpre != xblk)
        dpre = (fpre[k] - fcur[k]) / (xpre[k] - xcur[k])
        dblk = (fblk[k] - fcur[k]) / (xblk[k] - xcur[k])
        stry[k] = (-fcur[k] * (fblk[k] * dblk - fpre[k] * dpre)
                   / (dblk * dpre * (fblk[k] - fpre[k])))
        short = trial & (2 * np.abs(stry) < np.minimum(np.abs(spre),
                                                       3 * np.abs(sbis) - delta))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0, delta, -delta))
        fcur = values(xcur, lanes)
        calls[lanes] += 1
    raise EngineError(f"root finder did not converge in {_BRENT_MAXITER} "
                      f"iterations at x={float(xcur[0])!r}")


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
    rows = np.arange(len(values))
    return values[rows, pairs + 1] - values[rows, pairs]


def classify_minima(roots, minima, direction, tol_touch: float,
                    tol_slope: float, f_values=None,
                    crossings: bool = False) -> list[TouchReport]:
    """Reports of the refined minima (pair, theta1, theta2, sep_star), sorted
    by band pair and theta1; minima of a pair less than ``_DEDUP_THETA``
    apart in both wrapped coordinates count once.  ``roots(theta1, theta2)``
    gives the sorted roots of a batch, ``f_values`` F at each minimum.

    A separation at most ``tol_touch`` is a touch.  With ``crossings``
    (labelled branches), a touch whose labelled branches trade order across
    it is a crossing; another is a cone when a one-sided slope exceeds
    ``tol_slope`` in absolute value, else parabolic.  Probes lie at
    theta + d * direction (an array), one ``roots`` call per stage (roots at
    the minima, crossing test, slopes, curvature) over the minima reaching it.
    """
    kept = []
    for m, f in zip(minima, f_values or [None] * len(minima)):
        if not any(k[0] == m[0] and abs(wrap_theta(m[1] - k[1])) < _DEDUP_THETA
                   and abs(wrap_theta(m[2] - k[2])) < _DEDUP_THETA for k, _ in kept):
            kept.append((m, f))
    pairs = np.array([m[0] for m, _ in kept])
    theta = np.array([[m[1], m[2]] for m, _ in kept])

    def points(which: list[int], offsets: tuple[float, ...]) -> np.ndarray:
        """theta1 and theta2 rows of theta + d * direction, d by d."""
        return np.concatenate([theta[which] + d * direction for d in offsets]).T

    def separations(which: list[int], offsets: tuple[float, ...]) -> np.ndarray:
        return pair_separations(roots, *points(which, offsets),
                                np.tile(pairs[which], len(offsets))
                                ).reshape(len(offsets), -1)

    center = roots(theta[:, 0], theta[:, 1]).values
    touch = [i for i, (m, _) in enumerate(kept) if not m[3] > tol_touch]
    crossing = set()
    if crossings and touch:
        sides = roots(*points(touch, (-_SLOPE_STEP, _SLOPE_STEP)))
        labels, k = sides.branch_labels, len(touch)
        for j, i in enumerate(touch):
            right = dict(zip(labels[k + j], sides.values[k + j]))
            # on the left, the lower label sits strictly below the upper one
            if right[labels[j][pairs[i]]] - right[labels[j][pairs[i] + 1]] > 0.0:
                crossing.add(i)

    # secant slopes taken strictly on each side of the contact point, so a
    # refinement offset of a few 1e-9 in theta cannot bias them
    h, hc = _SLOPE_STEP, _CURV_STEP
    slopes, curved = {}, {}
    sloped = [i for i in touch if i not in crossing]
    if sloped:
        seps = separations(sloped, (-2.0 * h, -h, 2.0 * h, h))
        for j, i in enumerate(sloped):
            slopes[i] = ((float(seps[0, j]) - float(seps[1, j])) / h,
                         (float(seps[2, j]) - float(seps[3, j])) / h)
    flat = [i for i in sloped if not max(abs(v) for v in slopes[i]) > tol_slope]
    if flat:
        seps = separations(flat, (hc, -hc))
        for j, i in enumerate(flat):
            curved[i] = (float(seps[0, j]) - 2.0 * kept[i][0][3]
                         + float(seps[1, j])) / hc ** 2

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
