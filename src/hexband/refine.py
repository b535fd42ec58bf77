"""Lockstep refinement of many minima at once.

The classifiers refine every grid-level minimum of a separation profile
with a local minimizer.  Run one minimizer call after another, the number
of engine calls grows with the number of minima, which depends on the
stack parameters.  The two routines here advance all minima together: each
iteration makes one batched objective call for the minima that have not
converged, so the engine is called about as often for one minimum as for
twenty.

Each routine is a step-for-step transcription of the scipy method that the
classifiers used before, with the same floating-point operations on every
lane, so each minimum comes out bit for bit as one scipy call would give it:

* ``bounded_minima``: ``scipy.optimize.minimize_scalar(method="bounded")``
  (Brent's method on a bracket);
* ``nelder_mead_minima``: ``scipy.optimize.minimize(method="Nelder-Mead")``
  with bounds, default (non-adaptive) coefficients and no ``maxfev``.

An objective ``fn(x, lanes)`` returns the values of the lanes ``lanes`` at
the points ``x`` (one point, or one row of ``x``, per entry of ``lanes``).

The classifiers' shared record, tolerances and probe steps live here too,
below ``bands`` and ``magnetic``, which import each other as modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL_TOUCH = 1e-6       # refined separation below this counts as a touch
DEFAULT_TOL_SLOPE = 1e-4       # one-sided slope below this counts as flat
_SLOPE_STEP = 1e-6             # one-sided finite-difference step for slopes
                               # (small enough that quadratic contacts stay
                               # below DEFAULT_TOL_SLOPE)
_CURV_STEP = 1e-3              # central second-difference step for curvature


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
