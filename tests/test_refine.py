"""Lockstep refinement against one scipy call per minimum or root, bit for
bit, the engine-call count of a lockstep refinement, and the shared
probe-and-label stage of the classifiers."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize, minimize_scalar

import hexband.bands as bands
from hexband.bands import classify_touches, sample_diagonal
from hexband.floquet import BATCH_BYTES, chunk_slices
from hexband.lattice import CouplingParams, StackConfig, StackVariant, VertexParams
from hexband.errors import EngineError
from hexband.refine import (
    bounded_minima,
    brent_roots,
    classify_minima,
    nelder_mead_minima,
)

_finite = dict(allow_nan=False, allow_infinity=False)


def _profile(centers, slopes, curvatures, ripple):
    """Objectives with cone-like (|x - c|) and smooth parts, one per lane."""
    def f(x, lane):
        return (slopes[lane] * abs(x - centers[lane])
                + curvatures[lane] * (x - centers[lane]) ** 2
                + ripple * np.cos(7.0 * x))
    return f


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0, **_finite),
                          st.floats(1e-3, 0.5, **_finite),
                          st.floats(-0.4, 0.4, **_finite),
                          st.floats(0.0, 2.0, **_finite),
                          st.floats(0.0, 3.0, **_finite)),
                min_size=1, max_size=48),
       st.floats(0.0, 0.05, **_finite),
       st.sampled_from([1e-12, 1e-8, 1e-5]),
       st.sampled_from([2, 5, 500]))
def test_bounded_minima_match_scipy(lanes, ripple, xatol, maxfun):
    lo = np.array([c - w for c, w, _, _, _ in lanes])
    hi = np.array([c + w for c, w, _, _, _ in lanes])
    centers = [c + shift for c, _, shift, _, _ in lanes]
    f = _profile(centers, [s for *_, s, _ in lanes], [k for *_, k in lanes], ripple)
    calls = []

    def batched(x, which):
        calls.append(len(which))
        return np.array([f(float(xi), int(k)) for xi, k in zip(x, which)])

    x, fx = bounded_minima(batched, lo, hi, xatol, maxfun=maxfun)
    nfev = []
    for k in range(len(lanes)):
        res = minimize_scalar(lambda t, k=k: f(float(t), k), bounds=(lo[k], hi[k]),
                              method="bounded",
                              options={"xatol": xatol, "maxiter": maxfun})
        assert x[k] == res.x and fx[k] == res.fun
        nfev.append(res.nfev)
    # one objective call per iteration, for the lanes still running
    assert len(calls) == max(nfev)
    assert sum(calls) == sum(nfev)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, np.pi / 2, **_finite),
                          st.floats(-np.pi / 2, np.pi / 2, **_finite),
                          st.floats(0.0, np.pi / 2, **_finite),
                          st.floats(-np.pi / 2, np.pi / 2, **_finite),
                          st.floats(0.0, 1.0, **_finite)),
                min_size=1, max_size=6),
       st.sampled_from([1, 2]))
def test_nelder_mead_minima_match_scipy(lanes, runs):
    lower = np.array([0.0, -np.pi / 2])
    upper = np.array([np.pi / 2, np.pi / 2])
    bounds = ((0.0, np.pi / 2), (-np.pi / 2, np.pi / 2))
    x0 = np.array([[a, b] for a, b, *_ in lanes])
    centers = np.array([[c, d] for _, _, c, d, _ in lanes])
    cone = np.array([w for *_, w in lanes])

    def f(p, k):
        d = p - centers[k]
        return float(cone[k] * np.hypot(d[0], d[1]) + d @ d + 0.01 * np.cos(5.0 * p[0]))

    def batched(points, which):
        return np.array([f(p, int(k)) for p, k in zip(points, which)])

    options = {"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000}
    x, fx = x0, None
    for _ in range(runs):
        x, fx = nelder_mead_minima(batched, x, lower, upper, xatol=options["xatol"],
                                   fatol=options["fatol"], maxiter=options["maxiter"])
    for k in range(len(lanes)):
        start = x0[k]
        for _ in range(runs):
            res = minimize(lambda p, k=k: f(p, k), x0=start, method="Nelder-Mead",
                           bounds=bounds, options=options)
            start = res.x
        assert np.array_equal(x[k], res.x) and fx[k] == res.fun


def _root_profile(centers, slopes, powers, ripple):
    """Sign-changing objectives, one per lane: odd powers of x - c (flat or
    steep at the root) plus a ripple."""
    def f(x, lane):
        d = x - centers[lane]
        return (slopes[lane] * np.sign(d) * abs(d) ** powers[lane]
                + ripple * np.sin(3.0 * x))
    return f


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0, **_finite),
                          st.floats(1e-3, 4.0, **_finite),
                          st.floats(1e-3, 4.0, **_finite),
                          st.floats(0.2, 5.0, **_finite),
                          st.sampled_from([0.3, 1.0, 3.0])),
                min_size=1, max_size=48),
       st.floats(0.0, 0.1, **_finite),
       st.sampled_from([1e-14, 1e-12, 1e-8, 1e-4]))
def test_brent_roots_match_scipy(lanes, ripple, xtol):
    f = _root_profile([c for c, *_ in lanes], [s for *_, s, _ in lanes],
                      [p for *_, p in lanes], ripple)
    lo = np.array([c - a for c, a, *_ in lanes])
    hi = np.array([c + b for c, _, b, *_ in lanes])
    keep = [k for k in range(len(lanes))
            if np.signbit(f(lo[k], k)) != np.signbit(f(hi[k], k))
            or f(lo[k], k) == 0.0 or f(hi[k], k) == 0.0]
    if not keep:
        return
    lo, hi = lo[keep], hi[keep]
    calls = []

    def batched(x, which):
        calls.append(len(which))
        return np.array([f(float(xi), keep[int(k)]) for xi, k in zip(x, which)])

    want = []
    for j, k in enumerate(keep):
        try:
            want.append(brentq(lambda t, k=k: f(t, k), lo[j], hi[j], xtol=xtol,
                               full_output=True))
        except RuntimeError:        # scipy did not converge in 100 iterations
            with pytest.raises(EngineError, match="did not converge"):
                brent_roots(batched, lo, hi, xtol)
            return
    roots, nfev = brent_roots(batched, lo, hi, xtol)
    for j, (root, info) in enumerate(want):
        assert roots[j] == root
        assert nfev[j] == info.function_calls
    # one objective call for both ends, then one per iteration
    assert len(calls) == max(nfev) - 1
    assert calls[0] == 2 * len(keep)


def test_brent_roots_refuse_brackets_without_sign_change_and_nan():
    with pytest.raises(ValueError, match="different signs"):
        brent_roots(lambda x, k: x * x + 1.0, [-1.0, 0.0], [1.0, 2.0], 1e-12)
    with pytest.raises(EngineError, match="NaN"):
        brent_roots(lambda x, k: np.where(x > 0.5, np.nan, x - 0.7), [0.0], [1.0],
                    1e-12)
    # the message names the first point of the call whose value is NaN
    with pytest.raises(EngineError, match=r"NaN at x=1\.0$"):
        brent_roots(lambda x, k: np.where(x > 0.5, np.nan, x - 0.2), [0.0], [1.0],
                    1e-12)


def test_refinement_calls_do_not_grow_with_minima(monkeypatch):
    """A bilayer whose profiles have several minima is refined in about as
    many engine calls as a single bracket needs, not one run per minimum."""
    config = StackConfig(StackVariant.BILAYER_AA, VertexParams(-1.0, -1.0),
                         coupling=CouplingParams(t0=0.5))
    surface = sample_diagonal(config, n=501)
    calls = []
    original = bands.roots_at

    def counting(*args, **kwargs):
        calls.append(np.size(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(bands, "roots_at", counting)
    reports = classify_touches(surface)
    refined = [r for r in reports if r.theta1 is not None]
    assert len(refined) == 8
    # one scipy run per minimum made 192 engine calls here; in lockstep the
    # refinement and all probes take about as many as the slowest minimum
    assert len(calls) < 60
    assert max(calls) >= len(refined)


def test_chunk_slices_bound_the_batch_matrices():
    n = BATCH_BYTES // 16 + 1       # several batches at every dimension
    for dim in (2, 4, 6):
        parts = chunk_slices(n, dim)
        sizes = [len(range(n)[p]) for p in parts]
        assert sum(sizes) == n
        assert max(sizes) * 16 * dim * dim <= BATCH_BYTES
        assert (max(sizes) + 1) * 16 * dim * dim > BATCH_BYTES
        assert len(parts) == -(-n // max(sizes)) > 1


def _two_branches(lower, upper, calls):
    """A ``roots`` callable for two labelled branches of theta1, sorted."""
    def roots(theta1, theta2):
        calls.append(len(theta1))
        a, b = lower(np.asarray(theta1)), upper(np.asarray(theta1))
        return SimpleNamespace(
            values=np.stack([np.minimum(a, b), np.maximum(a, b)], axis=-1),
            branch_labels=[("a", "b") if x <= y else ("b", "a")
                           for x, y in zip(a, b)])
    return roots


_SLICE = np.array([1.0, -1.0])


def test_classify_minima_labels_dedups_and_sorts():
    calls = []
    cone = _two_branches(lambda t: 0.0 * t, lambda t: np.abs(np.sin(t)), calls)
    seam = np.pi - 1e-9
    # the two minima at the seam theta1 = +-pi are one point
    minima = [(0, 0.5, -0.5, np.sin(0.5)), (0, seam, -seam, 1e-9),
              (0, 0.0, -0.0, 0.0), (0, -seam, seam, 1e-9)]
    reports = classify_minima(cone, minima, _SLICE, 1e-6, 1e-4,
                              f_values=[10.0, 20.0, 30.0, 40.0])
    assert [(r.kind, r.theta1, r.f_value) for r in reports] == [
        ("cone", 0.0, 30.0), ("gap", 0.5, 10.0), ("cone", seam, 20.0)]
    assert reports[0].gamma == pytest.approx(0.5)
    assert reports[1].gap_width == np.sin(0.5)
    # one roots call for the centres and one for the slopes of both cones
    assert calls == [3, 8]

    parabola = _two_branches(lambda t: 0.0 * t, lambda t: (t - 1.0) ** 2, calls)
    [report] = classify_minima(parabola, [(0, 1.0, -1.0, 0.0)], _SLICE, 1e-6, 1e-4)
    assert report.kind == "parabolic" and report.curvature == pytest.approx(1.0)


def test_classify_minima_takes_the_absolute_slope():
    # a touch on a concave kink: both one-sided slopes are -1e-3, which a
    # signed rule would read as flat
    kink = _two_branches(lambda t: 0.0 * t, lambda t: 5e-7 - 1e-3 * np.abs(t), [])
    [report] = classify_minima(kink, [(0, 0.0, 0.0, 5e-7)], _SLICE, 1e-6, 1e-4)
    assert report.kind == "cone" and report.gamma == pytest.approx(5e-4)


def test_classify_minima_tells_crossings_by_their_labels():
    calls = []
    cross = _two_branches(lambda t: t, lambda t: -t, calls)
    minimum = [(0, 0.0, 0.0, 0.0)]
    [report] = classify_minima(cross, minimum, _SLICE, 1e-6, 1e-4, crossings=True)
    assert report.kind == "crossing" and calls == [1, 2]
    [report] = classify_minima(cross, minimum, _SLICE, 1e-6, 1e-4)
    assert report.kind == "cone" and report.gamma == pytest.approx(1.0)
