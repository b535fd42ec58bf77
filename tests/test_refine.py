"""Lockstep refinement against one scipy call per minimum or root, bit for
bit, the engine-call count of a lockstep refinement, and the shared
probe-and-label stage of the classifiers, one engine call per labelling."""

import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize, minimize_scalar

import hexband.bands as bands
import hexband.magnetic as magnetic
from hexband.bands import classify_touches, sample_diagonal
from hexband.floquet import BATCH_BYTES, batch_points
from hexband.lattice import (
    CouplingParams,
    FluxSpec,
    StackConfig,
    StackVariant,
    VertexParams,
)
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


# start coordinates on and past the bounds of [0, pi/2] x [-pi/2, pi/2]: the
# clip of -0.0 to a 0.0 bound gives 0.0 (Python's max gives -0.0), and a
# vertex past the upper bound is reflected into the box
_EDGES = (0.0, -0.0, 5e-324, -0.5, np.pi / 2, np.nextafter(np.pi / 2, 4.0), 2.0,
          -np.pi / 2, -2.0)
_START = st.one_of(st.floats(-2.5, 2.5, **_finite), st.sampled_from(_EDGES))


@pytest.mark.filterwarnings("ignore:Initial guess is not within the specified bounds")
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_START, _START,
                          st.floats(-0.5, 2.0, **_finite),
                          st.floats(-2.0, 2.0, **_finite),
                          st.floats(0.0, 1.0, **_finite)),
                min_size=1, max_size=6))
def test_nelder_mead_minima_from_any_start_match_scipy_and_share_rounds(lanes):
    lower = np.array([0.0, -np.pi / 2])
    upper = np.array([np.pi / 2, np.pi / 2])
    x0 = np.array([[a, b] for a, b, *_ in lanes])
    centers = np.array([[c, d] for _, _, c, d, _ in lanes])
    cone = np.array([w for *_, w in lanes])
    options = {"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000}

    def f(p, k):
        d = p - centers[k]
        return float(cone[k] * np.hypot(d[0], d[1]) + d @ d + 0.01 * np.cos(5.0 * p[0]))

    def counted(calls, lanes_of):
        def batched(points, which):
            calls.append(len(which))
            return np.array([f(p, lanes_of[int(k)]) for p, k in zip(points, which)])
        return batched

    calls = []
    x, fx = nelder_mead_minima(counted(calls, range(len(lanes))), x0, lower, upper,
                               **options)
    nfev, rounds = [], []
    for k in range(len(lanes)):
        res = minimize(lambda p, k=k: f(p, k), x0=x0[k], method="Nelder-Mead",
                       bounds=tuple(zip(lower, upper)), options=options)
        assert x[k].tobytes() == res.x.tobytes() and fx[k] == res.fun
        nfev.append(res.nfev)
        alone = []
        nelder_mead_minima(counted(alone, [k]), x0[k:k + 1], lower, upper, **options)
        rounds.append(len(alone))
    # one objective call per round, for the lanes still running, whatever
    # step each lane is at; the points asked for are scipy's evaluations
    assert len(calls) == max(rounds)
    assert sum(calls) == sum(nfev)


def test_nelder_mead_minima_of_no_lanes():
    x, fx = nelder_mead_minima(lambda p, k: np.hypot(p[:, 0], p[:, 1]), np.empty((0, 2)),
                               [0.0, 0.0], [1.0, 1.0], 1e-10, 1e-14, 2000)
    assert x.shape == (0, 2) and fx.shape == (0,)


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
    assert len(refined) == 4
    assert all(r.theta1 >= 0.0 for r in refined)
    # one scipy run per minimum made 192 engine calls here; in lockstep the
    # refinement and all probes take about as many as the slowest minimum
    assert len(calls) < 60
    assert max(calls) >= len(refined)


def test_batch_points_bound_the_batch_matrices():
    for dim in (2, 4, 6):
        size = batch_points(dim)
        assert size * 16 * dim * dim <= BATCH_BYTES < (size + 1) * 16 * dim * dim


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
    # one roots call: the three minima left, and six probes of each cone
    assert calls == [3 + 6 * 2]

    calls.clear()
    parabola = _two_branches(lambda t: 0.0 * t, lambda t: (t - 1.0) ** 2, calls)
    [report] = classify_minima(parabola, [(0, 1.0, -1.0, 0.0)], _SLICE, 1e-6, 1e-4)
    assert report.kind == "parabolic" and report.curvature == pytest.approx(1.0)
    assert calls == [1 + 6]


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
    # the minimum and its six probes, of which the crossing test reads two
    assert report.kind == "crossing" and calls == [1 + 6]
    [report] = classify_minima(cross, minimum, _SLICE, 1e-6, 1e-4)
    assert report.kind == "cone" and report.gamma == pytest.approx(1.0)
    assert calls == [7, 7]


def test_classify_minima_labels_every_kind_in_one_call():
    calls = []
    # one pair whose upper branch crosses the lower one at 0, touches it
    # quadratically at 1 and linearly at 2, and stays 0.5 above it at 3
    upper = _two_branches(lambda t: 0.0 * t, lambda t: np.select(
        [t < 0.5, t < 1.5, t < 2.5], [-t, (t - 1.0) ** 2, np.abs(t - 2.0)],
        0.5 + (t - 3.0) ** 2), calls)
    minima = [(0, 2.0, -2.0, 0.0), (0, 3.0, -3.0, 0.5), (0, 0.0, -0.0, 0.0),
              (0, 1.0, -1.0, 0.0)]
    reports = classify_minima(upper, minima, _SLICE, 1e-6, 1e-4, crossings=True)
    assert [(r.kind, r.theta1) for r in reports] == [
        ("crossing", 0.0), ("parabolic", 1.0), ("cone", 2.0), ("gap", 3.0)]
    crossing, parabola, cone, gap = reports
    assert cone.gamma == pytest.approx(0.5) and cone.curvature is None
    assert parabola.curvature == pytest.approx(1.0) and parabola.gamma is None
    assert crossing.gamma is None and crossing.curvature is None
    assert gap.gap_width == 0.5
    assert calls == [4 + 6 * 3]


def _stage_calls(monkeypatch, module):
    """The sizes of the ``roots`` calls of each ``classify_minima`` call made
    through ``module``, one list per stage call."""
    stages = []
    stage = module.classify_minima

    def counted_stage(roots, *args, **kwargs):
        stages.append([])

        def counted(theta1, theta2):
            stages[-1].append(len(theta1))
            return roots(theta1, theta2)
        return stage(counted, *args, **kwargs)

    monkeypatch.setattr(module, "classify_minima", counted_stage)
    return stages


_SLICE_STACKS = {
    "monolayer-cones": StackConfig(StackVariant.MONOLAYER, VertexParams(0.0, 0.0)),
    "aa-crossings": StackConfig(StackVariant.BILAYER_AA, VertexParams(-1.0, -1.0),
                                coupling=CouplingParams(t0=0.5)),
    "aa-parabolas": StackConfig(StackVariant.BILAYER_AA, VertexParams(-1.0, -0.5),
                                coupling=CouplingParams(t0=0.5)),
    "hetero-numeric": StackConfig(StackVariant.HETERO_BILAYER,
                                  VertexParams(-1.0, 0.7, 0.2),
                                  coupling=CouplingParams(t0=0.3)),
}


@pytest.mark.parametrize("config", _SLICE_STACKS.values(), ids=_SLICE_STACKS)
def test_classify_touches_labels_in_one_engine_call(monkeypatch, config):
    surface = sample_diagonal(config, n=501)
    stages = _stage_calls(monkeypatch, bands)
    f_calls = []
    structure_function = bands.structure_function

    def counting(t1, t2):
        # the engine pass makes the F of its own points; count the others' calls
        if sys._getframe(1).f_code is not bands.engine_rows.__code__:
            f_calls.append(len(t1))
        return structure_function(t1, t2)

    monkeypatch.setattr(bands, "structure_function", counting)
    reports = [r for r in classify_touches(surface) if r.theta1 is not None]
    touches = sum(r.kind != "gap" for r in reports)
    # the minima and six probes per touch, in one roots call; F at the
    # refined minima (duplicates included) in one structure_function call
    assert stages == [[len(reports) + 6 * touches]]
    assert len(f_calls) == 1 and f_calls[0] >= len(reports)


@pytest.mark.parametrize("q", [1, 2])
def test_magnetic_classify_labels_in_one_engine_call(monkeypatch, q):
    config = StackConfig(StackVariant.MAGNETIC_MONOLAYER, VertexParams(0.0, 0.0),
                         flux=FluxSpec(1, q))
    stages = _stage_calls(monkeypatch, magnetic)
    reports = magnetic.magnetic_classify(config, n=41)
    touches = sum(r.kind != "gap" for r in reports)
    assert touches >= 1
    assert stages == [[len(reports) + 6 * touches]]
