"""Hill-discriminant module: monodromy, Dirichlet spectrum, band inversion."""

import math
import tracemalloc
from dataclasses import fields

import mpmath
import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import hexband.hill as hill
from hexband.errors import EngineError, InputError
from hexband.hill import (
    MAGNUS_TOL,
    PotentialSpec,
    bands_from_root_surface,
    dirichlet_spectrum,
    discriminant,
    integrate_monodromy,
    invert_discriminant,
)

import frozen

ZERO = PotentialSpec.zero()


def _cos2pi(x):
    return np.cos(2.0 * np.pi * np.asarray(x))


# ------------------------------------------------------------
#  Potential specification
# ------------------------------------------------------------

class TestPotentialSpec:
    def test_zero_evaluates_to_zero(self):
        x = np.linspace(0, 1, 7)
        assert np.all(ZERO(x) == 0.0)
        assert ZERO.is_zero

    def test_sampled_linear_interpolation(self):
        x = np.linspace(0.0, 1.0, 2001)
        pot = PotentialSpec.sampled(x, _cos2pi(x))
        probe = np.linspace(0, 1, 199)
        assert np.max(np.abs(pot(probe) - _cos2pi(probe))) < 5e-6

    def test_closure(self):
        pot = PotentialSpec.closure(_cos2pi)
        assert pot(np.array([0.25]))[0] == pytest.approx(0.0, abs=1e-15)

    def test_odd_potential_rejected(self):
        with pytest.raises(InputError, match="not even"):
            PotentialSpec.closure(lambda x: np.asarray(x) - 0.5)

    def test_sampled_odd_rejected(self):
        x = np.linspace(0.0, 1.0, 101)
        with pytest.raises(InputError, match="not even"):
            PotentialSpec.sampled(x, x)

    def test_evenness_is_judged_relative_to_the_potential_size(self):
        # interpolating q(1 - x) rounds at the scale of max |q|: 1.7e-10 here
        pot = PotentialSpec.sampled([0.0, 0.5, 1.0], [1e6, 0.0, 1e6])
        assert pot(np.array([1.0]))[0] == 1e6
        with pytest.raises(InputError, match="not even"):
            PotentialSpec.sampled([0.0, 0.5, 1.0], [1e6, 0.0, 1e6 + 1.0])
        with pytest.raises(InputError, match="not even"):
            PotentialSpec.closure(lambda x: np.where(np.asarray(x) == 0.5,
                                                     np.nan, 1.0))

    def test_sampled_evenness_is_checked_at_every_knot_and_its_mirror(self):
        # a spike between the 1001 probes: q(0.1235) = 100, q(0.8765) = 0
        with pytest.raises(InputError, match="not even"):
            PotentialSpec.sampled([0.0, 0.1232, 0.1235, 0.1238, 1.0],
                                  [0.0, 0.0, 100.0, 0.0, 0.0])
        # even, with a knot at 0.9 whose mirror 0.1 is not a knot (collinear)
        pot = PotentialSpec.sampled([0.0, 0.5, 0.9, 1.0], [0.0, 2.0, 0.4, 0.0])
        assert pot(np.array([0.1]))[0] == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize("x,values,column", [
        ([0.0, 0.5, np.nan, 1.0], [0.0] * 4, "abscissae"),
        ([0.0, 0.5, 1.0, np.nan], [0.0] * 4, "abscissae"),
        ([0.0, 0.5, 1.0], [1.0, np.nan, 1.0], "values"),
        ([0.0, 0.5, 1.0], [np.inf, 0.0, np.inf], "values"),
    ], ids=["nan-inner-abscissa", "nan-last-abscissa", "nan-value", "inf-value"])
    def test_non_finite_sampled_potential_rejected(self, x, values, column):
        with pytest.raises(InputError, match=f"{column} .* must be finite"):
            PotentialSpec.sampled(x, values)

    def test_non_increasing_abscissae_rejected(self):
        with pytest.raises(InputError, match="strictly increasing"):
            PotentialSpec.sampled([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 1.0, 0.0])

    def test_domain_coverage_required(self):
        with pytest.raises(InputError, match="cover"):
            PotentialSpec.sampled([0.0, 0.5, 0.9], [1.0, 2.0, 1.0])

    def test_from_file_round_trip(self, tmp_path):
        x = np.linspace(0.0, 1.0, 501)
        path = tmp_path / "pot.txt"
        np.savetxt(path, np.column_stack([x, _cos2pi(x)]))
        pot = PotentialSpec.from_file(path)
        assert pot.kind == "sampled"
        assert pot(np.array([0.5]))[0] == pytest.approx(-1.0, abs=1e-12)

    def test_from_file_bad_shape(self, tmp_path):
        path = tmp_path / "bad.txt"
        np.savetxt(path, np.ones((4, 3)))
        with pytest.raises(InputError, match="two columns"):
            PotentialSpec.from_file(path)

    @pytest.mark.parametrize("text", ["", "0 1\n"], ids=["empty", "one-row"])
    def test_from_file_needs_two_rows(self, tmp_path, text):
        # an empty file made numpy warn (an error under this suite's warning
        # filter), and one row of two columns was refused as not two columns
        path = tmp_path / "short.txt"
        path.write_text(text)
        with pytest.raises(InputError, match="at least two rows"):
            PotentialSpec.from_file(path)

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            PotentialSpec.from_file(tmp_path / "nope.txt")

    def test_closure_not_callable(self):
        with pytest.raises(InputError, match="callable"):
            PotentialSpec.closure(3.0)


# ------------------------------------------------------------
#  Monodromy: zero potential analytic branch
# ------------------------------------------------------------

class TestZeroPotentialMonodromy:
    @pytest.mark.parametrize("lam", [-25.0, -3.7, -1e-3, 0.0, 1e-12, 1e-3,
                                     0.9, 2.4674, np.pi**2, 50.0, 400.0])
    def test_matches_reference(self, lam):
        m = integrate_monodromy(ZERO, lam)
        c, cp, s, sp = frozen.ref_zero_potential_monodromy(lam)
        assert m.c1 == pytest.approx(c, abs=1e-12)
        assert m.c1_prime == pytest.approx(cp, abs=1e-12)
        assert m.s1 == pytest.approx(s, abs=1e-12)
        assert m.s1_prime == pytest.approx(sp, abs=1e-12)

    def test_wronskian_is_one(self):
        for lam in np.linspace(-20, 120, 37):
            assert abs(integrate_monodromy(ZERO, lam).det - 1.0) < 1e-12

    def test_discriminant_is_two_cos_sqrt(self):
        lams = np.linspace(0.1, 200.0, 101)
        d = np.array([discriminant(ZERO, l) for l in lams])
        assert np.max(np.abs(d - 2.0 * np.cos(np.sqrt(lams)))) < 1e-12

    def test_the_half_edge_map_reflects_to_the_monodromy(self):
        # N = W(1/2): the unit edge's forms at lambda/4, with c' doubled and
        # s halved; W(1) = R N^-1 R N
        lams = np.array([-25.0, -3.7, -1e-9, 0.0, 1e-9, 0.9, np.pi**2, 50.0, 400.0])
        m = integrate_monodromy(ZERO, lams)
        c, cp, s, sp = m.half_edge
        quarter = [frozen.ref_zero_potential_monodromy(lam / 4.0) for lam in lams]
        assert np.allclose(c, [r[0] for r in quarter], rtol=0.0, atol=1e-12)
        assert np.allclose(cp, [2.0 * r[1] for r in quarter], rtol=0.0, atol=1e-12)
        assert np.allclose(s, [0.5 * r[2] for r in quarter], rtol=0.0, atol=1e-12)
        assert c.tobytes() == sp.tobytes()
        scale = np.maximum(1.0, np.abs(m.c1_prime))
        for whole, half in ((m.c1, c * sp + s * cp), (m.c1_prime, 2.0 * c * cp),
                            (m.s1, 2.0 * s * sp)):
            assert np.all(np.abs(whole - half) <= 1e-12 * scale)
        one = integrate_monodromy(ZERO, 50.0).half_edge
        assert one == tuple(v[7] for v in m.half_edge)

    def test_series_branch_continuous(self):
        # both sides of the series switch-over agree with the exact cosine
        for lam in (0.99e-8, 1.01e-8):
            m = integrate_monodromy(ZERO, lam)
            w = np.sqrt(lam)
            assert m.c1 == pytest.approx(np.cos(w), abs=1e-15)
            assert m.s1 == pytest.approx(np.sin(w) / w, abs=1e-15)


# ------------------------------------------------------------
#  Monodromy: integrated potentials
# ------------------------------------------------------------

class TestIntegratedMonodromy:
    @pytest.mark.parametrize("lam", [-2.0, 0.3, 9.5, 40.0])
    def test_zero_closure_matches_analytic(self, lam):
        pot = PotentialSpec.closure(lambda x: np.zeros_like(np.asarray(x)))
        m_num = integrate_monodromy(pot, lam)
        m_ref = integrate_monodromy(ZERO, lam)
        assert m_num.c1 == pytest.approx(m_ref.c1, abs=1e-9)
        assert m_num.s1 == pytest.approx(m_ref.s1, abs=1e-9)
        assert m_num.s1_prime == pytest.approx(m_ref.s1_prime, abs=1e-9)

    def test_wronskian_gate(self):
        pot = PotentialSpec.closure(_cos2pi)
        for lam in [-1.0, 2.0, 11.0, 45.0]:
            assert abs(integrate_monodromy(pot, lam).det - 1.0) < 1e-8

    def test_even_potential_symmetry(self):
        # even q forces c(1) = s'(1), so d = 2 c(1)
        pot = PotentialSpec.closure(_cos2pi)
        for lam in [0.5, 3.0, 12.0, 33.0]:
            m = integrate_monodromy(pot, lam)
            assert m.c1 == pytest.approx(m.s1_prime, abs=1e-8)

    def test_sampled_matches_closure(self):
        x = np.linspace(0.0, 1.0, 4001)
        samp = PotentialSpec.sampled(x, _cos2pi(x))
        clos = PotentialSpec.closure(_cos2pi)
        for lam in [1.0, 10.0]:
            assert discriminant(samp, lam) == pytest.approx(
                discriminant(clos, lam), abs=1e-6)

    def test_nan_lambda_fails_the_gates(self):
        # NaN fails |det W - 1| <= tol, and the step-halving gate before it
        with pytest.raises(EngineError, match="Wronskian"):
            integrate_monodromy(ZERO, float("nan"))
        with pytest.raises(EngineError, match="step-halving"):
            integrate_monodromy(PotentialSpec.closure(_cos2pi), float("nan"))
        with pytest.raises(EngineError, match="Wronskian"):
            integrate_monodromy(ZERO, np.array([1.0, np.nan, 4.0]))


# ------------------------------------------------------------
#  Magnus integrator and its step-halving gate
# ------------------------------------------------------------

def _five_cos(x):
    return 5.0 * np.cos(2.0 * np.pi * np.asarray(x))


_KNOTS = np.array([0.0, 0.2, 0.35, 0.5, 0.65, 0.8, 1.0])
_KNOT_VALUES = np.array([2.0, -1.0, 3.0, 0.5, 3.0, -1.0, 2.0])
_BUMP_KNOTS = [0.0, 0.25, 0.5, 0.75, 1.0]


class TestMagnus:
    @pytest.mark.parametrize("case", ["closure-5cos", "sampled-knots"])
    def test_matches_independent_reference(self, case):
        # fixed-step RK4 with steps of at most 1/4096 is accurate to ~1e-11
        if case == "closure-5cos":
            pot, edges = PotentialSpec.closure(_five_cos), [0.0, 1.0]
        else:
            pot, edges = PotentialSpec.sampled(_KNOTS, _KNOT_VALUES), _KNOTS
        dirichlet_spectrum(pot, 298.0)          # gates the scan range once
        lams = np.concatenate([np.linspace(-14.0, 1.0, 7),
                               np.linspace(2.0, 300.0, 23)])
        m = integrate_monodromy(pot, lams)
        steps = 4096 if len(edges) == 2 else 1024
        d_ref, s_ref = frozen.ref_rk4_monodromy(pot, edges, lams, steps)
        assert np.all(np.abs(m.discriminant - d_ref)
                      <= 1e-9 * np.maximum(1.0, np.abs(d_ref)))
        assert np.all(np.abs(m.s1 - s_ref) <= 1e-9 * np.maximum(1.0, np.abs(s_ref)))
        assert 0 < pot.magnus.deviation <= MAGNUS_TOL

    def test_knots_need_not_be_mirror_symmetric(self):
        # only [0, 1/2] is integrated: this even q has a knot at 0.9 (on a
        # straight line) and none at 0.1, and only the reference sees [1/2, 1]
        knots = [0.0, 0.5, 0.9, 1.0]
        pot = PotentialSpec.sampled(knots, [0.0, 2.0, 0.4, 0.0])
        lams = np.concatenate([np.linspace(-10.0, 1.0, 5),
                               np.linspace(2.0, 300.0, 17)])
        m = integrate_monodromy(pot, lams)
        # one piece, [0, 1/2]: the whole edge's grid took 32 + 26 + 7 steps
        assert pot.magnus.steps == 32 << pot.magnus.halvings
        d_ref, s_ref = frozen.ref_rk4_monodromy(pot, knots, lams, 2048)
        assert np.all(np.abs(m.discriminant - d_ref)
                      <= 1e-9 * np.maximum(1.0, np.abs(d_ref)))
        assert np.all(np.abs(m.s1 - s_ref) <= 1e-9 * np.maximum(1.0, np.abs(s_ref)))

    def test_a_lambda_gets_the_same_bits_alone_as_in_a_batch(self):
        pot = PotentialSpec.sampled(_KNOTS, _KNOT_VALUES)
        dirichlet_spectrum(pot, 120.0)
        # a batch over three lane chunks
        lams = np.random.default_rng(5).uniform(-10.0, 120.0, 2 * hill._LANES + 40)
        batch = integrate_monodromy(pot, lams)
        for k, lam in enumerate(lams):
            one = integrate_monodromy(pot, float(lam))
            assert (one.c1, one.c1_prime, one.s1, one.s1_prime) == (
                batch.c1[k], batch.c1_prime[k], batch.s1[k], batch.s1_prime[k])

    def test_zero_potential_batch_matches_scalar_calls_bit_for_bit(self):
        lams = np.concatenate([[-25.0, -1e-9, 0.0, 1e-9, 5e-9],
                               np.linspace(-3.0, 400.0, 97)])
        batch = integrate_monodromy(ZERO, lams)
        for k, lam in enumerate(lams):
            one = integrate_monodromy(ZERO, float(lam))
            assert (one.c1, one.c1_prime, one.s1, one.s1_prime) == (
                batch.c1[k], batch.c1_prime[k], batch.s1[k], batch.s1_prime[k])

    def test_every_step_is_unimodular(self):
        rng = np.random.default_rng(3)
        h = rng.uniform(1e-4, 0.05, 50)
        q1, q2, q3 = rng.uniform(-20.0, 20.0, (3, 50))
        lams = rng.uniform(-30.0, 2000.0, 16)
        (e11, e12), (e21, e22) = hill._step_maps(*hill._generator(h, q1, q2, q3), lams)
        assert np.max(np.abs(e11 * e22 - e12 * e21 - 1.0)) < 1e-12

    def test_steps_are_aligned_with_the_knots(self):
        # the grid covers the half edge [0, 1/2], with a step edge on each
        # knot there
        pot = PotentialSpec.sampled(_KNOTS, _KNOT_VALUES)
        for halvings in (0, 2):
            _, h = hill._grid_steps(pot, halvings)
            # exact prefix sums: np.cumsum's rounding grows with the steps
            edges = np.array([math.fsum(h[:k]) for k in range(len(h) + 1)])
            for knot in [*_KNOTS[_KNOTS <= 0.5], 0.5]:
                assert np.min(np.abs(edges - knot)) < 1e-14
            assert abs(edges[-1] - 0.5) < 1e-14

    def test_a_repeated_scan_reuses_the_gated_grid(self, monkeypatch):
        pot = PotentialSpec.closure(_five_cos)
        first = dirichlet_spectrum(pot, 160.0)
        steps = pot.magnus.steps
        grids = _count_magnus(monkeypatch)
        again = dirichlet_spectrum(pot, 160.0)
        assert np.array_equal(first, again)
        assert pot.magnus.steps == steps
        # the repeat is cut from the potential's scan record: nothing is
        # integrated, not even the refinement
        assert grids == []

    def test_unresolvable_potential_trips_the_step_halving_gate(self):
        # a bump of height 2.5e6 and width 0.04 on a flat floor needs more
        # than the finest grid the gate may compare: the deviation falls at
        # sixth order, but is still 2.4e-9 there (the bump of height 1e5 and
        # width 0.02 passes, at 5 halvings on lambda = -100, 50, 300)
        pot = PotentialSpec.sampled([0.0, 0.48, 0.5, 0.52, 1.0],
                                    [-2.5e6, -2.5e6, 0.0, -2.5e6, -2.5e6])
        steps = len(hill._grid_steps(pot, hill._MAX_HALVINGS)[1])
        with pytest.raises(EngineError, match=f"step-halving gate failed: .* "
                                              f"from {steps // 2} to {steps} steps"):
            integrate_monodromy(pot, np.array([-1e6, -5e5, 300.0]))
        assert pot.magnus.steps == 0        # no gate passed

    def test_the_halving_deviation_falls_at_sixth_order(self):
        # h against h/2 on a smooth potential: each halving divides the
        # deviation by about 2^6 = 64, where a fourth-order step gives 16
        pot = PotentialSpec.closure(lambda x: 20.0 * _cos2pi(x) + _five_cos(2.0 * x))
        lams = np.linspace(-20.0, 300.0, 65)
        maps = [hill._reflect(*hill._magnus(pot, k, lams)) for k in range(4)]
        deviations = [hill._halving_deviation(a, b) for a, b in zip(maps, maps[1:])]
        for coarse, fine in zip(deviations, deviations[1:]):
            assert 40.0 <= coarse / fine <= 100.0

    def test_the_step_count_is_the_gated_grids(self):
        # MagnusState is the one record of the integration: a spectrum
        # result carries none of it
        pot = PotentialSpec.closure(_five_cos)
        assert pot.magnus.steps == 0
        result = bands_from_root_surface(pot, [(-0.9, 0.9)], n_bands=2)
        state = pot.magnus
        # the base grid's 32 steps on [0, 1/2], halved as often as the gate chose
        assert state.steps == len(state.grids[state.halvings][0]) == 32 << state.halvings
        assert 0.0 < state.deviation <= MAGNUS_TOL and state.evaluations > 0
        assert [f.name for f in fields(result)] == ["intervals", "dirichlet", "diagnostics"]


# ------------------------------------------------------------
#  Kernels against their earlier forms, bit for bit
# ------------------------------------------------------------

def _three_branch_zero_monodromy(lam):
    """The zero-potential closed form as it masked all three branches on
    every call: frozen, the bit-for-bit reference of the one that skips
    empty branches."""
    c, cp, s = np.empty_like(lam), np.empty_like(lam), np.empty_like(lam)
    pos, neg = lam > hill._SMALL_LAMBDA, lam < -hill._SMALL_LAMBDA
    w = np.sqrt(lam[pos])
    c[pos], cp[pos], s[pos] = np.cos(w), -w * np.sin(w), np.sin(w) / w
    w = np.sqrt(-lam[neg])
    c[neg], cp[neg], s[neg] = np.cosh(w), w * np.sinh(w), np.sinh(w) / w
    mid = ~(pos | neg)
    l = lam[mid]
    c[mid] = 1.0 - l / 2.0 + l * l / 24.0
    cp[mid] = -l * (1.0 - l / 6.0 + l * l / 120.0)
    s[mid] = 1.0 - l / 6.0 + l * l / 120.0
    return c, cp, s, c


def _block_by_block_magnus(a0, a1, b, c0, c1, lam):
    """The Magnus kernel, run one 32-step block of up to 100 lambdas at a
    time, with both branches of every step map taken everywhere: frozen, the
    bit-for-bit reference of ``hill._magnus``, which stacks blocks and
    chunks lambdas otherwise."""
    def step_maps(a0, a1, b, c0, c1, lam):
        a0, a1, b, c0, c1 = (v[:, None] for v in (a0, a1, b, c0, c1))
        a = a0 - a1 * lam
        c = c0 - c1 * lam
        delta = a * a + b * c
        r = np.sqrt(np.abs(delta))
        osc = delta < 0.0
        r_hyp = np.where(osc, 0.0, r)
        cosine = np.where(osc, np.cos(r), np.cosh(r_hyp))
        sine = np.divide(np.where(osc, np.sin(r), np.sinh(r_hyp)), r,
                         out=np.ones_like(r), where=r > 0.0)
        return (cosine + sine * a, sine * b, sine * c, cosine - sine * a)

    grid = (a0, a1, b, c0, c1)
    out = np.empty((2, 2, len(lam)))
    for start in range(0, len(lam), 100):
        chunk = lam[start:start + 100]
        y = np.repeat(np.eye(2)[:, :, None], len(chunk), axis=2)
        for j in range(0, len(b), 32):
            m = np.stack(step_maps(*(v[j:j + 32] for v in grid), chunk))
            m = m.reshape(2, 2, -1, len(chunk))
            while m.shape[2] > 1:
                even = m.shape[2] // 2 * 2
                a, b_ = m[:, :, 1:even:2], m[:, :, 0:even:2]
                p = a[:, 0, None] * b_[0] + a[:, 1, None] * b_[1]
                m = p if even == m.shape[2] else np.concatenate(
                    [p, m[:, :, even:]], axis=2)
            m = m[:, :, 0]
            y = m[:, 0, None] * y[0] + m[:, 1, None] * y[1]
        out[:, :, start:start + len(chunk)] = y
    return out[0, 0], out[1, 0], out[0, 1], out[1, 1]


def _reflected(c, cp, s, sp):
    """W(1) = [[c s' + s c', 2 s s'], [2 c c', c s' + s c']] from the
    half-edge map N = W(1/2) = [[c, s], [c', s']] of an even potential:
    frozen, the bit-for-bit reference of ``hill._reflect``; returns
    (c(1), c'(1), s(1), s'(1))."""
    c1 = c * sp + s * cp
    return c1, 2.0 * c * cp, 2.0 * s * sp, c1


def _full_edge_grid(pot, halvings):
    """The Magnus grid on all of [0, 1] (knot intervals inside [0, 1], 64
    steps per unit length, halved ``halvings`` times), with the generator
    coefficients of ``hill._generator``: frozen, the reference the half-edge
    kernel is held to within rounding."""
    if pot.kind == "sampled":
        inner = pot.x[(pot.x > 0.0) & (pot.x < 1.0)]
        edges = np.concatenate([[0.0], inner, [1.0]])
    else:
        edges = np.array([0.0, 1.0])
    per_piece = np.maximum(1, np.ceil(np.diff(edges) * 64)).astype(int) << halvings
    h = np.repeat(np.diff(edges) / per_piece, per_piece)
    first = np.repeat(np.cumsum(per_piece) - per_piece, per_piece)
    left = np.repeat(edges[:-1], per_piece) + (np.arange(len(h)) - first) * h
    node = math.sqrt(15.0) / 10.0
    return hill._generator(h, pot(left + (0.5 - node) * h), pot(left + 0.5 * h),
                           pot(left + (0.5 + node) * h))


def _bits(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


class TestKernelBits:
    @pytest.mark.parametrize("lam", [
        np.array([]),
        np.linspace(0.5, 400.0, 37),
        np.array([-25.0, -1e-8, -1e-9, -0.0, 0.0, 1e-9, 1e-8, 2e-8, 3.0]),
        np.array([4.0, np.nan, -2.0, 0.0, np.nan]),
    ], ids=["empty", "all-positive", "mixed", "nan"])
    def test_zero_potential_skips_only_empty_branches(self, lam):
        assert _bits(hill._zero_potential_monodromy(lam)) == _bits(
            _three_branch_zero_monodromy(lam))

    @pytest.mark.parametrize("halvings", [0, 1, 2])
    @pytest.mark.parametrize("lanes", [1, 2, 16, 17, 63, 64, 65, 200, 255, 256,
                                       257, 391])
    @pytest.mark.parametrize("case", ["knots", "bumps"])
    def test_magnus_matches_the_block_by_block_kernel(self, case, lanes, halvings):
        # on the half edge, "knots": 33 << halvings steps, so a partial block
        # trails; "bumps": whole blocks only, and lambdas from below
        # min q = -40, where the planes mix oscillating and growing steps
        if case == "knots":
            pot, lo = PotentialSpec.sampled(_KNOTS, _KNOT_VALUES), -10.0
        else:
            pot = PotentialSpec.sampled(_BUMP_KNOTS, [-40.0, 30.0, -40.0, 30.0, -40.0])
            lo = -60.0
        lams = np.random.default_rng(lanes).uniform(lo, 300.0, lanes)
        got = hill._magnus(pot, halvings, lams)
        grid = pot.magnus.grids[halvings]
        steps = len(grid[0])
        assert steps % hill._BLOCK != 0 if case == "knots" else steps % hill._BLOCK == 0
        assert _bits(got) == _bits(_block_by_block_magnus(*grid, lams))

    def test_magnus_matches_the_block_by_block_kernel_at_edge_lambdas(self):
        # delta = 0 (r = 0) at lambda = 0 on a flat potential, and NaN
        pot = PotentialSpec.closure(lambda x: np.zeros_like(np.asarray(x)))
        lams = np.array([0.0, np.nan, -0.0, 1e-300, -1e-300, 5.0, -5.0])
        got = hill._magnus(pot, 0, lams)
        assert _bits(got) == _bits(_block_by_block_magnus(*pot.magnus.grids[0], lams))

    def test_the_reflection_matches_its_frozen_form(self):
        # on half-edge maps of a sampled potential, from below min q, with
        # the signed zeros and NaN of the edge lambdas
        pot = PotentialSpec.sampled(_BUMP_KNOTS, [-40.0, 30.0, -40.0, 30.0, -40.0])
        lams = np.concatenate([np.linspace(-60.0, 300.0, 61),
                               [0.0, -0.0, np.nan]])
        n = hill._magnus(pot, 0, lams)
        assert _bits(hill._reflect(*n)) == _bits(_reflected(*n))

    @pytest.mark.parametrize("halvings", [0, 1])
    @pytest.mark.parametrize("case", ["knots", "bumps"])
    def test_the_half_edge_matches_the_full_edge_kernel(self, case, halvings):
        # the reflection replaces the product over [1/2, 1]; for an even q the
        # two agree up to rounding, from below min q (-1, -40) up to 300
        if case == "knots":
            pot, lo = PotentialSpec.sampled(_KNOTS, _KNOT_VALUES), -10.0
        else:
            pot = PotentialSpec.sampled(_BUMP_KNOTS, [-40.0, 30.0, -40.0, 30.0, -40.0])
            lo = -60.0
        lams = np.linspace(lo, 300.0, 97)
        c, cp, s, sp = hill._reflect(*hill._magnus(pot, halvings, lams))
        c_f, cp_f, s_f, sp_f = _block_by_block_magnus(*_full_edge_grid(pot, halvings), lams)
        for got, want in ((c + sp, c_f + sp_f), (s, s_f), (cp, cp_f)):
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    def test_a_large_call_keeps_its_temporaries_in_a_few_planes(self):
        # 391 lambdas on 32 steps, in chunks of 256 and 135: each pass holds
        # the four entry planes of its step maps and the first tree level's
        # product and addend
        pot = PotentialSpec.sampled(_BUMP_KNOTS, [2.0, -1.5, 2.0, -1.5, 2.0])
        lams = np.linspace(-3.0, 300.0, 391)
        hill._magnus(pot, 0, lams[:1])          # the grid is built outside
        tracemalloc.start()
        try:
            hill._magnus(pot, 0, lams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * hill._PLANE


# ------------------------------------------------------------
#  Dirichlet spectrum
# ------------------------------------------------------------

def _count_magnus(monkeypatch):
    """Record (halvings, lambdas) of every ``hill._magnus`` call from now on."""
    calls = []
    magnus = hill._magnus
    monkeypatch.setattr(hill, "_magnus", lambda p, halvings, lam: (
        calls.append((halvings, len(lam))) or magnus(p, halvings, lam)))
    return calls


class TestDirichletSpectrum:
    def test_zero_potential_squares_of_pi_multiples(self):
        nu = dirichlet_spectrum(ZERO, 110.0)
        assert nu.tolist() == [(np.pi * k) ** 2 for k in (1, 2, 3)]

    @pytest.mark.parametrize("k", [*range(1, 9), 11])
    def test_zero_potential_lists_a_point_at_lam_max(self, k):
        # with tol = 0 too: sqrt((11 pi)^2) / pi rounds to just below 11
        expect = [(np.pi * j) ** 2 for j in range(1, k + 1)]
        assert dirichlet_spectrum(ZERO, (np.pi * k) ** 2).tolist() == expect
        assert dirichlet_spectrum(ZERO, (np.pi * k) ** 2, tol=0.0).tolist() == expect

    def test_empty_below_first(self):
        assert len(dirichlet_spectrum(ZERO, 5.0)) == 0

    def test_perturbed_potential_stays_close(self):
        pot = PotentialSpec.closure(lambda x: 0.1 * _cos2pi(x))
        nu = dirichlet_spectrum(pot, 110.0)
        assert len(nu) == 3
        assert np.max(np.abs(nu - np.array([1, 4, 9]) * np.pi**2)) < 0.2

    def test_constant_potential_shifts_by_its_value(self):
        # -y'' + 50 y: nu_k = 50 + (k pi)^2; a scan from -60 drifted past
        # the Wronskian gate (solutions grow like exp(sqrt(50 - lambda)))
        nu = dirichlet_spectrum(PotentialSpec.sampled([0.0, 1.0], [50.0, 50.0]), 300.0)
        expect = 50.0 + np.arange(1, 6) ** 2 * np.pi**2
        assert len(nu) == 5
        assert np.max(np.abs(nu - expect)) < 1e-8
        # below zero too: -y'' - 50 y has nu_1,2 = pi^2 - 50, 4 pi^2 - 50
        below = PotentialSpec.sampled([0.0, 1.0], [-50.0, -50.0])
        assert np.allclose(dirichlet_spectrum(below, -5.0),
                           np.array([1.0, 4.0]) * np.pi**2 - 50.0, rtol=0.0, atol=1e-8)

    def test_scan_brackets_a_root_at_lam_max(self):
        # above lambda = 100 the scan points are more than 1 apart, so a scan
        # cut at lam_max + 1 can end before the point past a root at lam_max
        rng = np.random.default_rng(5)
        for p, q in rng.uniform(-3.0, 3.0, (12, 2)):
            pot = PotentialSpec.sampled(np.linspace(0.0, 1.0, 5), [p, q, p, q, p])
            nu = dirichlet_spectrum(pot, 5.5 ** 2 * np.pi ** 2)
            for k in range(4):
                assert nu[k] in dirichlet_spectrum(pot, nu[k])

    @pytest.mark.parametrize("kind", ["zero", "sampled"])
    @pytest.mark.parametrize("lam_max", [math.nan, math.inf])
    def test_a_scan_needs_a_finite_top(self, monkeypatch, kind, lam_max):
        # a raw ValueError or OverflowError from arange or int() before
        pot = ZERO if kind == "zero" else PotentialSpec.sampled(_KNOTS, _KNOT_VALUES)
        dirichlet_spectrum(pot, 100.0)
        record, evaluations = pot.magnus.scan, pot.magnus.evaluations
        calls = _count_magnus(monkeypatch)
        with pytest.raises(InputError, match="finite top"):
            dirichlet_spectrum(pot, lam_max)
        assert calls == [] and pot.magnus.evaluations == evaluations
        assert pot.magnus.scan is record

    def test_a_scan_cut_from_the_record_equals_a_fresh_scan(self, monkeypatch):
        # a narrower scan's points are a prefix of the recorded scan's, so it
        # has the same brackets, and each refined root the same bits.  The
        # reference is a new potential of the same knots that takes the same
        # calls, so its gate picks the same grid, but drops its record
        # before each one and so scans afresh every time.
        widest = 5.5 ** 2 * np.pi ** 2
        calls = _count_magnus(monkeypatch)

        def twins(pot, twin, lam_max, tol=1e-10):
            # tol only cuts: the record serves a scan with any tol
            del calls[:]
            served = dirichlet_spectrum(pot, lam_max, tol)
            integrated = len(calls)
            twin.magnus.scan = None
            fresh = dirichlet_spectrum(twin, lam_max, tol)
            assert twin.magnus.halvings == pot.magnus.halvings
            assert served.dtype == fresh.dtype
            assert served.tobytes() == fresh.tobytes()
            return served, integrated

        for seed in range(8):
            pot = _random_even(seed)
            twin = PotentialSpec.sampled(pot.x, pot.values)
            wide, _ = twins(pot, twin, widest)
            record = pot.magnus.scan
            rng = np.random.default_rng(seed)
            # below the widest scan: anywhere, at a found root, at its top
            # and below min q, and with another tol
            for lam_max in [*rng.uniform(0.0, widest, 4), wide[2], widest,
                            float(np.min(pot.values)) - 2.0]:
                for tol in (1e-10, 1e-8):
                    _, integrated = twins(pot, twin, lam_max, tol)
                    assert integrated == 0 and pot.magnus.scan is record
            assert wide[2] in dirichlet_spectrum(pot, wide[2])
            # a wider scan integrates afresh and replaces the record
            _, integrated = twins(pot, twin, widest + 60.0)
            assert integrated > 0
            assert pot.magnus.scan[1] == widest + 60.0
        # so does one after the gate picked a finer grid past the record
        pot = PotentialSpec.sampled(_BUMP_KNOTS, [0.0, 300.0, 0.0, 300.0, 0.0])
        twin = PotentialSpec.sampled(pot.x, pot.values)
        twins(pot, twin, 60.0)
        halvings = pot.magnus.halvings
        for p in (pot, twin):
            integrate_monodromy(p, np.linspace(60.0, 300.0, 40))
        assert pot.magnus.halvings > halvings
        _, integrated = twins(pot, twin, 40.0)
        assert integrated > 0
        assert pot.magnus.scan[:2] == (pot.magnus.halvings, 40.0)

    def test_a_spectrum_integrates_its_scan_grid_in_the_gate_only(self, monkeypatch):
        # the scan for the Dirichlet points is cut from the edges' scan:
        # the gate's coarse and fine passes are the only calls on a scan
        # grid (a refinement batch holds at most two lambdas a lane)
        pot = PotentialSpec.sampled(_KNOTS, _KNOT_VALUES)
        calls = _count_magnus(monkeypatch)
        result = bands_from_root_surface(pot, [(-0.9, 0.9)], n_bands=4)
        full = max(n for _, n in calls)
        assert [call for call in calls if call[1] > 100] == [(0, full), (1, full)]
        assert len(result.dirichlet) == 4

    def test_tall_bumps_scan_from_just_below_min_q(self):
        # a scan from -(max|q| + 10) = -160 drifted 1e-3 past the gate
        pot = PotentialSpec.sampled(_BUMP_KNOTS, [0.0, 150.0, 0.0, 150.0, 0.0])
        nu = dirichlet_spectrum(pot, 148.0)
        assert len(nu) == 2 and np.all(nu > np.pi**2)
        assert np.all(np.abs(integrate_monodromy(pot, nu).s1) < 1e-12)

    def test_taller_bumps_pass_the_wronskian_gate(self):
        # solutions grow ~1e5 through the bumps at every lambda below 300, so
        # c s' and c' s reach 1e10 and det W rounds 9.5e-7 away from 1 at
        # lambda = -1: an absolute 1e-8 gate failed there.  The eigenvalues
        # are those of a second-order finite-difference operator on 8000
        # cells, Richardson-extrapolated from 4000.
        pot = PotentialSpec.sampled(_BUMP_KNOTS, [0.0, 300.0, 0.0, 300.0, 0.0])
        nu = dirichlet_spectrum(pot, 298.0)
        assert np.allclose(nu, [114.55352228, 236.77056692, 258.72268231],
                           rtol=0.0, atol=2e-8)

    @pytest.mark.parametrize("amp, skew", [(20.0, 1.5e-9), (300.0, 1e-5)])
    def test_wronskian_gate_trips_on_a_step_map_off_sl2(self, monkeypatch, amp, skew):
        # the gate's rounding share admits the rounding of c s' and c' s, not
        # step maps whose det is 1 + skew: at amplitude 20 (32 steps) the
        # terms stay ~360 and det W = 1 + 1e-7, at 300 (128 steps) they reach
        # 1e10 and det W = 1 + 2.6e-3 at lambda = 150
        pot = PotentialSpec.sampled(_BUMP_KNOTS, [0.0, amp, 0.0, amp, 0.0])
        lams = np.array([-1.0, 10.0, amp / 2.0])
        integrate_monodromy(pot, lams)          # picks and gates the grid
        exact = hill._step_maps

        def skewed(*args):
            m = exact(*args)
            m[0, 0] *= 1.0 + skew
            return m

        monkeypatch.setattr(hill, "_step_maps", skewed)
        with pytest.raises(EngineError, match="Wronskian drifted"):
            integrate_monodromy(pot, lams)      # same grid, no halving gate


# ------------------------------------------------------------
#  Band inversion
# ------------------------------------------------------------

class TestInversion:
    def test_invert_simple_values(self):
        # cos(sqrt(lambda)) = 1/2 in band 1 -> lambda = (pi/3)^2
        lam = invert_discriminant(ZERO, 0.5, 1)
        assert lam == pytest.approx((np.pi / 3.0) ** 2, abs=1e-9)

    def test_invert_band_two_orientation(self):
        # band 2: cos on [pi, 2 pi]; eta = 0 -> sqrt(lambda) = 3 pi / 2
        lam = invert_discriminant(ZERO, 0.0, 2)
        assert lam == pytest.approx((1.5 * np.pi) ** 2, abs=1e-9)

    def test_invert_rejects_out_of_range(self):
        with pytest.raises(InputError, match="no band preimage"):
            invert_discriminant(ZERO, 1.2, 1)

    @pytest.mark.parametrize("band", [0, -1, 1.5, [2, 0]])
    def test_invert_rejects_a_band_that_is_not_one(self, band):
        with pytest.raises(InputError, match="is not a Hill band"):
            invert_discriminant(ZERO, 0.5, band)

    def test_invert_empty_batch(self):
        lam = invert_discriminant(ZERO, np.array([]), np.array([], dtype=int))
        assert lam.shape == (0,) and lam.dtype == float

    def test_monolayer_alpha0_lambda_intervals(self):
        res = bands_from_root_surface(ZERO, [(0.0, 1.0), (-1.0, 0.0)],
                                      n_bands=2)
        got = [(iv.lo, iv.hi) for iv in res.intervals]
        assert len(got) == 4
        for (lo, hi), (elo, ehi) in zip(got, frozen.HILL_LAMBDA_INTERVALS):
            assert lo == pytest.approx(elo, abs=1e-8)
            assert hi == pytest.approx(ehi, abs=1e-8)

    def test_dirichlet_points_flagged_in_result(self):
        res = bands_from_root_surface(ZERO, [(0.0, 1.0)], n_bands=2)
        assert np.any(np.abs(res.dirichlet - np.pi**2) < 1e-8)

    def test_partial_interval_clipped_with_warning(self):
        # the diagnostics are the one report of a clip (no warnings.warn;
        # the suite turns warnings into errors)
        res = bands_from_root_surface(ZERO, [(0.5, 1.5)], n_bands=1)
        assert res.diagnostics == (
            "eta interval 0 clipped to [0.5, 1] (inadmissible part dropped)",)
        assert len(res.intervals) == 1
        iv = res.intervals[0]
        # eta in [0.5, 1] on band 1 -> lambda in [0, (pi/3)^2]
        assert iv.lo == pytest.approx(0.0, abs=1e-9)
        assert iv.hi == pytest.approx((np.pi / 3.0) ** 2, abs=1e-9)

    def test_all_inadmissible_empty_with_diagnostic(self):
        res = bands_from_root_surface(ZERO, [(1.5, 2.0)], n_bands=1)
        assert res.intervals == ()
        assert res.diagnostics == (
            "eta interval 0 = [1.5, 2] is entirely inadmissible (|eta| > 1); "
            "skipped",
            "no admissible eta intervals: empty ac spectrum")

    def test_batch_inversion_matches_scalar_calls(self):
        pot = PotentialSpec.closure(lambda x: 0.3 * _cos2pi(x))
        etas = np.array([-0.9, 0.2, 0.7, -1.0, 1.0, 0.0])
        bands = np.array([1, 1, 2, 3, 2, 4])
        batch = invert_discriminant(pot, etas, bands)
        for eta, band, lam in zip(etas, bands, batch):
            assert invert_discriminant(pot, float(eta), int(band)) == lam
            assert 0.5 * discriminant(pot, lam) == pytest.approx(eta, abs=1e-9)

    @pytest.mark.parametrize("q", [-2.1, 1.0])
    def test_eta_minus_one_at_a_closed_gap_zeroes_c_and_s_prime(self, q):
        # a period-1/2 potential closes every gap at d = -2, where d/2 + 1 =
        # 2 c s' has a double root: both c(1/2) and s'(1/2) vanish at band
        # 1's upper edge.  d/2 + 1 at the first Dirichlet point once rounded
        # to -4.4e-16 for q = -2.1 and to +2.2e-15 for q = 1.0.
        pot = PotentialSpec.sampled(np.linspace(0.0, 1.0, 5),
                                    [1.3, q, 1.3, q, 1.3])
        lam = invert_discriminant(pot, -1.0, 1)
        c, _, _, sp = integrate_monodromy(pot, lam).half_edge
        assert abs(c) <= 1e-12 and abs(sp) <= 1e-12

    def test_band_two_starts_past_an_open_gap(self):
        # q = 2 cos 2 pi x: the first gap [8.857, 10.857] is open and the
        # first Dirichlet eigenvalue is its lower edge; band 2 starts at the
        # upper one, the zero of c(1/2)
        pot = PotentialSpec.closure(lambda x: 2.0 * _cos2pi(x))
        lam = invert_discriminant(pot, -1.0, 2)
        assert lam == pytest.approx(10.8567782022, abs=1e-8)
        assert abs(0.5 * discriminant(pot, lam) + 1.0) <= 1e-12
        assert lam - dirichlet_spectrum(pot, 50.0)[0] > 1.9

    @pytest.mark.parametrize("eta, band", [(0.5, 1), (-0.5, 2)])
    def test_a_bracket_without_a_sign_change_fails(self, monkeypatch, eta, band):
        # an engine failure (exit 2), not brent_roots' bare ValueError: with
        # each band's edges in place of the band below's, d/2 runs the other
        # way on the bracket, and d/2 - eta has the same sign at both ends
        pot = PotentialSpec.closure(lambda x: 2.0 * _cos2pi(x))
        edges = hill._band_edges
        monkeypatch.setattr(hill, "_band_edges", lambda p, n: edges(p, n + 1)[2:])
        with pytest.raises(EngineError, match=f"bracket .* failed for eta={eta} "
                                              f"in band {band}: no sign change"):
            invert_discriminant(pot, eta, band)

    def test_band_count_extends(self):
        res = bands_from_root_surface(ZERO, [(-1.0, 1.0)], n_bands=4)
        # full eta range per band: contiguous cover of [0, 16 pi^2]
        assert res.intervals[0].lo == pytest.approx(0.0, abs=1e-9)
        assert res.intervals[-1].hi == pytest.approx(16.0 * np.pi**2, abs=1e-7)


def _random_even(seed):
    """A sampled potential on 2-5 random knots in (0, 1/2), mirrored, with
    values in [-6, 6]."""
    rng = np.random.default_rng(seed)
    half = np.sort(rng.uniform(0.01, 0.49, rng.integers(2, 6)))
    x = np.concatenate([[0.0], half, [0.5], 1.0 - half[::-1], [1.0]])
    v = rng.uniform(-6.0, 6.0, len(half) + 2)
    return PotentialSpec.sampled(x, np.concatenate([v, v[-2::-1]]))


_EDGE_CASES = pytest.mark.parametrize("pot", [
    PotentialSpec.sampled(np.linspace(0.0, 1.0, 5), [1.3, -2.1, 1.3, -2.1, 1.3]),
    PotentialSpec.closure(_cos2pi),
    PotentialSpec.closure(lambda x: 2.0 * _cos2pi(x)),
    PotentialSpec.closure(lambda x: 5.0 * _cos2pi(x)),
    *(_random_even(seed) for seed in range(6)),
], ids=["period_half", "cos", "2cos", "5cos", *(f"random{s}" for s in range(6))])


def _edges(pot, n=4):
    """Bands 1 ... n as rows [lo, hi], from eta = +-1."""
    lams = invert_discriminant(pot, np.tile([1.0, -1.0], n),
                               np.repeat(np.arange(1, n + 1), 2))
    return np.sort(lams.reshape(n, 2), axis=1)


class TestBandEdges:
    """Each band edge is a simple zero of one entry of the half-edge map:
    d/2 - 1 = 2 s c' and d/2 + 1 = 2 c s' for an even potential."""

    @_EDGE_CASES
    def test_edges_zero_the_half_edge_map_and_interlace_with_nu(self, pot):
        n = 4
        bands = np.repeat(np.arange(1, n + 1), 2)
        etas = np.tile([1.0, -1.0], n)
        lams = invert_discriminant(pot, etas, bands)
        c, cp, s, sp = integrate_monodromy(pot, lams).half_edge
        # eta = 1: d/2 - 1 = 2 s c', eta = -1: d/2 + 1 = 2 c s'
        assert np.all(np.abs(np.where(etas > 0, 2 * s * cp, 2 * c * sp)) <= 1e-12)
        edges = np.sort(lams.reshape(n, 2), axis=1)
        assert np.all(edges[:, 0] < edges[:, 1])
        # the scan's sorted zeros are the edges, and gap n's upper one last
        scanned = hill._band_edges(pot, n)
        assert scanned[:-1].tobytes() == np.sort(lams).tobytes()
        # gap k lies between bands k and k + 1 and has nu_k at one end
        nu = dirichlet_spectrum(pot, scanned[-1])
        assert len(nu) == n
        for k in range(1, n + 1):
            assert nu[k - 1] in scanned[2 * k - 1:2 * k + 1]
            if k < n:
                assert edges[k - 1, 1] <= edges[k, 0]
        # etas inside (-1, 1) land inside their bands
        inner = invert_discriminant(pot, np.tile([0.9, -0.9], n), bands)
        assert np.all((np.repeat(edges[:, 0], 2) < inner)
                      & (inner < np.repeat(edges[:, 1], 2)))

    def test_a_scan_short_of_the_edges_fails(self, monkeypatch):
        # 2 bands have 5 edges: 0 and pi^2, 4 pi^2 twice; a scan that finds
        # only pi^2 gives 3
        scan = hill.dirichlet_spectrum
        assert len(hill._band_edges(ZERO, 2)) == 5
        monkeypatch.setattr(hill, "dirichlet_spectrum", lambda p, top: scan(p, top)[:1])
        with pytest.raises(EngineError, match="found 3 band edges below .* where 2 "
                                              "bands have 5"):
            hill._band_edges(ZERO, 2)

    @_EDGE_CASES
    def test_an_eta_within_rounding_of_one_stays_in_its_band(self, pot):
        # 1 - |eta| below the rounding of 2 s c' or 2 c s' at a Dirichlet
        # end: computed there, f had no sign change (2 cos 2 pi x, bands 1
        # and 2), and across an open gap a root could land on nu beyond it
        # (random1, band 2, 0.6 away from the band)
        eps = np.finfo(float).eps
        edges = _edges(pot)
        bands = np.repeat(np.arange(1, 5), 2)
        for d in (eps / 2, eps, 4 * eps, 1e-14, 1e-13):
            etas = np.tile([1.0 - d, d - 1.0], 4)
            lams = invert_discriminant(pot, etas, bands)
            assert np.all((np.repeat(edges[:, 0], 2) <= lams)
                          & (lams <= np.repeat(edges[:, 1], 2)))
            assert np.all(np.abs(0.5 * discriminant(pot, lams) - etas) <= 1e-12)

    def test_a_dip_between_the_probes_of_q_stays_above_the_start(self):
        # two dips of depth 5 000 and width 4e-4, which 257 probes of q
        # miss: min q less 1 on the probes was -1, above band 1's lower
        # edge, and the partner of gap 0 had no sign change on [-1, nu_1]
        x = [0.0, 0.2998, 0.3, 0.3002, 0.6998, 0.7, 0.7002, 1.0]
        q = [0.0, 0.0, -5000.0, 0.0, 0.0, -5000.0, 0.0, 0.0]
        pot = PotentialSpec.sampled(x, q)
        assert hill._q_range(pot) == (-5000.0, 0.0)
        result = bands_from_root_surface(pot, [(-1.0, 1.0)])
        lowest = min(iv.lo for iv in result.intervals)
        assert -2.5 < lowest < -2.0
        # an independent scan of c'(1/2), which vanishes at the even
        # periodic ground state: one sign change, around the edge
        lam = np.linspace(-2.5, -2.0, 1001)
        cp = integrate_monodromy(pot, lam).half_edge[1]
        [k] = np.flatnonzero(np.sign(cp[:-1]) != np.sign(cp[1:]))
        assert lam[k] <= lowest <= lam[k + 1]
        # and the lowest eigenvalue of -y'' + q y with periodic ends, by
        # second differences on 20 000 points (error ~1e-5 at this step)
        m = 20_000
        inv_h2 = float(m * m)
        off = np.full(m - 1, -inv_h2)
        corner = np.array([-inv_h2])
        a = scipy.sparse.diags(
            [2.0 * inv_h2 + np.interp(np.arange(m) / m, x, q), off, off, corner, corner],
            [0, 1, -1, m - 1, 1 - m], format="csc")
        [ground] = scipy.sparse.linalg.eigsh(a, k=1, sigma=-10.0,
                                             return_eigenvectors=False)
        assert lowest == pytest.approx(ground, abs=1e-4)


_DOUBLE_WELL = [0.0, 0.3, 0.35, 0.65, 0.7, 1.0]


def _fd_eigenvalues(x, q, m, k, ends):
    """The k lowest eigenvalues of -y'' + q y on [0, 1] by second
    differences on the points j/m: periodic (ends = 1), antiperiodic (-1),
    or Dirichlet (0, on the inner points)."""
    inv_h2 = float(m * m)
    diag = 2.0 * inv_h2 + np.interp(np.arange(int(ends == 0), m) / m, x, q)
    size = len(diag)
    off = np.full(size - 1, -inv_h2)
    corner = np.array([-ends * inv_h2])
    a = scipy.sparse.diags([diag, off, off, corner, corner],
                           [0, 1, -1, size - 1, 1 - size], format="csc")
    return np.sort(scipy.sparse.linalg.eigsh(
        a, k=k, sigma=float(np.min(q)) - 5.0, return_eigenvectors=False))


def _richardson(x, q, k, ends):
    """``_fd_eigenvalues`` extrapolated from 5 000 and 10 000 points; with
    every knot a grid point, the O(h^2) term cancels to ~1e-10 here."""
    coarse, fine = (_fd_eigenvalues(x, q, m, k, ends) for m in (5_000, 10_000))
    return (4.0 * fine - coarse) / 3.0


class TestOneScan:
    """One scan of all four entries of N finds every band edge and Dirichlet
    point, each as a simple zero of its own entry."""

    @pytest.mark.parametrize("height", [250.0, 300.0, 330.0, 360.0, 400.0, 800.0])
    def test_a_double_well_has_every_edge_and_dirichlet_point(self, height):
        # an odd and an even state of the two wells, a zero of s(1/2) and
        # one of s'(1/2), lie closer than the scan's step: a scan of s(1) =
        # 2 s s' saw no sign change and found 2 Dirichlet points ("could not
        # locate enough"), or at 360 found them but no partner edge of gap 4.
        # At 800 a fourth-order step met the halving gate's rounding floor
        # (1.4e-9 at 32 times its base grid) and exited 2; the reference
        # agrees with itself from twice as many points within 2.5e-10
        q = [0.0, 0.0, height, height, 0.0, 0.0]
        result = bands_from_root_surface(PotentialSpec.sampled(_DOUBLE_WELL, q),
                                         [(-1.0, 1.0)])
        edges = np.array([(iv.lo, iv.hi) for iv in result.intervals]).ravel()
        assert len(edges) == 8 and len(result.dirichlet) == 4
        periodic = np.sort(np.concatenate([_richardson(_DOUBLE_WELL, q, 4, ends)
                                           for ends in (1, -1)]))
        assert np.allclose(edges, periodic[:8], rtol=0.0, atol=1e-8)
        assert np.allclose(result.dirichlet, _richardson(_DOUBLE_WELL, q, 4, 0),
                           rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("height, halvings", [(250.0, 3), (800.0, 4)])
    def test_a_tall_double_well_passes_the_gate_in_few_halvings(self, height,
                                                                halvings):
        # a fourth-order step took 4 halvings at 250 (4 112 steps on the half
        # edge) and never passed at 800
        pot = PotentialSpec.sampled(_DOUBLE_WELL, [0.0, 0.0, height, height, 0.0, 0.0])
        hill._band_edges(pot, 4)
        assert pot.magnus.halvings <= halvings
        assert pot.magnus.steps == 34 << pot.magnus.halvings

    @pytest.mark.parametrize("c", [100.0, 200.0, 300.0, 1000.0])
    def test_the_scan_top_is_past_the_last_gap_for_a_tall_potential(self, c):
        # -y'' + c y: nu_k = (k pi)^2 + c, and every gap is closed there.  A
        # scan to (n + 1.5)^2 pi^2, blind to q, ended below nu_4 from c = 200
        result = bands_from_root_surface(PotentialSpec.sampled([0.0, 1.0], [c, c]),
                                         [(-1.0, 1.0)])
        assert np.allclose(result.dirichlet, (np.pi * np.arange(1, 5)) ** 2 + c,
                           rtol=0.0, atol=1e-11)
        edges = np.array([(iv.lo, iv.hi) for iv in result.intervals]).ravel()
        assert np.allclose(edges, (np.pi * (np.arange(1, 9) // 2)) ** 2 + c,
                           rtol=0.0, atol=1e-11)

    def test_a_closed_gap_has_two_edges_a_few_ulps_apart(self):
        # a period-1/2 potential, knot values p, q, p, q, p as the
        # benchmark's, closes gaps 1 and 3, where d = -2.  Their edges came
        # from refinements at xtol 1e-12 and 1e-10 and were up to 2.1e-11
        # apart; now both are zeros of N's entries refined alike
        rng = np.random.default_rng(27)
        for p, q in rng.uniform(-3.0, 3.0, (22, 2)):
            edges = _edges(PotentialSpec.sampled(np.linspace(0.0, 1.0, 5),
                                                 [p, q, p, q, p]))
            for k in (1, 3):
                assert abs(edges[k, 0] - edges[k - 1, 1]) <= 4 * np.spacing(edges[k, 0])


class TestZeroPotentialClosedForm:
    """q = 0: d = 2 cos sqrt(lambda), so Hill band k is sqrt(lambda) in
    [(k - 1) pi, k pi] and eta = cos sqrt(lambda) inverts in closed form."""

    @staticmethod
    def _exact(eta, band):
        with mpmath.workdps(50):
            w = mpmath.acos(mpmath.mpf(eta))
            root = (band - 1) * mpmath.pi + w if band % 2 else band * mpmath.pi - w
            return root ** 2

    @pytest.mark.parametrize("band", [1, 2, 3, 4])
    def test_inverse_matches_50_digits(self, band):
        # measured worst 2.3 eps relative
        eps = np.finfo(float).eps
        rng = np.random.default_rng(band)
        etas = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 64)])
        lams = invert_discriminant(ZERO, etas, band)
        for eta, lam in zip(etas, lams):
            exact = self._exact(float(eta), band)
            assert abs(mpmath.mpf(float(lam)) - exact) <= 4 * eps * exact

    def test_inverse_matches_the_integrated_zero_potential(self):
        # q = 0 as a closure takes the Magnus integrator, the Dirichlet scans
        # and Brent's method through the same call
        rng = np.random.default_rng(11)
        intervals = [(-1.0, 1.0), (-1.0, -0.2), (0.3, 1.0),
                     *map(tuple, rng.uniform(-1.0, 1.0, (8, 2)))]
        exact = bands_from_root_surface(ZERO, intervals)
        brent = bands_from_root_surface(PotentialSpec.closure(np.zeros_like),
                                        intervals)
        assert len(exact.intervals) == len(brent.intervals) == 4 * len(intervals)
        for iv, ref in zip(exact.intervals, brent.intervals):
            assert (iv.eta_band, iv.hill_band) == (ref.eta_band, ref.hill_band)
            for lam, lam_ref in ((iv.lo, ref.lo), (iv.hi, ref.hi)):
                assert abs(lam - lam_ref) <= 1e-11 * max(1.0, abs(lam_ref))
        assert len(exact.dirichlet) == len(brent.dirichlet) == 4
        assert np.all(np.abs(exact.dirichlet - brent.dirichlet)
                      <= 1e-11 * np.maximum(1.0, brent.dirichlet))

    def test_batch_gives_the_bits_of_scalar_calls(self):
        rng = np.random.default_rng(3)
        etas = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 61)])
        bands = rng.integers(1, 7, len(etas))
        batch = invert_discriminant(ZERO, etas, bands)
        for eta, band, lam in zip(etas, bands, batch):
            scalar = invert_discriminant(ZERO, float(eta), int(band))
            assert type(scalar) is float
            assert np.float64(scalar).tobytes() == lam.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_closed_gap_has_one_edge(self, k):
        # bands k and k + 1 meet at eta = (-1)^k, the Dirichlet point (k pi)^2
        lams = invert_discriminant(ZERO, [(-1.0) ** k] * 2, [k, k + 1])
        assert lams.tolist() == [(np.pi * k) ** 2] * 2
