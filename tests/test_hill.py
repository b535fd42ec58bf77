"""Hill-discriminant module: monodromy, Dirichlet spectrum, band inversion."""

import numpy as np
import pytest

from hexband.errors import BandEdgeError, EngineError, InputError
from hexband.hill import (
    DIRICHLET_WINDOW,
    Monodromy,
    PotentialSpec,
    bands_from_root_surface,
    cone_slope_lambda,
    dirichlet_spectrum,
    discriminant,
    discriminant_derivative,
    hill_eta,
    integrate_monodromy,
    invert_discriminant,
    mu_alpha,
    mu_pullback_check,
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
            PotentialSpec.sampled([0.0, 0.5, 1.0], [1.0, np.nan, 1.0])

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

    def test_eta_is_half_discriminant(self):
        assert hill_eta(ZERO, 4.0) == pytest.approx(np.cos(2.0), abs=1e-14)

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


# ------------------------------------------------------------
#  Vertex-weighted discriminant
# ------------------------------------------------------------

class TestMuAlpha:
    def test_mu2_at_pi_squared(self):
        # c(1) + s(1) at pi^2: cos(pi) + sin(pi)/pi = -1 exactly
        val = mu_alpha(ZERO, np.pi**2, 2.0, convention="half")
        assert val == pytest.approx(frozen.HILL_MU2_AT_PISQ, abs=1e-12)

    def test_conventions_differ_by_half_weight(self):
        lam, alpha = 3.7, 1.3
        half = mu_alpha(ZERO, lam, alpha, convention="half")
        full = mu_alpha(ZERO, lam, alpha, convention="full")
        s = integrate_monodromy(ZERO, lam).s1
        assert full - half == pytest.approx(0.5 * alpha * s, abs=1e-14)

    def test_unknown_convention(self):
        with pytest.raises(InputError, match="convention"):
            mu_alpha(ZERO, 1.0, 1.0, convention="double")

    def test_alpha_zero_is_plain_cosine_solution(self):
        lam = 7.7
        assert mu_alpha(ZERO, lam, 0.0) == pytest.approx(
            integrate_monodromy(ZERO, lam).c1, abs=1e-14)


# ------------------------------------------------------------
#  Dirichlet spectrum
# ------------------------------------------------------------

class TestDirichletSpectrum:
    def test_zero_potential_squares_of_pi_multiples(self):
        nu = dirichlet_spectrum(ZERO, 110.0)
        expect = np.array([1, 4, 9]) * np.pi**2
        assert len(nu) == 3
        assert np.max(np.abs(nu - expect)) < 1e-8

    def test_empty_below_first(self):
        assert len(dirichlet_spectrum(ZERO, 5.0)) == 0

    def test_perturbed_potential_stays_close(self):
        pot = PotentialSpec.closure(lambda x: 0.1 * _cos2pi(x))
        nu = dirichlet_spectrum(pot, 110.0)
        assert len(nu) == 3
        assert np.max(np.abs(nu - np.array([1, 4, 9]) * np.pi**2)) < 0.2


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

    def test_band_count_extends(self):
        res = bands_from_root_surface(ZERO, [(-1.0, 1.0)], n_bands=4)
        # full eta range per band: contiguous cover of [0, 16 pi^2]
        assert res.intervals[0].lo == pytest.approx(0.0, abs=1e-9)
        assert res.intervals[-1].hi == pytest.approx(16.0 * np.pi**2, abs=1e-7)


# ------------------------------------------------------------
#  Slope pullback
# ------------------------------------------------------------

class TestSlopePullback:
    def test_cone_slope_zero_potential(self):
        gamma = np.sqrt(3.0) / 3.0
        lam0 = frozen.HILL_LAMBDA_CONE
        assert cone_slope_lambda(ZERO, lam0, gamma) == pytest.approx(
            frozen.HILL_GAMMA_LAMBDA, rel=1e-10)

    def test_band_edge_error(self):
        with pytest.raises(BandEdgeError, match="band edge"):
            cone_slope_lambda(ZERO, np.pi**2, 1.0)

    def test_derivative_matches_analytic(self):
        lam = 5.3
        exact = -np.sin(np.sqrt(lam)) / np.sqrt(lam)
        assert discriminant_derivative(ZERO, lam) == pytest.approx(
            exact, abs=1e-9)

    def test_chain_rule_consistency(self):
        gamma = np.sqrt(3.0) / 3.0
        chain, fd = mu_pullback_check(ZERO, 0.0, gamma, hill_band=1)
        assert chain == pytest.approx(frozen.HILL_GAMMA_LAMBDA, rel=1e-6)
        assert fd == pytest.approx(chain, rel=1e-3)

    def test_chain_rule_nonzero_potential(self):
        pot = PotentialSpec.closure(lambda x: 0.2 * _cos2pi(x))
        chain, fd = mu_pullback_check(pot, 0.1, 0.5, hill_band=1)
        assert fd == pytest.approx(chain, rel=1e-3)
