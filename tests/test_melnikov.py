import math

import mpmath
import numpy as np
import pytest
from scipy.special import binom as scipy_binom

from rpc3bp.core import Params, PrecisionError
from rpc3bp.melnikov import (
    MelnikovSeries,
    binom_half,
    contour_integral_I,
    contour_integral_leading,
    first_order_zero_function,
    has_two_first_order_roots,
    melnikov_coeff_asymptotic,
    melnikov_coeff0_quadrature,
    melnikov_coeff_contour,
    melnikov_coeff_quadrature,
    melnikov_potential,
    predicted_distance,
    predicted_lobe_area,
    predicted_tangency_lobe_area,
    predicted_tangency_mu,
    uhat_fourier_coeff,
    uhat_fourier_coeff_quadrature,
    uhat_truncation_tail,
)
from rpc3bp.separatrix import homoclinic_r, v_of_r

EPS = float(np.finfo(float).eps)


class TestBinomHalf:
    def test_first_values(self):
        assert binom_half(0) == 1.0
        assert binom_half(1) == -0.5
        assert binom_half(2) == 0.375

    def test_against_scipy(self):
        for j in range(20):
            assert binom_half(j) == pytest.approx(scipy_binom(-0.5, j), rel=1e-13)


class TestUhatCoefficients:
    def test_zero_at_mu0(self):
        p = Params(0.0, 2.0)
        for l in (0, 1, 3):
            assert uhat_fourier_coeff(l, 1.0, p) == 0.0

    def test_odd_modes_cancel_at_equal_masses(self):
        p = Params(0.5, 2.0)
        for l in (1, 3, 5):
            assert uhat_fourier_coeff(l, 0.8, p) == 0.0

    def test_against_theta_quadrature(self):
        # independent oracle: periodic trapezoid over the angle
        p = Params(0.3, 2.5)
        for l in (-4, -1, 0, 1, 2, 5):
            series = uhat_fourier_coeff(l, 1.0, p, jmax=16)
            oracle = uhat_fourier_coeff_quadrature(l, 1.0, p)
            assert abs(oracle.imag) < 1e-14
            assert series == pytest.approx(oracle.real, rel=1e-11)

    def test_even_in_l(self):
        p = Params(0.25, 2.2)
        assert uhat_fourier_coeff(3, 0.9, p) == pytest.approx(
            uhat_fourier_coeff(-3, 0.9, p), rel=1e-14)

    def test_truncation_tail_bounds_remainder(self):
        p = Params(0.4, 2.0)
        full = uhat_fourier_coeff(1, 0.5, p, jmax=30)
        trunc = uhat_fourier_coeff(1, 0.5, p, jmax=6)
        assert abs(full - trunc) <= 2.0 * uhat_truncation_tail(1, 0.5, p, jmax=6)

    def test_convergence_precondition(self):
        # r_h(v) too close to the primary distance
        p = Params(0.5, 1.2)
        with pytest.raises(ValueError):
            uhat_fourier_coeff(1, 0.0, p)


class TestModeGrid:
    @pytest.mark.parametrize("mu,g0", [(0.3, 1.5), (0.5, 1.2), (0.1, 2.0),
                                       (0.3, 1.1)])
    def test_matches_full_trapezoid(self, mu, g0):
        # the per-node grid against a 256-point trapezoid at every node;
        # at (0.3, 1.1) the perihelion lies inside the larger primary's
        # circle (rho > 1), where only the full grid is accurate
        p = Params(mu, g0)
        v = v_of_r(np.geomspace(0.5, 1e3, 400))
        r = np.asarray(homoclinic_r(v))
        if (mu, g0) == (0.3, 1.1):
            assert max(mu, 1 - mu) / (g0**2 * r[0]) > 1.0
        m1, m2 = mu / g0**2, (1.0 - mu) / g0**2
        theta = 2.0 * np.pi * np.arange(256) / 256
        c = np.cos(theta)[None, :]
        R = r[:, None]
        vals = ((1.0 - mu) / np.sqrt(R * R - 2.0 * m1 * R * c + m1 * m1)
                + mu / np.sqrt(R * R + 2.0 * m2 * R * c + m2 * m2) - 1.0 / R)
        for l in (-3, 0, 1, 2, 4, 8):
            full = np.mean(vals * np.exp(-1j * l * theta)[None, :], axis=1)
            got = uhat_fourier_coeff_quadrature(l, v, p)
            assert np.all(np.abs(got - full) <= 4.0 * EPS / r), (l, mu, g0)


class TestQuadratureRoute:
    def test_zero_at_mu0(self):
        res = melnikov_coeff_quadrature(1, Params(0.0, 1.5))
        assert res.value == 0.0

    def test_series_pinned(self):
        # the values of the fixed 256-point angle grid
        s = MelnikovSeries.compute(Params(0.3, 1.5), "quadrature", lmax=4)
        pinned = [0.07365343771530286, -0.015625821411961945, 0.08113903864707428,
                  -0.02210318957926811, 0.013610012731463983]
        for l, want in enumerate(pinned):
            assert s.coefficients[l] == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_mean_coefficient_error_covers_truncation(self):
        # the estimate (closed-form tail plus step error) against the change
        # from extending the integration range fourfold
        p = Params(0.3, 1.5)
        value, err = melnikov_coeff0_quadrature(p)
        moved = abs(value - melnikov_coeff0_quadrature(p, tau_max=1200.0)[0])
        assert moved <= err <= 2.0 * moved
        s = MelnikovSeries.compute(p, "quadrature", lmax=1)
        assert s.error_estimates[0] == err

    def test_reality(self):
        res = melnikov_coeff_quadrature(1, Params(0.3, 1.5), tol=1e-9)
        assert abs(res.imag_residue) < 1e-10 * abs(res.value)

    def test_binary64_domain_guard(self):
        with pytest.raises(PrecisionError):
            melnikov_coeff_quadrature(1, Params(0.3, 2.5))


class TestContourIntegrals:
    def test_conjugation_relation(self):
        # I(-l, n, m) = I(l, m, n), computing both sides independently
        p = Params(0.3, 1.8)
        for (l, m, n) in ((1, 2, 1), (2, 2, 0), (1, 1, 0)):
            a = contour_integral_I(l, m, n, p)
            b = contour_integral_I(-l, n, m, p)
            assert b == pytest.approx(a, rel=1e-10)

    def test_against_real_line_quadrature(self):
        # direct oscillatory quadrature on the real line at moderate g0:
        # composite Gauss panels matched to the accelerating oscillation
        p = Params(0.3, 1.5)
        nodes, weights = np.polynomial.legendre.leggauss(10)
        for (l, m, n) in ((1, 2, 1), (2, 2, 0)):
            half_w = l * p.g0**3 / 2.0
            # rational decay is at least t^-4, so the tail beyond T = 50 is
            # far below the 1e-8 comparison level
            T = 50.0
            edges = [0.0]
            t = 0.0
            while t < T:
                # quarter local period of exp(i w (t + t^3/3))
                t += min(0.5, 0.25 * 2 * np.pi / (half_w * (1 + t * t)))
                edges.append(min(t, T))
            edges = np.array(edges)
            edges = np.concatenate([-edges[::-1], edges[1:]])
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * (edges[1:] - edges[:-1])
            tt = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
            ww = (half[:, None] * weights[None, :]).ravel()
            vals = (np.exp(1j * half_w * (tt + tt**3 / 3.0))
                    / (tt - 1j) ** (2 * m) / (tt + 1j) ** (2 * n))
            oracle = np.sum(vals * ww)
            val = contour_integral_I(l, m, n, p)
            assert abs(oracle.imag) < 1e-8 * abs(oracle.real)
            assert val == pytest.approx(oracle.real, rel=1e-8)

    def test_leading_asymptotics_trend(self):
        # |I(1,2,1)| approaches (1/6) sqrt(pi/2) g0^{9/2} e^{-g0^3/3}; the
        # value itself is negative (saddle with fourth-order pole)
        devs = []
        for g0 in (2.0, 3.0, 4.0):
            p = Params(0.25, g0)
            val = contour_integral_I(1, 2, 1, p)
            lead = contour_integral_leading(1, 2, 1, p)
            assert val < 0.0 and lead < 0.0
            assert abs(lead) == pytest.approx(
                (1.0 / 6.0) * math.sqrt(math.pi / 2.0) * g0**4.5
                * math.exp(-g0**3 / 3.0), rel=1e-14)
            devs.append(abs(val / lead - 1.0))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.5

    def test_invalid_orders(self):
        p = Params(0.3, 2.0)
        with pytest.raises(ValueError):
            contour_integral_I(0, 1, 1, p)
        with pytest.raises(ValueError):
            contour_integral_I(1, 0, 0, p)

    def test_value_at_its_floor_raises(self):
        # in binary64 I(3, 15, 12) at g0 = 4.5 is noise (+1.3e-23, against
        # -2.2e-26 in mpmath): its floor 50 eps max|integrand| exceeds it
        p = Params(0.3, 4.5)
        with pytest.raises(PrecisionError):
            contour_integral_I(3, 15, 12, p)
        with pytest.raises(PrecisionError):
            contour_integral_I(3, [4, 15], [1, 12], p)
        val, floor = contour_integral_I(3, 15, 12, p, with_floor=True)
        assert floor > abs(val)

    def test_extended_precision_agrees(self):
        p = Params(0.3, 2.0)
        a = contour_integral_I(1, 2, 1, p)
        b = contour_integral_I(1, 2, 1, p, mp_dps=30)
        assert a == pytest.approx(b, rel=1e-12)


class TestSharedPath:
    # pairs (m, n) with m - n of both signs, as one vector call
    M = [1, 2, 3, 2, 0, 5, 1]
    N = [0, 1, 2, 0, 2, 3, 3]

    def test_vector_matches_scalar_calls(self):
        # the vector call grades its panels for the highest pole order, a
        # scalar call for its own: they agree to each entry's floor
        p = Params(0.3, 2.0)
        vals, floors = contour_integral_I(1, self.M, self.N, p, with_floor=True)
        assert isinstance(vals, np.ndarray) and vals.shape == (len(self.M),)
        for k, (m, n) in enumerate(zip(self.M, self.N)):
            one, one_floor = contour_integral_I(1, m, n, p, with_floor=True)
            assert isinstance(one, float)
            assert abs(vals[k] - one) <= floors[k]
            assert one_floor == pytest.approx(floors[k], rel=1e-3)

    def test_conjugation_relation_on_sequences(self):
        p = Params(0.3, 2.0)
        vals, floors = contour_integral_I(1, self.M, self.N, p, with_floor=True)
        mirrored = contour_integral_I(-1, self.N, self.M, p)
        assert np.all(np.abs(mirrored - vals) <= floors)

    def test_extended_vector_matches_scalar_calls(self):
        p = Params(0.3, 2.0)
        m, n = [2, 3, 1, 4], [1, 2, 0, 1]
        vals = contour_integral_I(1, m, n, p, mp_dps=30)
        for k in range(len(m)):
            assert vals[k] == contour_integral_I(1, m[k], n[k], p, mp_dps=30)

    def test_sequence_validation(self):
        p = Params(0.3, 2.0)
        with pytest.raises(ValueError):
            contour_integral_I(1, [1, 2], [0], p)
        with pytest.raises(ValueError):
            contour_integral_I(1, [], [], p)
        with pytest.raises(ValueError):
            contour_integral_I(1, [1, 0], [0, 0], p)
        with pytest.raises(ValueError):
            contour_integral_I(1, [1, -1], [0, 2], p)

    def test_extended_series_pinned(self):
        # the values of the per-term mp.quad summation this path replaced
        p = Params(0.3, 3.5)
        assert melnikov_coeff_contour(1, p, mp_dps=40) == pytest.approx(
            -3.1843458367992765e-09, rel=1e-15)
        assert melnikov_coeff_contour(2, p, mp_dps=40) == pytest.approx(
            5.115479836993671e-13, rel=1e-15)

    def test_extended_non_convergence_raises(self, monkeypatch):
        # capped at degree 2, the tanh-sinh sums cannot converge
        monkeypatch.setattr(mpmath.mp._tanh_sinh, "guess_degree", lambda prec: 2)
        with pytest.raises(RuntimeError, match="did not converge"):
            contour_integral_I(1, 2, 1, Params(0.3, 2.0), mp_dps=30)

    def test_extended_convergence_is_relative(self):
        # I(4, 4, 0) at g0 = 4.5 is about 3e-46, below mp.quad's absolute
        # epsilon at 30 digits; an absolute test stops at degree 2 with an
        # answer 10x off
        p = Params(0.3, 4.5)
        ref = contour_integral_I(4, 4, 0, p)
        assert ref == pytest.approx(contour_integral_leading(4, 4, 0, p), rel=0.2)
        assert contour_integral_I(4, 4, 0, p, mp_dps=30) == pytest.approx(ref, rel=1e-10)

    def test_error_estimate_covers_arithmetic_floor(self):
        # binary64 against mpmath: the reported error bounds the difference
        # and is at least the floor of the terms, above the truncation tail
        p = Params(0.3, 2.0)
        for l in (3, 4):
            val, err = melnikov_coeff_contour(l, p, with_error=True)
            ref = melnikov_coeff_contour(l, p, mp_dps=30)
            assert abs(val - ref) <= err
        s = MelnikovSeries.compute(p, "contour", lmax=4)
        assert s.error_estimates[4] == err
        assert err > 1e-9 * abs(val)


class TestCrossMethod:
    def test_quadrature_vs_contour(self):
        p = Params(0.3, 1.5)
        for l in (1, 2):
            q = melnikov_coeff_quadrature(l, p, tol=1e-9)
            c = melnikov_coeff_contour(l, p, jmax=18)
            assert q.value == pytest.approx(c, rel=1e-6)

    def test_equal_mass_kills_odd_harmonics(self):
        p = Params(0.5, 2.0)
        assert melnikov_coeff_contour(1, p) == 0.0
        assert melnikov_coeff_contour(3, p) == 0.0
        assert melnikov_coeff_contour(2, p) != 0.0

    def test_harmonic_decay(self):
        # geometric decay holds from l = 2 on; the l = 1 coefficient is
        # anomalously small through its (1 - 2 mu) factor
        p = Params(0.3, 2.0)
        vals = [abs(melnikov_coeff_contour(l, p)) for l in (1, 2, 3, 4)]
        assert vals[2] < 0.5 * vals[1]
        assert vals[2] < 0.15 * vals[1] + 0.15 * vals[0]
        assert vals[3] < 0.35 * vals[2]


class TestAsymptoticCoefficients:
    def test_first_harmonic_vanishes_at_equal_masses(self):
        assert melnikov_coeff_asymptotic(1, Params(0.5, 3.0)) == 0.0

    def test_arithmetic_value(self):
        # evaluate the closed form independently at (0.25, 3)
        p = Params(0.25, 3.0)
        expected = (-0.25 * 0.75 * 0.5 * math.sqrt(math.pi)
                    / (4.0 * math.sqrt(2.0)) * 3.0**-1.5 * math.exp(-9.0))
        got = melnikov_coeff_asymptotic(1, p)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(-6.98e-7, rel=2e-3)

    def test_second_harmonic_sign(self):
        # positive for all mu in (0, 1/2]: the sign both computational routes
        # confirm (the cross-method tests above pin it)
        for mu in (0.1, 0.3, 0.5):
            assert melnikov_coeff_asymptotic(2, Params(mu, 2.5)) > 0.0

    def test_unsupported_harmonic(self):
        with pytest.raises(ValueError):
            melnikov_coeff_asymptotic(3, Params(0.3, 2.0))


class TestPotentialSeries:
    def test_phase_invariance(self):
        p = Params(0.3, 2.0)
        s = MelnikovSeries.compute(p, "contour", lmax=3)
        delta = 0.37
        a = melnikov_potential(1.0, 0.5, s)
        b = melnikov_potential(1.0 + delta, 0.5 - p.g0**3 * delta, s)
        assert b == pytest.approx(a, abs=1e-13 * max(1.0, abs(a)))

    def test_even_in_phase(self):
        p = Params(0.3, 2.0)
        s = MelnikovSeries.compute(p, "contour", lmax=3)
        assert melnikov_potential(0.0, 1.1, s) == pytest.approx(
            melnikov_potential(0.0, -1.1, s), rel=1e-14)

    def test_zero_at_mu0(self):
        s = MelnikovSeries.compute(Params(0.0, 2.0), "quadrature", lmax=2)
        assert melnikov_potential(0.3, 0.7, s) == 0.0

    def test_json_schema(self):
        s = MelnikovSeries.compute(Params(0.3, 2.0), "contour", lmax=2)
        d = s.to_json_dict()
        assert set(d) == {"mu", "g0", "method", "coefficients"}
        assert all(set(c) == {"l", "value", "error_estimate"}
                   for c in d["coefficients"])


class TestPredictions:
    def test_distance_zero_at_mu0(self):
        assert predicted_distance(1.0, 0.0, Params(0.0, 2.4)) == 0.0

    def test_distance_domain(self):
        with pytest.raises(ValueError):
            predicted_distance(0.0, 0.0, Params(0.3, 2.4))
        with pytest.raises(ValueError):
            predicted_distance(np.array([1.0, 0.0]), 0.0, Params(0.3, 2.4))

    def test_distance_array_matches_scalar_loop(self):
        p = Params(0.3, 2.4)
        vg = np.linspace(0.4, 1.6, 800)
        loop = np.array([predicted_distance(float(v), 0.7, p) for v in vg])
        scale = np.max(np.abs(loop))
        assert np.max(np.abs(predicted_distance(vg, 0.7, p) - loop)) < 1e-13 * scale

    def test_distance_sign_alternation(self):
        # first harmonic dominant: zeros at phase k pi with alternating signs
        p = Params(0.1, 3.2)
        vg = np.linspace(0.4, 1.6, 4000)
        vals = np.array([predicted_distance(v, 0.0, p) for v in vg])
        idx = np.flatnonzero(np.diff(np.sign(vals)))
        assert len(idx) >= 3
        mids = [np.max(np.abs(vals[i0:i1])) * np.sign(vals[(i0 + i1) // 2])
                for i0, i1 in zip(idx[:-1], idx[1:])]
        assert all(a * b < 0 for a, b in zip(mids[:-1], mids[1:]))

    def test_zero_function_roots(self):
        p = Params(0.5, 2.4)
        # equal masses: pure second harmonic, four zeros per period
        xs = np.linspace(0, 2 * math.pi, 10001, endpoint=False)
        vals = np.array([first_order_zero_function(x, p) for x in xs])
        assert first_order_zero_function(0.0, p) == 0.0
        assert abs(first_order_zero_function(math.pi, p)) < 1e-15
        assert np.sum(np.diff(np.sign(vals)) != 0) == 4

    def test_zero_function_two_root_regime(self):
        p = Params(0.1, 3.0)
        assert has_two_first_order_roots(p)
        xs = np.linspace(0, 2 * math.pi, 10001, endpoint=False)
        vals = np.array([first_order_zero_function(x, p) for x in xs])
        assert np.sum(np.diff(np.sign(vals)) != 0) == 2

    def test_lobe_area_values(self):
        assert predicted_lobe_area(Params(0.0, 2.5)) == 0.0
        g0 = 2.5
        expected_half = 2.0 * math.sqrt(math.pi) * math.sqrt(g0) * math.exp(-2 * g0**3 / 3)
        assert predicted_lobe_area(Params(0.5, g0)) == pytest.approx(expected_half, rel=1e-14)
        assert predicted_lobe_area(Params(0.25, 2.5)) > 0.0

    def test_tangency_mu(self):
        # independent arithmetic: 1/2 - 16 sqrt(2) * 9 * e^{-9}
        expected = 0.5 - 16.0 * math.sqrt(2.0) * 9.0 * math.exp(-9.0)
        assert predicted_tangency_mu(3.0) == pytest.approx(expected, rel=1e-14)
        assert predicted_tangency_mu(3.0) == pytest.approx(0.4749, abs=2e-4)
        assert predicted_tangency_mu(2.6) == pytest.approx(
            0.5 - 16 * math.sqrt(2) * 2.6**2 * math.exp(-2.6**3 / 3), rel=1e-14)

    def test_tangency_mu_monotone_to_half(self):
        vals = [predicted_tangency_mu(g) for g in (2.7, 3.0, 3.5, 4.0)]
        assert all(a < b for a, b in zip(vals[:-1], vals[1:]))
        assert vals[-1] < 0.5

    def test_tangency_floor(self):
        with pytest.raises(ValueError) as exc:
            predicted_tangency_mu(2.0)
        assert hasattr(exc.value, "value")

    def test_tangency_lobe_area(self):
        g0 = 3.0
        assert predicted_tangency_lobe_area(g0) == pytest.approx(
            10.0 * math.sqrt(math.pi) * math.sqrt(g0) * math.exp(-2 * g0**3 / 3),
            rel=1e-14)
