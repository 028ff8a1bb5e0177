import math
import re

import mpmath
import numpy as np
import pytest
from scipy.special import binom as scipy_binom

from rpc3bp import melnikov
from rpc3bp.core import Params, PrecisionError
from rpc3bp.melnikov import (
    MP_DPS_MIN,
    MelnikovSeries,
    contour_integral_I,
    contour_integral_leading,
    melnikov_coeff_asymptotic,
    melnikov_coeff0_quadrature,
    melnikov_coeff_contour,
    melnikov_coeff_quadrature,
    phase_of_v,
    predicted_distance,
    predicted_lobe_area,
    predicted_tangency_mu,
    uhat_fourier_coeff,
    uhat_fourier_coeff_quadrature,
)
from rpc3bp.separatrix import homoclinic_r, homoclinic_y, v_of_r

EPS = float(np.finfo(float).eps)


class TestBinomHalf:
    def test_first_values(self):
        assert melnikov._binom_half_table(2).tolist() == [1.0, -0.5, 0.375]

    def test_against_scipy(self):
        table = melnikov._binom_half_table(19)
        for j in range(20):
            assert table[j] == pytest.approx(scipy_binom(-0.5, j), rel=1e-13)


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

    def test_step_error_covers_refined_panels(self, monkeypatch):
        # at g0 = 1.2 the perihelion r = 1/2 passes just outside the larger
        # primary's circle (rho = 0.97): the 12-node panels there are off by
        # about 5e-4, and the estimate must cover a reference computed with
        # 96 nodes on every panel
        p = Params(0.3, 1.2)
        s = MelnikovSeries.compute(p, "quadrature", lmax=1)
        assert s.error_estimates[1] >= 5.19e-4
        monkeypatch.setattr(melnikov, "_GL12",
                            np.polynomial.legendre.leggauss(96))
        ref = melnikov_coeff_quadrature(1, p).value
        assert abs(s.coefficients[1] - ref) <= s.error_estimates[1]

    def test_step_error_small_where_panels_converge(self):
        res = melnikov_coeff_quadrature(1, Params(0.3, 1.5))
        assert 0.0 < res.step_error < 1e-11

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


def _harmonic(l, jmax):
    """Pole orders (j + l, j), j = 0..jmax: the j-terms of harmonic l."""
    return [j + l for j in range(jmax + 1)], list(range(jmax + 1))


# (l, m, n, params, digits, values, floors) of the extended route, values and
# floors as float.hex strings, recorded from the per-term mpc summation that
# the integer step sums replaced (lm1_mixed_g20_d17 and l2_g45_d17 from the
# integer step sums over all four intervals, before the mirror pairing):
# both must agree bit for bit
EXTENDED_PINS = {
    "l1_g35": (1, *_harmonic(1, 12), Params(0.3, 3.5), 40,
        [
            "-0x1.566cb01fd4e52p-17", "-0x1.7a7f8a58f2a01p-15",
            "-0x1.1b87429164907p-13", "-0x1.4edfbf3c584c2p-12",
            "-0x1.4f9971712113ap-11", "-0x1.29f9911705c75p-10",
            "-0x1.e2355dc71ebdbp-10", "-0x1.6aa2c06a7f026p-9",
            "-0x1.0121583dff824p-8", "-0x1.5b8c411681387p-8",
            "-0x1.c37fe3c64a83ap-8", "-0x1.1bbbb1b3a99a4p-7",
            "-0x1.5ad4711bbf53dp-7",
        ],
        [
            "0x1.7556f815c39cbp-235", "0x1.245c4edfab68ep-238",
            "0x1.d1fb4b13dbb0ap-242", "0x1.790b8d9cabc93p-245",
            "0x1.b93ca1776bc46p-238", "0x1.20274296b9ebfp-220",
            "0x1.3ab50159d3463p-206", "0x1.61b54c521ba3ap-192",
            "0x1.95cb6f6d45baap-178", "0x1.7a46ae09cd8dep-167",
            "0x1.be31e5822bbe3p-153", "0x1.a9380dfe3ae4cp-142",
            "0x1.988a1942805e6p-131",
        ]),
    "l2_g35": (2, *_harmonic(2, 12), Params(0.3, 3.5), 40,
        [
            "0x1.0649badd8deddp-32", "0x1.4d65e7473c5bap-30",
            "0x1.457edaa113aa4p-28", "0x1.06c6241d713b4p-26",
            "0x1.6e99e8a71917dp-25", "0x1.c6fac1022d513p-24",
            "0x1.006625ec2b5b8p-22", "0x1.0a8188fedd313p-21",
            "0x1.028436264bc22p-20", "0x1.d8794a669ad6dp-20",
            "0x1.99da5804f9456p-19", "0x1.53a01990f1090p-18",
            "0x1.0e41fafff521cp-17",
        ],
        [
            "0x1.2e88901e81408p-265", "0x1.36c895d62b6a9p-264",
            "0x1.a97be1d577838p-266", "0x1.3a9dd2871a0e9p-252",
            "0x1.8e8e3865d8cf5p-234", "0x1.a52a9b8cb02a8p-219",
            "0x1.c9a1553dfb9f2p-204", "0x1.fb59c2adf27cep-189",
            "0x1.1d915b314f553p-173", "0x1.044a6f3ff22bap-161",
            "0x1.df25967447d98p-150", "0x1.bc92f2febbf41p-138",
            "0x1.9f4bca432ff3ap-126",
        ]),
    "I440_g45": (4, *_harmonic(4, 0), Params(0.3, 4.5), 30,
        [
            "0x1.dadb1d86928b5p-152",
        ],
        [
            "0x1.34568df96c73dp-276",
        ]),
    "mixed_g20": (1, [1, 2, 3, 2, 0, 5, 1], [0, 1, 2, 0, 2, 3, 3], Params(0.3, 2.0), 30,
        [
            "-0x1.fae10079241e4p-2", "-0x1.27bf917a5a1e1p-1",
            "-0x1.27c3a6755f196p-1", "0x1.0415b2f358458p+0",
            "0x1.624f785d37657p-9", "0x1.49ab8e2b35442p-1",
            "0x1.707851e7582edp-6",
        ],
        [
            "0x1.e75e7bd12e051p-171", "0x1.43581d19c3bfap-189",
            "0x1.db7964fce21edp-208", "0x1.b5edd1749ada5p-188",
            "0x1.43136b5f3b3bap-134", "0x1.28e1b3a45ed52p-209",
            "0x1.59a5fb1ac37c5p-172",
        ]),
    "l3_g20": (3, *_harmonic(3, 12), Params(0.3, 2.0), 30,
        [
            "-0x1.be5919997dfefp-4", "-0x1.267b8de27a735p-3",
            "-0x1.61b06f571b00ap-3", "-0x1.8f8c9d89c1a9bp-3",
            "-0x1.b13ca7d034aa6p-3", "-0x1.c8d989f14dc0ep-3",
            "-0x1.d8935077ad6e3p-3", "-0x1.e254673ddeadep-3",
            "-0x1.e7a7bbedbc951p-3", "-0x1.e9bd4dba5d073p-3",
            "-0x1.e9795a268abcdp-3", "-0x1.e784f88da8d9ap-3",
            "-0x1.e45ca03101f4ep-3",
        ],
        [
            "0x1.ad5981b984594p-212", "0x1.2454ed798d529p-215",
            "0x1.b1d0393987d91p-209", "0x1.1241d1ae280b6p-205",
            "0x1.c294a3a78b7efp-199", "0x1.28e0830c1de00p-185",
            "0x1.3f09f2de715dfp-175", "0x1.b2eac35242534p-162",
            "0x1.dfdc590e3c97bp-152", "0x1.4e0ca8cddd98ap-138",
            "0x1.76ffc50c7dea1p-128", "0x1.a7c215e2e0f53p-118",
            "0x1.e19114c65576dp-108",
        ]),
    "l2_mu05_g28": (2, *_harmonic(2, 12), Params(0.5, 2.8), 40,
        [
            "0x1.967874b6afc80p-14", "0x1.1e75834cbb994p-12",
            "0x1.41fd8dc1c10ecp-11", "0x1.355af0d6f94a3p-10",
            "0x1.08b54e9fd33bap-9", "0x1.9e80ddcf1a116p-9",
            "0x1.2e9d096329845p-8", "0x1.a1bf0693e14adp-8",
            "0x1.13783576026edp-7", "0x1.5de44b0335830p-7",
            "0x1.aebe153665f47p-7", "0x1.02481e98a8f44p-6",
            "0x1.2ef79460243a3p-6",
        ],
        [
            "0x1.c828065ba7992p-237", "0x1.29cfab3d85450p-243",
            "0x1.f0f3fa446bd60p-247", "0x1.2e05f59e2af98p-236",
            "0x1.958b2577e6cf4p-219", "0x1.c62bfde67de03p-205",
            "0x1.05771d839f969p-190", "0x1.33231886c6aadp-176",
            "0x1.250e60265ab49p-165", "0x1.61be5183d69adp-151",
            "0x1.58ee41076d7c2p-140", "0x1.530c09eecbf97p-129",
            "0x1.4f85035084914p-118",
        ]),
    "l1_g15": (1, *_harmonic(1, 18), Params(0.3, 1.5), 30,
        [
            "-0x1.82c1c838da96ep+0", "-0x1.16dae796c7919p+0",
            "-0x1.b15fdcf0d90f6p-1", "-0x1.6967d71b363f1p-1",
            "-0x1.3b562fd4f3ebfp-1", "-0x1.1b191f5185628p-1",
            "-0x1.0305e7b97df76p-1", "-0x1.e05fefdcde4f8p-2",
            "-0x1.c1e016b047a79p-2", "-0x1.a88830ed55336p-2",
            "-0x1.930a3fe55687ep-2", "-0x1.80838f5bee45cp-2",
            "-0x1.7054330635fd2p-2", "-0x1.6207b92ee82f6p-2",
            "-0x1.554712e8df29ap-2", "-0x1.49cfb03fb6c29p-2",
            "-0x1.3f6db066e8e8dp-2", "-0x1.35f7f6ca03b50p-2",
            "-0x1.2d4d74c78ffffp-2",
        ],
        [
            "0x1.78ab3c5bf7f98p-169", "0x1.408cb7d89a53fp-185",
            "0x1.f79f2dfae8759p-205", "0x1.528db021b565cp-217",
            "0x1.2c97a5d762460p-216", "0x1.607e0c2e07713p-212",
            "0x1.587e1faaae4c3p-211", "0x1.b1dec8efc6045p-207",
            "0x1.b4c901d41e802p-196", "0x1.65f7239f4d15ap-188",
            "0x1.2960a8096426dp-180", "0x1.3828906d947c0p-169",
            "0x1.08736a2a692e7p-161", "0x1.6912dc132605cp-157",
            "0x1.36058586f72b8p-149", "0x1.0b96b18d81079p-141",
            "0x1.d0080631a3330p-134", "0x1.43283f09c0610p-129",
            "0x1.1a4d72ee32f2bp-121",
        ]),
    # l < 0 with pairs of d = m - n of both signs, at the fewest digits
    "lm1_mixed_g20_d17": (-1, [1, 2, 3, 2, 0, 5, 1], [0, 1, 2, 0, 2, 3, 3],
                          Params(0.3, 2.0), 17,
        [
            "-0x1.b349501f8a54ep-7", "-0x1.15468dbb1ab7dp-4",
            "-0x1.000c050840012p-3", "0x1.624f785d37657p-9",
            "0x1.0415b2f358458p+0", "0x1.4a508c22f2fa6p-4",
            "0x1.b893e3bf66926p-1",
        ],
        [
            "0x1.d115972ed8311p-103", "0x1.976d3b1388eeep-109",
            "0x1.6d005cc7391adp-115", "0x1.44d9ea4db70c3p-105",
            "0x1.42f55f9dba6e0p-104", "0x1.2614155b22f09p-122",
            "0x1.5bce947622a59p-109",
        ]),
    # the terms j = 0..7 of the l = 2 harmonic that pass the reality check
    # at 17 digits (test_extended_route_refuses_a_complex_result: j = 8 on)
    "l2_g45_d17": (2, *_harmonic(2, 7), Params(0.45, 4.5), 17,
        [
            "0x1.399af5d9fe3f6p-77", "0x1.8fd4df27ed769p-74",
            "0x1.7d814f2f2f866p-71", "0x1.26528c440fc75p-68",
            "0x1.80778fc955be4p-66", "0x1.b65b4e0be6c05p-64",
            "0x1.bdcfc06c44e57p-62", "0x1.9b0688ac1c0c6p-60",
        ],
        [
            "0x1.aec4089713869p-194", "0x1.af4e03acc64aap-183",
            "0x1.d0159c05b73a1p-164", "0x1.c52fb5d75b03bp-148",
            "0x1.7c13ecd7e35edp-135", "0x1.4c70f4eb1d2eep-122",
            "0x1.2b04fcf2cfbf5p-109", "0x1.1270bbc6c64b1p-96",
        ]),
}


@pytest.mark.parametrize("case", list(EXTENDED_PINS))
def test_extended_route_pinned_bit_for_bit(case):
    l, m, n, p, dps, vals, floors = EXTENDED_PINS[case]
    got, got_floors = contour_integral_I(l, m, n, p, mp_dps=dps, with_floor=True)
    assert [v.hex() for v in got.tolist()] == vals
    assert [f.hex() for f in got_floors.tolist()] == floors


def test_extended_route_refuses_a_complex_result():
    # at 17 digits the terms j >= 8 of the l = 2, jmax 12 harmonic at
    # g0 = 4.5 keep an imaginary part far above their error estimate (that
    # of I(2, 14, 12) is 5e-10 of its real part): the reality check refuses
    # the call and names the first; its message pins the route to 6 digits
    with pytest.raises(RuntimeError, match=re.escape(
            "not real: I(2,10,8) = 4.7147e-18 + -1.25202e-32i")):
        contour_integral_I(2, *_harmonic(2, 12), Params(0.45, 4.5), mp_dps=17)


@pytest.mark.parametrize("dps", (17, 40))
@pytest.mark.parametrize("g0", (2.0, 3.5))
@pytest.mark.parametrize("l", (1, -2))
def test_extended_path_mirror_symmetry(l, g0, dps):
    # the extended route evaluates the right-hand node of each mirror pair
    # only and gives its mirror the conjugates: mpmath's nodes on [-b, -a]
    # must be those on [a, b] negated with equal weights, and the point at
    # -x minus the conjugate of that at x, the slope, lead, u and w the
    # conjugates, bit for bit
    ctx = mpmath.mp
    rule = ctx._tanh_sinh
    with ctx.workdps(dps):
        points, path = melnikov._mp_path(l, Params(0.3, g0), dps)
        prec = ctx.prec
        with ctx.workprec(prec + 20):
            for a, b in ((points[3], points[4]), (points[2], points[3])):
                for degree in (1, 2, 3):
                    nodes = rule.get_nodes(a, b, degree, prec)
                    mirror = rule.get_nodes(-b, -a, degree, prec)
                    assert ([(x._mpf_, w._mpf_) for x, w in sorted(mirror)]
                            == [(x._mpf_, w._mpf_) for x, w in
                                sorted((-x, w) for x, w in nodes)])
                    for x, wt in nodes:
                        tau, *rest = melnikov._mp_node(x, wt, path)
                        tau_m, *rest_m = melnikov._mp_node(-x, wt, path)
                        assert tau_m._mpc_ == (-tau.conjugate())._mpc_
                        assert ([z._mpc_ for z in rest_m]
                                == [z.conjugate()._mpc_ for z in rest])


def test_extended_route_refuses_too_few_digits():
    # at mp_dps = 0 the route returned L1 = -9.42e-7 with error estimate
    # 4.7e-9 at (0.3, 2.8), where binary64 gives -5.31e-6; at mu = 0 no term
    # is summed, and the digit count is refused all the same
    p = Params(0.3, 2.8)
    for dps in (0, MP_DPS_MIN - 1):
        with pytest.raises(ValueError, match="mp_dps"):
            contour_integral_I(1, 2, 1, p, mp_dps=dps)
        with pytest.raises(ValueError, match="mp_dps"):
            melnikov_coeff_contour(1, p, jmax=2, mp_dps=dps, with_error=True)
        with pytest.raises(ValueError, match="mp_dps"):
            melnikov_coeff_contour(1, Params(0.0, 2.8), mp_dps=dps)
        with pytest.raises(ValueError, match="mp_dps"):
            MelnikovSeries.compute(p, "contour", lmax=1, jmax=2, mp_dps=dps)
    assert contour_integral_I(1, 2, 1, p, mp_dps=MP_DPS_MIN) == pytest.approx(
        contour_integral_I(1, 2, 1, p), rel=1e-12)


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
    def test_zero_at_mu0(self):
        s = MelnikovSeries.compute(Params(0.0, 2.0), "quadrature", lmax=2)
        assert s.coefficients == {0: 0.0, 1: 0.0, 2: 0.0}

    def test_no_harmonic_is_refused(self):
        # lmax < 1 returned an empty series
        for method in ("contour", "quadrature", "asymptotic"):
            for lmax in (0, -2):
                with pytest.raises(ValueError, match="lmax"):
                    MelnikovSeries.compute(Params(0.3, 2.8), method, lmax=lmax)

    def test_nonpositive_tolerance_is_refused(self):
        # the quadrature ran its panels for about 1 s before a PrecisionError
        # at tol 0, and the contour series returned at any tol
        p = Params(0.3, 1.5)
        with pytest.raises(ValueError, match="tol"):
            melnikov_coeff_quadrature(1, p, tol=0.0)
        for method in ("contour", "quadrature", "asymptotic"):
            for tol in (0.0, -1.0, float("nan")):
                with pytest.raises(ValueError, match="tol"):
                    MelnikovSeries.compute(p, method, lmax=1, tol=tol)

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

    @staticmethod
    def _sign_changes_match_phase(p, spacing):
        # the zeros of the distance on a v grid fall exactly in the grid
        # steps where the phase x crosses a multiple of spacing
        vg = np.linspace(0.4, 1.6, 20001)
        vals = predicted_distance(vg, 0.0, p)
        cells = np.floor(phase_of_v(vg, 0.0, p) / spacing)
        idx = np.flatnonzero(np.diff(np.sign(vals)))
        assert idx.size >= 4
        assert np.array_equal(idx, np.flatnonzero(np.diff(cells)))

    def test_zero_function_roots(self):
        # equal masses: pure second harmonic, four zeros per period
        self._sign_changes_match_phase(Params(0.5, 2.4), math.pi / 2)

    def test_zero_function_two_root_regime(self):
        # (1-2mu) > 32 sqrt(2) g0^2 e^{-g0^3/3}: only x = 0 and pi per period
        p = Params(0.1, 3.0)
        assert 1.0 - 2.0 * p.mu > 32.0 * math.sqrt(2.0) * 9.0 * math.exp(-9.0)
        self._sign_changes_match_phase(p, math.pi)

    @pytest.mark.parametrize("mu", [0.0, 0.1, 0.3, 0.5])
    @pytest.mark.parametrize("g0", [2.0, 2.4, 2.8, 3.5])
    def test_closed_forms_by_independent_arithmetic(self, mu, g0):
        # the amplitudes A_l = 2 l g0^3 |L_l| and the lobe 4(|L1| + |L2|),
        # written out term by term
        p = Params(mu, g0)
        common = mu * (1.0 - mu) * math.sqrt(math.pi)
        a1 = (common * (1.0 - 2.0 * mu) / (2.0 * math.sqrt(2.0)) * g0**1.5
              * math.exp(-g0**3 / 3.0))
        a2 = common * 8.0 * g0**3.5 * math.exp(-2.0 * g0**3 / 3.0)
        lobe = common * ((1.0 - 2.0 * mu) / math.sqrt(2.0) * g0**-1.5
                         * math.exp(-g0**3 / 3.0)
                         + 8.0 * math.sqrt(g0) * math.exp(-2.0 * g0**3 / 3.0))
        vg = np.linspace(0.4, 1.6, 101)
        x = phase_of_v(vg, 0.7, p)
        y = homoclinic_y(vg)
        want = (a1 * np.sin(x) - a2 * np.sin(2.0 * x)) / y
        scale = (np.abs(a1 * np.sin(x)) + np.abs(a2 * np.sin(2.0 * x))) / y
        got = predicted_distance(vg, 0.7, p)
        assert np.all(np.abs(got - want) <= 1e-15 * scale)
        assert abs(predicted_lobe_area(p) - lobe) <= 1e-15 * lobe
        if mu == 0.0:
            assert np.all(got == 0.0) and predicted_lobe_area(p) == 0.0

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
        with pytest.raises(ValueError):
            predicted_tangency_mu(2.0)
