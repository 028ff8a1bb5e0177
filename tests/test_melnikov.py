import math
import re

import mpmath
import numpy as np
import pytest
from mpmath import libmp
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


# l: (coefficient, error estimate) of the quadrature series at (0.3, 1.5),
# lmax 4, as float.hex strings
QUADRATURE_PINS = {
    0: ("0x1.2daf3a239a696p-4", "0x1.198a17cfb2e6cp-30"),
    1: ("-0x1.000371ff6d7aap-6", "0x1.63c624a538a37p-34"),
    2: ("0x1.4c5872d628a3bp-4", "0x1.23f4d919905bbp-34"),
    3: ("-0x1.6a237f18ab9b2p-6", "0x1.c3788ea679b4ep-36"),
    4: ("0x1.bdf90fca2549ep-7", "0x1.13b6122e3e12bp-41"),
}


def _quadrature_to_raw_tail_cut(l, p, tol=1e-9):
    """melnikov_coeff_quadrature's value with T cut where the raw tail bound
    4 |U[l](T)| / w is below tol/10, on the same panels and boundary terms:
    a reference that integrates much further out than the route does."""
    omega = l * p.g0**3
    T = 20.0
    while (4.0 * abs(uhat_fourier_coeff_quadrature(l, T, p)) / omega
           > 0.1 * tol and T <= 2e4):
        T *= 1.4
    width = 0.25 * 2.0 * np.pi / omega
    n_panels = int(np.ceil(2.0 * T / width))
    edges = np.linspace(-T, T, n_panels + 1)
    total = 0.0 + 0.0j
    for i0 in range(0, n_panels, 256):
        i1 = min(i0 + 256, n_panels)
        f, wts = melnikov._panel_terms(edges[i0:i1], edges[i0 + 1:i1 + 1], l,
                                       omega, p, melnikov._GL12)
        total += np.sum(f * wts)
    h = 1e-3
    for sign in (1.0, -1.0):
        tb = sign * T
        g = melnikov._g_factor(np.array([tb - h, tb, tb + h]), l, p)
        gp = (g[2] - g[0]) / (2.0 * h)
        total += sign * np.exp(-1j * omega * tb) * (
            g[1] / (1j * omega) + gp / (1j * omega) ** 2)
    return float(total.real)


class TestQuadratureRoute:
    def test_zero_at_mu0(self):
        res = melnikov_coeff_quadrature(1, Params(0.0, 1.5))
        assert res.value == 0.0

    def test_series_matches_full_angle_grid(self, monkeypatch):
        # the per-node angle grids against the fixed 256-point grid at
        # every node
        p = Params(0.3, 1.5)
        s = MelnikovSeries.compute(p, "quadrature", lmax=4)
        monkeypatch.setattr(melnikov, "_THETA_GRIDS", ())
        full = MelnikovSeries.compute(p, "quadrature", lmax=4)
        for l, want in full.coefficients.items():
            assert s.coefficients[l] == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_series_pinned_bit_for_bit(self):
        # the grid sizes per node, the blocks of V and the panel sums make
        # the series; a change to how they are grouped must keep every bit
        s = MelnikovSeries.compute(Params(0.3, 1.5), "quadrature")
        assert {l: (c.hex(), s.error_estimates[l].hex())
                for l, c in s.coefficients.items()} == QUADRATURE_PINS

    @pytest.mark.parametrize("mu,g0", [(0.3, 1.5), (0.1, 1.8), (0.5, 2.0),
                                       (0.3, 1.3), (0.01, 1.6)])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_tail_bound_covers_truncation(self, monkeypatch, mu, g0, l):
        # 24 nodes per panel on both sides, so the two differ only in T:
        # the reference's cut by the raw tail runs to T = 6098 at
        # (0.3, 1.5), l = 2, where the route stops at T = 55.  The largest
        # of the 20 differences is 0.25 of the bound
        monkeypatch.setattr(melnikov, "_GL12", melnikov._GL24)
        p = Params(mu, g0)
        res = melnikov_coeff_quadrature(l, p)
        ref = _quadrature_to_raw_tail_cut(l, p)
        assert abs(res.value - ref) <= res.tail_bound

    def test_series_node_count(self, monkeypatch):
        # the (0.3, 1.5) series of lmax 4 evaluates 22272 nodes of g; cut by
        # the raw tail bound 4 |U[l](T)| / w it took 696048
        count = [0]
        g_factor = melnikov._g_factor

        def counted(t_nodes, l, p):
            count[0] += np.size(t_nodes)
            return g_factor(t_nodes, l, p)

        monkeypatch.setattr(melnikov, "_g_factor", counted)
        MelnikovSeries.compute(Params(0.3, 1.5), "quadrature", lmax=4)
        assert count[0] <= 30000

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
        res = melnikov_coeff_quadrature(1, Params(0.3, 1.5))
        assert abs(res.imag_residue) < 1e-10 * abs(res.value)

    def test_binary64_domain_guard(self):
        with pytest.raises(PrecisionError):
            melnikov_coeff_quadrature(1, Params(0.3, 2.5))


class TestContourIntegrals:
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
            (val,), _ = contour_integral_I(l, [n], p)
            assert abs(oracle.imag) < 1e-8 * abs(oracle.real)
            assert val == pytest.approx(oracle.real, rel=1e-8)

    def test_leading_asymptotics_trend(self):
        # |I(1,2,1)| approaches (1/6) sqrt(pi/2) g0^{9/2} e^{-g0^3/3}; the
        # value itself is negative (saddle with fourth-order pole)
        devs = []
        for g0 in (2.0, 3.0, 4.0):
            p = Params(0.25, g0)
            (val,), _ = contour_integral_I(1, [1], p)
            lead = contour_integral_leading(1, 2, 1, p)
            assert val < 0.0 and lead < 0.0
            assert abs(lead) == pytest.approx(
                (1.0 / 6.0) * math.sqrt(math.pi / 2.0) * g0**4.5
                * math.exp(-g0**3 / 3.0), rel=1e-14)
            devs.append(abs(val / lead - 1.0))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.5

    def test_invalid_orders(self):
        # a harmonic l <= 0, or a negative j
        p = Params(0.3, 2.0)
        for l in (0, -1):
            with pytest.raises(ValueError, match="l must be"):
                contour_integral_I(l, [1], p)
        for js in ([-1], [-1, 0]):
            with pytest.raises(ValueError, match="js must be"):
                contour_integral_I(1, js, p)

    def test_value_at_its_floor_comes_back_with_it(self):
        # in binary64 I(3, 15, 12) at g0 = 4.5 is noise (+1.3e-23, against
        # -2.2e-26 in mpmath): its floor 50 eps max|integrand| exceeds it
        (val,), (floor,) = contour_integral_I(3, [12], Params(0.3, 4.5))
        assert floor > abs(val)

    def test_extended_precision_agrees(self):
        p = Params(0.3, 2.0)
        (a,), _ = contour_integral_I(1, [1], p)
        (b,), _ = contour_integral_I(1, [1], p, mp_dps=30)
        assert a == pytest.approx(b, rel=1e-12)


class TestSharedPath:
    def test_vector_matches_scalar_calls(self):
        # the harmonic's call grades its panels for its highest pole order,
        # a one-term call for its own: they agree to each entry's floor
        p = Params(0.3, 2.0)
        js = list(range(13))
        vals, floors = contour_integral_I(1, js, p)
        assert isinstance(vals, np.ndarray) and vals.shape == (len(js),)
        assert isinstance(floors, np.ndarray) and floors.shape == (len(js),)
        for k, j in enumerate(js):
            (one,), (one_floor,) = contour_integral_I(1, [j], p)
            assert abs(vals[k] - one) <= floors[k]
            assert one_floor == pytest.approx(floors[k], rel=1e-3)

    def test_extended_vector_matches_scalar_calls(self):
        p = Params(0.3, 2.0)
        js = [0, 1, 2, 4]
        vals, _ = contour_integral_I(1, js, p, mp_dps=30)
        for k, j in enumerate(js):
            (one,), _ = contour_integral_I(1, [j], p, mp_dps=30)
            assert vals[k] == one

    def test_sequence_validation(self):
        # js empty, or not strictly increasing
        for js in ([], [2, 1], [0, 1, 1]):
            with pytest.raises(ValueError, match="js must be"):
                contour_integral_I(1, js, Params(0.3, 2.0))

    def test_extended_series_pinned(self):
        # the values of the per-term mp.quad summation this path replaced
        p = Params(0.3, 3.5)
        assert melnikov_coeff_contour(1, p, mp_dps=40)[0] == pytest.approx(
            -3.1843458367992765e-09, rel=1e-15)
        assert melnikov_coeff_contour(2, p, mp_dps=40)[0] == pytest.approx(
            5.115479836993671e-13, rel=1e-15)

    def test_extended_non_convergence_raises(self, monkeypatch):
        # capped at degree 2 or 3, the tanh-sinh sums cannot converge; the
        # message, recorded when every degree estimated every term, names
        # the first interval from -A, its term and its estimate
        for cap, ratio, harmonic_ratio in ((2, "0.174905", "0.0913563"),
                                           (3, "1e-05", "1e-05")):
            monkeypatch.setattr(mpmath.mp._tanh_sinh, "guess_degree",
                                lambda prec: cap)
            with pytest.raises(RuntimeError, match=re.escape(
                    "extended contour quadrature for I(1,2,1) did not converge "
                    f"on [-8.48528, -1.06066]: estimated relative error {ratio} "
                    "above 2.46519e-32")):
                contour_integral_I(1, [1], Params(0.3, 2.0), mp_dps=30)
            # of a harmonic's 13 terms, the first is named
            with pytest.raises(RuntimeError, match=re.escape(
                    "extended contour quadrature for I(1,1,0) did not converge "
                    "on [-3.94946, -0.458162]: estimated relative error "
                    f"{harmonic_ratio} above 2.86986e-42")):
                contour_integral_I(1, range(13), Params(0.3, 3.5), mp_dps=40)

    def test_extended_convergence_is_relative(self):
        # I(4, 4, 0) at g0 = 4.5 is about 3e-46, below mp.quad's absolute
        # epsilon at 30 digits; an absolute test stops at degree 2 with an
        # answer 10x off
        p = Params(0.3, 4.5)
        (ref,), _ = contour_integral_I(4, [0], p)
        assert ref == pytest.approx(contour_integral_leading(4, 4, 0, p), rel=0.2)
        (ext,), _ = contour_integral_I(4, [0], p, mp_dps=30)
        assert ext == pytest.approx(ref, rel=1e-10)

    def test_error_estimate_covers_arithmetic_floor(self):
        # binary64 against mpmath: the reported error bounds the difference
        # and is at least the floor of the terms, above the truncation tail
        p = Params(0.3, 2.0)
        for l in (3, 4):
            val, err = melnikov_coeff_contour(l, p)
            ref, _ = melnikov_coeff_contour(l, p, mp_dps=30)
            assert abs(val - ref) <= err
        s = MelnikovSeries.compute(p, "contour", lmax=4)
        assert s.error_estimates[4] == err
        assert err > 1e-9 * abs(val)


# (l, js, params, digits, values, floors) of the extended route's j-terms
# I(l, j + l, j), values and floors as float.hex strings, recorded from the
# per-term mpc summation that the integer step sums replaced (l2_g45_d17
# from the integer step sums over all four intervals, before the mirror
# pairing): both must agree bit for bit
EXTENDED_PINS = {
    "l1_g35": (1, range(13), Params(0.3, 3.5), 40,
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
    "l2_g35": (2, range(13), Params(0.3, 3.5), 40,
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
    "I440_g45": (4, range(1), Params(0.3, 4.5), 30,
        [
            "0x1.dadb1d86928b5p-152",
        ],
        [
            "0x1.34568df96c73dp-276",
        ]),
    "l3_g20": (3, range(13), Params(0.3, 2.0), 30,
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
    "l2_mu05_g28": (2, range(13), Params(0.5, 2.8), 40,
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
    "l1_g15": (1, range(19), Params(0.3, 1.5), 30,
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
    # the terms j = 0..7 of the l = 2 harmonic that pass the reality check
    # at 17 digits (test_extended_route_refuses_a_complex_result: j = 8 on)
    "l2_g45_d17": (2, range(8), Params(0.45, 4.5), 17,
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
    l, js, p, dps, vals, floors = EXTENDED_PINS[case]
    got, got_floors = contour_integral_I(l, js, p, mp_dps=dps)
    assert [v.hex() for v in got.tolist()] == vals
    assert [f.hex() for f in got_floors.tolist()] == floors


# (l, g0): values and floors of the binary64 route's harmonic l, jmax 12, at
# mu = 0.3, as float.hex strings, from contour_integral_I
BINARY64_PINS = {
    (1, 2.0): (
        [
            "-0x1.fae10079241e3p-2", "-0x1.27bf917a5a1e0p-1",
            "-0x1.27c3a6755f18ap-1", "-0x1.193ff8f22ed1ap-1",
            "-0x1.07c1d6a8eedb1p-1", "-0x1.ee4b81edd5d10p-2",
            "-0x1.d0ce305cfa4b0p-2", "-0x1.b71e1b19f6840p-2",
            "-0x1.a0c7560d48ac0p-2", "-0x1.8d423867bb250p-2",
            "-0x1.7c14e235c9a00p-2", "-0x1.6cda1314c01d0p-2",
            "-0x1.5f3fde193d000p-2",
        ],
        [
            "0x1.feceeb7dd1c3bp-47", "0x1.2dbafb8ee3ca9p-44",
            "0x1.6475a27b0b32bp-42", "0x1.a51d98c8c4699p-40",
            "0x1.f17fd286887c1p-38", "0x1.25de6fe9a6aeep-35",
            "0x1.5b2c0b9d1064dp-33", "0x1.9a24c0203e354p-31",
            "0x1.e4897ef1268eap-29", "0x1.1e3653f86e9f7p-26",
            "0x1.5220674be738cp-24", "0x1.8f751681d82a5p-22",
            "0x1.d7e9a0a31752ap-20",
        ],
    ),
    (2, 2.0): (
        [
            "0x1.bc8c118c2330ap-3", "0x1.1b7b1bef19948p-2",
            "0x1.40e50cdc98874p-2", "0x1.5457837d80e08p-2",
            "0x1.5bf7c496dc2a0p-2", "0x1.5c6662fb4f280p-2",
            "0x1.58aff3d27ea00p-2", "0x1.52b6d659d6000p-2",
            "0x1.4b9b6ade1e000p-2", "0x1.4406d025e0000p-2",
            "0x1.3c5a9b36e0000p-2", "0x1.34cd4f5800000p-2",
            "0x1.2d75994218000p-2",
        ],
        [
            "0x1.fc796436e7f2ep-45", "0x1.1329c762b1b61p-41",
            "0x1.29cfcce2d6ed4p-38", "0x1.42530db6bc15cp-35",
            "0x1.5cdad1b80b887p-32", "0x1.79919c715dce3p-29",
            "0x1.98a5713eadba5p-26", "0x1.ba481d094ffb6p-23",
            "0x1.deaf861596204p-20", "0x1.030b0130ff643p-16",
            "0x1.185d5a912da7dp-13", "0x1.2f70f9f65bda2p-10",
            "0x1.486ada1d12f36p-7",
        ],
    ),
    (3, 2.0): (
        [
            "-0x1.be5919997dfd6p-4", "-0x1.267b8de27a84cp-3",
            "-0x1.61b06f571ca7cp-3", "-0x1.8f8c9d89d6600p-3",
            "-0x1.b13ca7d182580p-3", "-0x1.c8d98a0642000p-3",
            "-0x1.d89351b23da00p-3", "-0x1.e254764540000p-3",
            "-0x1.e7a86bf580000p-3", "-0x1.e9c4df1800000p-3",
            "-0x1.e9d9032800000p-3", "-0x1.eca7190000000p-3",
            "-0x1.19387b0000000p-2",
        ],
        [
            "0x1.a956159eaac28p-42", "0x1.4c83d20d2aa78p-38",
            "0x1.03f33508620f3p-34", "0x1.9671279459486p-31",
            "0x1.3dbe74cd2521fp-27", "0x1.f0ce1a9130892p-24",
            "0x1.8463172be5bdbp-20", "0x1.2fa11146fbc23p-16",
            "0x1.dabc6df1ef4cdp-13", "0x1.732258f082cd8p-9",
            "0x1.2224314277456p-5", "0x1.c5a5b97f11efap-2",
            "0x1.62a5cdf867bbap+2",
        ],
    ),
    (4, 2.0): (
        [
            "0x1.d9f76d8413290p-5", "0x1.3e66953bec440p-4",
            "0x1.8bff9645e2c00p-4", "0x1.d205de7d5a600p-4",
            "0x1.075f916854000p-3", "0x1.20eeb83088000p-3",
            "0x1.35f6295e00000p-3", "0x1.46f18c3400000p-3",
            "0x1.5474f44000000p-3", "0x1.5f8c6b0000000p-3",
            "0x1.6908200000000p-3", "0x1.8639000000000p-4",
            "-0x1.660e800000000p+1",
        ],
        [
            "0x1.f31e02b01dc61p-39", "0x1.fce4d25533f74p-35",
            "0x1.036e54219ff48p-30", "0x1.08833d27ad2bep-26",
            "0x1.0db1a18faa3bfp-22", "0x1.12fa0120eeb46p-18",
            "0x1.185cde23905e6p-14", "0x1.1ddabd6cf0396p-10",
            "0x1.2374266c86689p-6", "0x1.2929a338ee4b2p-2",
            "0x1.2efbc09d34006p+2", "0x1.34eb0e2664a23p+6",
            "0x1.3af81e316281ep+10",
        ],
    ),
    (1, 2.8): (
        [
            "-0x1.fff3466e5617ep-8", "-0x1.3f4c49ef0a939p-6",
            "-0x1.1fae79ac4f39ap-5", "-0x1.af6bb5c5508aap-5",
            "-0x1.2004379293c6cp-4", "-0x1.63bc245488020p-4",
            "-0x1.a030a64284cd0p-4", "-0x1.d46df44039a00p-4",
            "-0x1.0047a6a8f0600p-3", "-0x1.129eb06d12000p-3",
            "-0x1.21ad59d320000p-3", "-0x1.2de9bc9240000p-3",
            "-0x1.37c095c780000p-3",
        ],
        [
            "0x1.b0d315aa61885p-52", "0x1.37d928af2e8d2p-48",
            "0x1.c15ee9fdf3c78p-45", "0x1.43c50e68b11f9p-41",
            "0x1.d28cac2f1fa14p-38", "0x1.50259f78696b8p-34",
            "0x1.e4628cf5612f4p-31", "0x1.5cff51a67a243p-27",
            "0x1.f6e6f99d0190ep-24", "0x1.6a56c6610cae5p-20",
            "0x1.05104f2bfbc11p-16", "0x1.7830cc677b85dp-13",
            "0x1.0f0b3452b911bp-9",
        ],
    ),
    (2, 2.8): (
        [
            "0x1.967874b6afc7fp-14", "0x1.1e75834cbb989p-12",
            "0x1.41fd8dc1c1020p-11", "0x1.355af0d6f903cp-10",
            "0x1.08b54e9fd0300p-9", "0x1.9e80ddcf5e200p-9",
            "0x1.2e9d096d14000p-8", "0x1.a1bf07abb0000p-8",
            "0x1.13783cca80000p-7", "0x1.5de3fb6200000p-7",
            "0x1.ae9df96000000p-7", "0x1.ffda610000000p-7",
            "0x1.d50c400000000p-7",
        ],
        [
            "0x1.68732a4a6620bp-55", "0x1.ede9aa7ae3c20p-51",
            "0x1.526574f4a200ep-46", "0x1.cfb188f056088p-42",
            "0x1.3db12c11fb045p-37", "0x1.b352ba08b3fbbp-33",
            "0x1.2a412d480589cp-28", "0x1.98b0482252ce5p-24",
            "0x1.1801a1426df67p-19", "0x1.7faf0332df694p-15",
            "0x1.06dfe77229810p-10", "0x1.68356506cae97p-6",
            "0x1.ed950613c0c74p-2",
        ],
    ),
    (3, 2.8): (
        [
            "-0x1.7650fe860fc0ep-20", "-0x1.147d59bbe226cp-18",
            "-0x1.57d0a46a1b958p-17", "-0x1.77046fc75dd80p-16",
            "-0x1.70c4f01f4f400p-15", "-0x1.4d55d1e424000p-14",
            "-0x1.1900cbf1e0000p-13", "-0x1.bec9cb7a00000p-13",
            "-0x1.51d7972c00000p-12", "-0x1.e72cde8000000p-12",
            "-0x1.2928940000000p-11", "0x1.0fbd500000000p-9",
            "0x1.9469bc0000000p-4",
        ],
        [
            "0x1.f94f81ee27785p-58", "0x1.fc0f808ca7cdfp-53",
            "0x1.fed353f7d9f8dp-48", "0x1.00cd80c317916p-42",
            "0x1.0233474ac416cp-37", "0x1.039b0045a0071p-32",
            "0x1.0504ae6a1b1bdp-27", "0x1.067054726c8a8p-22",
            "0x1.07ddf51c98480p-17", "0x1.094d932a7453fp-12",
            "0x1.0abf3161ae0bap-7", "0x1.0c32d28bcf838p-2",
            "0x1.0da8797644e93p+3",
        ],
    ),
    (4, 2.8): (
        [
            "0x1.6e0c30d47cbf0p-26", "0x1.1535eeaf7a5e8p-24",
            "0x1.6d686229b2c00p-23", "0x1.aed0dabd91d00p-22",
            "0x1.cf44f03a08000p-21", "0x1.cd0d03ba30000p-20",
            "0x1.ad7e976000000p-19", "0x1.79fe3aa800000p-18",
            "0x1.3dda340000000p-17", "0x1.06a9f80000000p-16",
            "-0x1.c2f0000000000p-17", "-0x1.d72ae00000000p-9",
            "-0x1.f1dfe00000000p-3",
        ],
        [
            "0x1.f1221ad7dd461p-60", "0x1.48f11366a3229p-54",
            "0x1.b34e720bcd1d6p-49", "0x1.2008466452bf6p-43",
            "0x1.7d2b381902357p-38", "0x1.f86be1f56b395p-33",
            "0x1.4dc39e4c45dc9p-27", "0x1.b9b02ec8afc57p-22",
            "0x1.2441481789364p-16", "0x1.82c1c621fa90cp-11",
            "0x1.ffd10379f139ap-6", "0x1.52a842864dbe7p+0",
            "0x1.c029df0f04e1ap+5",
        ],
    ),
    (1, 3.5): (
        [
            "-0x1.566cb01fd4e50p-17", "-0x1.7a7f8a58f29fdp-15",
            "-0x1.1b874291648eap-13", "-0x1.4edfbf3c58412p-12",
            "-0x1.4f99717121419p-11", "-0x1.29f991170bc40p-10",
            "-0x1.e2355dc768180p-10", "-0x1.6aa2c0681f000p-9",
            "-0x1.012157da20400p-8", "-0x1.5b8c34d800000p-8",
            "-0x1.c37eaa5a40000p-8", "-0x1.1baecd3800000p-7",
            "-0x1.59f03f8800000p-7",
        ],
        [
            "0x1.96adbae5a3524p-61", "0x1.107d1ecc23024p-56",
            "0x1.6d275df417a74p-52", "0x1.e954d195f5a85p-48",
            "0x1.47de710b27652p-43", "0x1.b75df55332bd7p-39",
            "0x1.26641f67ba9bdp-34", "0x1.8a81235933276p-30",
            "0x1.0854e557a0757p-25", "0x1.62390076030d2p-21",
            "0x1.daaed0d3971a4p-17", "0x1.3e0dcf541371ap-12",
            "0x1.aa36dba5d3788p-8",
        ],
    ),
    (2, 3.5): (
        [
            "0x1.0649badd8dedcp-32", "0x1.4d65e7473c58dp-30",
            "0x1.457edaa1137e0p-28", "0x1.06c6241d6ed04p-26",
            "0x1.6e99e8a6ea800p-25", "0x1.c6fac100fae80p-24",
            "0x1.0066260b40000p-22", "0x1.0a818e3eb8000p-21",
            "0x1.0284a8ea00000p-20", "0x1.d88681dc00000p-20",
            "0x1.9a26680000000p-19", "0x1.49c63e0000000p-18",
            "-0x1.a829000000000p-18",
        ],
        [
            "0x1.3c774194beccfp-73", "0x1.99635195f0591p-68",
            "0x1.08cc11c166440p-62", "0x1.568c4e570a0ccp-57",
            "0x1.bb20e9f072790p-52", "0x1.1e9ef8bbc2174p-46",
            "0x1.72c7a8d813643p-41", "0x1.dfa665314f607p-36",
            "0x1.363e54a6536a0p-30", "0x1.9156abd75914ep-25",
            "0x1.039737a597946p-19", "0x1.4fd0189727405p-14",
            "0x1.b26a6f0135b3cp-9",
        ],
    ),
    (3, 3.5): (
        [
            "-0x1.d398517063302p-48", "-0x1.3987d67888734p-45",
            "-0x1.588a39841b250p-43", "-0x1.442bb8fb3ed80p-41",
            "-0x1.0ce11c2ca3e00p-39", "-0x1.9177915b58000p-38",
            "-0x1.11fed457e0000p-36", "-0x1.5a0a486600000p-35",
            "-0x1.981a4de000000p-34", "-0x1.c0db8b0000000p-33",
            "-0x1.a98a700000000p-32", "-0x1.6a99a00000000p-28",
            "-0x1.866c000000000p-21",
        ],
        [
            "0x1.9ed830470483bp-85", "0x1.8c53b626d4105p-79",
            "0x1.7aa2d604b2a8dp-73", "0x1.69bc1de1b5f61p-67",
            "0x1.599687adacec4p-61", "0x1.4a297475c43d7p-55",
            "0x1.3b6ca7ca38859p-49", "0x1.2d584358a1150p-43",
            "0x1.1fe4c2b87a547p-37", "0x1.130af767b18eap-31",
            "0x1.06c404f50d916p-25", "0x1.f612baacd022ep-20",
            "0x1.dfa97ad186409p-14",
        ],
    ),
    (4, 3.5): (
        [
            "0x1.bb0351f8ee6f0p-63", "0x1.31992d8febb58p-60",
            "0x1.67553446c8800p-58", "0x1.72bd633b2af00p-56",
            "0x1.56afc27f40000p-54", "0x1.203bfc6eb8000p-52",
            "0x1.be92b82800000p-51", "0x1.418bc24000000p-49",
            "0x1.a98b400000000p-48", "0x1.3e44000000000p-48",
            "-0x1.001d600000000p-40", "-0x1.8d36680000000p-34",
            "-0x1.538ad00000000p-27",
        ],
        [
            "0x1.7db7a08d3c943p-96", "0x1.e1d02d1513d97p-90",
            "0x1.301410542c59fp-83", "0x1.7fd0bd36c49c6p-77",
            "0x1.e47621e22aaa7p-71", "0x1.31bfee3684cdcp-64",
            "0x1.81eccda49a019p-58", "0x1.e71fd0a1eb9d6p-52",
            "0x1.336e26254abe7p-45", "0x1.840bd5fe2c080p-39",
            "0x1.e9cd3e92a1f5ep-33", "0x1.351ebb6fa1ab3p-26",
            "0x1.862dda70c24e3p-20",
        ],
    ),
}


@pytest.mark.parametrize("l, g0", list(BINARY64_PINS))
def test_binary64_route_pinned_bit_for_bit(l, g0):
    vals, floors = BINARY64_PINS[l, g0]
    got, got_floors = contour_integral_I(l, range(13), Params(0.3, g0))
    assert [v.hex() for v in got.tolist()] == vals
    assert [f.hex() for f in got_floors.tolist()] == floors


def test_extended_route_refuses_a_complex_result():
    # at 17 digits the terms j >= 8 of the l = 2, jmax 12 harmonic at
    # g0 = 4.5 keep an imaginary part far above their error estimate (that
    # of I(2, 14, 12) is 5e-10 of its real part): the reality check refuses
    # the call and names the first; its message pins the route to 6 digits
    with pytest.raises(RuntimeError, match=re.escape(
            "not real: I(2,10,8) = 4.7147e-18 + -1.25202e-32i")):
        contour_integral_I(2, range(13), Params(0.45, 4.5), mp_dps=17)


@pytest.mark.parametrize("dps", (17, 40))
@pytest.mark.parametrize("g0", (2.0, 3.5))
@pytest.mark.parametrize("l", (1, 2))
def test_extended_path_mirror_symmetry(l, g0, dps):
    # the extended route evaluates the right-hand node of each mirror pair
    # only and gives its mirror the conjugates: mpmath's nodes on [-b, -a]
    # must be those on [a, b] negated with equal weights, and the point at
    # -x minus the conjugate of that at x, the slope, lead, u and w the
    # conjugates, bit for bit.  _mp_node works on libmp tuples: a real's
    # negation is mpf_neg, a complex (re, im)'s conjugate (re, mpf_neg(im))
    ctx = mpmath.mp
    rule = ctx._tanh_sinh
    with ctx.workdps(dps):
        prec = ctx.prec
        points, path = melnikov._mp_path(l, Params(0.3, g0), dps, prec + 20)
        with ctx.workprec(prec + 20):
            for a, b in ((points[3], points[4]), (points[2], points[3])):
                for degree in (1, 2, 3):
                    nodes = rule.get_nodes(a, b, degree, prec)
                    mirror = rule.get_nodes(-b, -a, degree, prec)
                    assert ([(x._mpf_, w._mpf_) for x, w in sorted(mirror)]
                            == [(x._mpf_, w._mpf_) for x, w in
                                sorted((-x, w) for x, w in nodes)])
                    for x, wt in nodes:
                        (re, im), *rest = melnikov._mp_node(
                            x._mpf_, wt._mpf_, path, libmp)
                        tau_m, *rest_m = melnikov._mp_node(
                            libmp.mpf_neg(x._mpf_), wt._mpf_, path, libmp)
                        assert tau_m == (libmp.mpf_neg(re), im)
                        assert rest_m == [(zr, libmp.mpf_neg(zi))
                                          for zr, zi in rest]


@pytest.mark.parametrize("dps", (17, 40))
def test_extended_node_matches_object_arithmetic(dps):
    # _mp_node writes out the libmp calls of mpmath's operators; _bent_path
    # on mpmath numbers and the lead, u and w on mpmath objects stay the
    # reference of the path formula: equal tuple for tuple at every node of
    # degrees 1 to 6 on both right-hand intervals
    ctx = mpmath.mp
    rule = ctx._tanh_sinh
    for l, g0 in ((1, 3.5), (2, 3.5), (3, 2.8), (4, 4.5)):
        with ctx.workdps(dps):
            prec = ctx.prec
            points, path = melnikov._mp_path(l, Params(0.3, g0), dps, prec + 20)
            delta, wb, j_half_w, _ = path
            delta, wb = ctx.make_mpf(delta), ctx.make_mpf(wb)
            j_half_w = ctx.make_mpc(j_half_w)
            with ctx.workprec(prec + 20):
                for a, b in ((points[3], points[4]), (points[2], points[3])):
                    for degree in range(1, 7):
                        for x, wt in rule.get_nodes(a, b, degree, prec):
                            tau, dtau = melnikov._bent_path(
                                x, delta, wb, ctx.sqrt, ctx.exp, ctx.j)
                            lead = wt * dtau * ctx.exp(j_half_w * (tau + tau**3 / 3))
                            u, w = 1 / (tau - ctx.j) ** 2, 1 / (tau + ctx.j) ** 2
                            assert melnikov._mp_node(
                                x._mpf_, wt._mpf_, path, libmp) == tuple(
                                    z._mpc_ for z in (tau, dtau, lead, u, w))


def test_extended_route_refuses_too_few_digits():
    # at mp_dps = 0 the route returned L1 = -9.42e-7 with error estimate
    # 4.7e-9 at (0.3, 2.8), where binary64 gives -5.31e-6; at mu = 0 no term
    # is summed, and the digit count is refused all the same
    p = Params(0.3, 2.8)
    for dps in (0, MP_DPS_MIN - 1):
        with pytest.raises(ValueError, match="mp_dps"):
            contour_integral_I(1, [1], p, mp_dps=dps)
        with pytest.raises(ValueError, match="mp_dps"):
            melnikov_coeff_contour(1, p, jmax=2, mp_dps=dps)
        with pytest.raises(ValueError, match="mp_dps"):
            melnikov_coeff_contour(1, Params(0.0, 2.8), mp_dps=dps)
        # the quadrature and asymptotic series, which do not read mp_dps,
        # returned at any value
        for method in ("contour", "quadrature", "asymptotic"):
            with pytest.raises(ValueError, match="mp_dps"):
                MelnikovSeries.compute(Params(0.3, 1.5), method, lmax=1,
                                       jmax=2, mp_dps=dps)
    (ext,), _ = contour_integral_I(1, [1], p, mp_dps=MP_DPS_MIN)
    (ref,), _ = contour_integral_I(1, [1], p)
    assert ext == pytest.approx(ref, rel=1e-12)


class TestCrossMethod:
    def test_quadrature_vs_contour(self):
        p = Params(0.3, 1.5)
        for l in (1, 2):
            q = melnikov_coeff_quadrature(l, p)
            c, _ = melnikov_coeff_contour(l, p, jmax=18)
            assert q.value == pytest.approx(c, rel=1e-6)

    def test_equal_mass_kills_odd_harmonics(self):
        p = Params(0.5, 2.0)
        assert melnikov_coeff_contour(1, p) == (0.0, 0.0)
        assert melnikov_coeff_contour(3, p) == (0.0, 0.0)
        assert melnikov_coeff_contour(2, p)[0] != 0.0

    def test_harmonic_decay(self):
        # geometric decay holds from l = 2 on; the l = 1 coefficient is
        # anomalously small through its (1 - 2 mu) factor
        p = Params(0.3, 2.0)
        vals = [abs(melnikov_coeff_contour(l, p)[0]) for l in (1, 2, 3, 4)]
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

    def test_precision(self):
        # only the contour series reads mp_dps; the others stay binary64
        p = Params(0.3, 2.0)
        for method in ("contour", "quadrature", "asymptotic"):
            s = MelnikovSeries.compute(p, method, lmax=1)
            assert s.precision == "double"
        for method in ("quadrature", "asymptotic"):
            s = MelnikovSeries.compute(Params(0.3, 1.5), method, lmax=1,
                                       mp_dps=30)
            assert s.precision == "double"
        s = MelnikovSeries.compute(p, "contour", lmax=1, mp_dps=30)
        assert s.precision == "extended"

    def test_untrusted(self):
        p = Params(0.3, 2.0)

        def series(coeffs, errs):
            return MelnikovSeries(coefficients=coeffs, method="contour",
                                  params=p, error_estimates=errs)

        assert not series({1: -1.0, 2: 0.5}, {1: 0.1, 2: 0.05}).untrusted
        assert series({1: -1.0, 2: 0.5}, {1: 0.1, 2: 0.06}).untrusted
        # a zero coefficient and a NaN estimate never trip it, an infinite
        # estimate does
        assert not series({1: 0.0}, {1: 1.0}).untrusted
        assert not series({1: -1.0}, {1: float("nan")}).untrusted
        assert series({1: -1.0}, {1: float("inf")}).untrusted
        assert not MelnikovSeries.compute(p, "contour").untrusted
        # the binomial series diverges at perihelion
        assert MelnikovSeries.compute(Params(0.3, 1.05), "contour",
                                      lmax=1).untrusted

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
