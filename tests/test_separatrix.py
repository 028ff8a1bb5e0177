import math

import numpy as np
import pytest

from rpc3bp.core import Params
from rpc3bp.integrate import flow
from rpc3bp.separatrix import (
    homoclinic_alpha_prime,
    homoclinic_r,
    homoclinic_state,
    tau_of_v,
    v_of_r,
    v_of_tau,
)


def v_grid():
    mags = np.concatenate([np.linspace(0.0, 10.0, 200),
                           np.logspace(1.0, 6.0, 200)])
    return np.concatenate([-mags[::-1], mags[1:]])


class TestCubicVariable:
    def test_exact_values(self):
        assert tau_of_v(0.0) == 0.0
        assert tau_of_v(2.0 / 3.0) == pytest.approx(1.0, abs=1e-15)
        assert tau_of_v(7.0 / 3.0) == pytest.approx(2.0, abs=1e-15)

    def test_cubic_identity(self):
        v = v_grid()
        t = tau_of_v(v)
        resid = np.abs(v_of_tau(t) - v) / np.maximum(1.0, np.abs(v))
        assert np.max(resid) < 1e-14

    def test_odd_and_increasing(self):
        mags = np.linspace(0.0, 50.0, 151)
        v = np.concatenate([-mags[::-1], mags[1:]])
        t = np.asarray(tau_of_v(v))
        assert np.all(t + t[::-1] == 0.0)
        assert np.all(np.diff(t) > 0)

    def test_complex_branch_point(self):
        # v(tau = +-i) = +-i/3
        assert 0.5 * ((1j) ** 3 / 3 + 1j) == pytest.approx(1j / 3, abs=1e-16)
        for eps in (1e-2, 1e-4):
            tau = 1j * (1.0 - eps)
            v = 0.5 * (tau**3 / 3.0 + tau)
            assert abs(v - 1j / 3.0) < 1.1 * eps


class TestHomoclinicState:
    def test_turning_point(self):
        h = homoclinic_state(0.0)
        assert (h.r, h.y, h.alpha) == (0.5, 0.0, 0.0)

    def test_v_two_thirds(self):
        h = homoclinic_state(2.0 / 3.0)
        assert h.r == pytest.approx(1.0, abs=1e-14)
        assert h.alpha == pytest.approx(math.pi / 2.0, abs=1e-14)
        assert h.y == pytest.approx(1.0, abs=1e-14)

    def test_symmetries(self):
        for v in (0.3, 2.0 / 3.0, 5.0, 123.0):
            h, hm = homoclinic_state(v), homoclinic_state(-v)
            assert hm.r == pytest.approx(h.r, rel=1e-15)
            assert hm.y == pytest.approx(-h.y, rel=1e-15)
            assert hm.alpha == pytest.approx(-h.alpha, rel=1e-15)

    def test_energy_identity(self):
        for v in v_grid()[::7]:
            h = homoclinic_state(float(v))
            resid = h.y**2 / 2.0 + 1.0 / (2.0 * h.r**2) - 1.0 / h.r
            assert abs(resid) < 1e-14

    def test_alpha_prime_is_inverse_square(self):
        for v in (0.2, 1.0, 4.0):
            h = 1e-6
            fd = (homoclinic_state(v + h).alpha - homoclinic_state(v - h).alpha) / (2 * h)
            assert homoclinic_alpha_prime(v) == pytest.approx(fd, rel=1e-8)

    def test_v_of_r_inverts(self):
        for v in (0.1, 0.7, 2.0, 30.0):
            assert v_of_r(homoclinic_r(v)) == pytest.approx(v, rel=1e-12)
        with pytest.raises(ValueError):
            v_of_r(0.4)


class TestFlowConsistency:
    def test_mu0_flow_reproduces_closed_form(self):
        # integrate the mu=0 rotating field along the separatrix for dv = 2
        p = Params(0.0, 2.0)
        tol = 1e-12
        v0, dv = -1.0, 2.0
        h0, h1 = homoclinic_state(v0), homoclinic_state(v0 + dv)
        phi0 = 0.3
        r, phi, y, G = flow([h0.r, phi0, h0.y, 1.0], dv, tol, p).y[:, -1]
        assert r == pytest.approx(h1.r, abs=1e-10)
        assert y == pytest.approx(h1.y, abs=1e-10)
        assert G == pytest.approx(1.0, abs=1e-12)
        phi_expected = phi0 + (h1.alpha - h0.alpha) - p.g0**3 * dv
        assert phi == pytest.approx(phi_expected, abs=1e-9)


class TestAsymptotics:
    def test_fitted_constants_converge(self):
        # ratios of the exact closed form against the leading powers of
        # tau ~ (6v)^(1/3): r ~ (6v)^(2/3)/2, y ~ pi - alpha ~ 2 (6v)^(-1/3)
        for v, rtol in ((1e4, 2e-3), (1e6, 1e-4)):
            h = homoclinic_state(v)
            assert h.r / v ** (2.0 / 3.0) == pytest.approx(
                6.0 ** (2.0 / 3.0) / 2.0, rel=rtol)
            assert h.y * v ** (1.0 / 3.0) == pytest.approx(
                2.0 * 6.0 ** (-1.0 / 3.0), rel=rtol)
            assert (math.pi - h.alpha) * v ** (1.0 / 3.0) == pytest.approx(
                2.0 * 6.0 ** (-1.0 / 3.0), rel=rtol)

    def test_alpha_limit(self):
        assert homoclinic_state(1e8).alpha == pytest.approx(math.pi, abs=1e-2)
