import inspect
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_dop853
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq as scipy_brentq

import rpc3bp
from rpc3bp import _dop853
from rpc3bp.core import (
    CartesianState,
    CollisionError,
    Params,
    PolarState,
    RotatingState,
    cartesian_to_polar,
    collision_radius,
    hamiltonian_cartesian,
    hamiltonian_polar,
    hamiltonian_rotating,
    involution_R,
    jacobi_constant,
    polar_to_cartesian,
    polar_to_rotating,
    potential_kernel,
    potential_V,
    rotating_to_polar,
    vector_field_rotating,
)
from rpc3bp.integrate import (
    TOL_MIN,
    _dense_state,
    brentq,
    flow,
    lockstep_flow,
    section_event,
)
from rpc3bp.manifolds import lift_to_shell
from rpc3bp.separatrix import homoclinic_state

RNG = np.random.default_rng(20240817)


def random_rotating_states(p, n=8):
    out = []
    for _ in range(n):
        r = 0.8 + 1.5 * RNG.random()
        phi = 2 * math.pi * RNG.random()
        y = -0.8 + 1.6 * RNG.random()
        G = 0.9 + 0.2 * RNG.random()
        out.append(RotatingState(r, phi, y, G))
    return out


class TestParams:
    def test_validation(self):
        Params(0.0, 2.0)
        Params(0.5, 1.5)
        with pytest.raises(ValueError):
            Params(0.6, 2.0)
        with pytest.raises(ValueError):
            Params(-0.1, 2.0)
        with pytest.raises(ValueError):
            Params(0.3, 1.0)


class TestHamiltonians:
    def test_two_body_circular_value(self):
        # mu=0, circular orbit at r=1: H = 1/2 - 1 = -1/2
        s = CartesianState((1.0, 0.0), (0.0, 1.0), 0.0)
        assert hamiltonian_cartesian(s, Params(0.0, 2.0)) == pytest.approx(-0.5, abs=1e-15)

    def test_direct_evaluation_mu_half(self):
        # independent arithmetic of the defining formula
        s = CartesianState((0.0, 10.0), (0.0, 0.0), 0.0)
        expected = -0.5 / math.hypot(0.5, 10.0) - 0.5 / math.hypot(-0.5, 10.0)
        assert hamiltonian_cartesian(s, Params(0.5, 2.0)) == pytest.approx(expected, rel=1e-15)

    def test_chart_consistency_cartesian_polar(self):
        p = Params(0.37, 2.3)
        for _ in range(10):
            q = (2.0 * RNG.random() + 0.5, 2.0 * RNG.random() - 1.0)
            mom = (RNG.random() - 0.5, RNG.random() - 0.5)
            t = 3.0 * RNG.random()
            s = CartesianState(q, mom, t)
            pol = cartesian_to_polar(s)
            assert hamiltonian_cartesian(s, p) == pytest.approx(
                hamiltonian_polar(pol, p), abs=1e-12)

    def test_round_trips(self):
        p = Params(0.2, 2.1)
        pol = PolarState(3.7, 1.1, -0.2, 1.9, 0.6)
        back = cartesian_to_polar(polar_to_cartesian(pol))
        assert back.r == pytest.approx(pol.r, abs=1e-12)
        assert back.alpha == pytest.approx(pol.alpha, abs=1e-12)
        assert back.y == pytest.approx(pol.y, abs=1e-12)
        assert back.G == pytest.approx(pol.G, abs=1e-12)
        rot = polar_to_rotating(pol, p)
        pol2 = rotating_to_polar(rot, pol.t, p)
        for attr in ("r", "alpha", "y", "G"):
            assert getattr(pol2, attr) == pytest.approx(getattr(pol, attr), abs=1e-12)

    def test_energy_scaling_relation(self):
        # rotating energy equals g0^2 times the polar Jacobi constant
        p = Params(0.31, 2.2)
        for s in random_rotating_states(p, 6):
            t = 1.7
            pol = rotating_to_polar(s, t, p)
            assert hamiltonian_rotating(s, p) == pytest.approx(
                p.g0**2 * jacobi_constant(pol, p), abs=1e-11 * p.g0**3)

    def test_collision_raises(self):
        with pytest.raises(CollisionError):
            hamiltonian_cartesian(
                CartesianState((-0.3, 0.0), (0.0, 0.0), 0.0), Params(0.3, 2.0))


class TestJacobi:
    def test_shell_maps_to_minus_g0(self):
        # on-shell states correspond to Jacobi constant -g0
        from rpc3bp.manifolds import lift_to_shell
        p = Params(0.3, 2.4)
        z = lift_to_shell(1.3, 0.6, 0.0, p)
        pol = rotating_to_polar(z, 0.0, p)
        assert jacobi_constant(pol, p) == pytest.approx(-p.g0, abs=1e-12)

    def test_conserved_mu0_flow(self):
        p = Params(0.0, 2.0)
        z = RotatingState(1.2, 0.3, 0.4, 1.0)
        j0 = jacobi_constant(rotating_to_polar(z, 0.0, p), p)
        z1 = RotatingState.from_array(
            flow(z.to_array(), (0.0, 3.0), 1e-12, p).y[:, -1])
        j1 = jacobi_constant(rotating_to_polar(z1, p.g0**3 * 3.0, p), p)
        assert abs(j1 - j0) < 1e-12

    def test_drift_along_numerical_flow(self):
        p = Params(0.3, 2.2)
        z = RotatingState(1.4, 0.7, 0.3, 1.0)
        j0 = jacobi_constant(rotating_to_polar(z, 0.0, p), p)
        z1 = RotatingState.from_array(
            flow(z.to_array(), (0.0, 10.0), 1e-12, p).y[:, -1])
        j1 = jacobi_constant(rotating_to_polar(z1, p.g0**3 * 10.0, p), p)
        assert abs(j1 - j0) < 1e-10


class TestPotential:
    def test_vanishes_at_mu0(self):
        p = Params(0.0, 2.0)
        for r, phi in [(0.7, 0.3), (1.5, 2.0), (40.0, -1.2)]:
            assert potential_V(r, phi, p) == 0.0

    def test_even_in_phi(self):
        p = Params(0.3, 2.1)
        for r, phi in [(0.8, 0.4), (1.3, 2.9), (2.5, 1.0)]:
            assert potential_V(r, -phi, p) == potential_V(r, phi, p)

    def test_pi_periodic_at_equal_masses(self):
        p = Params(0.5, 2.3)
        for r, phi in [(0.9, 0.7), (1.7, 2.2)]:
            assert potential_V(r, phi + math.pi, p) == pytest.approx(
                potential_V(r, phi, p), rel=1e-14)

    def test_smallness_bound(self):
        # |V| <= 2 mu / (g0^4 r^3) for r >= 1, g0 >= 2
        for p in (Params(0.3, 2.0), Params(0.5, 3.0), Params(0.1, 2.5)):
            for r in (1.0, 1.5, 3.0, 10.0):
                for phi in (0.0, 1.1, math.pi):
                    assert abs(potential_V(r, phi, p)) <= 2.0 * p.mu / (p.g0**4 * r**3)

    def test_derivatives_match_finite_differences(self):
        # the field's dV/dr and dV/dphi against central differences of V
        p = Params(0.41, 2.2)
        h = 1e-6
        G = 1.0
        for r, phi in [(0.9, 0.8), (1.6, 2.5), (3.0, -1.0)]:
            fd_r = (potential_V(r + h, phi, p) - potential_V(r - h, phi, p)) / (2 * h)
            fd_phi = (potential_V(r, phi + h, p) - potential_V(r, phi - h, p)) / (2 * h)
            f = vector_field_rotating(RotatingState(r, phi, 0.0, G), p)
            assert f[2] - (G * G / r**3 - 1.0 / r**2) == pytest.approx(fd_r, abs=1e-8)
            assert f[3] == pytest.approx(fd_phi, abs=1e-8)

    def test_massless_primary_is_not_singular(self):
        # at mu = 0 the small primary carries no mass: V vanishes at its
        # position and every form of the field there is the Kepler field
        p = Params(0.0, 2.0)
        r, phi, y, G = 1.0 / p.g0**2, math.pi, 0.3, 1.0
        assert potential_V(r, phi, p) == 0.0
        kepler = (y, G / r**2 - p.g0**3, G * G / r**3 - 1.0 / r**2, 0.0)
        f = vector_field_rotating(RotatingState(r, phi, y, G), p)
        assert f == pytest.approx(kepler, rel=1e-15, abs=0.0)
        field = potential_kernel(p, math.cos, math.sin, math.sqrt).field
        assert field(0.0, [r, phi, y, G]) == tuple(f)
        with np.errstate(all="raise"):
            lanes = potential_kernel(p, np.cos, np.sin, np.sqrt).field(
                0.0, np.array([[r], [phi], [y], [G]]))
        np.testing.assert_array_equal(np.array(lanes)[:, 0], f)


class TestVectorField:
    def test_separatrix_is_mu0_orbit(self):
        # field at a separatrix point equals the closed-form d/dv
        p = Params(0.0, 2.0)
        for v in (-1.5, -0.3, 0.4, 1.0, 2.5):
            h = homoclinic_state(v)
            f = vector_field_rotating(RotatingState(h.r, 0.7, h.y, 1.0), p)
            assert f[0] == pytest.approx(h.y, abs=1e-12)
            assert f[1] == pytest.approx(1.0 / h.r**2 - p.g0**3, abs=1e-12)
            assert f[2] == pytest.approx(1.0 / h.r**3 - 1.0 / h.r**2, abs=1e-12)
            assert f[3] == 0.0

    def test_energy_is_first_integral(self):
        p = Params(0.29, 2.4)
        h = 1e-6
        for s in random_rotating_states(p, 5):
            f = vector_field_rotating(s, p)
            grad = np.array([
                (hamiltonian_rotating(RotatingState(s.r + h, s.phi, s.y, s.G), p)
                 - hamiltonian_rotating(RotatingState(s.r - h, s.phi, s.y, s.G), p)),
                (hamiltonian_rotating(RotatingState(s.r, s.phi + h, s.y, s.G), p)
                 - hamiltonian_rotating(RotatingState(s.r, s.phi - h, s.y, s.G), p)),
                (hamiltonian_rotating(RotatingState(s.r, s.phi, s.y + h, s.G), p)
                 - hamiltonian_rotating(RotatingState(s.r, s.phi, s.y - h, s.G), p)),
                (hamiltonian_rotating(RotatingState(s.r, s.phi, s.y, s.G + h), p)
                 - hamiltonian_rotating(RotatingState(s.r, s.phi, s.y, s.G - h), p)),
            ]) / (2 * h)
            assert abs(grad @ f) < 1e-8 * max(1.0, np.max(np.abs(grad)) * np.max(np.abs(f)))

    def test_angular_momentum_frozen_at_mu0(self):
        p = Params(0.0, 2.5)
        for s in random_rotating_states(p, 4):
            assert vector_field_rotating(s, p)[3] == 0.0

    def test_collision_cutoff(self):
        p = Params(0.3, 2.0)
        with pytest.raises(CollisionError):
            vector_field_rotating(RotatingState(0.9 * collision_radius(p), 0.0, 0.0, 1.0), p)

    def test_cutoff_spares_mu0_perihelion(self):
        # the unperturbed separatrix touches r = 1/2 and must stay integrable
        assert 0.0 < collision_radius(Params(0.0, 2.0)) < 0.5
        vector_field_rotating(RotatingState(0.5, 0.0, 0.0, 1.0), Params(0.0, 2.0))


class TestInvolution:
    def test_involution_squares_to_identity(self):
        s = RotatingState(1.3, 0.8, -0.4, 1.05)
        assert involution_R(involution_R(s)) == s

    def test_fixed_set(self):
        for phi in (0.0, math.pi):
            s = RotatingState(1.1, phi, 0.0, 1.0)
            img = involution_R(s)
            assert img.r == s.r and img.G == s.G and img.y == 0.0
            assert math.cos(img.phi) == pytest.approx(math.cos(s.phi), abs=1e-15)
            assert math.sin(img.phi) == pytest.approx(math.sin(s.phi), abs=1e-15)

    def test_flow_reversibility(self):
        # R(Phi_s(R(z))) = Phi_{-s}(z)
        p = Params(0.33, 2.2)
        tol = 1e-12
        for s_time in (1.5, -2.5):
            z = RotatingState(1.4, 0.9, 0.35, 1.02)
            zr = flow(involution_R(z).to_array(), (0.0, s_time), tol, p)
            lhs = involution_R(RotatingState.from_array(zr.y[:, -1]))
            rhs = flow(z.to_array(), (0.0, -s_time), tol, p).y[:, -1]
            diff = np.abs(lhs.to_array() - rhs)
            diff[1] = abs((diff[1] + math.pi) % (2 * math.pi) - math.pi)
            assert np.max(diff) < 100 * tol * max(1.0, abs(s_time) * p.g0**3)


class TestIntegrate:
    # the end state of flow over a span
    def test_zero_interval_identity(self):
        p = Params(0.3, 2.0)
        z = [1.2, 0.5, 0.1, 1.0]
        sol = flow(z, (0.0, 0.0), 1e-12, p)
        assert sol.t[-1] == 0.0 and sol.y[:, -1].tolist() == z

    def test_energy_drift(self):
        p = Params(0.3, 2.3)
        tol = 1e-12
        z = RotatingState(1.5, 0.2, -0.3, 1.0)
        h0 = hamiltonian_rotating(z, p)
        z1 = flow(z.to_array(), (0.0, 8.0), tol, p).y[:, -1]
        assert abs(hamiltonian_rotating(RotatingState.from_array(z1), p)
                   - h0) < 100 * tol * 8.0 * p.g0**3

    def test_forward_backward(self):
        p = Params(0.3, 2.3)
        tol = 1e-12
        z = np.array([1.5, 0.2, -0.3, 1.0])
        z1 = flow(z, (0.0, 4.0), tol, p).y[:, -1]
        z2 = flow(z1, (0.0, -4.0), tol, p).y[:, -1]
        assert np.max(np.abs(z2 - z)) < 1e-9

    def test_tol_validation(self):
        p = Params(0.3, 2.0)
        z = [1.2, 0.0, 0.0, 1.0]
        with pytest.raises(ValueError):
            flow(z, (0.0, 1.0), 1e-5, p)
        with pytest.raises(ValueError):
            flow(z, (0.0, 1.0), 1e-16, p)

    def test_tol_floor_is_the_rtol_floor_of_solve_ivp(self):
        # solve_ivp raises an rtol below 100 eps to that floor with only a
        # warning, so such a tol is refused rather than silently loosened
        p = Params(0.3, 2.0)
        z = [1.2, 0.0, 0.0, 1.0]
        assert TOL_MIN == 100 * np.finfo(float).eps
        with pytest.raises(ValueError):
            flow(z, (0.0, 1.0), 1e-14, p)
        z1 = flow(z, (0.0, 0.5), 2.3e-14, p).y[:, -1]
        assert z1[0] != z[0]

    def test_package_attribute_is_the_module(self):
        assert inspect.ismodule(rpc3bp.integrate)


def assert_same_trajectory(got, ref):
    np.testing.assert_array_equal(got.t, ref.t)
    np.testing.assert_array_equal(got.y, ref.y)
    assert got.nfev == ref.nfev
    assert got.status == ref.status
    assert len(got.t_events) == len(ref.t_events)
    for a, b in zip(got.t_events, ref.t_events):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    for a, b in zip(got.y_events, ref.y_events):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)


def apocentre(s, z):
    return z[2]


apocentre.terminal = False
apocentre.direction = -1.0


def pericentre(s, z):
    return z[2]


pericentre.terminal = False
pericentre.direction = 1.0


class TestFlow:
    # flow repeats solve_ivp's DOP853 bit for bit: steps, states, event
    # crossings and right-hand-side count
    P = Params(0.3, 2.3)
    Z0 = [1.3, 0.4, 0.2, 1.0]

    @pytest.mark.parametrize("terminal", [False, True])
    @pytest.mark.parametrize("direction", [-1.0, 0.0, 1.0])
    def test_events(self, solve_ivp_flow, direction, terminal):
        sec = section_event(1.0, direction)
        sec.terminal = terminal
        evs = [sec, apocentre]
        got = flow(self.Z0, (0.0, 8.0), 1e-12, self.P, events=evs)
        ref = solve_ivp_flow(self.Z0, (0.0, 8.0), 1e-12, self.P, events=evs)
        assert_same_trajectory(got, ref)
        assert len(got.t_events) == 2 and len(got.t_events[0]) >= 1
        if terminal:
            assert got.status == 1 and got.t[-1] == got.t_events[0][-1] < 8.0
        else:
            assert got.status == 0 and len(got.t_events[1]) >= 1

    def test_long_orbit_to_r_out(self, solve_ivp_flow):
        # an oscillate-like orbit at (0.3, 2.2) from inside the separatrix:
        # about 1400 steps near the primaries, rejected ones among them, with
        # crossings of every direction until a terminal outward pass of r = 5
        p = Params(0.3, 2.2)
        z0 = lift_to_shell(1.3, 0.758, 0.0, p).to_array()

        def r_out(s, z):
            return z[0] - 5.0
        r_out.terminal = True
        r_out.direction = 1.0

        evs = [section_event(0.0), apocentre, pericentre, r_out]
        got = flow(z0, (0.0, 200.0), 1e-12, p, events=evs)
        ref = solve_ivp_flow(z0, (0.0, 200.0), 1e-12, p, events=evs)
        assert_same_trajectory(got, ref)
        steps = len(got.t) - 1
        crossings = sum(len(t) for t in got.t_events)
        assert steps >= 1000 and all(len(t) > 0 for t in got.t_events)
        assert got.status == 1 and got.t[-1] == got.t_events[3][0]
        # beyond 12 per accepted step and 3 per step with a crossing, the
        # evaluations are 12 per rejected step attempt
        assert got.nfev - 2 - 12 * steps > 3 * crossings

    def test_far_field_excursion(self, solve_ivp_flow):
        # the excursion flight of oscillation_demo (R_OUT = 5) from seed
        # (1.3, 0.923) at (0.3, 2.2): from the r = 5 exit out to r = 18.98
        # and back to 0.98 R_OUT, about 1700 of its steps beyond r = 10,
        # where most steps of the oscillate benchmark are taken
        p = Params(0.3, 2.2)
        z0 = lift_to_shell(1.3, 0.923, 0.0, p).to_array()

        def going_out(s, z):
            return z[0] - 5.0
        going_out.terminal = True
        going_out.direction = 1.0

        def coming_back(s, z):
            return z[0] - 0.98 * 5.0
        coming_back.terminal = True
        coming_back.direction = -1.0

        def far(s, z):
            return z[0] - 50.0
        far.terminal = True
        far.direction = 1.0

        exit_state = solve_ivp_flow(z0, (0.0, 200.0), 1e-12, p,
                                    events=[going_out]).y_events[0][0]
        evs = [coming_back, apocentre, far]
        got = flow(exit_state, (0.0, 3000.0), 1e-12, p, events=evs)
        ref = solve_ivp_flow(exit_state, (0.0, 3000.0), 1e-12, p, events=evs)
        assert_same_trajectory(got, ref)
        assert got.status == 1 and got.t[-1] == got.t_events[0][0]
        assert len(got.t_events[1]) == 1 and len(got.t_events[2]) == 0
        assert got.y_events[1][0, 0] == pytest.approx(18.98, abs=0.01)
        assert np.count_nonzero(got.y[0] > 10.0) >= 1500

    @pytest.mark.parametrize("span", [(0.0, math.nan), (0.0, math.inf),
                                      (-math.inf, 1.0)])
    def test_non_finite_span_refused(self, span):
        # the step loop would never reach a NaN or infinite end
        with pytest.raises(ValueError, match="s_span"):
            flow(self.Z0, span, 1e-12, self.P)

    def test_step_size_underflow(self, solve_ivp_flow):
        # at s = 1e14 the first step is below ten spacings of s: solve_ivp
        # stops there with status -1, and flow raises at the same check
        args = ([1.5, 0.3, 0.2, 1.0], (1e14, 1e14 + 10.0), 1e-12,
                Params(0.3, 2.4))
        with pytest.raises(RuntimeError, match="less than spacing"):
            solve_ivp_flow(*args)
        with pytest.raises(RuntimeError, match="step size underflow"):
            flow(*args)

    def test_negative_span(self, solve_ivp_flow):
        # from this start the initial-step rule's backward probe picks
        # another first step than a forward one would
        z0 = [0.8, 3.0, 0.0, 0.9]
        evs = [section_event(0.5), apocentre]
        got = flow(z0, (0.0, -6.0), 1e-12, self.P, events=evs)
        ref = solve_ivp_flow(z0, (0.0, -6.0), 1e-12, self.P, events=evs)
        assert_same_trajectory(got, ref)
        assert got.t[-1] == -6.0 and len(got.t_events[0]) >= 1

    @pytest.mark.parametrize("tol", [TOL_MIN, 1e-10])
    def test_tolerances(self, solve_ivp_flow, tol):
        got = flow(self.Z0, (0.5, 4.0), tol, self.P)
        ref = solve_ivp_flow(self.Z0, (0.5, 4.0), tol, self.P)
        assert_same_trajectory(got, ref)

    def test_zero_span(self, solve_ivp_flow):
        assert_same_trajectory(flow(self.Z0, (1.0, 1.0), 1e-12, self.P),
                               solve_ivp_flow(self.Z0, (1.0, 1.0), 1e-12, self.P))

    def test_collision(self, solve_ivp_flow):
        # a radial plunge; at mu = 0 into the massive primary at the origin
        z0 = [1.0, 0.0, -2.0, 0.0]
        for p in (Params(0.3, 2.0), Params(0.0, 2.2)):
            with pytest.raises(CollisionError) as got:
                flow(z0, (0.0, 4.0), 1e-12, p)
            with pytest.raises(CollisionError) as ref:
                solve_ivp_flow(z0, (0.0, 4.0), 1e-12, p)
            assert got.value.last_state == ref.value.last_state
            assert got.value.last_state.r == pytest.approx(collision_radius(p),
                                                           abs=1e-12)

    def test_start_inside_cutoff_refused(self):
        # the guard fires on a falling crossing of the cutoff, which a start
        # below it never makes: at (0.3, 2.2), cutoff 0.289, a start at
        # r = 0.01 ran 2091 steps between the primaries unguarded
        p = Params(0.3, 2.2)
        z0 = lift_to_shell(0.01, 0.0, 0.0, p).to_array()
        with pytest.raises(CollisionError, match="start inside") as err:
            flow(z0, (0.0, 1.0), 1e-12, p)
        np.testing.assert_array_equal(err.value.last_state.to_array(), z0)

    def test_terminal_event_and_guard_in_one_step(self, solve_ivp_flow):
        # the plunge at (0.3, 2.0), cutoff 0.35, crosses a terminal event
        # at r = 0.35 + 1e-6 and then the guard within one step: only the
        # crossings up to the first terminal one count, so the orbit stops on
        # the event and no CollisionError is raised
        p = Params(0.3, 2.0)
        z0 = [1.0, 0.0, -2.0, 0.0]
        r_cut = collision_radius(p)

        def falling(r, terminal):
            def ev(s, z):
                return z[0] - r
            ev.terminal = terminal
            ev.direction = -1.0
            return ev

        near = falling(r_cut + 1e-6, True)
        # with neither terminal, both roots lie in one of solve_ivp's steps
        both = solve_ivp(potential_kernel(p, math.cos, math.sin,
                                          math.sqrt).field,
                         (0.0, 0.3), np.array(z0), method="DOP853",
                         rtol=1e-12, atol=1e-14,
                         events=[falling(r_cut + 1e-6, False),
                                 falling(r_cut, False)])
        roots = [t[0] for t in both.t_events]
        assert len(set(np.searchsorted(both.t, roots))) == 1
        got = flow(z0, (0.0, 4.0), 1e-12, p, events=[near])
        ref = solve_ivp_flow(z0, (0.0, 4.0), 1e-12, p, events=[near])
        assert_same_trajectory(got, ref)
        assert got.status == 1 and got.t[-1] == got.t_events[0][0] == roots[0]
        assert got.t[-2] < roots[0] < roots[1]
        run = lockstep_flow(np.array([z0]).T, 4.0, 1e-12, p, events=[near])
        assert run.s[0] == got.t[-1]
        np.testing.assert_array_equal(run.z[:, 0], got.y[:, -1])
        np.testing.assert_array_equal(run.z_events[0][0], got.y_events[0])


class TestLockstep:
    def test_lane_rhs_matches_scalar_rhs(self):
        # every entry to the field agrees bit for bit: the lanes, flow's
        # rates on four Python floats, solve_ivp's f(s, z) and
        # vector_field_rotating
        for p in (Params(0.3, 2.4), Params(0.5, 2.0), Params(0.0, 2.2)):
            states = random_rotating_states(p, 8) + [
                RotatingState(50.0, 1.3, -0.2, 1.0),
                RotatingState(7.0, -40.0, 0.5, 1.01)]
            z = np.array([s.to_array() for s in states]).T
            lanes = np.array(
                potential_kernel(p, np.cos, np.sin, np.sqrt).field(0.0, z))
            kernel = potential_kernel(p, math.cos, math.sin, math.sqrt)
            scalar, rates = kernel.field, kernel.rates
            for k, s in enumerate(states):
                want = scalar(0.0, s.to_array())
                got = rates(s.r, s.phi, s.y, s.G)
                assert all(type(x) is float for x in got)
                assert [x.hex() for x in got] == [float(x).hex() for x in want]
                np.testing.assert_array_equal(lanes[:, k], want)
                np.testing.assert_array_equal(vector_field_rotating(s, p), want)

    def test_lanes_follow_flow(self):
        # each lane repeats solve_ivp's DOP853 arithmetic: same steps, same
        # states (the stable-curve oracle in test_manifolds relies on it)
        p = Params(0.3, 2.3)
        tol = 1e-12
        states = [RotatingState(1.5, 0.2, -0.3, 1.0),
                  RotatingState(1.2, 2.0, 0.4, 1.02),
                  RotatingState(30.0, 0.7, -0.25, 1.0)]
        z0 = np.array([s.to_array() for s in states]).T
        run = lockstep_flow(z0, 6.0, tol, p)
        steps = nfev = 0
        for k in range(len(states)):
            sol = flow(z0[:, k], (0.0, 6.0), tol, p)
            steps += len(sol.t) - 1
            nfev += sol.nfev
            assert run.s[k] == 6.0
            np.testing.assert_array_equal(run.z[:, k], sol.y[:, -1])
        assert run.work["accepted_steps"] == steps
        assert run.work["rhs_evals"] == nfev

    def test_collision_raises_with_lane_state(self):
        z0 = np.array([[1.5, 0.2, -0.3, 1.0], [1.0, 0.0, -2.0, 0.0]]).T
        for p in (Params(0.3, 2.0), Params(0.0, 2.2)):
            with pytest.raises(CollisionError) as err:
                lockstep_flow(z0, 4.0, 1e-12, p)
            assert err.value.last_state.r == pytest.approx(collision_radius(p),
                                                           abs=1e-12)
            with pytest.raises(CollisionError) as ref:
                flow(z0[:, 1], (0.0, 4.0), 1e-12, p)
            np.testing.assert_array_equal(err.value.last_state.to_array(),
                                          ref.value.last_state.to_array())

    def test_lane_starting_inside_cutoff_raises(self):
        # the second lane starts at r = 0.01, inside the cutoff 0.289 at
        # (0.3, 2.2), where the guard would never see a falling crossing
        p = Params(0.3, 2.2)
        z0 = np.array([[1.5, 0.2, -0.3, 1.0],
                       lift_to_shell(0.01, 0.0, 0.0, p).to_array()]).T
        with pytest.raises(CollisionError, match="start inside") as err:
            lockstep_flow(z0, 1.0, 1e-12, p)
        np.testing.assert_array_equal(err.value.last_state.to_array(),
                                      z0[:, 1])

    def test_terminal_event_retires_only_its_lane(self):
        # at mu = 0 the radial plunge runs on to the collision floor far
        # below r = 0.3; once its terminal event fires, the lane must take no
        # further step
        p = Params(0.0, 2.2)

        def low(s, z):
            return z[0] - 0.3
        low.terminal = True
        low.direction = -1.0

        z0 = np.array([[1.0, 0.0, -2.0, 0.0], [1.5, 0.2, -0.3, 1.0]]).T
        run = lockstep_flow(z0, 5.0, 1e-12, p, events=[low])
        assert len(run.s_events[0][0]) == 1 and len(run.s_events[1][0]) == 0
        assert run.s[0] == run.s_events[0][0][0] < 5.0
        assert run.z[0, 0] == pytest.approx(0.3, abs=1e-12)
        np.testing.assert_array_equal(run.z[:, 0], run.z_events[0][0][0])
        assert run.s[1] == 5.0
        alone = lockstep_flow(z0[:, 1:], 5.0, 1e-12, p)
        np.testing.assert_array_equal(run.z[:, 1], alone.z[:, 0])

    def test_event_crossings_match_flow(self):
        # non-terminal section events of each direction: every lane's
        # crossings are flow's t_events and y_events, bit for bit
        p = Params(0.3, 2.3)
        states = [RotatingState(1.5, 0.2, -0.3, 1.0),
                  RotatingState(1.2, 2.0, 0.4, 1.02)]
        z0 = np.array([s.to_array() for s in states]).T
        evs = [section_event(0.5, 1.0), section_event(-1.0, -1.0),
               section_event(2.0)]
        run = lockstep_flow(z0, 6.0, 1e-12, p, events=evs)
        for k in range(len(states)):
            sol = flow(z0[:, k], (0.0, 6.0), 1e-12, p, events=evs)
            for e in range(len(evs)):
                assert len(run.s_events[k][e]) > 0
                np.testing.assert_array_equal(run.s_events[k][e],
                                              sol.t_events[e])
                np.testing.assert_array_equal(run.z_events[k][e],
                                              sol.y_events[e])

    def test_gate_drops_only_crossings_outside_it(self):
        # a y > 0 gate keeps, bit for bit, the ungated crossings in the steps
        # (flow's, which the lanes repeat) with y > 0 at either end, and so
        # every crossing with y clear of 0; the third lane's first step
        # crosses phi = 0.5 with y < 0 and ends with y > 0
        p = Params(0.3, 2.3)
        states = [RotatingState(1.5, 0.2, -0.3, 1.0),
                  RotatingState(1.2, 2.0, 0.4, 1.02),
                  RotatingState(0.8, 0.51, -1e-3, 1.0)]
        z0 = np.array([s.to_array() for s in states]).T
        run = lockstep_flow(z0, 6.0, 1e-12, p,
                            events=[section_event(0.5), section_event(-1.0)])
        gated_evs = [section_event(0.5), section_event(-1.0)]
        for ev in gated_evs:
            ev.gate = lambda s, z: z[2] > 0.0
        gated = lockstep_flow(z0, 6.0, 1e-12, p, events=gated_evs)
        np.testing.assert_array_equal(gated.z, run.z)
        for k in range(len(states)):
            sol = flow(z0[:, k], (0.0, 6.0), 1e-12, p)
            for e in range(2):
                s_all, z_all = run.s_events[k][e], run.z_events[k][e]
                step = np.searchsorted(sol.t, s_all)
                kept = (sol.y[2, step - 1] > 0.0) | (sol.y[2, step] > 0.0)
                assert 0 < np.count_nonzero(kept) < len(kept)
                assert np.all(kept[z_all[:, 2] > 1e-6])
                np.testing.assert_array_equal(gated.s_events[k][e], s_all[kept])
                np.testing.assert_array_equal(gated.z_events[k][e], z_all[kept])

    def test_lanes_with_events_match_flow(self):
        # section crossings of both kinds and a terminal event that retires
        # one lane early: every lane's crossings, final time and state are
        # flow's, bit for bit, though the lanes locate them only after the
        # step loop, from one batched dense output
        p = Params(0.3, 2.3)
        states = [RotatingState(1.5, 0.2, -0.3, 1.0),
                  RotatingState(1.2, 2.0, 0.4, 1.02),
                  RotatingState(30.0, 0.7, -0.25, 1.0),
                  RotatingState(5.0, -0.4, 0.3, 1.0)]
        z0 = np.array([s.to_array() for s in states]).T

        def inner(s, z):
            return z[0] - 1.0
        inner.terminal = True
        inner.direction = -1.0

        evs = [section_event(0.3), section_event(-0.3, -1.0), inner]
        run = lockstep_flow(z0, 6.0, 1e-12, p, events=evs)
        nfev = crossings = 0
        for k in range(len(states)):
            sol = flow(z0[:, k], (0.0, 6.0), 1e-12, p, events=evs)
            nfev += sol.nfev
            for e in range(len(evs)):
                crossings += len(run.s_events[k][e])
                np.testing.assert_array_equal(run.s_events[k][e],
                                              sol.t_events[e])
                np.testing.assert_array_equal(run.z_events[k][e],
                                              sol.y_events[e])
            assert run.s[k] == sol.t[-1]
            np.testing.assert_array_equal(run.z[:, k], sol.y[:, -1])
        assert crossings == 56
        assert run.s[0] < 6.0 and list(run.s[1:]) == [6.0] * 3
        work = run.work
        assert work["rhs_evals"] == nfev
        # each located step cost its lane the 3 extra dense-output stages
        assert work["rhs_evals"] == 2 * len(states) + 12 * (
            work["accepted_steps"] + work["rejected_steps"]) \
            + 3 * work["located_steps"]
        assert work["dense_passes"] == 1

    def test_validation(self):
        z0 = np.array([[1.5, 0.2, -0.3, 1.0]]).T
        with pytest.raises(ValueError):
            lockstep_flow(z0, 1.0, 1e-5, Params(0.3, 2.0))
        with pytest.raises(ValueError):
            lockstep_flow(z0, -1.0, 1e-12, Params(0.3, 2.0))
        # a NaN lane has a NaN step size, which no underflow check catches
        with pytest.raises(ValueError):
            lockstep_flow(np.array([[1.5, np.nan, -0.3, 1.0]]).T, 1.0, 1e-12,
                          Params(0.3, 2.0))
        # the lanes never reach an infinite end
        with pytest.raises(ValueError, match="s_end"):
            lockstep_flow(np.array([[1.3, 0.4, 0.2, 1.0]]).T, np.inf, 1e-12,
                          Params(0.3, 2.3))


EPS = np.finfo(float).eps
# integrate._record_crossings', find_homoclinic_points', a tangency solve's,
# and scipy's default xtol
BRENT_XTOLS = [4 * EPS, 1e-14, 1e-6, 2e-12]
BRENT_FAMILIES = {
    "section": lambda c: lambda x: np.sin(0.5 * (x - c)),
    "cubic": lambda c: lambda x: (x - c) ** 3 + 0.5 * (x - c) + 1e-5 * c,
    "exp": lambda c: lambda x: math.exp(2.0 * x) - math.exp(2.0 * c),
    "steep": lambda c: lambda x: math.tanh(40.0 * (x - c)) + 1e-4,
}


class TestBrentq:
    # integrate.brentq is a port of scipy's brentq: the same roots, bit for
    # bit, and the same exception types

    @pytest.mark.parametrize("xtol", BRENT_XTOLS,
                             ids=["locate", "roots", "tangency", "default"])
    @pytest.mark.parametrize("family", BRENT_FAMILIES)
    def test_roots_equal_scipy(self, family, xtol):
        rng = np.random.default_rng(7)
        for c, a, b in rng.uniform(-1.0, 1.0, (40, 3)):
            f = BRENT_FAMILIES[family](c)
            a, b = c - 1.5 * abs(a) - 1e-3, c + 1.5 * abs(b) + 1e-3
            for lo, hi in ((a, b), (b, a)):
                got = brentq(f, lo, hi, xtol=xtol)
                ref = scipy_brentq(f, lo, hi, xtol=xtol)
                assert type(got) is float
                assert got.hex() == ref.hex()

    @pytest.mark.parametrize("bracket", [(0.5, 2.0), (-1.0, 0.5)])
    def test_root_at_an_endpoint(self, bracket):
        f = lambda x: x - 0.5
        assert brentq(f, *bracket, xtol=1e-14) == 0.5 \
            == scipy_brentq(f, *bracket, xtol=1e-14)

    @pytest.mark.parametrize("f, xtol", [
        (lambda x: x * x + 1.0, 1e-12),
        (lambda x: math.nan if x > 0.0 else x, 1e-12),
        (lambda x: x - 0.3, 0.0),
    ], ids=["same_sign", "nan_value", "zero_xtol"])
    def test_value_errors_match_scipy(self, f, xtol):
        with pytest.raises(ValueError):
            scipy_brentq(f, -1.0, 1.0, xtol=xtol)
        with pytest.raises(ValueError):
            brentq(f, -1.0, 1.0, xtol=xtol)

    def test_maxiter_runs_out_as_in_scipy(self, monkeypatch):
        f = lambda x: math.exp(x) - 2.0
        monkeypatch.setattr("rpc3bp.integrate._BRENT_MAXITER", 2)
        with pytest.raises(RuntimeError):
            scipy_brentq(f, 0.0, 3.0, xtol=1e-14, maxiter=2)
        with pytest.raises(RuntimeError):
            brentq(f, 0.0, 3.0, xtol=1e-14)


def test_dense_state_is_scipys():
    # the Horner form on Python floats against scipy's on numpy arrays, on
    # steps of either direction, at both ends of the step and inside it
    rng = np.random.default_rng(853)
    for _ in range(50):
        F = rng.normal(size=(7, 4)) * 10.0 ** rng.integers(-12, 2, size=(7, 1))
        z_old = rng.normal(size=4) * 10.0 ** rng.integers(-3, 3, size=4)
        s_old = rng.uniform(-5.0, 5.0)
        s_new = s_old + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4, 0)
        z_at = _dense_state(F, z_old, s_old, s_new - s_old)
        ref = Dop853DenseOutput(s_old, s_new, z_old, F)
        ts = [s_old, s_new, *(s_old + (s_new - s_old) * rng.uniform(size=5))]
        for t in ts:
            got, want = z_at(t), ref(t)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert [x.hex() for x in got.tolist()] == \
                [x.hex() for x in want.tolist()]


def test_vendored_dop853_tableau_is_scipys():
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        got = getattr(_dop853, name)
        assert type(got) is int and got == getattr(scipy_dop853, name)
    for name in ("A", "B", "E3", "E5", "D"):
        got, ref = getattr(_dop853, name), getattr(scipy_dop853, name)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref)
