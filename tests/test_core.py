import inspect
import math

import numpy as np
import pytest

import rpc3bp
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
    potential_V,
    rotating_to_polar,
    vector_field_rotating,
)
from rpc3bp.integrate import (
    TOL_MIN,
    flow,
    integrate,
    lockstep_flow,
    make_lane_rhs,
    make_rhs,
    section_event,
)
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
        z1 = integrate(z, 3.0, 1e-12, p)
        j1 = jacobi_constant(rotating_to_polar(z1, p.g0**3 * 3.0, p), p)
        assert abs(j1 - j0) < 1e-12

    def test_drift_along_numerical_flow(self):
        p = Params(0.3, 2.2)
        z = RotatingState(1.4, 0.7, 0.3, 1.0)
        j0 = jacobi_constant(rotating_to_polar(z, 0.0, p), p)
        z1 = integrate(z, 10.0, 1e-12, p)
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
        assert make_rhs(p)(0.0, [r, phi, y, G]) == tuple(f)
        with np.errstate(all="raise"):
            lanes = make_lane_rhs(p)(np.array([[r], [phi], [y], [G]]))
        np.testing.assert_array_equal(lanes[:, 0], f)


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
            lhs = involution_R(integrate(involution_R(z), s_time, tol, p))
            rhs = integrate(z, -s_time, tol, p)
            diff = np.abs(lhs.to_array() - rhs.to_array())
            diff[1] = abs((diff[1] + math.pi) % (2 * math.pi) - math.pi)
            assert np.max(diff) < 100 * tol * max(1.0, abs(s_time) * p.g0**3)


class TestIntegrate:
    def test_zero_interval_identity(self):
        p = Params(0.3, 2.0)
        z = RotatingState(1.2, 0.5, 0.1, 1.0)
        assert integrate(z, 0.0, 1e-12, p) == z

    def test_energy_drift(self):
        p = Params(0.3, 2.3)
        tol = 1e-12
        z = RotatingState(1.5, 0.2, -0.3, 1.0)
        h0 = hamiltonian_rotating(z, p)
        z1 = integrate(z, 8.0, tol, p)
        assert abs(hamiltonian_rotating(z1, p) - h0) < 100 * tol * 8.0 * p.g0**3

    def test_forward_backward(self):
        p = Params(0.3, 2.3)
        tol = 1e-12
        z = RotatingState(1.5, 0.2, -0.3, 1.0)
        z2 = integrate(integrate(z, 4.0, tol, p), -4.0, tol, p)
        assert np.max(np.abs(z2.to_array() - z.to_array())) < 1e-9

    def test_tol_validation(self):
        p = Params(0.3, 2.0)
        z = RotatingState(1.2, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            integrate(z, 1.0, 1e-5, p)
        with pytest.raises(ValueError):
            integrate(z, 1.0, 1e-16, p)

    @pytest.mark.filterwarnings("error")
    def test_tol_floor_is_the_rtol_floor_of_solve_ivp(self):
        # solve_ivp raises an rtol below 100 eps to that floor with only a
        # warning, so such a tol is refused rather than silently loosened
        p = Params(0.3, 2.0)
        z = RotatingState(1.2, 0.0, 0.0, 1.0)
        assert TOL_MIN == 100 * np.finfo(float).eps
        with pytest.raises(ValueError):
            integrate(z, 1.0, 1e-14, p)
        z1 = integrate(z, 0.5, 2.3e-14, p)
        assert z1.r != z.r

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


@pytest.mark.filterwarnings("error")
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
        assert len(got.t_events[1]) >= 1
        if terminal:
            assert got.status == 1 and got.t[-1] == got.t_events[1][-1] < 8.0
        else:
            assert got.status == 0 and len(got.t_events[2]) >= 1

    def test_negative_span(self, solve_ivp_flow):
        # from this start the initial-step rule's backward probe picks
        # another first step than a forward one would
        z0 = [0.8, 3.0, 0.0, 0.9]
        evs = [section_event(0.5), apocentre]
        got = flow(z0, (0.0, -6.0), 1e-12, self.P, events=evs)
        ref = solve_ivp_flow(z0, (0.0, -6.0), 1e-12, self.P, events=evs)
        assert_same_trajectory(got, ref)
        assert got.t[-1] == -6.0 and len(got.t_events[1]) >= 1

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


@pytest.mark.filterwarnings("error")
class TestLockstep:
    def test_lane_rhs_matches_scalar_rhs(self):
        for p in (Params(0.3, 2.4), Params(0.5, 2.0), Params(0.0, 2.2)):
            states = random_rotating_states(p, 8) + [
                RotatingState(50.0, 1.3, -0.2, 1.0),
                RotatingState(7.0, -40.0, 0.5, 1.01)]
            z = np.array([s.to_array() for s in states]).T
            lanes = make_lane_rhs(p)(z)
            scalar = make_rhs(p)
            for k, s in enumerate(states):
                np.testing.assert_array_equal(lanes[:, k], scalar(0.0, s.to_array()))

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

    def test_validation(self):
        z0 = np.array([[1.5, 0.2, -0.3, 1.0]]).T
        with pytest.raises(ValueError):
            lockstep_flow(z0, 1.0, 1e-5, Params(0.3, 2.0))
        with pytest.raises(ValueError):
            lockstep_flow(z0, -1.0, 1e-12, Params(0.3, 2.0))
