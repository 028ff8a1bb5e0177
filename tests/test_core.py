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
    CollisionError,
    Params,
    SectionTimeoutError,
    collision_radius,
    hamiltonian_rotating,
    involution_R,
    potential_kernel,
    potential_V,
)
from rpc3bp.integrate import (
    TOL_MIN,
    _dense_state,
    brentq,
    flow,
    lockstep_flow,
    section_event,
)
from rpc3bp.manifolds import initial_manifold_state, lift_to_shell, poincare_map
from rpc3bp.separatrix import homoclinic_state

RNG = np.random.default_rng(20240817)


def random_rotating_states(p, n=8):
    out = []
    for _ in range(n):
        r = 0.8 + 1.5 * RNG.random()
        phi = 2 * math.pi * RNG.random()
        y = -0.8 + 1.6 * RNG.random()
        G = 0.9 + 0.2 * RNG.random()
        out.append([r, phi, y, G])
    return out


def assert_state_array(z):
    # a float64 array [r, phi, y, G] that owns its data, so it is no view
    # that keeps a trajectory or a fan's lanes alive
    assert isinstance(z, np.ndarray) and z.base is None
    assert z.dtype == np.float64 and z.shape == (4,)


class TestStateContract:
    # every state a function returns or an error carries is an array of
    # assert_state_array's kind
    def test_returned_states(self):
        p = Params(0.3, 2.4)
        z = lift_to_shell(1.3, 0.6, p)
        img = involution_R(z)
        for s in (initial_manifold_state(3.0, 0.7, p), z, img,
                  involution_R([1.3, 0.8, -0.4, 1.05])):
            assert_state_array(s)
        np.testing.assert_array_equal(img, [z[0], -z[1], -z[2], z[3]])

    def test_collision_last_state(self):
        p = Params(0.3, 2.2)
        inside = lift_to_shell(0.01, 0.0, p)
        plunge = np.array([1.0, 0.0, -2.0, 0.0])
        calm = np.array([1.5, 0.2, -0.3, 1.0])
        for z0 in (inside, plunge):
            for run, start in ((flow, z0),
                               (lockstep_flow, np.array([calm, z0]).T)):
                with pytest.raises(CollisionError) as err:
                    run(start, 4.0, 1e-12, p)
                z = err.value.last_state
                assert_state_array(z)
                if z0 is inside:
                    np.testing.assert_array_equal(z, z0)
                else:
                    assert z[0] == pytest.approx(collision_radius(p), abs=1e-12)

    def test_section_timeout_last_state(self):
        p = Params(0.3, 2.4)
        with pytest.raises(SectionTimeoutError) as err:
            poincare_map((0.1, 0.0), p)
        assert_state_array(err.value.last_state)


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


# The inertial problem, the oracle of the rotating chart: a Cartesian state
# is (q1, q2, p1, p2, t) and a polar one (r, alpha, y, G, t), in the original
# variables at time t, with the primaries on circular orbits of radius mu
# and 1 - mu about their centre of mass.

def hamiltonian_cartesian(s, p):
    """|p|^2/2 - (1-mu)/|q + mu q0(t)| - mu/|q - (1-mu) q0(t)|, with
    q0(t) = (cos t, sin t)."""
    q1, q2, p1, p2, t = s
    c, sn = math.cos(t), math.sin(t)
    d1 = math.hypot(q1 + p.mu * c, q2 + p.mu * sn)
    out = 0.5 * (p1 * p1 + p2 * p2) - (1.0 - p.mu) / d1
    if p.mu > 0.0:      # a massless primary is not singular
        out -= p.mu / math.hypot(q1 - (1.0 - p.mu) * c, q2 - (1.0 - p.mu) * sn)
    return out


def cartesian_to_polar(s):
    q1, q2, p1, p2, t = s
    r = math.hypot(q1, q2)
    return (r, math.atan2(q2, q1), (q1 * p1 + q2 * p2) / r, q1 * p2 - q2 * p1, t)


def polar_to_cartesian(s):
    r, alpha, y, G, t = s
    c, sn = math.cos(alpha), math.sin(alpha)
    return (r * c, r * sn, y * c - G / r * sn, y * sn + G / r * c, t)


def polar_to_rotating(s, p):
    """Rescale and pass to the synodic angle phi = alpha - t + pi, which puts
    the larger primary, at -mu q0(t), on the ray phi = 0."""
    r, alpha, y, G, t = s
    return [r / p.g0**2, alpha - t + math.pi, y * p.g0, G / p.g0]


def rotating_to_polar(z, t, p):
    """Inverse of polar_to_rotating at original-variables time t."""
    r, phi, y, G = z
    return (r * p.g0**2, phi + t - math.pi, y / p.g0, G * p.g0, t)


def kernel_rates(p):
    """flow's right-hand side, on four Python floats."""
    return potential_kernel(p, math.cos, math.sin, math.sqrt).rates


class TestHamiltonians:
    def test_two_body_circular_value(self):
        # mu=0, circular orbit at r=1: H = 1/2 - 1 = -1/2
        s = (1.0, 0.0, 0.0, 1.0, 0.0)
        assert hamiltonian_cartesian(s, Params(0.0, 2.0)) == pytest.approx(-0.5, abs=1e-15)

    def test_direct_evaluation_mu_half(self):
        # independent arithmetic of the defining formula
        s = (0.0, 10.0, 0.0, 0.0, 0.0)
        expected = -0.5 / math.hypot(0.5, 10.0) - 0.5 / math.hypot(-0.5, 10.0)
        assert hamiltonian_cartesian(s, Params(0.5, 2.0)) == pytest.approx(expected, rel=1e-15)

    def test_chart_consistency_cartesian_polar(self):
        # the inertial energy is H_rot/g0^2 + G of the image state
        p = Params(0.37, 2.3)
        for _ in range(10):
            q = (2.0 * RNG.random() + 0.5, 2.0 * RNG.random() - 1.0)
            mom = (RNG.random() - 0.5, RNG.random() - 0.5)
            t = 3.0 * RNG.random()
            s = (*q, *mom, t)
            pol = cartesian_to_polar(s)
            assert hamiltonian_cartesian(s, p) == pytest.approx(
                hamiltonian_rotating(polar_to_rotating(pol, p), p) / p.g0**2
                + pol[3], abs=1e-12)

    def test_round_trips(self):
        p = Params(0.2, 2.1)
        pol = (3.7, 1.1, -0.2, 1.9, 0.6)
        back = cartesian_to_polar(polar_to_cartesian(pol))
        assert back == pytest.approx(pol, abs=1e-12)
        rot = polar_to_rotating(pol, p)
        assert rotating_to_polar(rot, pol[4], p) == pytest.approx(pol, abs=1e-12)

    def test_energy_scaling_relation(self):
        # rotating energy equals g0^2 times the Jacobi constant H - G of the
        # inertial problem
        p = Params(0.31, 2.2)
        for s in random_rotating_states(p, 6):
            pol = rotating_to_polar(s, 1.7, p)
            jacobi = hamiltonian_cartesian(polar_to_cartesian(pol), p) - pol[3]
            assert hamiltonian_rotating(s, p) == pytest.approx(
                p.g0**2 * jacobi, abs=1e-11 * p.g0**3)

    def test_collision_raises(self):
        # the larger primary sits at r = mu/g0^2 on the ray phi = 0
        p = Params(0.3, 2.0)
        with pytest.raises(CollisionError):
            potential_V(p.mu / p.g0**2, 0.0, p)


class TestJacobi:
    # the Jacobi constant of the original variables is H_rot/g0^2

    def test_shell_maps_to_minus_g0(self):
        p = Params(0.3, 2.4)
        z = lift_to_shell(1.3, 0.6, p)
        assert hamiltonian_rotating(z, p) / p.g0**2 == pytest.approx(
            -p.g0, abs=1e-12)

    def test_conserved_mu0_flow(self):
        p = Params(0.0, 2.0)
        z = [1.2, 0.3, 0.4, 1.0]
        j0 = hamiltonian_rotating(z, p) / p.g0**2
        z1 = flow(z, 3.0, 1e-12, p).y[:, -1]
        j1 = hamiltonian_rotating(z1, p) / p.g0**2
        assert abs(j1 - j0) < 1e-12

    def test_drift_along_numerical_flow(self):
        p = Params(0.3, 2.2)
        z = [1.4, 0.7, 0.3, 1.0]
        j0 = hamiltonian_rotating(z, p) / p.g0**2
        z1 = flow(z, 10.0, 1e-12, p).y[:, -1]
        j1 = hamiltonian_rotating(z1, p) / p.g0**2
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
            f = kernel_rates(p)(r, phi, 0.0, G)
            assert f[2] - (G * G / r**3 - 1.0 / r**2) == pytest.approx(fd_r, abs=1e-8)
            assert f[3] == pytest.approx(fd_phi, abs=1e-8)

    def test_massless_primary_is_not_singular(self):
        # at mu = 0 the small primary carries no mass: V vanishes at its
        # position and every form of the field there is the Kepler field
        p = Params(0.0, 2.0)
        r, phi, y, G = 1.0 / p.g0**2, math.pi, 0.3, 1.0
        assert potential_V(r, phi, p) == 0.0
        kepler = (y, G / r**2 - p.g0**3, G * G / r**3 - 1.0 / r**2, 0.0)
        f = kernel_rates(p)(r, phi, y, G)
        assert f == pytest.approx(kepler, rel=1e-15, abs=0.0)
        field = potential_kernel(p, math.cos, math.sin, math.sqrt).field
        assert field(0.0, [r, phi, y, G]) == f
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
            f = kernel_rates(p)(h.r, 0.7, h.y, 1.0)
            assert f[0] == pytest.approx(h.y, abs=1e-12)
            assert f[1] == pytest.approx(1.0 / h.r**2 - p.g0**3, abs=1e-12)
            assert f[2] == pytest.approx(1.0 / h.r**3 - 1.0 / h.r**2, abs=1e-12)
            assert f[3] == 0.0

    def test_energy_is_first_integral(self):
        p = Params(0.29, 2.4)
        h = 1e-6
        step = h * np.eye(4)
        for s in random_rotating_states(p, 5):
            f = np.array(kernel_rates(p)(*s))
            z = np.array(s)
            grad = np.array([hamiltonian_rotating(z + e, p)
                             - hamiltonian_rotating(z - e, p)
                             for e in step]) / (2 * h)
            assert abs(grad @ f) < 1e-8 * max(1.0, np.max(np.abs(grad)) * np.max(np.abs(f)))

    def test_angular_momentum_frozen_at_mu0(self):
        p = Params(0.0, 2.5)
        for s in random_rotating_states(p, 4):
            assert kernel_rates(p)(*s)[3] == 0.0

    def test_cutoff_spares_mu0_perihelion(self):
        # the unperturbed separatrix touches r = 1/2 and must stay integrable
        p = Params(0.0, 2.0)
        assert 0.0 < collision_radius(p) < 0.5
        assert flow([0.5, 0.0, 0.0, 1.0], 0.1, 1e-12, p).status == 0


class TestInvolution:
    def test_involution_squares_to_identity(self):
        s = [1.3, 0.8, -0.4, 1.05]
        np.testing.assert_array_equal(involution_R(involution_R(s)), s)

    def test_fixed_set(self):
        for phi in (0.0, math.pi):
            img = involution_R([1.1, phi, 0.0, 1.0])
            assert img[0] == 1.1 and img[3] == 1.0 and img[2] == 0.0
            assert math.cos(img[1]) == pytest.approx(math.cos(phi), abs=1e-15)
            assert math.sin(img[1]) == pytest.approx(math.sin(phi), abs=1e-15)

    def test_flow_reversibility(self, solve_ivp_flow):
        # R(Phi_s(R(z))) = Phi_{-s}(z), in both time directions: flow runs
        # forward only, so Phi_{-s} is solve_ivp's backward flow, from z for
        # s = 1.5 and from R(z) for s = -2.5
        p = Params(0.33, 2.2)
        tol = 1e-12
        z = np.array([1.4, 0.9, 0.35, 1.02])
        for start, s_time in ((involution_R(z), 1.5), (z, 2.5)):
            zr = flow(start, s_time, tol, p)
            lhs = involution_R(zr.y[:, -1])
            rhs = solve_ivp_flow(involution_R(start), -s_time, tol,
                                 p).y[:, -1]
            diff = np.abs(lhs - rhs)
            diff[1] = abs((diff[1] + math.pi) % (2 * math.pi) - math.pi)
            assert np.max(diff) < 100 * tol * max(1.0, abs(s_time) * p.g0**3)


class TestIntegrate:
    # the end state of flow over a span
    def test_energy_drift(self):
        p = Params(0.3, 2.3)
        tol = 1e-12
        z = [1.5, 0.2, -0.3, 1.0]
        h0 = hamiltonian_rotating(z, p)
        z1 = flow(z, 8.0, tol, p).y[:, -1]
        assert abs(hamiltonian_rotating(z1, p) - h0) < 100 * tol * 8.0 * p.g0**3

    def test_forward_backward(self):
        # the way back is R(flow(R(z1), 4)), R reversing time
        p = Params(0.3, 2.3)
        tol = 1e-12
        z = np.array([1.5, 0.2, -0.3, 1.0])
        z1 = flow(z, 4.0, tol, p).y[:, -1]
        back = flow(involution_R(z1), 4.0, tol, p).y[:, -1]
        z2 = involution_R(back)
        assert np.max(np.abs(z2 - z)) < 1e-9

    def test_tol_validation(self):
        p = Params(0.3, 2.0)
        z = [1.2, 0.0, 0.0, 1.0]
        with pytest.raises(ValueError):
            flow(z, 1.0, 1e-5, p)
        with pytest.raises(ValueError):
            flow(z, 1.0, 1e-16, p)
        # an int too large for a float is refused, not an OverflowError
        with pytest.raises(ValueError):
            flow(z, 1.0, 10**400, p)

    def test_tol_floor_is_the_rtol_floor_of_solve_ivp(self):
        # solve_ivp raises an rtol below 100 eps to that floor with only a
        # warning, so such a tol is refused rather than silently loosened
        p = Params(0.3, 2.0)
        z = [1.2, 0.0, 0.0, 1.0]
        assert TOL_MIN == 100 * np.finfo(float).eps
        with pytest.raises(ValueError):
            flow(z, 1.0, 1e-14, p)
        z1 = flow(z, 0.5, 2.3e-14, p).y[:, -1]
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
    def test_events(self, solve_ivp_flow, angle_event, direction, terminal):
        sec = angle_event(1.0, direction)
        sec.terminal = terminal
        evs = [sec, apocentre]
        got = flow(self.Z0, 8.0, 1e-12, self.P, events=evs)
        ref = solve_ivp_flow(self.Z0, 8.0, 1e-12, self.P, events=evs)
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
        z0 = lift_to_shell(1.3, 0.758, p)

        def r_out(s, z):
            return z[0] - 5.0
        r_out.terminal = True
        r_out.direction = 1.0

        evs = [section_event(), apocentre, pericentre, r_out]
        got = flow(z0, 200.0, 1e-12, p, events=evs)
        ref = solve_ivp_flow(z0, 200.0, 1e-12, p, events=evs)
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
        z0 = lift_to_shell(1.3, 0.923, p)

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

        exit_state = solve_ivp_flow(z0, 200.0, 1e-12, p,
                                    events=[going_out]).y_events[0][0]
        evs = [coming_back, apocentre, far]
        got = flow(exit_state, 3000.0, 1e-12, p, events=evs)
        ref = solve_ivp_flow(exit_state, 3000.0, 1e-12, p, events=evs)
        assert_same_trajectory(got, ref)
        assert got.status == 1 and got.t[-1] == got.t_events[0][0]
        assert len(got.t_events[1]) == 1 and len(got.t_events[2]) == 0
        assert got.y_events[1][0, 0] == pytest.approx(18.98, abs=0.01)
        assert np.count_nonzero(got.y[0] > 10.0) >= 1500

    @pytest.mark.parametrize("s_end", [math.nan, math.inf, -math.inf, 0.0,
                                       -1.0])
    def test_non_finite_span_refused(self, s_end):
        # flow runs forward from s = 0, and its step loop would never reach
        # a NaN or infinite end
        with pytest.raises(ValueError, match="s_end"):
            flow(self.Z0, s_end, 1e-12, self.P)

    def test_step_size_underflow(self, solve_ivp_flow):
        # a finite start whose field overflows: the initial-step rule, which
        # takes Python's max and min, keeps a zero step there, where numpy's
        # NaN-carrying ones made a NaN step that no underflow check caught.
        # solve_ivp stops with status -1, and flow and a lane of lockstep_flow
        # raise at the same check
        z0 = [1.5, 0.3, 0.2, 1e160]
        args = (10.0, 1e-12, Params(0.3, 2.4))
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match="less than spacing"):
                solve_ivp_flow(z0, *args)
            with pytest.raises(RuntimeError, match="underflow at s = 0.0"):
                flow(z0, *args)
            with pytest.raises(RuntimeError, match="underflow in lane 0"):
                lockstep_flow(np.array([z0, [1.5, 0.3, 0.2, 1.0]]).T, *args)

    @pytest.mark.parametrize("tol", [TOL_MIN, 1e-10])
    def test_tolerances(self, solve_ivp_flow, tol):
        got = flow(self.Z0, 4.0, tol, self.P)
        ref = solve_ivp_flow(self.Z0, 4.0, tol, self.P)
        assert_same_trajectory(got, ref)

    def test_collision(self, solve_ivp_flow):
        # a radial plunge; at mu = 0 into the massive primary at the origin
        z0 = [1.0, 0.0, -2.0, 0.0]
        for p in (Params(0.3, 2.0), Params(0.0, 2.2)):
            with pytest.raises(CollisionError) as got:
                flow(z0, 4.0, 1e-12, p)
            with pytest.raises(CollisionError) as ref:
                solve_ivp_flow(z0, 4.0, 1e-12, p)
            np.testing.assert_array_equal(got.value.last_state,
                                          ref.value.last_state)
            assert got.value.last_state[0] == pytest.approx(collision_radius(p),
                                                            abs=1e-12)

    def test_start_inside_cutoff_refused(self):
        # the guard fires on a falling crossing of the cutoff, which a start
        # below it never makes: at (0.3, 2.2), cutoff 0.289, a start at
        # r = 0.01 ran 2091 steps between the primaries unguarded
        p = Params(0.3, 2.2)
        z0 = lift_to_shell(0.01, 0.0, p)
        with pytest.raises(CollisionError, match="start inside") as err:
            flow(z0, 1.0, 1e-12, p)
        np.testing.assert_array_equal(err.value.last_state, z0)

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
        got = flow(z0, 4.0, 1e-12, p, events=[near])
        ref = solve_ivp_flow(z0, 4.0, 1e-12, p, events=[near])
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
        # rates on four Python floats and solve_ivp's f(s, z)
        for p in (Params(0.3, 2.4), Params(0.5, 2.0), Params(0.0, 2.2)):
            states = random_rotating_states(p, 8) + [
                [50.0, 1.3, -0.2, 1.0], [7.0, -40.0, 0.5, 1.01]]
            z = np.array(states).T
            lanes = np.array(
                potential_kernel(p, np.cos, np.sin, np.sqrt).field(0.0, z))
            kernel = potential_kernel(p, math.cos, math.sin, math.sqrt)
            scalar, rates = kernel.field, kernel.rates
            for k, s in enumerate(states):
                want = scalar(0.0, z[:, k])
                got = rates(*s)
                assert all(type(x) is float for x in got)
                assert [x.hex() for x in got] == [float(x).hex() for x in want]
                np.testing.assert_array_equal(lanes[:, k], want)

    def test_lanes_follow_flow(self):
        # each lane repeats solve_ivp's DOP853 arithmetic: same steps, same
        # states (the stable-curve oracle in test_manifolds relies on it)
        p = Params(0.3, 2.3)
        tol = 1e-12
        z0 = np.array([[1.5, 0.2, -0.3, 1.0], [1.2, 2.0, 0.4, 1.02],
                       [30.0, 0.7, -0.25, 1.0]]).T
        run = lockstep_flow(z0, 6.0, tol, p)
        steps = nfev = 0
        for k in range(z0.shape[1]):
            sol = flow(z0[:, k], 6.0, tol, p)
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
            assert err.value.last_state[0] == pytest.approx(collision_radius(p),
                                                            abs=1e-12)
            with pytest.raises(CollisionError) as ref:
                flow(z0[:, 1], 4.0, 1e-12, p)
            np.testing.assert_array_equal(err.value.last_state,
                                          ref.value.last_state)

    def test_lane_starting_inside_cutoff_raises(self):
        # the second lane starts at r = 0.01, inside the cutoff 0.289 at
        # (0.3, 2.2), where the guard would never see a falling crossing
        p = Params(0.3, 2.2)
        z0 = np.array([[1.5, 0.2, -0.3, 1.0],
                       lift_to_shell(0.01, 0.0, p)]).T
        with pytest.raises(CollisionError, match="start inside") as err:
            lockstep_flow(z0, 1.0, 1e-12, p)
        np.testing.assert_array_equal(err.value.last_state, z0[:, 1])

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

    def test_event_crossings_match_flow(self, angle_event):
        # non-terminal section events of each direction: every lane's
        # crossings are flow's t_events and y_events, bit for bit
        p = Params(0.3, 2.3)
        z0 = np.array([[1.5, 0.2, -0.3, 1.0], [1.2, 2.0, 0.4, 1.02]]).T
        evs = [angle_event(0.5, 1.0), angle_event(-1.0, -1.0), angle_event(2.0)]
        run = lockstep_flow(z0, 6.0, 1e-12, p, events=evs)
        for k in range(z0.shape[1]):
            sol = flow(z0[:, k], 6.0, 1e-12, p, events=evs)
            for e in range(len(evs)):
                assert len(run.s_events[k][e]) > 0
                np.testing.assert_array_equal(run.s_events[k][e],
                                              sol.t_events[e])
                np.testing.assert_array_equal(run.z_events[k][e],
                                              sol.y_events[e])

    def test_gate_drops_only_crossings_outside_it(self, angle_event):
        # a y > 0 gate keeps, bit for bit, the ungated crossings in the steps
        # (flow's, which the lanes repeat) with y > 0 at either end, and so
        # every crossing with y clear of 0; the third lane's first step
        # crosses phi = 0.5 with y < 0 and ends with y > 0
        p = Params(0.3, 2.3)
        z0 = np.array([[1.5, 0.2, -0.3, 1.0], [1.2, 2.0, 0.4, 1.02],
                       [0.8, 0.51, -1e-3, 1.0]]).T
        run = lockstep_flow(z0, 6.0, 1e-12, p,
                            events=[angle_event(0.5), angle_event(-1.0)])
        gated_evs = [angle_event(0.5), angle_event(-1.0)]
        for ev in gated_evs:
            ev.gate = lambda s, z: z[2] > 0.0
        gated = lockstep_flow(z0, 6.0, 1e-12, p, events=gated_evs)
        np.testing.assert_array_equal(gated.z, run.z)
        for k in range(z0.shape[1]):
            sol = flow(z0[:, k], 6.0, 1e-12, p)
            for e in range(2):
                s_all, z_all = run.s_events[k][e], run.z_events[k][e]
                step = np.searchsorted(sol.t, s_all)
                kept = (sol.y[2, step - 1] > 0.0) | (sol.y[2, step] > 0.0)
                assert 0 < np.count_nonzero(kept) < len(kept)
                assert np.all(kept[z_all[:, 2] > 1e-6])
                np.testing.assert_array_equal(gated.s_events[k][e], s_all[kept])
                np.testing.assert_array_equal(gated.z_events[k][e], z_all[kept])

    def test_lanes_with_events_match_flow(self, angle_event):
        # section crossings of both kinds and a terminal event that retires
        # one lane early: every lane's crossings, final time and state are
        # flow's, bit for bit, though the lanes locate them only after the
        # step loop, from one batched dense output
        p = Params(0.3, 2.3)
        z0 = np.array([[1.5, 0.2, -0.3, 1.0], [1.2, 2.0, 0.4, 1.02],
                       [30.0, 0.7, -0.25, 1.0], [5.0, -0.4, 0.3, 1.0]]).T

        def inner(s, z):
            return z[0] - 1.0
        inner.terminal = True
        inner.direction = -1.0

        evs = [angle_event(0.3), angle_event(-0.3, -1.0), inner]
        run = lockstep_flow(z0, 6.0, 1e-12, p, events=evs)
        nfev = crossings = 0
        for k in range(z0.shape[1]):
            sol = flow(z0[:, k], 6.0, 1e-12, p, events=evs)
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
        assert work["rhs_evals"] == 2 * z0.shape[1] + 12 * (
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
