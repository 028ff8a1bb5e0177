import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from rpc3bp.core import Params, RotatingState, hamiltonian_rotating, involution_R
from rpc3bp.integrate import (
    first_return,
    flow,
    make_rhs,
    refine_to_section,
    section_event,
)
from rpc3bp.manifolds import (
    _fan_samples,
    compute_invariant_curve,
    curve_to_csv,
    initial_manifold_state,
    lift_to_shell,
    poincare_jacobian,
    poincare_map,
)
from rpc3bp.separatrix import homoclinic_r, homoclinic_y, v_of_r


@pytest.fixture(scope="module")
def mu0_curves():
    p = Params(0.0, 2.0)
    cu = compute_invariant_curve("unstable", 0.0, (0.4, 1.6), p,
                                 tol=1e-12, n_samples=25)
    cs = compute_invariant_curve("stable", 0.0, (0.4, 1.6), p,
                                 tol=1e-12, n_samples=25)
    return p, cu, cs


class TestInitialState:
    def test_on_shell_by_construction(self):
        for p in (Params(0.3, 2.4), Params(0.5, 2.0)):
            for phase in (0.0, 1.3, 4.0):
                z = initial_manifold_state(60.0, phase, p)
                assert abs(hamiltonian_rotating(z, p) + p.g0**3) < 1e-12 * p.g0**3

    def test_mu0_matches_separatrix(self):
        # at mu=0 the seed lies on the exact separatrix
        p = Params(0.0, 2.0)
        r0 = 64.0
        z = initial_manifold_state(r0, 0.7, p)
        v = v_of_r(r0)
        assert z.y == pytest.approx(-homoclinic_y(v), abs=1e-10)
        assert z.G == 1.0

    def test_far_field_floor(self):
        with pytest.raises(ValueError):
            initial_manifold_state(20.0, 0.0, Params(0.3, 2.4))


class TestSectionMachinery:
    def test_crossing_time_near_synodic_period(self):
        # a state on the section goes on to the next return, one synodic
        # period later
        p = Params(0.3, 2.4)
        z = lift_to_shell(1.3, 0.4, 0.0, p)
        sol, out = first_return(z.to_array(), 0.0, p, 1e-12,
                                3.0 * 2 * math.pi / p.g0**3)
        assert sol.t[-1] == sol.t_events[1][0]
        assert sol.t[-1] == pytest.approx(2 * math.pi / p.g0**3, rel=0.05)
        assert out[1] == pytest.approx(-2 * math.pi, abs=1e-13)

    def test_section_residual_refined(self):
        p = Params(0.3, 2.4)
        z = RotatingState(1.2, 0.4, 0.3, 1.0)
        _, out = first_return(z.to_array(), 0.0, p, 1e-12,
                              4.0 * 2 * math.pi / p.g0**3)
        assert abs(math.remainder(out[1], 2 * math.pi)) < 1e-13

    def test_energy_preserved(self):
        p = Params(0.3, 2.4)
        tol = 1e-12
        z = lift_to_shell(1.4, 0.2, 0.0, p)
        z0 = RotatingState(z.r, 0.4, z.y, z.G)
        _, out = first_return(z0.to_array(), 0.0, p, tol,
                              4.0 * 2 * math.pi / p.g0**3)
        assert abs(hamiltonian_rotating(RotatingState.from_array(out), p)
                   - hamiltonian_rotating(z0, p)) < 100 * tol * p.g0**3


class TestLift:
    def test_shell_residual(self):
        p = Params(0.3, 2.4)
        z = lift_to_shell(1.1, -0.4, 0.7, p)
        assert abs(hamiltonian_rotating(z, p) + p.g0**3) < 1e-12 * p.g0**3
        assert z.G == pytest.approx(1.0, abs=0.1)

    def test_no_real_lift(self):
        with pytest.raises(ValueError):
            lift_to_shell(1.0, 10.0 * Params(0.3, 2.4).g0**3, 0.0, Params(0.3, 2.4))


class TestPoincareMap:
    def test_first_return_matches_direct_integration(self):
        # the image is where the unwrapped angle first reaches phi0 - 2pi,
        # located here by root-finding on the dense output of one solve_ivp
        # run at flow's tolerances, apart from the integrator under test
        p = Params(0.3, 2.4)
        pt = (1.0, 0.3)
        rn, yn = poincare_map(pt, 0.0, p, tol=1e-13)
        assert math.hypot(rn - pt[0], yn - pt[1]) > 1e-2
        z = lift_to_shell(pt[0], pt[1], 0.0, p)
        sol = solve_ivp(make_rhs(p), (0.0, 2.0 * 2 * math.pi / p.g0**3),
                        z.to_array(), method="DOP853", rtol=1e-13,
                        atol=1e-15, dense_output=True)
        s_ret = brentq(lambda s: sol.sol(s)[1] + 2 * math.pi, 0.0, sol.t[-1],
                       xtol=1e-15)
        r_ret, _, y_ret, _ = sol.sol(s_ret)
        assert rn == pytest.approx(r_ret, abs=1e-10)
        assert yn == pytest.approx(y_ret, abs=1e-10)

    def test_area_preservation(self):
        p = Params(0.3, 2.4)
        for pt in ((1.1, 0.5), (1.5, -0.3)):
            J = poincare_jacobian(pt, 0.0, p, tol=1e-13)
            assert abs(np.linalg.det(J) - 1.0) < 1e-8

    def test_mu0_separatrix_invariance(self):
        # unperturbed zero-energy relation is preserved by the return map
        p = Params(0.0, 2.0)
        v = 0.9
        r, y = homoclinic_r(v), homoclinic_y(v)
        rn, yn = poincare_map((r, y), 0.0, p, tol=1e-13)
        resid = yn**2 / 2 + 1.0 / (2 * rn**2) - 1.0 / rn
        assert abs(resid) < 1e-10

    def test_mu0_angular_momentum_frozen(self):
        p = Params(0.0, 2.0)
        # lifting a separatrix point recovers the separatrix momentum G = 1
        v = 0.8
        zs = lift_to_shell(homoclinic_r(v), homoclinic_y(v), 0.0, p)
        assert zs.G == pytest.approx(1.0, abs=1e-13)
        # and the return map freezes whatever G the lift produced
        z = lift_to_shell(1.2, 0.4, 0.0, p)
        rn, yn = poincare_map((1.2, 0.4), 0.0, p, tol=1e-13)
        zn = lift_to_shell(rn, yn, 0.0, p)
        assert zn.G == pytest.approx(z.G, abs=1e-12)

    def test_reversibility_conjugation(self):
        # P(r, -y) composed with P(r, y) returns the reflected point:
        # R P R = P^{-1} on the section {phi = 0}
        p = Params(0.3, 2.4)
        pt = (1.25, 0.45)
        fwd = poincare_map(pt, 0.0, p, tol=1e-13)
        back = poincare_map((fwd[0], -fwd[1]), 0.0, p, tol=1e-13)
        assert back[0] == pytest.approx(pt[0], abs=1e-10)
        assert back[1] == pytest.approx(-pt[1], abs=1e-10)


class TestInvariantCurves:
    def test_mu0_coincides_with_separatrix(self, mu0_curves):
        p, cu, cs = mu0_curves
        for c in (cu, cs):
            assert np.max(np.abs(c.Y - homoclinic_y(c.v))) < 100 * c.tol * 10
            assert np.all(np.diff(c.v) > 0)
            assert np.all(c.Y > 0)

    def test_window_validation(self):
        p = Params(0.3, 2.4)
        with pytest.raises(ValueError):
            compute_invariant_curve("unstable", 0.0, (-0.5, 1.0), p)
        with pytest.raises(ValueError):
            compute_invariant_curve("middle", 0.0, (0.4, 1.6), p)

    def test_interpolant_error_scale(self, mu0_curves):
        # residual-based interpolation keeps the baseline exact at mu = 0
        p, cu, cs = mu0_curves
        f = cu.interpolant()
        vg = np.linspace(cu.v[0], cu.v[-1], 700)
        assert np.max(np.abs(f(vg) - homoclinic_y(vg))) < 1e-10

    def test_csv_export(self, mu0_curves, tmp_path):
        _, cu, _ = mu0_curves
        path = tmp_path / "curve.csv"
        curve_to_csv(cu, path, header_lines=("test=1",))
        lines = path.read_text().splitlines()
        assert lines[0] == "# test=1"
        assert lines[1] == "v,r,Y,branch,phi0,mu,g0,tol"
        assert len(lines) == 2 + len(cu.v)

    @pytest.mark.parametrize("phi0", [0.0, 1.0])
    def test_stable_samples_are_reflected_crossings(self, phi0):
        # Oracle for the stable branch, sample by sample: the R-image of each
        # fan seed, integrated backward to its perihelion, crosses phi0 on
        # the outgoing leg exactly where the fan's reflected inbound
        # crossings of -phi0 say.
        p = Params(0.3, 2.4)
        tol, r0, n, (v_lo, v_hi) = 1e-12, 50.0, 3, (0.4, 1.6)
        _, stable = _fan_samples(phi0, (v_lo, v_hi), p, tol, n, r0)

        def perihelion(s, z):
            return z[2]
        perihelion.terminal = True

        ref = []
        for k in range(n):
            z0 = involution_R(initial_manifold_state(r0, phi0 + 2 * math.pi * k / n, p))
            sol = flow(z0.to_array(), (0.0, -2.0 * v_of_r(r0)), tol, p,
                       events=[section_event(phi0), perihelion])
            assert len(sol.t_events[2]) == 1
            for z in sol.y_events[1]:
                zr = refine_to_section(z, phi0, p)
                if homoclinic_r(v_lo) < zr[0] < homoclinic_r(v_hi):
                    ref.append((float(v_of_r(zr[0])), float(zr[2])))
        got = sorted(s for s in stable if v_lo < s[0] < v_hi)
        ref.sort()
        assert len(ref) >= 5
        assert len(got) == len(ref)
        assert np.max(np.abs(np.subtract(got, ref))) < 1e-11

    @pytest.mark.filterwarnings("error")
    def test_fan_matches_per_orbit_flow(self):
        # solve_ivp reference: each fan orbit integrated on its own with the
        # fan's events, its crossings refined and filtered as the fan does
        p = Params(0.3, 2.4)
        tol, r0, n, (v_lo, v_hi) = 1e-12, 50.0, 4, (0.4, 1.6)
        unstable, stable = _fan_samples.__wrapped__(0.0, (v_lo, v_hi), p, tol,
                                                    n, r0)
        buf = 0.12 * (v_hi - v_lo)
        r_lo, r_hi = homoclinic_r(v_lo - buf), homoclinic_r(v_hi + buf)

        def exit_event(s, z):
            return z[0] - 1.05 * r_hi
        exit_event.terminal = True
        exit_event.direction = 1.0

        def turn_event(s, z):
            return z[2]
        turn_event.terminal = True
        turn_event.direction = -1.0

        ref_u, ref_s = [], []
        for k in range(n):
            z0 = initial_manifold_state(r0, 2 * math.pi * k / n, p)
            sol = flow(z0.to_array(), (0.0, 1.35 * (v_of_r(r0) + v_hi + 5.0)),
                       tol, p, events=[section_event(0.0), section_event(-0.0),
                                       exit_event, turn_event])
            for z in sol.y_events[1]:
                if z[2] > 1e-6 and r_lo <= z[0] <= r_hi:
                    zr = refine_to_section(z, 0.0, p)
                    ref_u.append((float(v_of_r(zr[0])), float(zr[2])))
            for z in sol.y_events[2]:
                if z[2] < -1e-6 and r_lo <= z[0] <= r_hi:
                    zr = refine_to_section(z, -0.0, p)
                    ref_s.append((float(v_of_r(zr[0])), -float(zr[2])))
        for got, ref in ((unstable, ref_u), (stable, ref_s)):
            assert len(ref) >= 10
            assert len(got) == len(ref)
            assert np.max(np.abs(np.subtract(sorted(got), sorted(ref)))) < 10 * tol

    @pytest.mark.filterwarnings("error")
    def test_fan_is_deterministic(self):
        args = (0.0, (0.4, 1.6), Params(0.3, 2.8), 1e-12, 3, 50.0)
        a = _fan_samples.__wrapped__(*args)
        b = _fan_samples.__wrapped__(*args)
        assert tuple(a) == tuple(b)
        assert a.work == b.work
        assert a.work["rhs_evals"] >= 12 * a.work["accepted_steps"] > 0

    def test_fan_work_in_meta(self, mu0_curves):
        _, cu, cs = mu0_curves
        for key in ("lockstep_iterations", "accepted_steps", "rejected_steps",
                    "rhs_evals"):
            assert cu.meta[key] == cs.meta[key]
        assert cu.meta["accepted_steps"] >= cu.meta["lockstep_iterations"] > 0

    def test_mu_continuity(self):
        # tiny mass ratio deforms the curve at the O(mu/g0^4) scale
        p = Params(1e-6, 2.4)
        c = compute_invariant_curve("unstable", 0.0, (0.4, 1.6), p,
                                    tol=1e-12, n_samples=25)
        dev = np.max(np.abs(c.Y - homoclinic_y(c.v)))
        assert dev < 10.0 * p.mu / p.g0**4
        assert dev > 0.1 * p.mu / p.g0**4


@pytest.mark.slow
class TestSeedingRobustness:
    def test_r0_doubling_matched_point(self):
        # compare Y at the same v for R0 = 50 and 100 by tuning the launch
        # phase until a crossing lands exactly at v = 1 (independent of any
        # interpolation); the residual seeding error is ~1e-8 at R0 = 50
        from rpc3bp.integrate import flow, refine_to_section, section_event
        p = Params(0.3, 2.4)
        v_target = 1.0

        def crossing(phase, r0):
            z0 = initial_manifold_state(r0, phase, p)
            def ex(s, z):
                return z[0] - 2.6
            ex.terminal = True
            ex.direction = 1.0
            sec = section_event(0.0)
            sol = flow(z0.to_array(), (0.0, 1.35 * ((2 * r0) ** 1.5 / 6 + 7)),
                       1e-13, p, events=[sec, ex])
            best = None
            for z in sol.y_events[1]:
                if z[2] > 1e-6 and z[0] >= 0.5:
                    zr = refine_to_section(z, 0.0, p)
                    v = float(v_of_r(zr[0]))
                    if best is None or abs(v - v_target) < abs(best[0] - v_target):
                        best = (v, float(zr[2]))
            return best

        def matched(r0):
            a, b = 0.0, 0.3
            fa = crossing(a, r0)[0] - v_target
            fb = crossing(b, r0)[0] - v_target
            for _ in range(30):
                c = b - fb * (b - a) / (fb - fa)
                vc, yc = crossing(c, r0)
                fc = vc - v_target
                if abs(fc) < 1e-11:
                    return yc
                a, fa, b, fb = b, fb, c, fc
            return yc

        dy = abs(matched(50.0) - matched(100.0))
        assert dy < 5e-8
