import math
from math import cos, sin, sqrt

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from rpc3bp.core import (
    CollisionError,
    Params,
    SectionTimeoutError,
    collision_radius,
    hamiltonian_rotating,
    involution_R,
    lift_to_shell,
    potential_kernel,
)
from rpc3bp.integrate import (
    first_return,
    flow,
    lockstep_flow,
    poincare_jacobian,
    poincare_map,
    refine_to_section,
    section_event,
)
from rpc3bp import manifolds
from rpc3bp.manifolds import (
    R_MIN,
    V_WINDOW,
    _fan_samples,
    _fan_seeds,
    _manifold_graph,
    _mask_folds,
    compute_invariant_curve,
    initial_manifold_state,
)
from rpc3bp.separatrix import homoclinic_r, homoclinic_y, v_of_r
from rpc3bp.splitting import continuation_tangency_curve, splitting_report


@pytest.fixture(scope="module")
def mu0_curves():
    p = Params(0.0, 2.0)
    return p, compute_invariant_curve(p, tol=1e-12, n_samples=25)


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
        assert z[2] == pytest.approx(-homoclinic_y(v), abs=1e-10)
        assert z[3] == 1.0

    def test_far_field_floor(self):
        # the graph of W^u(infinity) is solved for r >= R_MIN
        initial_manifold_state(R_MIN, 0.0, Params(0.3, 2.4))
        with pytest.raises(ValueError):
            initial_manifold_state(math.nextafter(R_MIN, 0.0), 0.0, Params(0.3, 2.4))

    @pytest.mark.parametrize("mu, g0", [(0.3, 2.4), (0.4924, 3.1), (0.3, 2.0),
                                        (0.5, 2.0), (0.3, 1.5)])
    def test_seed_is_invariant(self, mu, g0):
        # seeds launched at 2 R_MIN arrive at R_MIN on the graph: (y, G)
        # there equal the seed at the arrival (r, phi) to the integrator
        # floor; the zeroth-order parabolic seed is ~1e-8 off.  R_MIN is the
        # graph's floor, and the arrival event can land a few ulps below it,
        # so the seed is read at the floor there
        p = Params(mu, g0)

        def arrival(s, z):
            return z[0] - R_MIN
        arrival.terminal = True
        arrival.direction = -1.0

        for k in range(6):
            z0 = initial_manifold_state(2.0 * R_MIN, 0.1 + 2 * math.pi * k / 6, p)
            sol = flow(z0, 2.0 * v_of_r(2.0 * R_MIN), 1e-13, p,
                       events=[arrival])
            r, phi, y, G = sol.y_events[0][0]
            assert abs(r - R_MIN) < 1e-12
            z = initial_manifold_state(max(r, R_MIN), phi, p)
            assert abs(z[2] - y) < 1e-12
            assert abs(z[3] - G) < 1e-12

    @pytest.mark.parametrize("mu, g0", [(0.3, 2.4), (0.3, 2.0), (0.4924, 3.1),
                                        (0.3, 1.5)])
    def test_grid_resolves_seeds_at_floor(self, monkeypatch, mu, g0):
        # seeds at R_MIN from the 25 x 32 grid equal those from a 41 x 64
        # grid to one ulp of 1 in y and G; at (0.3, 1.05) they differ by
        # about 1e-12 (see _manifold_graph)
        p = Params(mu, g0)
        phases = [0.1 + 2 * math.pi * k / 37 for k in range(37)]
        coarse = [initial_manifold_state(R_MIN, phi, p) for phi in phases]
        monkeypatch.setattr(manifolds, "_CHEB_NODES", 41)
        monkeypatch.setattr(manifolds, "_FOURIER_NODES", 64)
        fine_graph = _manifold_graph.__wrapped__(p)
        monkeypatch.setattr(manifolds, "_manifold_graph", lambda q: fine_graph)
        fine = [initial_manifold_state(R_MIN, phi, p) for phi in phases]
        for a, b in zip(coarse, fine):
            assert abs(a[3] - b[3]) <= np.finfo(float).eps
            assert abs(a[2] - b[2]) <= np.finfo(float).eps

    def test_floor_lies_above_window_exit(self):
        # a lane seeded at R_MIN falls to the window's buffered exit radius
        # before its first window crossing, so every crossing follows its seed
        v_lo, v_hi = V_WINDOW
        r_exit = 1.05 * homoclinic_r(v_hi + 0.12 * (v_hi - v_lo))
        assert R_MIN > r_exit

    def test_graph_sweeps_are_bounded(self, monkeypatch):
        monkeypatch.setattr(manifolds, "_MAX_SWEEPS", 1)
        with pytest.raises(RuntimeError):
            _manifold_graph.__wrapped__(Params(0.3, 2.4))


class TestSectionMachinery:
    def test_crossing_time_near_synodic_period(self):
        # a state on the section goes on to the next return, one synodic
        # period later
        p = Params(0.3, 2.4)
        z = lift_to_shell(1.3, 0.4, p)
        sol, out = first_return(z, p, 1e-12,
                                3.0 * 2 * math.pi / p.g0**3)
        assert len(sol.t_events) == 1 and sol.t[-1] == sol.t_events[0][0]
        assert sol.t[-1] == pytest.approx(2 * math.pi / p.g0**3, rel=0.05)
        assert out[1] == pytest.approx(-2 * math.pi, abs=1e-13)

    def test_caller_events_keep_their_index(self, angle_event):
        # the crossings of events[e] are t_events[e], those of flow without
        # the level event up to the return, bit for bit; the return ends
        # the trajectory, so its time is t[-1]
        p = Params(0.3, 2.4)
        z = lift_to_shell(1.3, 0.4, p)
        s_max = 3.0 * 2 * math.pi / p.g0**3
        evs = [angle_event(math.pi), angle_event(0.5 * math.pi, 1.0)]
        sol, out = first_return(z, p, 1e-12, s_max, events=evs)
        ref = flow(z, s_max, 1e-12, p, events=evs)
        n = len(sol.t) - 1
        np.testing.assert_array_equal(sol.t[:n], ref.t[:n])
        assert ref.t[n - 1] < sol.t[n] < ref.t[n]
        for e in range(len(evs)):
            kept = ref.t_events[e] < sol.t[-1]
            assert np.count_nonzero(kept) == 1
            np.testing.assert_array_equal(sol.t_events[e],
                                          ref.t_events[e][kept])
            np.testing.assert_array_equal(sol.y_events[e],
                                          ref.y_events[e][kept])
        assert sol.status == 1
        assert sol.y[1, -1] == pytest.approx(-2 * math.pi, abs=1e-12)
        assert out[1] == pytest.approx(-2 * math.pi, abs=1e-13)

    def test_section_residual_refined(self):
        p = Params(0.3, 2.4)
        _, out = first_return([1.2, 0.4, 0.3, 1.0], p, 1e-12,
                              4.0 * 2 * math.pi / p.g0**3)
        assert abs(math.remainder(out[1], 2 * math.pi)) < 1e-13

    @pytest.mark.parametrize("delta, bound", [(1e-6, 1e-14), (1e-4, 1e-10)])
    def test_refine_steps_onto_the_section(self, delta, bound):
        # a state delta ahead of the section (phi falls along the flow) is
        # moved onto it by the Newton micro-steps, to the crossing flow
        # locates within O(delta^2), Euler's error
        p = Params(0.3, 2.4)
        z = lift_to_shell(1.3, 0.6, p)
        z[1] = delta
        zr = refine_to_section(z, p)
        ref = flow(z, 1e-3, 1e-12, p, events=[section_event()]).y_events[0]
        assert len(ref) == 1
        assert np.max(np.abs(zr - ref[0])) < bound
        assert (zr[1] + math.pi) % (2 * math.pi) - math.pi == 0.0

    def test_no_return_within_s_max(self):
        # the orbit is cut at s_max before phi falls to the level 0
        p = Params(0.3, 2.4)
        sol, out = first_return(np.array([1.3, 0.4, 0.1, 1.0]), p, 1e-12, 1e-3)
        assert out is None
        assert sol.status == 0 and sol.t[-1] == 1e-3

    def test_nonpositive_s_max(self):
        # backwards phi rose from 0.4 to 13.56, past 2pi and 4pi, which the
        # falling level event never saw, and s_max 0 took one empty step:
        # both reported no return
        p = Params(0.3, 2.4)
        for s_max in (-1.0, 0.0):
            with pytest.raises(ValueError, match="s_max must be positive"):
                first_return(np.array([1.3, 0.4, 0.1, 1.0]), p, 1e-12, s_max)

    def test_energy_preserved(self):
        p = Params(0.3, 2.4)
        tol = 1e-12
        z0 = lift_to_shell(1.4, 0.2, p)
        z0[1] = 0.4
        _, out = first_return(z0, p, tol, 4.0 * 2 * math.pi / p.g0**3)
        assert abs(hamiltonian_rotating(out, p)
                   - hamiltonian_rotating(z0, p)) < 100 * tol * p.g0**3


class TestLift:
    def test_shell_residual(self):
        p = Params(0.3, 2.4)
        z = lift_to_shell(1.1, -0.4, p)
        assert tuple(z[:3]) == (1.1, 0.0, -0.4)
        assert abs(hamiltonian_rotating(z, p) + p.g0**3) < 1e-12 * p.g0**3
        assert z[3] == pytest.approx(1.0, abs=0.1)

    def test_non_finite_point(self):
        # a NaN y passed the disc < 0 test and lifted to a state with G = NaN
        p = Params(0.3, 2.4)
        for r, y in ((1.3, math.nan), (1.3, math.inf), (math.inf, 0.4),
                     (math.nan, 0.4)):
            with pytest.raises(ValueError, match=r"section point .* finite"):
                lift_to_shell(r, y, p)

    def test_no_real_lift(self):
        with pytest.raises(ValueError):
            lift_to_shell(1.0, 10.0 * Params(0.3, 2.4).g0**3, Params(0.3, 2.4))


class TestPoincareMap:
    def test_first_return_matches_direct_integration(self):
        # the image is where the unwrapped angle first reaches -2pi,
        # located here by root-finding on the dense output of one solve_ivp
        # run at flow's tolerances, apart from the integrator under test
        p = Params(0.3, 2.4)
        pt = (1.0, 0.3)
        rn, yn = poincare_map(pt, p)
        assert math.hypot(rn - pt[0], yn - pt[1]) > 1e-2
        z = lift_to_shell(pt[0], pt[1], p)
        sol = solve_ivp(potential_kernel(p, cos, sin, sqrt).field,
                        (0.0, 2.0 * 2 * math.pi / p.g0**3),
                        z, method="DOP853", rtol=1e-13,
                        atol=1e-15, dense_output=True)
        s_ret = brentq(lambda s: sol.sol(s)[1] + 2 * math.pi, 0.0, sol.t[-1],
                       xtol=1e-15)
        r_ret, _, y_ret, _ = sol.sol(s_ret)
        assert rn == pytest.approx(r_ret, abs=1e-10)
        assert yn == pytest.approx(y_ret, abs=1e-10)

    def test_area_preservation(self):
        p = Params(0.3, 2.4)
        for pt in ((1.1, 0.5), (1.5, -0.3)):
            J = poincare_jacobian(pt, p)
            assert abs(np.linalg.det(J) - 1.0) < 1e-8

    def test_mu0_separatrix_invariance(self):
        # unperturbed zero-energy relation is preserved by the return map
        p = Params(0.0, 2.0)
        v = 0.9
        r, y = homoclinic_r(v), homoclinic_y(v)
        rn, yn = poincare_map((r, y), p)
        resid = yn**2 / 2 + 1.0 / (2 * rn**2) - 1.0 / rn
        assert abs(resid) < 1e-10

    def test_mu0_angular_momentum_frozen(self):
        p = Params(0.0, 2.0)
        # lifting a separatrix point recovers the separatrix momentum G = 1
        v = 0.8
        zs = lift_to_shell(homoclinic_r(v), homoclinic_y(v), p)
        assert zs[3] == pytest.approx(1.0, abs=1e-13)
        # and the return map freezes whatever G the lift produced
        z = lift_to_shell(1.2, 0.4, p)
        rn, yn = poincare_map((1.2, 0.4), p)
        zn = lift_to_shell(rn, yn, p)
        assert zn[3] == pytest.approx(z[3], abs=1e-12)

    def test_reversibility_conjugation(self):
        # P(r, -y) composed with P(r, y) returns the reflected point:
        # R P R = P^{-1} on the section {phi = 0}
        p = Params(0.3, 2.4)
        pt = (1.25, 0.45)
        fwd = poincare_map(pt, p)
        back = poincare_map((fwd[0], -fwd[1]), p)
        assert back[0] == pytest.approx(pt[0], abs=1e-10)
        assert back[1] == pytest.approx(-pt[1], abs=1e-10)

    def test_collision_raises_section_timeout(self):
        # (0.1, 0) lifts to the shell inside the collision cutoff, 0.243 at
        # (0.3, 2.4): the return is refused with the lifted state
        p = Params(0.3, 2.4)
        assert 0.1 < collision_radius(p)
        with pytest.raises(SectionTimeoutError, match="collision") as exc:
            poincare_map((0.1, 0.0), p)
        assert isinstance(exc.value.__cause__, CollisionError)
        z = exc.value.last_state
        np.testing.assert_array_equal(z, lift_to_shell(0.1, 0.0, p))
        assert tuple(z[:3]) == (0.1, 0.0, 0.0)
        assert z[3] == pytest.approx(-0.11053, abs=1e-5)


class TestInvariantCurves:
    def test_mu0_coincides_with_separatrix(self, mu0_curves):
        p, curves = mu0_curves
        for c in (curves.unstable, curves.stable):
            dev = np.max(np.abs(c.Y - homoclinic_y(c.v)))
            assert dev < 100 * curves.tol * 10
            assert np.all(np.diff(c.v) > 0)
            assert np.all(c.Y > 0)

    def test_argument_validation(self, monkeypatch):
        # n_samples = -5 ran a 16-phase fan and returned 49 samples
        def never(*args, **kwargs):
            raise AssertionError("computed before the arguments were checked")

        monkeypatch.setattr(manifolds, "_fan_samples", never)
        p = Params(0.3, 2.4)
        for n_samples in (0, -5):
            with pytest.raises(ValueError):
                compute_invariant_curve(p, n_samples=n_samples)
        # steps = 0 returned an empty tangency curve
        with pytest.raises(ValueError, match="steps"):
            continuation_tangency_curve((2.7, 3.0), 0)

    def test_interpolant_error_scale(self, mu0_curves):
        # residual-based interpolation keeps the baseline exact at mu = 0
        p, curves = mu0_curves
        cu = curves.unstable
        f = cu.interpolant()
        vg = np.linspace(cu.v[0], cu.v[-1], 700)
        assert np.max(np.abs(f(vg) - homoclinic_y(vg))) < 1e-10

    def test_stable_samples_are_reflected_crossings(self, solve_ivp_flow):
        # Oracle for the stable branch, sample by sample: the R-image of each
        # fan seed, integrated backward to its perihelion by solve_ivp,
        # crosses the section on the outgoing leg exactly where the fan's
        # reflected inbound crossings say.
        p = Params(0.3, 2.4)
        tol, n, (v_lo, v_hi) = 1e-12, 3, V_WINDOW
        _, stable, _ = _fan_samples(p, tol, n)

        def perihelion(s, z):
            return z[2]
        perihelion.terminal = True

        ref = []
        for seed in _fan_seeds(p, n).T:
            z0 = involution_R(seed)
            sol = solve_ivp_flow(z0, -2.0 * v_of_r(R_MIN), tol, p,
                                 events=[section_event(), perihelion])
            assert len(sol.t_events[1]) == 1
            for z in sol.y_events[0]:
                zr = refine_to_section(z, p)
                if homoclinic_r(v_lo) < zr[0] < homoclinic_r(v_hi):
                    ref.append((float(v_of_r(zr[0])), float(zr[2])))
        got = sorted(s for s in stable if v_lo < s[0] < v_hi)
        ref.sort()
        assert len(ref) >= 5
        assert len(got) == len(ref)
        assert np.max(np.abs(np.subtract(got, ref))) < 1e-11

    def test_fan_matches_per_orbit_flow(self):
        # solve_ivp reference: each fan orbit integrated on its own with the
        # fan's section event but without its near-window gate, its
        # crossings refined and filtered as the fan does
        p = Params(0.3, 2.4)
        tol, n, (v_lo, v_hi) = 1e-12, 4, V_WINDOW
        unstable, stable, _ = _fan_samples(p, tol, n)
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
        for z0 in _fan_seeds(p, n).T:
            sol = flow(z0, 1.35 * (v_of_r(R_MIN) + v_hi + 5.0), tol, p,
                       events=[section_event(), exit_event, turn_event])
            for z in sol.y_events[0]:
                if abs(z[2]) > 1e-6 and r_lo <= z[0] <= r_hi:
                    zr = refine_to_section(z, p)
                    v, y = float(v_of_r(zr[0])), float(zr[2])
                    (ref_u if y > 0.0 else ref_s).append((v, abs(y)))
        for got, ref in ((unstable, ref_u), (stable, ref_s)):
            assert len(ref) >= 10
            assert len(got) == len(ref)
            assert np.max(np.abs(np.subtract(sorted(got), sorted(ref)))) < 10 * tol

    def test_fan_is_deterministic(self):
        args = (Params(0.3, 2.8), 1e-12, 3)
        a = _fan_samples(*args)
        b = _fan_samples(*args)
        assert a == b
        work = a[2]
        assert work["rhs_evals"] >= 12 * work["accepted_steps"] > 0

    def test_fan_work_in_meta(self, mu0_curves):
        meta = mu0_curves[1].meta
        assert {"lockstep_iterations", "accepted_steps", "rejected_steps",
                "rhs_evals", "located_steps", "dense_passes"} <= set(meta)
        assert meta["accepted_steps"] >= meta["lockstep_iterations"] > 0
        # a fan with no collision locates all its crossings in one batched
        # dense-output pass after its step loop
        assert meta["accepted_steps"] > meta["located_steps"] > 0
        assert meta["dense_passes"] == 1

    def test_one_fan_per_call(self, monkeypatch):
        # both curves come from one fan, and each call runs its own: no
        # state is kept between calls
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return lockstep_flow(*args, **kwargs)
        monkeypatch.setattr(manifolds, "lockstep_flow", counted)
        p = Params(0.3, 2.8)
        a = compute_invariant_curve(p, n_samples=25)
        assert len(calls) == 1
        b = compute_invariant_curve(p, n_samples=25)
        assert len(calls) == 2
        assert (a.params, a.tol, a.meta) == (b.params, b.tol, b.meta)
        for ca, cb in ((a.unstable, b.unstable), (a.stable, b.stable)):
            assert np.array_equal(ca.v, cb.v) and np.array_equal(ca.Y, cb.Y)
            assert ca.fold_intervals == cb.fold_intervals
        calls.clear()
        splitting_report(p, n_samples=25)
        assert len(calls) == 1

    def test_default_fan_work_and_graph_meta(self):
        # a deterministic count: the far seed at r0 = 50 took 2083 lockstep
        # iterations here, the graph seed at r0 = 8 took 366, at r0 = 5 253,
        # and at R_MIN = 3 it takes 185
        c = compute_invariant_curve(Params(0.3, 2.4))
        assert c.meta["lockstep_iterations"] <= 220
        assert c.meta["graph_update"] <= np.finfo(float).eps
        assert c.meta["graph_residual"] < 1e-15

    def test_samples_do_not_depend_on_seed_radius(self, monkeypatch):
        # the lanes sit on a grid of the profile phase, so seeds at r0 = 8,
        # at 5 and at 3 sample the curves at the same v; on a grid of the
        # seed angle the reports differed by 2.2e-5 in max|D|.  The fan is
        # seeded at the graph's floor, so the graph is solved down to each r0
        p = Params(0.3, 2.4)
        reports = []
        for r0 in (8.0, 5.0, R_MIN):
            monkeypatch.setattr(manifolds, "R_MIN", r0)
            _manifold_graph.cache_clear()
            reports.append(splitting_report(p))
        _manifold_graph.cache_clear()
        a = reports[0]
        assert len(a.roots) > 0
        assert len(a.lobe_areas) > 0
        for b in reports[1:]:
            assert [r.kind for r in a.roots] == [r.kind for r in b.roots]
            assert b.max_distance == pytest.approx(a.max_distance, rel=1e-5)
            assert len(a.lobe_areas) == len(b.lobe_areas)
            for la, lb in zip(a.lobe_areas, b.lobe_areas):
                assert lb == pytest.approx(la, rel=1e-5)

    @pytest.mark.parametrize("g0", [2.4, 2.0])
    def test_section_gate_keeps_samples(self, monkeypatch, g0):
        # the fan locates crossings only in steps with an end below its exit
        # radius; without the gate it locates them in every step, and the
        # samples are the same, bit for bit
        p = Params(0.3, g0)
        n = compute_invariant_curve(p).meta["n_phases"]
        gated = _fan_samples(p, 1e-12, n)

        def ungated_flow(z0, s_end, tol, p, events):
            for ev in events:
                if hasattr(ev, "gate"):
                    del ev.gate
            return lockstep_flow(z0, s_end, tol, p, events=events)
        monkeypatch.setattr(manifolds, "lockstep_flow", ungated_flow)
        ungated = _fan_samples(p, 1e-12, n)
        assert gated[:2] == ungated[:2]
        assert len(gated[0]) > 0 and len(gated[1]) > 0
        assert gated[2]["located_steps"] < ungated[2]["located_steps"]

    def test_fan_is_phase_ordered_without_folds(self):
        # at (0.3, 2.4) the curves are graphs over v: in the fan's phase order
        # v already increases, so no sample is dropped
        p = Params(0.3, 2.4)
        curves = compute_invariant_curve(p)
        samples = _fan_samples(p, 1e-12, curves.meta["n_phases"])
        for c, branch in zip((curves.unstable, curves.stable), samples):
            v = [s[0] for s in branch]
            assert np.all(np.diff(v) > 0)
            assert c.fold_intervals == []
            assert len(c.v) == len(v)

    def test_mu_continuity(self):
        # tiny mass ratio deforms the curve at the O(mu/g0^4) scale
        p = Params(1e-6, 2.4)
        c = compute_invariant_curve(p, tol=1e-12, n_samples=25).unstable
        dev = np.max(np.abs(c.Y - homoclinic_y(c.v)))
        assert dev < 10.0 * p.mu / p.g0**4
        assert dev > 0.1 * p.mu / p.g0**4


def _matched_Y(p, r0, v_target=1.0):
    """Y of the unstable curve on phi = 0 at v_target, from orbits seeded at
    r0: the launch phase is tuned by secant until a crossing lands near
    v_target, and the last two crossings are interpolated linearly to it."""
    def exit_event(s, z):
        return z[0] - 2.6
    exit_event.terminal = True
    exit_event.direction = 1.0

    def crossing(phase):
        z0 = initial_manifold_state(r0, phase, p)
        sol = flow(z0, 1.35 * (v_of_r(r0) + 7.0), 1e-13, p,
                   events=[section_event(), exit_event])
        best = None
        for z in sol.y_events[0]:
            if z[2] > 1e-6 and z[0] >= 0.5:
                zr = refine_to_section(z, p)
                v = float(v_of_r(zr[0]))
                if best is None or abs(v - v_target) < abs(best[0] - v_target):
                    best = (v, float(zr[2]))
        return best

    a, b = crossing(0.0), crossing(0.3)
    pa, pb = 0.0, 0.3
    for _ in range(30):
        if abs(b[0] - v_target) < 1e-9:
            break
        pc = pb - (b[0] - v_target) * (pb - pa) / (b[0] - a[0])
        pa, a, pb, b = pb, b, pc, crossing(pc)
    return b[1] + (a[1] - b[1]) * (v_target - b[0]) / (a[0] - b[0])


@pytest.mark.slow
class TestSeedingRobustness:
    def test_default_r0_doubling_matched_point(self):
        # the graph seed at R_MIN against seeds at 2 R_MIN, at a matched
        # point of the curve (no interpolation of fan samples)
        p = Params(0.3, 2.4)
        dy = abs(_matched_Y(p, R_MIN) - _matched_Y(p, 2.0 * R_MIN))
        assert dy < 1e-12

    def test_r0_doubling_matched_point(self):
        # the same matched point for seeds at r0 = 50 and 100 on the graph:
        # they agree to the integrator noise of the long fall, about 3e-13;
        # the bound was set for the zeroth-order parabolic seed, whose error
        # at r0 = 50 was about 1e-8
        p = Params(0.3, 2.4)
        dy = abs(_matched_Y(p, 50.0) - _matched_Y(p, 100.0))
        assert dy < 5e-8


class TestFolds:
    def test_mask_s_shaped_sequence(self):
        # the curve runs up to 3, folds back to 1.5 and goes on from 2.2
        v = np.array([1.0, 2.0, 3.0, 2.5, 1.5, 2.2, 4.0, 5.0])
        Y = np.arange(8.0)
        kept_v, kept_Y, intervals = _mask_folds(v, Y)
        assert kept_v.tolist() == [1.0, 4.0, 5.0]
        assert kept_Y.tolist() == [0.0, 6.0, 7.0]
        assert intervals == [(1.5, 3.0)]

    def test_mask_keeps_monotone_sequence(self):
        v = np.linspace(0.4, 1.6, 9)
        Y = np.sin(v)
        kept_v, kept_Y, intervals = _mask_folds(v, Y)
        assert np.array_equal(kept_v, v) and np.array_equal(kept_Y, Y)
        assert intervals == []

    def test_mask_drops_duplicated_v(self):
        # two samples at one v are no graph: both go, as a fold of width 0
        kept_v, kept_Y, intervals = _mask_folds(np.array([1.0, 2.0, 2.0, 3.0]),
                                                np.arange(4.0))
        assert kept_v.tolist() == [1.0, 3.0]
        assert kept_Y.tolist() == [0.0, 3.0]
        assert intervals == [(2.0, 2.0)]

    def test_kept_samples_increase_through_folds(self):
        # at (0.3, 2.0) the unstable curve folds back over v
        p = Params(0.3, 2.0)
        curves = compute_invariant_curve(p)
        c = curves.unstable
        assert c.fold_intervals
        assert np.all(np.diff(c.v) > 0)
        # the kept samples are a subsequence of the fan's phase order
        unstable, _, _ = _fan_samples(p, 1e-12, curves.meta["n_phases"])
        kept = list(zip(c.v.tolist(), c.Y.tolist()))
        assert [s for s in unstable if s in set(kept)] == kept
        for a, b in c.fold_intervals:
            assert a <= b
            assert not np.any((c.v >= a) & (c.v <= b))

    def test_max_distance_converges_in_n_samples(self):
        # sheets of a fold left interleaved give a max|D| that moves with the
        # fan's sample positions (0.3081 at 60 samples, 0.2457 at 200)
        p = Params(0.3, 2.0)
        d60, d200 = (splitting_report(p, n_samples=n).max_distance
                     for n in (60, 200))
        assert abs(d60 - d200) <= 0.1 * d200
