import numpy as np
import pytest

from rpc3bp import integrate, orbits
from rpc3bp.core import Params, hamiltonian_rotating
from rpc3bp.melnikov import predicted_distance
from rpc3bp.orbits import R_IN, R_OUT, oscillation_demo
from rpc3bp.separatrix import homoclinic_r, homoclinic_y, v_of_r


def tangle_seed(p, frac):
    """Seed at a first-order homoclinic root, offset radially in y."""
    vg = np.linspace(0.5, 1.5, 2000)
    pred = np.array([predicted_distance(v, p) for v in vg])
    roots = vg[np.flatnonzero(np.diff(np.sign(pred)) != 0)]
    vk = float(roots[len(roots) // 2])
    amp = float(np.max(np.abs(pred)))
    return (float(homoclinic_r(vk)), float(homoclinic_y(vk) + frac * amp))


class TestUnperturbed:
    def test_separatrix_seed_escapes_parabolically(self):
        p = Params(0.0, 2.2)
        log = oscillation_demo(p, (homoclinic_r(1.0), homoclinic_y(1.0)), 50,
                               tol=1e-11)
        assert log.escaped
        assert log.escape_kind == "parabolic_or_escape"
        assert log.n_excursions == 0


class TestPerturbed:
    def test_excursions_with_returns(self):
        p = Params(0.3, 2.2)
        log = oscillation_demo(p, tangle_seed(p, -0.5), 80, tol=1e-11)
        good = [e for e in log.excursions if e[0] > R_OUT and e[1] < R_IN]
        assert len(good) >= 2
        assert log.energy_residual < 1e-8

    def test_shell_maintained_per_return(self):
        # the seed lifts exactly onto H = -g0^3; every logged return must
        # still sit on that shell
        p = Params(0.3, 2.2)
        log = oscillation_demo(p, tangle_seed(p, -0.5), 30, tol=1e-11)
        assert log.returns
        for rec in log.returns:
            h = hamiltonian_rotating([rec.r, 0.0, rec.y, rec.G], p)
            assert abs(h + p.g0**3) < 1e-8 * (1.0 + p.g0**3)

    def test_determinism(self):
        p = Params(0.3, 2.2)
        seed = tangle_seed(p, -0.5)
        a = oscillation_demo(p, seed, 25, tol=1e-11)
        b = oscillation_demo(p, seed, 25, tol=1e-11)
        assert [(r.s, r.r, r.y, r.G) for r in a.returns] == \
               [(r.s, r.r, r.y, r.G) for r in b.returns]
        assert a.excursions == b.excursions

    def test_hyperbolic_escape_classified(self):
        p = Params(0.3, 2.2)
        log = oscillation_demo(p, (1.0, 1.35), 50, tol=1e-11)
        assert log.escaped
        assert log.escape_kind == "hyperbolic"

    def test_seed_ladder_max_radius_ordering(self):
        # seeds closer to the separatrix fly farther before turning around
        p = Params(0.3, 2.2)
        maxima = []
        for frac in (-0.8, -1.6, -3.2):
            log = oscillation_demo(p, tangle_seed(p, frac), 40, tol=1e-11)
            peak = max((r.max_r_since_last for r in log.returns), default=0.0)
            if log.escaped:
                peak = max(peak, 10.0 * R_OUT)
            maxima.append(peak)
        assert maxima[0] > maxima[1] > maxima[2]

    def test_no_return_logged_beyond_r_out(self):
        # this orbit crosses R_OUT within 0.05 synodic periods of a return;
        # it must then fly its excursion instead of logging section returns
        # out there
        p = Params(0.3, 2.2)
        seed = (1.0, float(homoclinic_y(v_of_r(1.0))) - 0.05)
        log = oscillation_demo(p, seed, 200, tol=1e-11)
        assert log.returns
        assert max(rec.r for rec in log.returns) <= R_OUT
        assert log.n_excursions >= 1 or log.escaped

    def test_input_validation(self):
        p = Params(0.3, 2.2)
        with pytest.raises(ValueError):
            oscillation_demo(p, (6.0, 0.5), 10, tol=1e-11)

    def test_iteration_count_checked_before_the_lift(self, monkeypatch):
        # n_iter below 1 returned a log with no returns
        def never(*args, **kwargs):
            raise AssertionError("seed lifted before n_iter was checked")

        monkeypatch.setattr(orbits, "lift_to_shell", never)
        for n_iter in (0, -3):
            with pytest.raises(ValueError, match="n_iter"):
                oscillation_demo(Params(0.3, 2.2), (1.3, 0.68), n_iter,
                                 tol=1e-11)


def test_log_matches_solve_ivp_flow(monkeypatch, solve_ivp_flow):
    # the demo reads flow's t, y, t_events and y_events, directly and through
    # integrate.first_return; run on scipy's solve_ivp instead it must log
    # the same returns, excursion and escape
    p = Params(0.3, 2.2)
    logs = []
    for frac, n_iter in ((-0.5, 20), (0.5, 10)):
        seed = tangle_seed(p, frac)
        log = oscillation_demo(p, seed, n_iter, tol=1e-11)
        with monkeypatch.context() as m:
            m.setattr(orbits, "flow", solve_ivp_flow)
            m.setattr(integrate, "flow", solve_ivp_flow)
            assert oscillation_demo(p, seed, n_iter, tol=1e-11) == log
        logs.append(log)
    assert logs[0].n_excursions == 1 and not logs[0].escaped
    assert logs[1].escape_kind == "hyperbolic"
