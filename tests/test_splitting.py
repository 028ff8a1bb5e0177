import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from rpc3bp import cli, splitting
from rpc3bp.core import Params
from rpc3bp.melnikov import predicted_distance, predicted_tangency_mu
from rpc3bp.separatrix import homoclinic_alpha_prime, homoclinic_y
from rpc3bp.splitting import (
    HomoclinicRoot,
    continuation_tangency_curve,
    count_roots_in_period,
    find_homoclinic_points,
    find_tangency,
    lobe_area,
    phase_of_v,
    splitting_report,
    _center_root,
    _lobe_integral,
)


@pytest.fixture(scope="module")
def report24():
    return splitting_report(Params(0.3, 2.4))


class TestProfile:
    @pytest.mark.parametrize("g0, n_samples", [(2.4, 25), (2.0, 60), (2.8, 60)])
    def test_mu0_profile_is_noise(self, g0, n_samples):
        # at mu = 0 the curves coincide, so the whole profile is integrator
        # and spline noise, which must stay under the assumed floor
        report0 = splitting_report(Params(0.0, g0), n_samples=n_samples)
        assert report0.max_distance < report0.noise_floor
        assert report0.roots == []
        assert report0.lobe_areas == []
        assert not report0.untrusted

    def test_envelope_matches_prediction_scale(self, report24):
        assert 0.5 < report24.distance_ratio < 2.0

    def test_oscillation_period(self, report24):
        # same-family roots are one full phase period 2pi/(g0^3 - alpha')
        # apart in v
        roots = report24.roots
        p = report24.params
        fam0 = [r.v for r in roots
                if min(r.phase % (2 * math.pi),
                       2 * math.pi - r.phase % (2 * math.pi)) < 0.5]
        assert len(fam0) >= 2
        for a, b in zip(fam0[:-1], fam0[1:]):
            vbar = 0.5 * (a + b)
            expected = 2 * math.pi / (p.g0**3 - homoclinic_alpha_prime(vbar))
            assert (b - a) == pytest.approx(expected, rel=0.05)

    def test_roots_computed_once(self, report24):
        prof = report24.profile
        assert prof.roots is prof.roots
        assert list(prof.roots) == report24.roots == find_homoclinic_points(prof)


class TestRoots:
    def test_four_roots_per_period(self, report24):
        # at (0.3, 2.4) the second harmonic dominates: two extra roots
        # beyond the pair at phase {0, pi}
        assert count_roots_in_period(report24.profile) == 4

    def test_sign_alternation(self, report24):
        prof = report24.profile
        roots = report24.roots
        mids = []
        for a, b in zip(roots[:-1], roots[1:]):
            vm = 0.5 * (a.v + b.v)
            mids.append(prof.distance(vm))
        assert all(x * y < 0 for x, y in zip(mids[:-1], mids[1:]))

    def test_all_transversal_away_from_tangency(self, report24):
        assert all(r.kind == "transversal" for r in report24.roots)

    def test_root_slope_matches_spline_derivative(self, report24):
        # the curves' splines fit Y - y_h; y_h cancels in D = Y_s - Y_u, so
        # D' is the difference of the residual splines' exact derivatives
        prof = report24.profile
        cs_s, cs_u = (CubicSpline(c.v, c.Y - homoclinic_y(c.v))
                      for c in (prof.curves.stable, prof.curves.unstable))
        for r in report24.roots:
            exact = float(cs_s(r.v, 1) - cs_u(r.v, 1))
            assert r.D_prime == pytest.approx(exact, rel=1e-5)

    def test_roots_near_first_order_roots(self, report24):
        # leading-order roots from the prediction formula
        prof = report24.profile
        p = report24.params
        vg = np.linspace(prof.v[0], prof.v[-1], 4000)
        pred = np.array([predicted_distance(v, p) for v in vg])
        idx = np.flatnonzero(np.diff(np.sign(pred)) != 0)
        first_order = vg[idx]
        measured = np.array([r.v for r in report24.roots])
        inner = measured[(measured > vg[40]) & (measured < vg[-40])]
        dist = np.min(np.abs(inner[:, None] - first_order[None, :]), axis=1)
        assert np.max(dist) < 10.0 * p.g0 ** -3.5

    def test_phase_families(self, report24):
        # roots fall near phase multiples of pi or at the symmetric extra
        # pair around phase 0
        for r in report24.roots:
            xm = r.phase % (2 * math.pi)
            d0 = min(xm, 2 * math.pi - xm)
            dpi = abs(xm - math.pi)
            assert min(d0, dpi) < 1.45


class TestLobes:
    def test_positive_and_validated(self, report24):
        roots = report24.roots
        prof = report24.profile
        a = lobe_area(prof, roots[1].v, roots[2].v)
        assert a > 0
        assert a == report24.lobe_areas[1]
        with pytest.raises(ValueError):
            lobe_area(prof, roots[0].v, roots[2].v)
        with pytest.raises(ValueError):
            lobe_area(prof, roots[2].v, roots[1].v)

    def test_signed_sum_over_period_cancels(self, report24):
        # the signed lobe integrals over one full phase period nearly cancel
        prof = report24.profile
        roots = report24.roots
        fam0 = [i for i, r in enumerate(roots)
                if min(r.phase % (2 * math.pi),
                       2 * math.pi - r.phase % (2 * math.pi)) < 0.5]
        i0 = fam0[0]
        i1 = fam0[1]
        signed = [_lobe_integral(prof, roots[i].v, roots[i + 1].v)
                  for i in range(i0, i1)]
        assert abs(sum(signed)) < 0.1 * max(abs(s) for s in signed)

    def test_report_consistency(self, report24):
        assert len(report24.lobe_areas) == len(report24.roots) - 1
        assert len(report24.area_ratios) == len(report24.lobe_areas)
        assert report24.predicted_area > 0
        assert report24.noise_floor > 0

    def test_alternating_lobes_match_in_pattern(self, report24):
        # 4-root regime: lobes alternate big/small/small/big consistently
        lob = report24.lobe_areas
        big = max(lob)
        pattern = [a / big for a in lob]
        for i in range(len(pattern) - 4):
            assert pattern[i] == pytest.approx(pattern[i + 4], rel=0.05)


class TestCenterRoot:
    @staticmethod
    def profile(*roots):
        # _center_root reads only the roots and the v-window [0, 2]
        return SimpleNamespace(
            roots=tuple(HomoclinicRoot(v=v, phase=x, D_prime=d,
                                       kind="transversal")
                        for v, x, d in roots),
            v=np.array([0.0, 2.0]))

    def test_near_tie_goes_to_mid_window(self):
        # both roots sit within 1e-6 of the best phase distance to 0 mod 2pi:
        # the one nearest mid-window wins, not the one nearest in phase
        prof = self.profile((0.2, 8 * math.pi + 3e-7, 1.0),
                            (0.9, 6 * math.pi - 5e-7, -2.0))
        assert _center_root(prof).v == 0.9
        # a root 1e-3 nearer in phase is no tie
        prof = self.profile((0.2, 8 * math.pi, 1.0),
                            (0.9, 6 * math.pi - 1e-3, -2.0))
        assert _center_root(prof).v == 0.2

    def test_families_and_missing_root(self):
        prof = self.profile((0.5, 4 * math.pi + 0.1, 1.0),
                            (1.5, 5 * math.pi - 0.2, -1.0))
        assert _center_root(prof).v == 0.5
        far = self.profile((1.0, 5 * math.pi, 1.0))
        assert _center_root(far) is None
        assert _center_root(self.profile()) is None


def _stub_profiles(monkeypatch, profile):
    """Have the tangency solve read profile(p) in place of the distance
    profile of the fan at p, and run no fan."""
    monkeypatch.setattr(splitting, "compute_invariant_curve",
                        lambda p, tol, n_samples: SimpleNamespace(params=p))
    monkeypatch.setattr(splitting, "distance_profile",
                        lambda curves: profile(curves.params))


def _tangency_profile_stub(margin_factor):
    """A stand-in for the fan's profile: its phase-0 root's D' changes sign
    at the predicted mu*, and its noise floor is margin_factor times the
    floor at which the predicted splitting meets UNTRUSTED_MARGIN."""
    def profile(p):
        v = np.linspace(0.4, 1.6, 801)
        amp = np.max(np.abs(predicted_distance(v, p)))
        d_prime = p.mu - predicted_tangency_mu(p.g0)
        return SimpleNamespace(
            params=p, v=v,
            noise_floor=margin_factor * amp / splitting.UNTRUSTED_MARGIN,
            roots=(HomoclinicRoot(v=1.0, phase=0.0, D_prime=d_prime,
                                  kind="transversal"),),
            distance=lambda v: 0.0, derivatives=lambda v: (d_prime, 0.0))
    return profile


def test_tangency_below_the_trust_margin_is_untrusted(monkeypatch, tmp_path,
                                                      capsys):
    # the tangency rung is flagged by the splitting report's rule, read off
    # the mu* profile: the CLI writes the row, names the rung and exits 4
    _stub_profiles(monkeypatch, _tangency_profile_stub(1.01))
    pt = find_tangency(2.9, (0.38, 0.49))
    assert pt.untrusted
    assert pt.mu_star == pytest.approx(predicted_tangency_mu(2.9), abs=1e-5)
    assert cli.main(["tangency", "--g0-min", "2.9", "--g0-max", "2.9",
                     "--steps", "1", "--out", str(tmp_path)]) \
        == cli.EXIT_UNTRUSTED
    assert "untrusted at g0 = 2.9" in capsys.readouterr().out
    lines = (tmp_path / "tangency.csv").read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")]
    assert rows[0] == "g0,mu_star,mu_predicted,ratio" and len(rows) == 2


def test_tangency_above_the_trust_margin_is_trusted(monkeypatch, tmp_path,
                                                    capsys):
    _stub_profiles(monkeypatch, _tangency_profile_stub(0.99))
    assert not find_tangency(2.9, (0.38, 0.49)).untrusted
    assert cli.main(["tangency", "--g0-min", "2.9", "--g0-max", "2.9",
                     "--steps", "1", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert "untrusted" not in capsys.readouterr().out
    assert (tmp_path / "tangency.csv").exists()


def test_tangency_ignores_a_flipping_pi_root(monkeypatch, tmp_path, capsys):
    # Only the phase-0 root can degenerate: f'(pi) = -(1 - 2 mu) - 2b never
    # vanishes.  A stubbed pi root whose D' flips at the predicted mu* once
    # drove the solve, while the phase-0 root's D' keeps its sign.
    def profile(p):
        roots = (HomoclinicRoot(v=1.0, phase=0.0, D_prime=1e-3,
                                kind="transversal"),
                 HomoclinicRoot(v=1.3, phase=math.pi,
                                D_prime=p.mu - predicted_tangency_mu(p.g0),
                                kind="transversal"))
        return SimpleNamespace(roots=roots, v=np.array([0.4, 1.6]))

    _stub_profiles(monkeypatch, profile)
    with pytest.raises(RuntimeError, match="keeps its sign"):
        find_tangency(2.9, (0.38, 0.49))
    assert cli.main(["tangency", "--g0-min", "2.9", "--g0-max", "2.9",
                     "--steps", "1", "--out", str(tmp_path)]) == cli.EXIT_NUMERICAL
    assert "numerical error: D' of the phase-0 root" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_tangency_without_a_phase_0_root(monkeypatch, tmp_path, capsys):
    # a profile whose only root sits at phase pi has no root for the solve
    # to follow
    def profile(p):
        roots = (HomoclinicRoot(v=1.3, phase=math.pi, D_prime=-1e-3,
                                kind="transversal"),)
        return SimpleNamespace(roots=roots, v=np.array([0.4, 1.6]))

    _stub_profiles(monkeypatch, profile)
    with pytest.raises(RuntimeError, match="phase-0 root lost"):
        find_tangency(2.9, (0.38, 0.49))
    assert cli.main(["tangency", "--g0-min", "2.9", "--g0-max", "2.9",
                     "--steps", "1", "--out", str(tmp_path)]) == cli.EXIT_NUMERICAL
    assert "numerical error: phase-0 root lost" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_tangency_range_below_the_floor_is_refused_before_any_rung(
        monkeypatch, tmp_path, capsys):
    # --g0-min 2.9 --g0-max 2.0 --steps 2 solved the 2.9 rung (3 s) before
    # the 2.0 rung exited 2: both ends are checked before any profile
    def never(*args):
        raise AssertionError("a rung was solved before the range was checked")

    monkeypatch.setattr(splitting, "compute_invariant_curve", never)
    for g0_range in ((2.9, 2.0), (2.0, 2.9), (2.9, 2.59)):
        with pytest.raises(ValueError, match="floor g0 >= 2.6"):
            continuation_tangency_curve(g0_range, 2)
        assert cli.main(["tangency", "--g0-min", str(g0_range[0]),
                         "--g0-max", str(g0_range[1]), "--steps", "2",
                         "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert "floor g0 >= 2.6" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_one_step_over_two_ends_is_refused_before_any_rung(
        monkeypatch, tmp_path, capsys):
    # --g0-min 2.9 --g0-max 3.0 --steps 1 solved the 2.9 rung alone, wrote
    # one row and exited 0: one step has no room for the other end
    def never(*args):
        raise AssertionError("a rung was solved before the range was checked")

    monkeypatch.setattr(splitting, "compute_invariant_curve", never)
    for g0_range in ((2.9, 3.0), (3.0, 2.9)):
        with pytest.raises(ValueError, match=r"2\.9 and 3\.0|3\.0 and 2\.9"):
            continuation_tangency_curve(g0_range, 1)
        assert cli.main(["tangency", "--g0-min", str(g0_range[0]),
                         "--g0-max", str(g0_range[1]), "--steps", "1",
                         "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "validation error" in err and "2.9" in err and "3.0" in err
    assert list(tmp_path.iterdir()) == []


class TestPhase:
    def test_phase_function_monotone(self):
        p = Params(0.3, 2.4)
        v = np.linspace(0.4, 1.6, 200)
        x = phase_of_v(v, p)
        assert np.all(np.diff(x) > 0)
