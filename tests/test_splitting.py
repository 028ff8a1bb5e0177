import math

import numpy as np
import pytest

from rpc3bp.core import Params, ResolutionError
from rpc3bp.melnikov import predicted_distance
from rpc3bp.separatrix import homoclinic_alpha_prime
from rpc3bp.splitting import (
    SplittingConfig,
    count_roots_in_period,
    distance_profile,
    find_homoclinic_points,
    lobe_area,
    phase_of_v,
    splitting_report,
    _lobe_integral,
)


@pytest.fixture(scope="module")
def report24():
    return splitting_report(Params(0.3, 2.4), 0.0, SplittingConfig())


@pytest.fixture(scope="module")
def report0():
    return splitting_report(Params(0.0, 2.4), 0.0, SplittingConfig(n_samples=25))


class TestProfile:
    def test_mu0_profile_is_noise(self, report0):
        assert report0.max_distance < 10 * report0.noise_floor
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

    def test_grid_resolution_guard(self, report24):
        # fewer than two grid points per half-period pi/g0^3
        prof = distance_profile(report24.profile.curve_s,
                                report24.profile.curve_u, n_grid=8)
        with pytest.raises(ResolutionError):
            find_homoclinic_points(prof)

    def test_mismatched_curves_rejected(self, report24, report0):
        with pytest.raises(ValueError):
            distance_profile(report24.profile.curve_s, report0.profile.curve_u)


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

    def test_roots_near_first_order_roots(self, report24):
        # leading-order roots from the prediction formula
        prof = report24.profile
        p = report24.params
        vg = np.linspace(prof.v[0], prof.v[-1], 4000)
        pred = np.array([predicted_distance(v, 0.0, p) for v in vg])
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
        cs, cu = report24.profile.curve_s, report24.profile.curve_u
        a = lobe_area(cs, cu, roots[1].v, roots[2].v, profile=report24.profile)
        assert a > 0
        with pytest.raises(ValueError):
            lobe_area(cs, cu, roots[0].v, roots[2].v, profile=report24.profile)
        with pytest.raises(ValueError):
            lobe_area(cs, cu, roots[2].v, roots[1].v, profile=report24.profile)

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


class TestPhase:
    def test_phase_function_monotone(self):
        p = Params(0.3, 2.4)
        v = np.linspace(0.4, 1.6, 200)
        x = phase_of_v(v, 0.0, p)
        assert np.all(np.diff(x) > 0)
