"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  The heavy fixtures (splitting ladder, tangency
continuation) are shared across criteria.

Two trend sub-clauses (criteria 7 and 8) compare measured/predicted ratios
across the g0 ladder {2.0, 2.4, 2.8} at mu = 0.3.  The factor-2 clauses hold
at every rung; the monotonicity sub-clauses are asserted as specified and
fail.  Against the closed form, with the folds at g0 = 2.0 read from the
fan's phase order, the distance ratios read 1.093, 1.088 and 1.361 and the
lobe ratios 1.001, 0.961 and 1.278.  The closed-form first and second
harmonics err in opposite directions: the contour L1 over the closed-form
L1 is 1.934, 1.596 and 1.426 at g0 = 2.0, 2.4 and 2.8, and the same ratio
for L2 is 0.886, 0.913 and 0.931.  Why the trend fails is open.  Scored
against the same first-order formulas with contour coefficients in place
of the closed forms, both sequences fall monotonically (ROADMAP's
re-anchor readings): the distance ratios read 1.188, 1.043 and 1.015 and
the lobe ratios 1.091, 1.055 and 1.028.

Criterion 10's signature asks for |D''| above 100 times its noise at the
tangency root, but the tangency is cubic and D'' vanishes there at leading
order (2 sin x - sin 2x ~ x^3 near x = 0).  The fixture reads |D''| = 7.72e-3,
6.04e-4 and 8.04e-5 at g0 = 2.7, 2.9 and 3.1 against a gate near 1.3e-4,
so the clause fails at 3.1; denser fans drive all three toward zero (see
ROADMAP.md).
"""

import math
import time

import numpy as np
import pytest

import mpmath as mp

from rpc3bp.core import Params
from rpc3bp.integrate import flow, poincare_jacobian
from rpc3bp.melnikov import (
    melnikov_coeff_asymptotic,
    melnikov_coeff_contour,
    melnikov_coeff_quadrature,
    predicted_distance,
    uhat_fourier_coeff,
)
from rpc3bp.orbits import oscillation_demo
from rpc3bp.separatrix import (
    homoclinic_alpha_prime,
    homoclinic_r,
    homoclinic_state,
    phase_of_v,
    tau_of_v,
    v_of_tau,
)
from rpc3bp.splitting import count_roots_in_period, splitting_report

MU_LADDER = 0.3
G0_LADDER = (2.0, 2.4, 2.8)


def report_line(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def ladder():
    out = {}
    for g0 in G0_LADDER:
        out[g0] = splitting_report(Params(MU_LADDER, g0), n_samples=70)
    return out


@pytest.fixture(scope="module")
def tangency_points():
    from rpc3bp.splitting import continuation_tangency_curve
    cfg = dict(tol=1e-13, n_samples=50)
    pts = continuation_tangency_curve((2.7, 3.1), 3, **cfg)
    return pts, cfg


def test_criterion_01_separatrix_exactness():
    t0 = time.time()
    mags = np.concatenate([np.linspace(0, 10, 3000),
                           np.logspace(1, 3, 2001)])
    v = np.concatenate([-mags[:0:-1], mags])
    tau = np.asarray(tau_of_v(v))
    cubic = np.abs(v_of_tau(tau) - v) / np.maximum(1.0, np.abs(v))
    r = 0.5 * (tau * tau + 1.0)
    y = 2.0 * tau / (tau * tau + 1.0)
    energy = np.abs(y * y / 2.0 + 1.0 / (2.0 * r * r) - 1.0 / r)
    energy_rel = energy / np.maximum(1.0 / r, y * y / 2.0 + 1e-300)
    wall = time.time() - t0
    ok = (len(v) >= 10_000 and np.max(cubic) < 1e-13
          and np.max(energy_rel) < 1e-13 and wall < 1.0)
    assert report_line(1, ok,
                       f"{len(v)} samples, cubic {np.max(cubic):.1e}, "
                       f"energy {np.max(energy_rel):.1e}, {wall:.2f}s")


def test_criterion_02_chart_flow_consistency():
    t0 = time.time()
    p = Params(0.0, 2.0)
    tol = 1e-12
    h0, h1 = homoclinic_state(-2.0), homoclinic_state(2.0)
    phi_start = 0.25
    r, phi, y, G = flow([h0.r, phi_start, h0.y, 1.0], 4.0, tol, p).y[:, -1]
    err = max(abs(r - h1.r), abs(y - h1.y), abs(G - 1.0))
    phi_err = abs(phi - (phi_start + (h1.alpha - h0.alpha) - p.g0**3 * 4.0))
    wall = time.time() - t0
    ok = err < 1e-9 and phi_err < 1e-9 and wall < 1.0
    assert report_line(2, ok, f"state err {err:.1e}, phase err {phi_err:.1e}, "
                              f"{wall:.2f}s")


def test_criterion_03_fourier_coefficient_oracle():
    # oracle: periodic trapezoid in extended precision, so mode-8
    # cancellation does not limit the comparison
    t0 = time.time()
    n_theta = 256
    worst = 0.0
    with mp.workdps(30):
        theta = [mp.mpf(2) * mp.pi * k / n_theta for k in range(n_theta)]
        for mu in (0.1, 0.25, 0.5):
            for g0 in (2.0, 3.0, 4.0):
                p = Params(mu, g0)
                m1 = mp.mpf(mu) / g0**2
                m2 = (1 - mp.mpf(mu)) / g0**2
                for v in (0.5, 1.0, 2.0):
                    r = mp.mpf(homoclinic_r(v))
                    vals = []
                    for th in theta:
                        c = mp.cos(th)
                        d1 = mp.sqrt(r * r - 2 * m1 * r * c + m1 * m1)
                        d2 = mp.sqrt(r * r + 2 * m2 * r * c + m2 * m2)
                        vals.append((1 - mp.mpf(mu)) / d1 + mp.mpf(mu) / d2 - 1 / r)
                    for l in range(-8, 9):
                        oracle = sum(val * mp.e**(-1j * l * th)
                                     for val, th in zip(vals, theta)) / n_theta
                        oracle_re = float(mp.re(oracle))
                        series = uhat_fourier_coeff(l, v, p, jmax=12)
                        if series == 0.0 and abs(oracle_re) < 1e-25:
                            continue  # exact cancellation (odd l at mu = 1/2)
                        worst = max(worst, abs(series - oracle_re) / abs(oracle_re))
    wall = time.time() - t0
    ok = worst < 1e-10 and wall < 10.0
    assert report_line(3, ok, f"worst relative error {worst:.2e} over "
                              f"3x3x3 grid, |l|<=8, {wall:.1f}s")


def test_criterion_04_melnikov_cross_method():
    t0 = time.time()
    p = Params(0.3, 1.5)
    worst_rel, worst_im = 0.0, 0.0
    for l in (1, 2):
        q = melnikov_coeff_quadrature(l, p)
        c, _ = melnikov_coeff_contour(l, p, jmax=20)
        worst_rel = max(worst_rel, abs(q.value / c - 1.0))
        worst_im = max(worst_im, abs(q.imag_residue) / abs(q.value))
    wall = time.time() - t0
    ok = worst_rel < 1e-6 and worst_im < 1e-10 and wall < 30.0
    assert report_line(4, ok, f"cross-method rel {worst_rel:.2e}, "
                              f"imag residue {worst_im:.2e}, {wall:.1f}s")


def test_criterion_05_asymptotic_trend():
    t0 = time.time()
    devs = {1: [], 2: []}
    for g0 in (2.0, 3.0, 4.0):
        p = Params(0.25, g0)
        for l in (1, 2):
            ratio = melnikov_coeff_contour(l, p)[0] / melnikov_coeff_asymptotic(l, p)
            devs[l].append(abs(ratio - 1.0))
    wall = time.time() - t0
    ok = (devs[1][0] > devs[1][1] > devs[1][2] and devs[1][2] < 0.5
          and devs[2][0] > devs[2][1] > devs[2][2] and devs[2][2] < 0.6
          and wall < 60.0)
    assert report_line(5, ok,
                       f"|ratio-1| l=1: {[f'{d:.3f}' for d in devs[1]]}, "
                       f"l=2: {[f'{d:.3f}' for d in devs[2]]}, {wall:.1f}s")


def test_criterion_06_equal_mass_odd_suppression():
    t0 = time.time()
    p = Params(0.5, 2.0)
    l1, _ = melnikov_coeff_contour(1, p)
    l2, _ = melnikov_coeff_contour(2, p)
    wall = time.time() - t0
    ok = abs(l1) < 1e-3 * abs(l2) and wall < 10.0
    assert report_line(6, ok, f"|L1|={abs(l1):.1e} vs 1e-3|L2|={1e-3 * abs(l2):.1e}, "
                              f"{wall:.1f}s")


# the trend detail criteria 7 and 8 print when the clause fails
NON_MONOTONE = ("non-monotone (closed-form L1 and L2 err in opposite "
                "directions; cause open)")


def test_criterion_07_distance_vs_prediction(ladder):
    ratios = [ladder[g0].distance_ratio for g0 in G0_LADDER]
    factor2 = all(0.5 <= r <= 2.0 for r in ratios)
    devs = [abs(r - 1.0) for r in ratios]
    monotone = devs[0] >= devs[1] >= devs[2]
    detail = (f"measured/predicted max distance ratios "
              f"{[f'{r:.3f}' for r in ratios]}; factor-2 "
              f"{'ok' if factor2 else 'violated'}; |ratio-1| trend "
              f"{[f'{d:.3f}' for d in devs]} "
              f"{'monotone' if monotone else NON_MONOTONE}")
    assert report_line(7, factor2 and monotone, detail)


def test_criterion_08_lobe_area_vs_prediction(ladder):
    ratios = []
    for g0 in G0_LADDER:
        rep = ladder[g0]
        ratios.append(max(rep.lobe_areas) / rep.predicted_area)
    factor2 = all(0.5 <= r <= 2.0 for r in ratios)
    devs = [abs(r - 1.0) for r in ratios]
    monotone = devs[0] >= devs[1] >= devs[2]
    detail = (f"turnstile-lobe ratios {[f'{r:.3f}' for r in ratios]}; "
              f"factor-2 {'ok' if factor2 else 'violated'}; |ratio-1| trend "
              f"{[f'{d:.3f}' for d in devs]} "
              f"{'monotone' if monotone else NON_MONOTONE}")
    assert report_line(8, factor2 and monotone, detail)


def test_criterion_09_homoclinic_root_structure(ladder):
    # (a) count and spacing against the first-order phase roots at the
    # ladder rung that sits in the two-root (first-harmonic) regime, 2.8;
    # at (0.3, 2.4) the leading-order theory itself has four roots per
    # period, so the pi-spacing clause applies at 2.8 and the refined-root
    # proximity clause is checked at 2.4 as stated.
    rep28 = ladder[2.8]
    p28 = rep28.params
    roots = [r.v for r in rep28.roots]
    x_lo = phase_of_v(rep28.profile.v[0], p28)
    x_hi = phase_of_v(rep28.profile.v[-1], p28)
    expected_count = int(math.floor(x_hi / math.pi) - math.ceil(x_lo / math.pi)) + 1
    count_ok = abs(len(roots) - expected_count) <= 1
    spacing_ok = True
    spacings = []
    for a, b in zip(roots[:-1], roots[1:]):
        vbar = 0.5 * (a + b)
        predicted = math.pi / (p28.g0**3 - homoclinic_alpha_prime(vbar))
        spacings.append((b - a) / predicted)
        if abs((b - a) / predicted - 1.0) > 0.2:
            spacing_ok = False

    rep24 = ladder[2.4]
    p24 = rep24.params
    prof = rep24.profile
    vg = np.linspace(prof.v[0], prof.v[-1], 6000)
    pred = np.array([predicted_distance(float(v), p24) for v in vg])
    idx = np.flatnonzero(np.diff(np.sign(pred)) != 0)
    first_order = vg[idx]
    interior = [r.v for r in rep24.roots
                if vg[60] < r.v < vg[-60]]
    fo_interior = first_order[(first_order > vg[60]) & (first_order < vg[-60])]
    count24_ok = abs(len(interior) - len(fo_interior)) <= 1
    pair_dist = [float(np.min(np.abs(fo_interior - v))) for v in interior]
    bound = 10.0 * p24.g0 ** (-3.5)
    proximity_ok = max(pair_dist) < bound

    ok = count_ok and spacing_ok and count24_ok and proximity_ok
    detail = (f"g0=2.8: {len(roots)} roots vs {expected_count} predicted, "
              f"spacing/pred in [{min(spacings):.3f},{max(spacings):.3f}]; "
              f"g0=2.4: {len(interior)} refined vs {len(fo_interior)} "
              f"first-order roots, max pairing {max(pair_dist):.3f} < {bound:.3f}")
    assert report_line(9, ok, detail)


def test_criterion_10_tangency_curve(tangency_points):
    t0 = time.time()
    pts, cfg = tangency_points
    dev_ratios = []
    transitions = []
    signatures = []
    for pt in pts:
        pred_dev = 0.5 - pt.mu_predicted
        dev_ratios.append((0.5 - pt.mu_star) / pred_dev)
        below = splitting_report(
            Params(pt.mu_star - 0.35 * (0.5 - pt.mu_star), pt.g0), **cfg)
        above = splitting_report(
            Params(min(pt.mu_star + 0.35 * (0.5 - pt.mu_star), 0.4999), pt.g0),
            **cfg)
        transitions.append((count_roots_in_period(below.profile),
                            count_roots_in_period(above.profile)))
        prof_floor = below.noise_floor
        trans_dp = np.median([abs(r.D_prime) for r in below.roots])
        h = below.profile.h
        dp_noise = 1.5 * prof_floor / h
        dpp_noise = 2.8 * prof_floor / h**2
        signatures.append(
            abs(pt.residual_D) < 100.0 * prof_floor
            and abs(pt.residual_D_prime) < max(10.0 * dp_noise, 0.1 * trans_dp)
            and abs(pt.residual_D_second) > 100.0 * dpp_noise)
    band_ok = all(0.4 <= r <= 2.5 for r in dev_ratios)
    devs = [abs(r - 1.0) for r in dev_ratios]
    trend_ok = devs[0] >= devs[1] >= devs[2]
    trans_ok = all(t == (2, 4) for t in transitions)
    sig_ok = all(signatures)
    wall = time.time() - t0
    ok = band_ok and trend_ok and trans_ok and sig_ok
    detail = (f"(1/2-mu*)/(16sqrt2 g0^2 e^-g0^3/3): "
              f"{[f'{r:.3f}' for r in dev_ratios]}, transitions {transitions}, "
              f"signature {'ok' if sig_ok else 'weak'}, {wall / 60:.1f} min")
    assert report_line(10, ok, detail)


def test_criterion_11_symplecticity():
    t0 = time.time()
    p = Params(0.3, 2.4)
    worst = 0.0
    pts = [(r, y) for r in np.linspace(0.85, 2.1, 5)
           for y in (-0.55, -0.2, 0.3, 0.65)]
    assert len(pts) == 20
    for pt in pts:
        J = poincare_jacobian(pt, p)
        worst = max(worst, abs(float(np.linalg.det(J)) - 1.0))
    wall = time.time() - t0
    ok = worst < 1e-8
    assert report_line(11, ok, f"max |det DP - 1| = {worst:.2e} over 20 "
                               f"section points, {wall:.0f}s")


def test_criterion_12_oscillation_property():
    # seeds sit at measured transversal homoclinic points offset by half the
    # measured splitting amplitude; individual orbits are chaotic, so a fixed
    # deterministic candidate list is scanned until one exhibits the property
    t0 = time.time()
    p = Params(0.3, 2.2)
    rep = splitting_report(p, n_samples=50)
    trans = [r for r in rep.roots if r.kind == "transversal"]
    amp = rep.max_distance
    mid = len(trans) // 2
    order = [mid + k for k in (0, -1, 1, -2, 2, -3)] + list(range(len(trans)))
    tried = 0
    best = (0, None)
    for sign in (-1.0, +1.0):
        for idx in order:
            if not 0 <= idx < len(trans):
                continue
            root = trans[idx]
            seed = (float(homoclinic_r(root.v)),
                    float(rep.profile.Y_u(root.v) + sign * 0.5 * amp))
            if seed[0] >= 5.0:
                continue
            tried += 1
            log = oscillation_demo(p, seed, 200, tol=1e-11)
            good = [e for e in log.excursions if e[0] > 5.0 and e[1] < 2.0]
            if len(good) > best[0]:
                best = (len(good), log)
            if len(good) >= 3:
                break
            if tried >= 8:
                break
        if best[0] >= 3:
            break
    n_good, log = best
    wall = time.time() - t0
    ok = (log is not None and n_good >= 3 and log.energy_residual < 1e-8
          and len(log.returns) <= 200 and wall < 300.0)
    assert report_line(12, ok,
                       f"{n_good} excursions beyond r=5 returning below r=2 "
                       f"in {len(log.returns) if log else 0} returns "
                       f"({tried} seeds tried), energy residual "
                       f"{log.energy_residual if log else float('nan'):.1e}, "
                       f"{wall:.0f}s")
