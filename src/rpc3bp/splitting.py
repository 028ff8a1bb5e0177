"""Splitting analysis: distance profiles, homoclinic roots, lobe areas,
tangency detection and continuation of the tangency curve in (mu, g0).

All quantitative analysis runs on a DistanceProfile, built from the
unstable and stable curves of one fan on a common uniform v-grid.  The
profile keeps the curves' interpolants, built once, and evaluates the
distance off the grid with them.
D' and D'' are 5-point (Richardson-extrapolated central) differences of the
interpolated distance at the grid step, evaluated only where they are read:
at a root.  Roots of the distance are bracketed sign changes refined on the
interpolants, computed once per profile; each root is classified transversal
or near-tangent by comparing |D'| against the finite-difference noise
amplification of the profile's noise floor.  Lobe areas, in the report and
through lobe_area, integrate the same interpolants between adjacent roots.

The tangency solve follows the one root family that can degenerate, the
symmetric roots at phase 0 mod 2pi: with the first-order shape
(1 - 2 mu) sin x - b sin 2x, D' vanishes at x = 0 when mu = 1/2 - b but
never at x = pi.  D' at the persistent center root (_center_root) flips
sign across mu*(g0), so the tangency is a 1-D Brent solve in mu at fixed
g0, and the root reported at mu* is the one the solve drove to D' = 0.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from math import isfinite, pi

import numpy as np

from .core import Params
from .integrate import brentq
from .manifolds import (
    DEFAULT_N_SAMPLES,
    DEFAULT_TOL,
    V_WINDOW,
    InvariantCurves,
    compute_invariant_curve,
)
from .melnikov import (
    phase_of_v,
    predicted_distance,
    predicted_lobe_area,
    predicted_tangency_mu,
)
from .separatrix import homoclinic_y

__all__ = [
    "DistanceProfile",
    "HomoclinicRoot",
    "SplittingReport",
    "TangencyPoint",
    "phase_of_v",
    "distance_profile",
    "find_homoclinic_points",
    "lobe_area",
    "splitting_report",
    "find_tangency",
    "continuation_tangency_curve",
    "count_roots_in_period",
]

# Profile noise floor per unit integrator tolerance, calibrated against the
# mu = 0 oracle, whose whole profile is noise: at tol = 1e-12 its largest
# |D| over V_WINDOW reads 7.0 tol at g0 = 2.4 (n_samples 25 and 60), 9.9 tol
# at g0 = 2.0 and 8.1 tol at g0 = 2.8 (n_samples 60), all under the floor.
NOISE_FLOOR_PER_TOL = 10.0

UNTRUSTED_MARGIN = 1e4

# lowest g0 of a tangency solve
TANGENCY_SOLVE_G0_MIN = 2.6


@dataclass
class HomoclinicRoot:
    v: float
    phase: float            # g0^3 v - alpha_h(v)
    D_prime: float
    kind: str               # "transversal" | "near_tangent"


@dataclass
class DistanceProfile:
    """D(v) = Y_s(v) - Y_u(v) on a uniform grid.

    Y_s and Y_u are the interpolants of curves.stable and curves.unstable,
    built once by distance_profile; distance and derivatives evaluate them
    anywhere in the grid's range.
    """

    params: Params
    v: np.ndarray
    D: np.ndarray
    noise_floor: float
    fold_intervals: list
    curves: InvariantCurves
    Y_s: Callable
    Y_u: Callable

    def distance(self, v):
        return self.Y_s(v) - self.Y_u(v)

    @property
    def h(self) -> float:
        return float(self.v[1] - self.v[0])

    def derivatives(self, v: float) -> tuple[float, float]:
        """(D'(v), D''(v)) by 5-point central differences of the distance at
        the grid step h, the stencil whose noise dprime_noise states."""
        h = self.h
        dm2, dm1, d0, dp1, dp2 = self.distance(v + h * np.arange(-2.0, 3.0))
        dp = (8.0 * (dp1 - dm1) - (dp2 - dm2)) / (12.0 * h)
        dpp = (16.0 * (dp1 + dm1) - (dp2 + dm2) - 30.0 * d0) / (12.0 * h * h)
        return float(dp), float(dpp)

    def dprime_noise(self) -> float:
        # 5-point first-difference weights amplify white noise by 3/(2h)
        return 1.5 * self.noise_floor / self.h

    @cached_property
    def roots(self) -> tuple[HomoclinicRoot, ...]:
        """find_homoclinic_points of this profile, computed once."""
        return tuple(find_homoclinic_points(self))

    def clean_mask(self) -> np.ndarray:
        """Grid mask excluding fold-bridged intervals, padded by 5e-3 in v,
        where the graph distance is an interpolation artifact rather than a
        measurement."""
        mask = np.ones(len(self.v), dtype=bool)
        for a, b in self.fold_intervals:
            mask &= ~((self.v >= a - 5e-3) & (self.v <= b + 5e-3))
        return mask


@dataclass
class SplittingReport:
    params: Params
    profile: DistanceProfile
    roots: list[HomoclinicRoot]
    measured_distances: list[tuple[float, float]]   # (half-period phase start, max|D|)
    max_distance: float
    lobe_areas: list[float]
    predicted_amplitude: float
    predicted_area: float
    distance_ratio: float
    area_ratios: list[float]
    noise_floor: float
    untrusted: bool


@dataclass
class TangencyPoint:
    """mu*(g0) with the (D, D', D'') residuals at the tangency root, the
    closed-form mu*, and the untrusted flag of the mu* profile."""

    g0: float
    mu_star: float
    residual_D: float
    residual_D_prime: float
    residual_D_second: float
    mu_predicted: float
    untrusted: bool


def distance_profile(curves: InvariantCurves) -> DistanceProfile:
    """Sample Y_s - Y_u on a common uniform grid inside both curves' ranges
    and V_WINDOW.

    The grid carries at least 48 points per synodic oscillation, so its sign
    changes bracket every root and the stencils of DistanceProfile.derivatives
    resolve the fast phase.
    """
    p = curves.params
    curve_s, curve_u = curves.stable, curves.unstable
    # restrict to the window: samples in the collection buffer beyond it
    # stabilize the spline edges but have partial fan coverage
    lo = max(curve_s.v[0], curve_u.v[0], V_WINDOW[0])
    hi = min(curve_s.v[-1], curve_u.v[-1], V_WINDOW[1])
    if not lo < hi:
        raise ValueError("curves cover disjoint v-ranges")
    pad = 0.01 * (hi - lo)
    lo, hi = lo + pad, hi - pad
    n_grid = max(800, int(np.ceil(48 * (hi - lo) * p.g0**3 / (2.0 * pi))))
    v = np.linspace(lo, hi, n_grid)
    fs = curve_s.interpolant()
    fu = curve_u.interpolant()
    D = fs(v) - fu(v)
    floor = NOISE_FLOOR_PER_TOL * curves.tol
    folds = sorted(curve_s.fold_intervals + curve_u.fold_intervals)
    return DistanceProfile(params=p, v=v, D=D,
                           noise_floor=floor, fold_intervals=folds,
                           curves=curves, Y_s=fs, Y_u=fu)


def find_homoclinic_points(profile: DistanceProfile) -> list[HomoclinicRoot]:
    """Roots of the distance profile, refined and classified.

    Every grid sign change brackets one root of the interpolated distance.
    Returns an empty list when the profile never leaves its noise floor
    (e.g. at mu = 0).
    """
    p = profile.params
    if np.max(np.abs(profile.D)) < 10.0 * profile.noise_floor:
        return []
    v, D = profile.v, profile.D
    sgn = np.sign(D)
    idx = np.flatnonzero(np.diff(sgn) != 0)
    roots: list[HomoclinicRoot] = []
    sigma = profile.dprime_noise()
    for i in idx:
        vr = brentq(profile.distance, v[i], v[i + 1], xtol=1e-14)
        dp = profile.derivatives(vr)[0]
        kind = "transversal" if abs(dp) > 10.0 * sigma else "near_tangent"
        roots.append(HomoclinicRoot(v=float(vr),
                                    phase=float(phase_of_v(vr, p)),
                                    D_prime=dp, kind=kind))
    roots.sort(key=lambda r: r.v)
    return roots


def lobe_area(profile: DistanceProfile, v_a: float, v_b: float) -> float:
    """Area |int_{v_a}^{v_b} y_h(v) (Y_s - Y_u) dv| of one lobe.

    v_a < v_b must be adjacent roots of the distance (no interior sign
    change); the integrand y_h D is the section area form pulled back to the
    v-parameterization.
    """
    if not v_a < v_b:
        raise ValueError("need v_a < v_b")
    inner = [r for r in profile.roots if v_a + 1e-9 < r.v < v_b - 1e-9]
    if inner:
        raise ValueError(
            f"roots {[round(r.v, 4) for r in inner]} lie between v_a and v_b; "
            "lobes are bounded by adjacent roots")
    return abs(_lobe_integral(profile, v_a, v_b))


_GL32 = np.polynomial.legendre.leggauss(32)


def _lobe_integral(profile: DistanceProfile, v_a: float, v_b: float) -> float:
    # composite 32-point Gauss, enough panels to resolve the oscillation
    n_panels = max(2, int(np.ceil((v_b - v_a) * profile.params.g0**3 / 2.0)))
    edges = np.linspace(v_a, v_b, n_panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid + half * _GL32[0]
        total += half * float(np.sum(_GL32[1] * np.asarray(homoclinic_y(x))
                                     * profile.distance(x)))
    return total


def _trust(profile: DistanceProfile) -> tuple[float, bool]:
    """(max|predicted D| over the profile's grid, untrusted): untrusted when
    mu > 0 and that amplitude is below UNTRUSTED_MARGIN noise floors."""
    p = profile.params
    if p.mu == 0.0:
        return 0.0, False
    amp = float(np.max(np.abs(predicted_distance(profile.v, p))))
    return amp, amp < UNTRUSTED_MARGIN * profile.noise_floor


def splitting_report(p: Params, tol: float = DEFAULT_TOL,
                     n_samples: int = DEFAULT_N_SAMPLES) -> SplittingReport:
    """Full pipeline: curves -> profile -> roots -> lobes -> predictions."""
    profile = distance_profile(compute_invariant_curve(p, tol, n_samples))
    roots = list(profile.roots)

    # max |D| per complete half-period of the phase
    x = phase_of_v(profile.v, p)
    k_lo = int(np.ceil(x[0] / pi))
    k_hi = int(np.floor(x[-1] / pi))
    measured = []
    for k in range(k_lo, k_hi):
        mask = (x >= k * pi) & (x < (k + 1) * pi)
        if np.any(mask):
            measured.append((k * pi, float(np.max(np.abs(profile.D[mask])))))

    lobes = [lobe_area(profile, ra.v, rb.v)
             for ra, rb in zip(roots[:-1], roots[1:])]

    mask = profile.clean_mask()
    max_D = float(np.max(np.abs(profile.D[mask] if np.any(mask) else profile.D)))
    # at mu = 0 both predictions are 0: the ratio is NaN, the area ratios []
    pred_amp, untrusted = _trust(profile)
    pred_area = predicted_lobe_area(p)
    ratio = max_D / pred_amp if pred_amp > 0 else float("nan")
    area_ratios = [a / pred_area for a in lobes] if pred_area > 0 else []
    return SplittingReport(params=p, profile=profile, roots=roots,
                           measured_distances=measured, max_distance=max_D,
                           lobe_areas=lobes, predicted_amplitude=pred_amp,
                           predicted_area=pred_area, distance_ratio=ratio,
                           area_ratios=area_ratios,
                           noise_floor=profile.noise_floor,
                           untrusted=untrusted)


# ---------------------------------------------------------------------------
# Tangency detection and continuation
# ---------------------------------------------------------------------------

def _wrap_dist(phase: float, target: float) -> float:
    return abs((phase - target + pi) % (2.0 * pi) - pi)


def _center_root(profile: DistanceProfile) -> HomoclinicRoot | None:
    """The persistent center root: phase nearest an exact multiple of 2pi.

    Among the roots within 1e-6 of the best phase distance, the one nearest
    mid-window; None when no root lies within pi/2 of 0 mod 2pi.  Selecting
    by phase rather than mere family membership keeps the tangency
    indicator, this root's D', on the root that survives the tangency; the
    newborn flanking pair sits a finite phase away except in the merging
    limit, where all candidates' D' vanish together.
    """
    roots = profile.roots
    if not roots:
        return None
    best = min(_wrap_dist(r.phase, 0.0) for r in roots)
    if best > pi / 2.0:
        return None
    mid = 0.5 * (profile.v[0] + profile.v[-1])
    candidates = [r for r in roots if _wrap_dist(r.phase, 0.0) < best + 1e-6]
    return min(candidates, key=lambda r: abs(r.v - mid))


def count_roots_in_period(profile: DistanceProfile) -> int:
    """Number of distance roots within one full 2pi phase period centered in
    the window (the leading-order theory predicts 2 or 4)."""
    roots = profile.roots
    if not roots:
        return 0
    x = np.array([r.phase for r in roots])
    x_mid = 0.5 * (x[0] + x[-1])
    lo = x_mid - pi
    return int(np.sum((x >= lo) & (x < lo + 2.0 * pi)))


def find_tangency(g0: float, mu_bracket: tuple[float, float],
                  tol: float = DEFAULT_TOL,
                  n_samples: int = DEFAULT_N_SAMPLES) -> TangencyPoint:
    """Locate the cubic homoclinic tangency mu*(g0) inside mu_bracket.

    The tangency is the Brent zero in mu of D' at the phase-0 center root,
    which must flip sign across the bracket.  Reports the (D, D', D'')
    residuals at the tangency root, and flags the point untrusted by the
    splitting report's rule (_trust) applied to the mu* profile.
    RuntimeError when D' keeps its sign or the center root is lost.
    """
    if g0 < TANGENCY_SOLVE_G0_MIN:
        raise ValueError(f"tangency solve documented for g0 >= "
                         f"{TANGENCY_SOLVE_G0_MIN}")
    mu_lo, mu_hi = mu_bracket
    cache: dict[float, DistanceProfile] = {}

    def center(mu: float) -> HomoclinicRoot:
        if mu not in cache:
            cache[mu] = distance_profile(
                compute_invariant_curve(Params(mu, g0), tol, n_samples))
        root = _center_root(cache[mu])
        if root is None:
            raise RuntimeError(f"phase-0 root lost at mu={mu}")
        return root

    if not center(mu_lo).D_prime * center(mu_hi).D_prime < 0.0:
        raise RuntimeError(
            f"D' of the phase-0 root keeps its sign across mu in {mu_bracket} "
            f"at g0={g0}")

    mu_pred = predicted_tangency_mu(g0)
    mu_star = brentq(lambda mu: center(mu).D_prime, mu_lo, mu_hi,
                     xtol=max(1e-6, 0.002 * (0.5 - mu_pred)))

    r_t, prof = center(mu_star), cache[mu_star]
    return TangencyPoint(g0=g0, mu_star=float(mu_star),
                         residual_D=float(prof.distance(r_t.v)),
                         residual_D_prime=r_t.D_prime,
                         residual_D_second=prof.derivatives(r_t.v)[1],
                         mu_predicted=mu_pred, untrusted=_trust(prof)[1])


def continuation_tangency_curve(
        g0_range: tuple[float, float], steps: int, tol: float = DEFAULT_TOL,
        n_samples: int = DEFAULT_N_SAMPLES) -> list[TangencyPoint]:
    """Natural continuation of mu*(g0): each solve is seeded by the previous
    mu_star (the leading-order prediction for the first point).  Both ends
    of the range are checked against find_tangency's g0 floor, the rungs
    for repeats, and one step for equal ends, before any rung is solved."""
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    g0_lo, g0_hi = g0_range
    if not (isfinite(g0_lo) and isfinite(g0_hi)):
        raise ValueError(f"g0 range must be finite, got {g0_range!r}")
    if min(g0_lo, g0_hi) < TANGENCY_SOLVE_G0_MIN:
        raise ValueError(f"g0 range {g0_range!r} reaches below the tangency "
                         f"solve's floor g0 >= {TANGENCY_SOLVE_G0_MIN}")
    if steps == 1 and g0_lo != g0_hi:
        raise ValueError(f"one step solves one rung: the g0 range ends "
                         f"{g0_lo!r} and {g0_hi!r} differ")
    g0s = np.linspace(g0_lo, g0_hi, steps)
    if len(set(g0s.tolist())) < steps:
        raise ValueError(f"g0 range {g0_range!r} in {steps} steps repeats "
                         "a rung")
    points: list[TangencyPoint] = []
    ratio = 1.0   # measured/predicted deviation of the previous solve
    for g0 in g0s:
        dev_pred = 0.5 - predicted_tangency_mu(float(g0))
        # bracket width follows the current rung's predicted deviation,
        # centered by the deviation ratio the previous rung measured
        dev = dev_pred * ratio
        lo = max(0.02, 0.5 - 3.0 * dev)
        hi = min(0.4999, 0.5 - 0.3 * dev)
        pt = find_tangency(float(g0), (lo, hi), tol, n_samples)
        points.append(pt)
        ratio = (0.5 - pt.mu_star) / dev_pred
    return points
