"""Splitting analysis: distance profiles, homoclinic roots, lobe areas,
tangency detection and continuation of the tangency curve in (mu, g0).

All quantitative analysis runs on a DistanceProfile, built from a pair of
invariant curves on a common uniform v-grid.  Derivatives are 5-point
(Richardson-extrapolated central) differences on that grid.  Roots of the
distance are bracketed sign changes refined on the interpolants; each root is
classified transversal or near-tangent by comparing |D'| against the
finite-difference noise amplification of the profile's noise floor.

The tangency solve tracks the root family whose transversality degenerates:
its D' at the persistent root flips sign across mu*(g0), so the tangency is
a 1-D Brent solve in mu at fixed g0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import cos, pi, sin, sqrt

import numpy as np
from scipy.optimize import brentq

from .core import Params, ResolutionError
from .manifolds import ManifoldCurve, compute_invariant_curve
from .melnikov import (
    predicted_distance,
    predicted_lobe_area,
    predicted_tangency_lobe_area,
    predicted_tangency_mu,
)
from .separatrix import homoclinic_alpha, homoclinic_alpha_prime, homoclinic_y

__all__ = [
    "SplittingConfig",
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
# mu = 0 oracle: the measured profile residual is ~6 tol at tol = 1e-12 over
# the default window and configuration.
NOISE_FLOOR_PER_TOL = 10.0

UNTRUSTED_MARGIN = 1e4


@dataclass
class SplittingConfig:
    """Knobs of the curve-to-report pipeline."""

    v_window: tuple[float, float] = (0.4, 1.6)
    tol: float = 1e-12
    n_samples: int = 60
    r0: float = 50.0
    n_phases: int | None = None
    n_grid: int | None = None


@dataclass
class HomoclinicRoot:
    v: float
    phase: float            # phi0 - alpha_h(v) + g0^3 v
    D_prime: float
    kind: str               # "transversal" | "near_tangent"


@dataclass
class DistanceProfile:
    """D(v) = Y_s(v) - Y_u(v) on a uniform grid, with derivative arrays."""

    params: Params
    phi0: float
    v: np.ndarray
    D: np.ndarray
    D_prime: np.ndarray
    D_second: np.ndarray
    noise_floor: float
    fold_intervals: list
    curve_s: ManifoldCurve
    curve_u: ManifoldCurve
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self._fs = self.curve_s.interpolant()
        self._fu = self.curve_u.interpolant()

    def distance(self, v):
        return self._fs(v) - self._fu(v)

    @property
    def h(self) -> float:
        return float(self.v[1] - self.v[0])

    def dprime_noise(self) -> float:
        # 5-point first-difference weights amplify white noise by 3/(2h)
        return 1.5 * self.noise_floor / self.h

    @cached_property
    def roots(self) -> tuple[HomoclinicRoot, ...]:
        """find_homoclinic_points of this profile, computed once."""
        return tuple(find_homoclinic_points(self))

    def clean_mask(self, margin: float = 5e-3) -> np.ndarray:
        """Grid mask excluding fold-bridged intervals, where the graph
        distance is an interpolation artifact rather than a measurement."""
        mask = np.ones(len(self.v), dtype=bool)
        for a, b in self.fold_intervals:
            mask &= ~((self.v >= a - margin) & (self.v <= b + margin))
        return mask


@dataclass
class SplittingReport:
    params: Params
    phi0: float
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
    g0: float
    mu_star: float
    v_tangent: float
    phase: float
    residual_D: float
    residual_D_prime: float
    residual_D_second: float
    lobe_area_at_tangency: float
    mu_predicted: float
    family: str              # phase family of the degenerate roots: "0" | "pi"


def phase_of_v(v, phi0: float, p: Params):
    """Section phase x = phi0 - alpha_h(v) + g0^3 v (unwrapped, increasing)."""
    return phi0 - np.asarray(homoclinic_alpha(v)) + p.g0**3 * np.asarray(v)


def _richardson_derivatives(v: np.ndarray, D: np.ndarray):
    h = v[1] - v[0]
    Dp = np.gradient(D, h)
    Dpp = np.empty_like(D)
    Dp[2:-2] = (8.0 * (D[3:-1] - D[1:-3]) - (D[4:] - D[:-4])) / (12.0 * h)
    Dpp[2:-2] = (16.0 * (D[3:-1] + D[1:-3]) - (D[4:] + D[:-4]) - 30.0 * D[2:-2]) / (12.0 * h * h)
    Dpp[:2] = Dpp[2]
    Dpp[-2:] = Dpp[-3]
    return Dp, Dpp


def distance_profile(curve_s: ManifoldCurve, curve_u: ManifoldCurve,
                     n_grid: int | None = None) -> DistanceProfile:
    """Sample Y_s - Y_u on a common uniform grid inside both curves' ranges.

    The grid carries at least 48 points per synodic oscillation so the
    Richardson stencils resolve the fast phase.  Both curves must live on the
    same section of the same system.
    """
    if curve_s.params != curve_u.params or curve_s.phi0 != curve_u.phi0:
        raise ValueError("curves belong to different systems or sections")
    p = curve_s.params
    # restrict to the requested windows: samples in the collection buffer
    # beyond them stabilize the spline edges but have partial fan coverage
    lo = max(curve_s.v[0], curve_u.v[0])
    hi = min(curve_s.v[-1], curve_u.v[-1])
    for c in (curve_s, curve_u):
        win = c.meta.get("v_window")
        if win is not None:
            lo = max(lo, win[0])
            hi = min(hi, win[1])
    if not lo < hi:
        raise ValueError("curves cover disjoint v-ranges")
    pad = 0.01 * (hi - lo)
    lo, hi = lo + pad, hi - pad
    if n_grid is None:
        per_osc = 48
        n_grid = max(800, int(np.ceil(per_osc * (hi - lo) * p.g0**3 / (2.0 * pi))))
    v = np.linspace(lo, hi, n_grid)
    fs = curve_s.interpolant()
    fu = curve_u.interpolant()
    D = fs(v) - fu(v)
    Dp, Dpp = _richardson_derivatives(v, D)
    floor = NOISE_FLOOR_PER_TOL * max(curve_s.tol, curve_u.tol)
    folds = sorted(curve_s.meta.get("fold_intervals", [])
                   + curve_u.meta.get("fold_intervals", []))
    return DistanceProfile(params=p, phi0=curve_s.phi0, v=v, D=D,
                           D_prime=Dp, D_second=Dpp, noise_floor=floor,
                           fold_intervals=folds, curve_s=curve_s,
                           curve_u=curve_u)


def find_homoclinic_points(profile: DistanceProfile) -> list[HomoclinicRoot]:
    """Roots of the distance profile, refined and classified.

    Grid resolution must exceed two points per half-period pi/g0^3 of the
    fast phase (it does by construction unless n_grid was forced down).
    Returns an empty list when the profile never leaves its noise floor
    (e.g. at mu = 0).
    """
    p = profile.params
    if profile.h >= pi / (2.0 * p.g0**3):
        raise ResolutionError(
            f"grid step {profile.h:.3g} too coarse for root finding at "
            f"g0={p.g0} (need < {pi / (2.0 * p.g0**3):.3g})")
    if np.max(np.abs(profile.D)) < 10.0 * profile.noise_floor:
        return []
    v, D = profile.v, profile.D
    sgn = np.sign(D)
    idx = np.flatnonzero(np.diff(sgn) != 0)
    roots: list[HomoclinicRoot] = []
    sigma = profile.dprime_noise()
    for i in idx:
        try:
            vr = brentq(profile.distance, v[i], v[i + 1], xtol=1e-14)
        except ValueError:
            continue
        dp = float(np.interp(vr, v, profile.D_prime))
        kind = "transversal" if abs(dp) > 10.0 * sigma else "near_tangent"
        roots.append(HomoclinicRoot(v=float(vr),
                                    phase=float(phase_of_v(vr, profile.phi0, p)),
                                    D_prime=dp, kind=kind))
    roots.sort(key=lambda r: r.v)
    return roots


def lobe_area(curve_s: ManifoldCurve, curve_u: ManifoldCurve,
              v_a: float, v_b: float,
              profile: DistanceProfile | None = None) -> float:
    """Area |int_{v_a}^{v_b} y_h(v) (Y_s - Y_u) dv| of one lobe.

    v_a < v_b must be adjacent roots of the distance (no interior sign
    change); the integrand y_h D is the section area form pulled back to the
    v-parameterization.
    """
    if not v_a < v_b:
        raise ValueError("need v_a < v_b")
    if profile is None:
        profile = distance_profile(curve_s, curve_u)
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


def _predicted_max_distance(profile: DistanceProfile) -> float:
    return float(np.max(np.abs(
        predicted_distance(profile.v, profile.phi0, profile.params))))


def _manifold_profile(p: Params, phi0: float,
                      cfg: SplittingConfig) -> DistanceProfile:
    """Distance profile of the invariant-curve pair computed under cfg."""
    cu = compute_invariant_curve("unstable", phi0, cfg.v_window, p,
                                 tol=cfg.tol, n_samples=cfg.n_samples,
                                 r0=cfg.r0, n_phases=cfg.n_phases)
    cs = compute_invariant_curve("stable", phi0, cfg.v_window, p,
                                 tol=cfg.tol, n_samples=cfg.n_samples,
                                 r0=cfg.r0, n_phases=cfg.n_phases)
    return distance_profile(cs, cu, n_grid=cfg.n_grid)


def splitting_report(p: Params, phi0: float,
                     config: SplittingConfig | None = None) -> SplittingReport:
    """Full pipeline: curves -> profile -> roots -> lobes -> predictions."""
    cfg = config or SplittingConfig()
    profile = _manifold_profile(p, phi0, cfg)
    roots = list(profile.roots)

    # max |D| per complete half-period of the phase
    x = phase_of_v(profile.v, phi0, p)
    k_lo = int(np.ceil(x[0] / pi))
    k_hi = int(np.floor(x[-1] / pi))
    measured = []
    for k in range(k_lo, k_hi):
        mask = (x >= k * pi) & (x < (k + 1) * pi)
        if np.any(mask):
            measured.append((k * pi, float(np.max(np.abs(profile.D[mask])))))

    lobes = []
    for ra, rb in zip(roots[:-1], roots[1:]):
        lobes.append(abs(_lobe_integral(profile, ra.v, rb.v)))

    mask = profile.clean_mask()
    max_D = float(np.max(np.abs(profile.D[mask] if np.any(mask) else profile.D)))
    if p.mu == 0.0:
        pred_amp = 0.0
        pred_area = 0.0
        ratio = float("nan")
        area_ratios = []
    else:
        pred_amp = _predicted_max_distance(profile)
        pred_area = predicted_lobe_area(p)
        ratio = max_D / pred_amp if pred_amp > 0 else float("nan")
        area_ratios = [a / pred_area for a in lobes] if pred_area > 0 else []
    untrusted = (p.mu > 0.0
                 and pred_amp < UNTRUSTED_MARGIN * profile.noise_floor)
    return SplittingReport(params=p, phi0=phi0, profile=profile, roots=roots,
                           measured_distances=measured, max_distance=max_D,
                           lobe_areas=lobes, predicted_amplitude=pred_amp,
                           predicted_area=pred_area, distance_ratio=ratio,
                           area_ratios=area_ratios,
                           noise_floor=profile.noise_floor,
                           untrusted=untrusted)


# ---------------------------------------------------------------------------
# Tangency detection and continuation
# ---------------------------------------------------------------------------

def _family_of(root: HomoclinicRoot) -> str:
    xm = root.phase % (2.0 * pi)
    return "0" if min(xm, 2.0 * pi - xm) < pi / 2.0 else "pi"


def _wrap_dist(phase: float, target: float) -> float:
    return abs((phase - target + pi) % (2.0 * pi) - pi)


def _family_indicator(profile: DistanceProfile, family: str) -> float | None:
    """D' at the family's persistent center root (phase nearest an exact
    multiple of 2pi for family "0", an odd multiple of pi for "pi").

    Selecting by phase rather than mere family membership keeps the
    indicator on the root that survives the tangency; the newborn flanking
    pair sits a finite phase away except in the merging limit, where all
    candidates' D' vanish together.
    """
    roots = profile.roots
    if not roots:
        return None
    target = 0.0 if family == "0" else pi
    mid = 0.5 * (profile.v[0] + profile.v[-1])
    best = min(roots,
               key=lambda r: (_wrap_dist(r.phase, target), abs(r.v - mid)))
    if _wrap_dist(best.phase, target) > pi / 2.0:
        return None
    candidates = [r for r in roots
                  if _wrap_dist(r.phase, target) < _wrap_dist(best.phase, target) + 1e-6]
    root = min(candidates, key=lambda r: abs(r.v - mid))
    return root.D_prime


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
                  config: SplittingConfig | None = None,
                  phi0: float = 0.0,
                  mu_xtol: float | None = None) -> TangencyPoint:
    """Locate the cubic homoclinic tangency mu*(g0) inside mu_bracket.

    The degenerating root family (phase near 0 or pi mod 2pi) is detected
    from the sign flip of its transversality D' across the bracket; mu* is
    the Brent zero of that indicator.  Reports the (D, D', D'') residuals at
    the tangency root and the lobe area between it and the adjacent
    transversal root.
    """
    if g0 < 2.6:
        raise ValueError("tangency solve documented for g0 >= 2.6")
    cfg = config or SplittingConfig(tol=1e-13)
    mu_lo, mu_hi = mu_bracket
    prof_lo = _manifold_profile(Params(mu_lo, g0), phi0, cfg)
    prof_hi = _manifold_profile(Params(mu_hi, g0), phi0, cfg)

    family = None
    for fam in ("0", "pi"):
        a = _family_indicator(prof_lo, fam)
        b = _family_indicator(prof_hi, fam)
        if a is not None and b is not None and a * b < 0.0:
            family = fam
            break
    if family is None:
        raise RuntimeError(
            f"no root family degenerates across mu in {mu_bracket} at g0={g0}")

    cache: dict[float, DistanceProfile] = {mu_lo: prof_lo, mu_hi: prof_hi}

    def indicator(mu: float) -> float:
        if mu not in cache:
            cache[mu] = _manifold_profile(Params(mu, g0), phi0, cfg)
        val = _family_indicator(cache[mu], family)
        if val is None:
            raise RuntimeError(f"family-{family} root lost at mu={mu}")
        return val

    try:
        mu_pred = predicted_tangency_mu(g0)
    except ValueError as err:
        mu_pred = err.value
    if mu_xtol is None:
        mu_xtol = max(1e-6, 0.002 * (0.5 - mu_pred))
    mu_star = brentq(indicator, mu_lo, mu_hi, xtol=mu_xtol)

    prof = (cache.get(mu_star)
            or _manifold_profile(Params(mu_star, g0), phi0, cfg))
    roots = prof.roots
    target = 0.0 if family == "0" else pi
    mid = 0.5 * (prof.v[0] + prof.v[-1])
    r_t = min(roots, key=lambda r: (_wrap_dist(r.phase, target), abs(r.v - mid)))
    # the bounding partner is the nearest root of the opposite phase family:
    # at mu* the newborn pair has merged into r_t, so same-family neighbors
    # would pinch a zero-area sliver
    others = [r for r in roots
              if _wrap_dist(r.phase, r_t.phase) > pi / 2.0
              and r.kind == "transversal"]
    adjacent = min(others, key=lambda r: abs(r.v - r_t.v))
    va, vb = sorted((r_t.v, adjacent.v))
    area = abs(_lobe_integral(prof, va, vb))
    dpp = float(np.interp(r_t.v, prof.v, prof.D_second))
    return TangencyPoint(g0=g0, mu_star=float(mu_star), v_tangent=r_t.v,
                         phase=r_t.phase,
                         residual_D=float(prof.distance(r_t.v)),
                         residual_D_prime=r_t.D_prime,
                         residual_D_second=dpp,
                         lobe_area_at_tangency=area,
                         mu_predicted=mu_pred, family=family)


def continuation_tangency_curve(g0_range: tuple[float, float], steps: int,
                                config: SplittingConfig | None = None,
                                phi0: float = 0.0) -> list[TangencyPoint]:
    """Natural continuation of mu*(g0): each solve is seeded by the previous
    mu_star (the leading-order prediction for the first point)."""
    g0_lo, g0_hi = g0_range
    if g0_lo < 2.6:
        raise ValueError("continuation range must start at g0 >= 2.6")
    points: list[TangencyPoint] = []
    g0s = np.linspace(g0_lo, g0_hi, steps)
    ratio = 1.0   # measured/predicted deviation of the previous solve
    for g0 in g0s:
        try:
            dev_pred = 0.5 - predicted_tangency_mu(float(g0))
        except ValueError as err:
            dev_pred = 0.5 - err.value
        # bracket width follows the current rung's predicted deviation,
        # centered by the deviation ratio the previous rung measured
        dev = dev_pred * ratio
        lo = max(0.02, 0.5 - 3.0 * dev)
        hi = min(0.4999, 0.5 - 0.3 * dev)
        pt = find_tangency(float(g0), (lo, hi), config, phi0)
        points.append(pt)
        ratio = (0.5 - pt.mu_star) / dev_pred
    return points
