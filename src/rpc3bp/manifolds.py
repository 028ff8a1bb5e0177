"""Stable/unstable invariant curves of infinity on a Poincare section.

The manifolds of the parabolic periodic orbit at infinity are computed by the
flow: orbits are seeded in the inbound far field (r = R0) with the parabolic
velocity law projected onto the working energy shell H = -g0^3, propagated
forward, and read off as curves y = Y(v) on the section {phi = phi0 (mod 2pi)}
against the separatrix radius parameterization r = r_h(v), outgoing leg y > 0.

Both curves come from the same orbits.  Their outgoing crossings of phi0
sample W^u; the reversing symmetry R: (r, phi, y, G) -> (r, -phi, -y, G) maps
W^u onto W^s, so their inbound (y < 0) crossings of -phi0, reflected by R,
sample the stable curve on phi0.

Seeding uses the exact identity of the shell constraint with the parabolic
law: given (r, phi) and y^2 = 2/r - G^2/r^2, the shell condition reduces to
G = 1 - V(r, phi)/g0^3, so the initial state satisfies H = -g0^3 to rounding.
The departure of that state from the true manifold scales like
mu/(g0^4 R0^3) and is probed by the R0-doubling oracle.

One far-field orbit crosses each section about once per synodic period, so a
curve is assembled from a fan of initial phases: every crossing inside the
requested window contributes a sample (v, Y) with v recovered exactly from
the crossing radius.

The fan's orbits are stepped together by integrate.lockstep_flow, a numpy
DOP853 that evaluates the vector field of all orbits in one call per stage.
Each orbit keeps its own step size and accept/reject state and repeats the
arithmetic of solve_ivp's DOP853, so the samples are those of one solve_ivp
run per orbit.  Section crossings are located on the dense output only in
steps that come near the window, and polished by refine_to_section.

poincare_map lifts a section point to the shell and takes one
integrate.first_return, the return the oscillation demo iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import pi, sqrt

import numpy as np

from .core import (
    CollisionError,
    Params,
    RotatingState,
    SectionTimeoutError,
    potential_V,
)
from .integrate import first_return, lockstep_flow, refine_to_section, section_event
# unused here; perfbench's tracer self-test checks that it wraps this binding
from .integrate import flow  # noqa: F401
from .separatrix import homoclinic_r, v_of_r

__all__ = [
    "ManifoldCurve",
    "initial_manifold_state",
    "lift_to_shell",
    "poincare_map",
    "poincare_jacobian",
    "compute_invariant_curve",
    "curve_to_csv",
]

DEFAULT_R0 = 50.0


@dataclass
class ManifoldCurve:
    """Sampled invariant curve y = Y(v) on the section {phi = phi0}.

    v is strictly increasing; Y > 0 on the outgoing branch.  At mu = 0 the
    curve coincides with the separatrix momentum y_h(v) to integrator
    accuracy.
    """

    branch: str                # "unstable" | "stable"
    phi0: float
    params: Params
    v: np.ndarray
    Y: np.ndarray
    r0: float
    tol: float
    meta: dict = field(default_factory=dict)

    def interpolant(self):
        """Callable Y(v).  The stiff separatrix baseline y_h is subtracted
        before splining and added back in closed form, so the interpolation
        error scales with the small residual Y - y_h (the mu-deformation and
        the fast oscillation), not with the baseline's curvature."""
        from scipy.interpolate import CubicSpline

        from .separatrix import homoclinic_y
        resid = CubicSpline(self.v, self.Y - np.asarray(homoclinic_y(self.v)))

        def Y_of_v(x):
            return resid(x) + np.asarray(homoclinic_y(x))

        return Y_of_v


def initial_manifold_state(r0: float, phase: float, p: Params) -> RotatingState:
    """Inbound far-field state approximating the unstable manifold of
    infinity at r = r0.

    Negative parabolic radial velocity with the angular momentum solved from
    the shell condition, which is exactly G = 1 - V(r0, phase)/g0^3.  The
    energy residual is zero by construction; the distance to the true
    manifold is O(mu/(g0^4 r0^3)) and shrinks with r0.  involution_R maps the
    state onto the matching outbound seed of the stable manifold.
    """
    if r0 < 50.0:
        raise ValueError("far-field seeding documented for r0 >= 50")
    G = 1.0 - potential_V(r0, phase, p) / p.g0**3
    ysq = 2.0 / r0 - G * G / (r0 * r0)
    if ysq <= 0.0:
        raise RuntimeError(f"no parabolic velocity at r0={r0}")
    return RotatingState(r0, phase, -sqrt(ysq), G)


def lift_to_shell(r: float, y: float, phi0: float, p: Params) -> RotatingState:
    """Section point (r, y) lifted to the energy shell H = -g0^3.

    Solves the quadratic shell condition for the angular momentum, taking the
    root near G = 1 (evaluated in the cancellation-free form).  Raises
    ValueError when no real solution exists.
    """
    c = p.g0**3 + 0.5 * y * y - 1.0 / r - potential_V(r, phi0, p)
    disc = p.g0**6 - 2.0 * c / (r * r)
    if disc < 0.0:
        raise ValueError(f"section point ({r}, {y}) does not lift to the shell")
    G = 2.0 * c / (p.g0**3 + sqrt(disc))
    return RotatingState(r, phi0, y, G)


def poincare_map(point: tuple[float, float], phi0: float, p: Params,
                 tol: float = 1e-13) -> tuple[float, float]:
    """One full return of the section map on the energy shell.

    The synodic angle is monotone decreasing, so the return is the first
    time the unwrapped angle reaches phi0 - 2pi (integrate.first_return).
    Preserves the section area element dr wedge dy up to integrator
    accuracy.
    """
    z = lift_to_shell(point[0], point[1], phi0, p)
    try:
        sol, znext = first_return(z.to_array(), phi0, p, tol,
                                  3.0 * 2.0 * pi / p.g0**3)
    except CollisionError as err:
        raise SectionTimeoutError("collision during section return",
                                  last_state=err.last_state) from err
    if znext is None:
        raise SectionTimeoutError("no return within three synodic periods",
                                  last_state=RotatingState.from_array(sol.y[:, -1]))
    return (float(znext[0]), float(znext[2]))


def poincare_jacobian(point: tuple[float, float], phi0: float, p: Params,
                      tol: float = 1e-13, step: float = 2e-5) -> np.ndarray:
    """Jacobian of poincare_map by central differences.

    The default step balances the O(step^2) truncation against the
    integrator roundoff ~ tol/step; with tol = 1e-13 the determinant is
    resolved to ~1e-9.
    """
    r, y = point
    J = np.empty((2, 2))
    for k, h in ((0, step * max(1.0, abs(r))), (1, step * max(1.0, abs(y)))):
        dp = [r, y]
        dm = [r, y]
        dp[k] += h
        dm[k] -= h
        fp = poincare_map((dp[0], dp[1]), phi0, p, tol)
        fm = poincare_map((dm[0], dm[1]), phi0, p, tol)
        J[0, k] = (fp[0] - fm[0]) / (2.0 * h)
        J[1, k] = (fp[1] - fm[1]) / (2.0 * h)
    return J


class _Fan(tuple):
    """(unstable, stable) samples of one fan; `work` holds the lockstep
    integrator's counters."""

    def __new__(cls, unstable, stable, work):
        fan = super().__new__(cls, (unstable, stable))
        fan.work = work
        return fan


@lru_cache(maxsize=1)
def _fan_samples(phi0: float, v_window: tuple[float, float], p: Params,
                 tol: float, n_phases: int, r0: float):
    """Samples (v, Y) of both invariant curves on phi0 from one fan of
    far-field orbits, as tuples (unstable, stable).

    Outgoing (y > 0) crossings of phi0 are unstable samples; inbound (y < 0)
    crossings of -phi0, refined onto -phi0 and mapped to (v, -y), are stable
    samples.  Only crossings inside the buffered window are kept; v is
    recovered from the crossing radius through the separatrix closed form.
    The orbits are integrated together by lockstep_flow.
    """
    v_lo, v_hi = v_window
    buf = 0.12 * (v_hi - v_lo)
    r_lo = homoclinic_r(max(v_lo - buf, 1e-3))
    r_hi = homoclinic_r(v_hi + buf)

    # time to fall from r0 plus the window traverse, with margin
    s_span = 1.35 * (float(v_of_r(r0)) + v_hi + 5.0)

    def exit_event(s, z):
        return z[0] - (r_hi * 1.05)
    # terminate once the orbit climbs back out past the window
    exit_event.terminal = True
    exit_event.direction = 1.0

    def turn_event(s, z):
        return z[2]
    # The manifold's primary piece ends at the first radial turning point
    # after the perihelion pass: orbits that lose enough energy get captured
    # below the exit radius and would re-cross the window on later passes,
    # which belong to deeper windings of the invariant curve.  The perihelion
    # is a rising zero of y, the spurious turning point a falling one.
    turn_event.terminal = True
    turn_event.direction = -1.0

    def near(s, z):
        return z[0] < 2.0 * r_hi
    # Section crossings above r_hi fail the window filter below, so only
    # those near it are located: a step with r >= 2 r_hi at both ends cannot
    # come down to r_hi in between, since one step moves r by far less.
    sections = [section_event(phi0), section_event(-phi0)]
    for ev in sections:
        ev.gate = near

    z0 = np.array([initial_manifold_state(r0, phi0 + 2.0 * pi * k / n_phases,
                                          p).to_array()
                   for k in range(n_phases)]).T
    fan = lockstep_flow(z0, s_span, tol, p,
                        events=[*sections, exit_event, turn_event])
    unstable, stable = [], []
    for k in range(n_phases):
        for z in fan.z_events[k][0]:
            if z[2] > 1e-6 and r_lo <= z[0] <= r_hi:
                zr = refine_to_section(z, phi0, p)
                unstable.append((float(v_of_r(zr[0])), float(zr[2])))
        for z in fan.z_events[k][1]:
            if z[2] < -1e-6 and r_lo <= z[0] <= r_hi:
                zr = refine_to_section(z, -phi0, p)
                stable.append((float(v_of_r(zr[0])), -float(zr[2])))
    return _Fan(tuple(unstable), tuple(stable), fan.work)


def compute_invariant_curve(branch: str, phi0: float,
                            v_window: tuple[float, float], p: Params,
                            tol: float = 1e-12, n_samples: int = 60,
                            r0: float = DEFAULT_R0) -> ManifoldCurve:
    """Invariant curve Y(v) over v_window on the section {phi = phi0}.

    n_samples is the target number of collected samples across the window;
    the fan size is derived from it (one orbit yields about
    window * g0^3 / 2pi crossings) but kept at >= 16 phases so the fast
    synodic oscillation of the curve is resolved for interpolation.

    Both branches are read from one memoised forward fan: the "unstable" and
    then the "stable" curve with the same arguments integrate once.
    """
    v_lo, v_hi = v_window
    if not 0.0 < v_lo < v_hi:
        raise ValueError("window must satisfy 0 < v_lo < v_hi (outgoing leg)")
    if branch not in ("unstable", "stable"):
        raise ValueError("branch must be 'unstable' or 'stable'")
    window = v_hi - v_lo
    per_orbit = max(window * p.g0**3 / (2.0 * pi), 0.3)
    n_phases = max(16, int(np.ceil(n_samples / per_orbit)))

    fan = _fan_samples(phi0, (v_lo, v_hi), p, tol, n_phases, r0)
    samples = sorted(fan[0] if branch == "unstable" else fan[1])
    if len(samples) < 8:
        raise RuntimeError(
            f"only {len(samples)} window crossings collected; widen the "
            "window or increase n_samples")
    v = np.array([s[0] for s in samples])
    Y = np.array([s[1] for s in samples])
    v, Y = _merge_close(v, Y)
    v, Y, fold_intervals = _mask_folds(v, Y, p)
    return ManifoldCurve(branch=branch, phi0=phi0, params=p, v=v, Y=Y,
                         r0=r0, tol=tol,
                         meta={"n_phases": n_phases,
                               "n_samples": int(len(v)),
                               "shell_energy": -p.g0**3,
                               "fold_intervals": fold_intervals,
                               "v_window": (float(v_lo), float(v_hi)),
                               **fan.work})


def _merge_close(v: np.ndarray, Y: np.ndarray, dv: float = 1e-6):
    """Average samples closer than dv in v (repeat landings of the fan)."""
    out_v, out_Y = [], []
    i = 0
    while i < len(v):
        j = i + 1
        while j < len(v) and v[j] - v[i] < dv:
            j += 1
        out_v.append(float(np.mean(v[i:j])))
        out_Y.append(float(np.mean(Y[i:j])))
        i = j
    return np.array(out_v), np.array(out_Y)


def _mask_folds(v: np.ndarray, Y: np.ndarray, p: Params):
    """Drop samples inside fold-over regions of the invariant curve.

    At very strong splitting (small g0) the curve develops narrow bands where
    it is not a graph over r: sorted-by-v samples there interleave several
    sheets and the consecutive slope |dY/dv| explodes past any value the
    graph can attain (smooth slope plus oscillation amplitude times the
    synodic phase rate).  Offending samples are removed and the affected
    v-intervals reported, so interpolation bridges each fold with a smooth
    arc; fold widths are a small fraction of the oscillation period.
    """
    from .separatrix import homoclinic_y as yh

    dev = Y - np.asarray(yh(v))
    amp = float(np.median(np.abs(dev - np.median(dev)))) * 4.0
    r = np.asarray(homoclinic_r(v))
    smooth_slope = float(np.max(np.abs(1.0 / r**3 - 1.0 / r**2)))
    cap = 8.0 * (smooth_slope + max(amp, 1e-9) * p.g0**3 + 0.1)

    intervals: list[tuple[float, float]] = []
    keep = np.ones(len(v), dtype=bool)
    for _ in range(3):
        vv, yy = v[keep], Y[keep]
        if len(vv) < 4:
            break
        slopes = np.abs(np.diff(yy) / np.maximum(np.diff(vv), 1e-12))
        bad = slopes > cap
        if not np.any(bad):
            break
        bad_idx = np.flatnonzero(keep)
        for k in np.flatnonzero(bad):
            keep[bad_idx[k]] = keep[bad_idx[k + 1]] = False
            intervals.append((float(vv[k]), float(vv[k + 1])))
    merged: list[tuple[float, float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1] + 1e-3:
            merged[-1] = (merged[-1][0], max(b, merged[-1][1]))
        else:
            merged.append((a, b))
    return v[keep], Y[keep], merged


def curve_to_csv(curve: ManifoldCurve, path, header_lines: tuple[str, ...] = ()) -> None:
    """Write a curve as CSV with columns v,r,Y,branch,phi0,mu,g0,tol."""
    p = curve.params
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("v,r,Y,branch,phi0,mu,g0,tol\n")
        for v, Y in zip(curve.v, curve.Y):
            r = homoclinic_r(v)
            fh.write(f"{v!r},{r!r},{Y!r},{curve.branch},{curve.phi0!r},"
                     f"{p.mu!r},{p.g0!r},{curve.tol!r}\n")
