"""Stable/unstable invariant curves of infinity on a Poincare section.

The manifolds of the parabolic periodic orbit at infinity are computed by the
flow: orbits are seeded on W^u(infinity) in the inbound far field, all at
the one radius r = DEFAULT_R0 = 8, propagated forward, and read off as
curves y = Y(v) on the section {phi = phi0 (mod 2pi)} against the
separatrix radius parameterization r = r_h(v), outgoing leg y > 0.

Both curves come from the same orbits.  Their outgoing crossings of phi0
sample W^u; the reversing symmetry R: (r, phi, y, G) -> (r, -phi, -y, G) maps
W^u onto W^s, so their inbound (y < 0) crossings of -phi0, reflected by R,
sample the stable curve on phi0.

Seeds come from a solved graph of W^u(infinity) over the far field, as in
the local analysis of parabolic infinity (McGehee 1973; the parameterization
method of Cabre-Fontich-de la Llave 2003): the angular momentum is
G = 1 + g(r, phi) for r >= R_MIN, and y is taken from the shell
H = -g0^3, so a seed is on the shell to rounding.  g solves the invariance
equation

    y dg/dr + (G/r^2 - g0^3) dg/dphi = dV/dphi

on a Chebyshev grid in x = r^(-1/2) (x = 0 is r = infinity, where g = 0)
times a Fourier grid in phi, built once per Params on first use.  Flowed
from 2 DEFAULT_R0 down to DEFAULT_R0, seeds stay on the graph to the
integrator floor (<= 5e-14 at tol 1e-13), so the orbits skip the far-field
fall from r = 50 that the zeroth-order parabolic seed G = 1 - V/g0^3
needed, and that seed's error of O(mu/(g0^4 r^3)) with it.

One far-field orbit crosses each section about once per synodic period, so a
curve is assembled from a fan of initial phases: every crossing inside the
window V_WINDOW contributes a sample (v, Y) with v recovered exactly from
the crossing radius.  The phase each orbit turned before a crossing, an exact
multiple of 2pi/n_phases, orders the samples along the curve; where v stops
increasing in that order the curve folds back and is no graph over v.

The fan's orbits are stepped together by integrate.lockstep_flow, a numpy
DOP853 that evaluates the vector field of all orbits in one call per stage.
Each orbit keeps its own step size and accept/reject state and repeats the
arithmetic of solve_ivp's DOP853, so the samples are those of one solve_ivp
run per orbit.  Each section event locates crossings on the dense output
only in steps that come near the window on the leg its curve samples
(y > 0 for phi0, y < 0 for -phi0).  The fan queues those steps and locates
all their crossings once its orbits have stopped, from one batched dense
output, and the crossings are polished by refine_to_section.

poincare_map lifts a section point to the shell and takes one
integrate.first_return, the return the oscillation demo iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite, pi, sqrt

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .core import (
    CollisionError,
    Params,
    RotatingState,
    SectionTimeoutError,
    potential_kernel,
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
]

DEFAULT_R0 = 8.0

# The section window of the outgoing leg on which the curves are sampled and
# the splitting is measured.  Its buffered exit radius, 2.11, lies well
# inside DEFAULT_R0.
V_WINDOW = (0.4, 1.6)

# Tolerance and relative central-difference step of the Poincare map and its
# Jacobian: the step balances the O(step^2) truncation against the
# integrator roundoff ~ tol/step, which resolves the determinant to ~1e-9.
POINCARE_TOL = 1e-13
JACOBIAN_STEP = 2e-5

# The graph of W^u(infinity) is solved over r >= R_MIN, on Chebyshev-Lobatto
# nodes in x = r^(-1/2) from x = 0 (r = infinity) to R_MIN^(-1/2) times
# equispaced nodes in phi; the sweeps stop once an update changes no bit of
# G = 1 + g.
R_MIN = 5.0
_CHEB_NODES = 25
_FOURIER_NODES = 32
_MAX_SWEEPS = 30
_UPDATE_TOL = 0.1 * np.finfo(float).eps


@dataclass
class ManifoldCurve:
    """Sampled invariant curve y = Y(v) on the section {phi = phi0}.

    v is strictly increasing; Y > 0 on the outgoing branch.  At mu = 0 the
    curve coincides with the separatrix momentum y_h(v) to integrator
    accuracy.  Samples cover V_WINDOW and a buffer around it.  Where the
    curve folds back over v it is no graph; fold_intervals holds one
    (min v, max v) per run of samples dropped there, in the fan's phase
    order (see _mask_folds).
    """

    branch: str                # "unstable" | "stable"
    phi0: float
    params: Params
    v: np.ndarray
    Y: np.ndarray
    tol: float
    fold_intervals: list
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


def _t_of_r(r):
    """Chebyshev variable t = 2 x/x_max - 1 of the graph, x = r^(-1/2)."""
    return 2.0 * sqrt(R_MIN / r) - 1.0


def _shell_ysq(g, V, r_inv, g03):
    """y^2 on the shell H = -g0^3 at G = 1 + g, radius 1/r_inv and V."""
    G = 1.0 + g
    return 2.0 * (g03 * g + V + r_inv) - G * G * (r_inv * r_inv)


@dataclass(frozen=True)
class _ManifoldGraph:
    """W^u(infinity) as the graph G = 1 + g(r, phi) over r >= R_MIN.

    coef[j, k] is the j-th Chebyshev coefficient, in t = 2 x/x_max - 1 with
    x = r^(-1/2), of the complex amplitude a_k of the phi-mode k, so that
    g = Re sum_k a_k e^{i k phi}.  update is the size of the solve's last
    fixed-point update.
    """

    params: Params
    coef: np.ndarray
    update: float

    def g(self, r: float, phi: float) -> float:
        a = cheb.chebval(_t_of_r(r), self.coef)
        return float(np.sum((a * np.exp(1j * np.arange(len(a)) * phi)).real))

    def residual(self, r: float) -> float:
        """Largest |y dg/dr + (G/r^2 - g0^3) dg/dphi - dV/dphi| of the
        interpolated graph over the phi nodes at radius r."""
        p = self.params
        t = _t_of_r(r)
        a = cheb.chebval(t, self.coef)
        # dt/dr = -sqrt(R_MIN) r^(-3/2)
        a_r = cheb.chebval(t, cheb.chebder(self.coef)) * -sqrt(R_MIN) * r**-1.5
        k = np.arange(len(a))
        phi = 2.0 * pi * np.arange(_FOURIER_NODES) / _FOURIER_NODES
        wave = np.exp(1j * np.outer(phi, k))
        g, g_r, g_phi = ((wave @ b).real for b in (a, a_r, 1j * k * a))
        kernel = potential_kernel(p, np.cos, np.sin, np.sqrt)
        V = kernel.V(r, np.cos(phi))
        dV = kernel.field(0.0, (r, phi, 0.0, 0.0))[3]
        y = -np.sqrt(_shell_ysq(g, V, 1.0 / r, p.g0**3))
        return float(np.max(np.abs(y * g_r + ((1.0 + g) / (r * r) - p.g0**3) * g_phi
                                    - dV)))


@lru_cache(maxsize=64)
def _manifold_graph(p: Params) -> _ManifoldGraph:
    """Solve the invariance equation of W^u(infinity) for its graph.

    With y from the shell, the graph G = 1 + g is invariant under the flow
    when y dg/dr + (G/r^2 - g0^3) dg/dphi = dV/dphi.  Each sweep inverts, mode
    by mode in phi, the transport of the mu = 0 separatrix flow
    y_h dg/dr + (1/r^2 - g0^3) dg/dphi, with y_h = -sqrt(2/r - 1/r^2); on the
    right are dV/dphi and the rest of the equation, of second order in the
    perturbation, at the last iterate.  The phi-mean of the equation is its
    solvability condition <y dg/dr> = 0, and g = 0 at r = infinity fixes the
    constant.  Inverting the transport, instead of dividing by g0^3 i k
    alone, keeps the sweeps contracting at small g0, where that division
    diverges (at g0 = 1.5 and below).

    The x = 0 row of the grid is r = infinity, where V, dV/dphi and g are
    set to 0 rather than evaluated.  Raises RuntimeError when the sweeps do
    not converge.
    """
    n, m = _CHEB_NODES, _FOURIER_NODES
    g03 = p.g0**3
    x_max = R_MIN**-0.5
    t = np.cos(pi * np.arange(n) / (n - 1))
    x = 0.5 * x_max * (t + 1.0)                   # x[-1] = 0 is r = infinity
    vander = cheb.chebvander(t, n - 1)
    to_coef = np.linalg.inv(vander)
    der = np.array([np.append(cheb.chebder(c), 0.0) for c in np.eye(n)]).T
    d_dr = -0.5 * x[:, None]**3 * (2.0 / x_max) * (vander @ der @ to_coef)

    phi = 2.0 * pi * np.arange(m) / m
    k = np.arange(m // 2)                         # the Nyquist mode is dropped
    x2 = (x * x)[:, None]
    x4 = x2 * x2
    V = np.zeros((n, m))
    dV = np.zeros((n, m))
    kernel = potential_kernel(p, np.cos, np.sin, np.sqrt)
    r = 1.0 / x2[:-1]
    V[:-1] = kernel.V(r, np.cos(phi))
    dV[:-1] = kernel.field(0.0, (r, phi, 0.0, 0.0))[3]

    y_h = -np.sqrt(2.0 * x2 - x4)
    transport = (y_h * d_dr)[None] + np.eye(n) * (1j * k[:, None, None]
                                                  * (x4[:, 0] - g03))
    transport[:, -1, :] = np.eye(n)[-1]           # g = 0 at r = infinity

    g = np.zeros((n, m))
    update = np.inf
    for _ in range(_MAX_SWEEPS):
        ysq = _shell_ysq(g, V, x2, g03)
        if not np.all(ysq[:-1] > 0.0):
            raise RuntimeError(f"no inbound momentum on the graph at {p}")
        y = -np.sqrt(ysq)
        g_phi = np.fft.irfft(1j * np.arange(m // 2 + 1) * np.fft.rfft(g), m)
        rest = dV - (y - y_h) * (d_dr @ g) - g * x4 * g_phi
        rhs = np.fft.rfft(rest)[:, :m // 2].T
        rhs[:, -1] = 0.0
        modes = np.linalg.solve(transport, rhs[..., None])[..., 0].T
        g_new = np.fft.irfft(modes, m)
        update = float(np.max(np.abs(g_new - g)))
        g = g_new
        if update <= _UPDATE_TOL:
            amp = np.fft.rfft(g)[:, :m // 2] / m
            amp[:, 1:] *= 2.0
            return _ManifoldGraph(p, to_coef @ amp, update)
    raise RuntimeError(f"graph of W^u(infinity) at {p} did not converge in "
                       f"{_MAX_SWEEPS} sweeps: last update {update:.1e}")


def initial_manifold_state(r0: float, phase: float, p: Params) -> RotatingState:
    """Inbound state on the unstable manifold of infinity at r = r0.

    The angular momentum is read off the solved graph, G = 1 + g(r0, phase),
    and the negative radial velocity from the shell condition, so the energy
    residual is zero to rounding.  Flowed from 2 r0 to r0 = DEFAULT_R0, a
    seed stays on the graph to the integrator floor, <= 5e-14 at tol 1e-13;
    at mu = 0, g = 0 and the seed is the parabola G = 1.  The graph is
    solved for r >= R_MIN, which is the floor of r0.  involution_R maps the
    state onto the matching outbound seed of the stable manifold.
    """
    if not (isfinite(r0) and r0 >= R_MIN):
        raise ValueError(f"far-field seeding documented for r0 >= {R_MIN}")
    g = _manifold_graph(p).g(r0, phase)
    ysq = _shell_ysq(g, potential_V(r0, phase, p), 1.0 / r0, p.g0**3)
    if ysq <= 0.0:
        raise RuntimeError(f"no inbound momentum at r0={r0}")
    return RotatingState(r0, phase, -sqrt(ysq), 1.0 + g)


def lift_to_shell(r: float, y: float, phi0: float, p: Params) -> RotatingState:
    """Section point (r, y) lifted to the energy shell H = -g0^3.

    Solves the quadratic shell condition for the angular momentum, taking the
    root near G = 1 (evaluated in the cancellation-free form).  Raises
    ValueError for r <= 0 and when no real solution exists.
    """
    if not r > 0.0:
        raise ValueError(f"section point needs r > 0, got r = {r}")
    c = p.g0**3 + 0.5 * y * y - 1.0 / r - potential_V(r, phi0, p)
    disc = p.g0**6 - 2.0 * c / (r * r)
    if disc < 0.0:
        raise ValueError(f"section point ({r}, {y}) does not lift to the shell")
    G = 2.0 * c / (p.g0**3 + sqrt(disc))
    return RotatingState(r, phi0, y, G)


def poincare_map(point: tuple[float, float], phi0: float,
                 p: Params) -> tuple[float, float]:
    """One full return of the section map on the energy shell.

    The synodic angle is monotone decreasing, so the return is the first
    time the unwrapped angle reaches phi0 - 2pi (integrate.first_return, at
    POINCARE_TOL).  Preserves the section area element dr wedge dy up to
    integrator accuracy.
    """
    z = lift_to_shell(point[0], point[1], phi0, p)
    try:
        sol, znext = first_return(z.to_array(), phi0, p, POINCARE_TOL,
                                  3.0 * 2.0 * pi / p.g0**3)
    except CollisionError as err:
        raise SectionTimeoutError("collision during section return",
                                  last_state=err.last_state) from err
    if znext is None:
        raise SectionTimeoutError("no return within three synodic periods",
                                  last_state=RotatingState.from_array(sol.y[:, -1]))
    return (float(znext[0]), float(znext[2]))


def poincare_jacobian(point: tuple[float, float], phi0: float,
                      p: Params) -> np.ndarray:
    """Jacobian of poincare_map by central differences of relative step
    JACOBIAN_STEP."""
    r, y = point
    J = np.empty((2, 2))
    for k, h in ((0, JACOBIAN_STEP * max(1.0, abs(r))),
                 (1, JACOBIAN_STEP * max(1.0, abs(y)))):
        dp = [r, y]
        dm = [r, y]
        dp[k] += h
        dm[k] -= h
        fp = poincare_map((dp[0], dp[1]), phi0, p)
        fm = poincare_map((dm[0], dm[1]), phi0, p)
        J[0, k] = (fp[0] - fm[0]) / (2.0 * h)
        J[1, k] = (fp[1] - fm[1]) / (2.0 * h)
    return J


@lru_cache(maxsize=1)
def _fan_samples(phi0: float, p: Params, tol: float, n_phases: int):
    """Samples (v, Y) of both invariant curves on phi0 from one fan of
    far-field orbits seeded at DEFAULT_R0, as (unstable, stable, work): two
    tuples of samples and the lockstep integrator's counters.

    Outgoing (y > 0) crossings of phi0 are unstable samples; inbound (y < 0)
    crossings of -phi0, refined onto -phi0 and mapped to (v, -y), are stable
    samples.  Only crossings inside the buffered V_WINDOW are kept; v is
    recovered from the crossing radius through the separatrix closed form.
    The orbits are integrated together by lockstep_flow.

    Samples come in their order along the curve, by the phase the flow
    turned before the crossing: ascending for the unstable samples and
    descending for the stable ones, whose time R reverses.  v increases in
    this order wherever the curve is a graph over v.
    """
    v_lo, v_hi = V_WINDOW
    buf = 0.12 * (v_hi - v_lo)
    r_lo = homoclinic_r(v_lo - buf)
    r_hi = homoclinic_r(v_hi + buf)
    r_exit = r_hi * 1.05

    # time to fall from DEFAULT_R0 plus the window traverse, with margin
    s_span = 1.35 * (float(v_of_r(DEFAULT_R0)) + v_hi + 5.0)

    def exit_event(s, z):
        return z[0] - r_exit
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

    # Section crossings above r_hi, or on the other leg, fail the window
    # filter below, so only those near it on the curve's leg are located: a
    # step with r >= 2 r_hi at both ends cannot come down to r_hi in
    # between, since one step moves r by far less.
    outgoing, inbound = section_event(phi0), section_event(-phi0)
    outgoing.gate = lambda s, z: (z[0] < 2.0 * r_hi) & (z[2] > 0.0)
    inbound.gate = lambda s, z: (z[0] < 2.0 * r_hi) & (z[2] < 0.0)

    z0 = np.array([initial_manifold_state(DEFAULT_R0,
                                          phi0 + 2.0 * pi * k / n_phases,
                                          p).to_array()
                   for k in range(n_phases)]).T
    fan = lockstep_flow(z0, s_span, tol, p,
                        events=[outgoing, inbound, exit_event, turn_event])
    # Lane k starts at phi0 + 2pi k/n_phases and phi falls, so it crosses
    # level - 2pi m after turning by phi0 - level + 2pi j/n_phases: the exact
    # integer j = k + n_phases m orders the crossings of the whole fan.
    samples = ([], [])
    for k in range(n_phases):
        for e, (level, sign) in enumerate(((phi0, 1.0), (-phi0, -1.0))):
            for z in fan.z_events[k][e]:
                if sign * z[2] > 1e-6 and r_lo <= z[0] <= r_hi:
                    zr = refine_to_section(z, level, p)
                    j = k - n_phases * round((float(zr[1]) - level) / (2.0 * pi))
                    samples[e].append((sign * j, float(v_of_r(zr[0])),
                                       sign * float(zr[2])))
    unstable, stable = (tuple(s[1:] for s in sorted(b)) for b in samples)
    return unstable, stable, fan.work


def compute_invariant_curve(branch: str, phi0: float, p: Params,
                            tol: float = 1e-12,
                            n_samples: int = 60) -> ManifoldCurve:
    """Invariant curve Y(v) over V_WINDOW on the section {phi = phi0}.

    The fan is seeded on the graph of W^u(infinity) at DEFAULT_R0.  meta
    carries the fan size (n_phases), the lockstep counters, the graph
    solve's last update (graph_update) and its invariance residual at
    DEFAULT_R0 (graph_residual, in units of dG/ds).

    n_samples is the target number of collected samples across the window;
    the fan size is derived from it (one orbit yields about
    window * g0^3 / 2pi crossings) but kept at >= 16 phases so the fast
    synodic oscillation of the curve is resolved for interpolation.

    Both branches are read from one memoised forward fan: the "unstable" and
    then the "stable" curve with the same arguments integrate once.
    """
    if branch not in ("unstable", "stable"):
        raise ValueError("branch must be 'unstable' or 'stable'")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    window = V_WINDOW[1] - V_WINDOW[0]
    per_orbit = max(window * p.g0**3 / (2.0 * pi), 0.3)
    n_phases = max(16, int(np.ceil(n_samples / per_orbit)))

    unstable, stable, work = _fan_samples(phi0, p, tol, n_phases)
    graph = _manifold_graph(p)
    samples = unstable if branch == "unstable" else stable
    v, Y, fold_intervals = _mask_folds(np.array([s[0] for s in samples]),
                                       np.array([s[1] for s in samples]))
    if len(v) < 8:
        raise RuntimeError(
            f"only {len(v)} window crossings collected; increase n_samples")
    return ManifoldCurve(branch=branch, phi0=phi0, params=p, v=v, Y=Y,
                         tol=tol, fold_intervals=fold_intervals,
                         meta={"n_phases": n_phases,
                               "graph_update": graph.update,
                               "graph_residual": graph.residual(DEFAULT_R0),
                               **work})


def _mask_folds(v: np.ndarray, Y: np.ndarray):
    """Keep the samples, given in their order along the curve, where the
    curve is a graph over v.

    Sample i is kept when v_i is above every earlier v and below every later
    one, so the kept v is strictly increasing.  Where the curve folds back,
    the samples of its sheets fail this test; each run of dropped samples is
    reported as one fold interval (min v, max v), so interpolation bridges
    the fold with a smooth arc.
    """
    before = np.concatenate(([-np.inf], np.maximum.accumulate(v)[:-1]))
    after = np.concatenate((np.minimum.accumulate(v[::-1])[::-1][1:], [np.inf]))
    keep = (before < v) & (v < after)
    dropped = np.flatnonzero(~keep)
    runs = np.split(dropped, np.flatnonzero(np.diff(dropped) > 1) + 1)
    intervals = [(float(v[i].min()), float(v[i].max())) for i in runs if len(i)]
    return v[keep], Y[keep], intervals
