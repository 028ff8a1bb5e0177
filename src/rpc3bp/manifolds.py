"""Stable/unstable invariant curves of infinity on a Poincare section.

The manifolds of the parabolic periodic orbit at infinity are computed by the
flow: orbits are seeded on W^u(infinity) in the inbound far field, all at
the one radius r = R_MIN = 3, propagated forward, and read off
as curves y = Y(v) on the section {phi = 0 (mod 2pi)} against the
separatrix radius parameterization r = r_h(v), outgoing leg y > 0.

Both curves come from the same orbits.  Their outgoing crossings of the
section sample W^u; the reversing symmetry R: (r, phi, y, G) ->
(r, -phi, -y, G) maps W^u onto W^s and the section onto itself, so their
inbound (y < 0) crossings, reflected by R, sample the stable curve.
compute_invariant_curve runs the fan once per call and returns both.

Seeds come from a solved graph of W^u(infinity) over the far field, as in
the local analysis of parabolic infinity (McGehee 1973; the parameterization
method of Cabre-Fontich-de la Llave 2003): the angular momentum is
G = 1 + g(r, phi) for r >= R_MIN, and y is taken from the shell
H = -g0^3, so a seed is on the shell to rounding.  g solves the invariance
equation

    y dg/dr + (G/r^2 - g0^3) dg/dphi = dV/dphi

on a Chebyshev grid in x = r^(-1/2) (x = 0 is r = infinity, where g = 0)
times a Fourier grid in phi, built once per Params on first use.  Flowed
from 2 r0 down to r0 = 3, 5, 6 or 8, seeds stay on the graph to the
integrator floor (<= 6e-14 at tol 1e-13), so the fan starts at the graph's
floor R_MIN, above the window's buffered exit radius 2.11.  The
zeroth-order parabolic seed G = 1 - V/g0^3, whose error is
O(mu/(g0^4 r^3)), had to start at r = 50.

One far-field orbit crosses each section about once per synodic period, so a
curve is assembled from a fan of initial phases: every crossing inside the
window V_WINDOW contributes a sample (v, Y) with v recovered exactly from
the crossing radius.  The phases lie on a grid of the profile phase
x = g0^3 v - alpha_h(v), so the samples sit at the same v whatever the seed
radius.  The phase each orbit turned before a crossing, one offset common to
the fan plus an exact multiple of 2pi/n_phases, orders the samples along
the curve; where v stops increasing in that order the curve folds back and
is no graph over v.

The fan's orbits are stepped together by integrate.lockstep_flow, a numpy
DOP853 that evaluates the vector field of all orbits in one call per stage.
Each orbit keeps its own step size and accept/reject state and repeats the
arithmetic of solve_ivp's DOP853, so the samples are those of one solve_ivp
run per orbit.  The section event locates crossings on the dense output
only in steps that come near the window.  The fan queues those steps and
locates all their crossings once its orbits have stopped, from one batched
dense output, and the crossings are polished by refine_to_section.

poincare_map lifts a section point to the shell and takes one
integrate.first_return, the return the oscillation demo iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, pi, sqrt

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .core import (
    CollisionError,
    Params,
    SectionTimeoutError,
    potential_kernel,
    potential_V,
)
from .integrate import first_return, lockstep_flow, refine_to_section, section_event
# unused here; perfbench's tracer self-test checks that it wraps this binding
from .integrate import flow  # noqa: F401
from .melnikov import phase_of_v
from .separatrix import homoclinic_r, homoclinic_y, v_of_r

__all__ = [
    "ManifoldCurve",
    "InvariantCurves",
    "initial_manifold_state",
    "lift_to_shell",
    "poincare_map",
    "poincare_jacobian",
    "compute_invariant_curve",
]

# The section window of the outgoing leg on which the curves are sampled and
# the splitting is measured.  Its buffered exit radius, 2.11, lies below
# R_MIN, so every window crossing of a lane comes after its seed.
V_WINDOW = (0.4, 1.6)

# Integrator tolerance and target sample count of a fan by default: the
# defaults of every report's keywords and of the CLI's config.
DEFAULT_TOL = 1e-12
DEFAULT_N_SAMPLES = 60

# Tolerance and relative central-difference step of the Poincare map and its
# Jacobian: the step balances the O(step^2) truncation against the
# integrator roundoff ~ tol/step, which resolves the determinant to ~1e-9.
POINCARE_TOL = 1e-13
JACOBIAN_STEP = 2e-5

# The graph of W^u(infinity) is solved over r >= R_MIN, on Chebyshev-Lobatto
# nodes in x = r^(-1/2) from x = 0 (r = infinity) to R_MIN^(-1/2) times
# equispaced nodes in phi; the sweeps stop once an update changes no bit of
# G = 1 + g.  Every fan is seeded at this floor.
R_MIN = 3.0
_CHEB_NODES = 25
_FOURIER_NODES = 32
_MAX_SWEEPS = 30
_UPDATE_TOL = 0.1 * np.finfo(float).eps


@dataclass
class ManifoldCurve:
    """Sampled invariant curve y = Y(v) on the section {phi = 0}.

    v is strictly increasing; Y > 0 on the outgoing branch.  At mu = 0 the
    curve coincides with the separatrix momentum y_h(v) to integrator
    accuracy.  Samples cover V_WINDOW and a buffer around it.  Where the
    curve folds back over v it is no graph; fold_intervals holds one
    (min v, max v) per run of samples dropped there, in the fan's phase
    order (see _mask_folds).
    """

    v: np.ndarray
    Y: np.ndarray
    fold_intervals: list

    def interpolant(self):
        """Callable Y(v).  The stiff separatrix baseline y_h is subtracted
        before splining and added back in closed form, so the interpolation
        error scales with the small residual Y - y_h (the mu-deformation and
        the fast oscillation), not with the baseline's curvature."""
        from scipy.interpolate import CubicSpline

        resid = CubicSpline(self.v, self.Y - np.asarray(homoclinic_y(self.v)))

        def Y_of_v(x):
            return resid(x) + np.asarray(homoclinic_y(x))

        return Y_of_v


@dataclass
class InvariantCurves:
    """The unstable and stable curves read from one fan at params and tol,
    with the fan's meta (see compute_invariant_curve)."""

    params: Params
    tol: float
    unstable: ManifoldCurve
    stable: ManifoldCurve
    meta: dict


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

    Seeds at R_MIN from this 25 x 32 grid equal those from a 41 x 64 grid to
    one ulp of 1 in y and G at (mu, g0) = (0.3, 2.4), (0.3, 2.0),
    (0.4924, 3.1) and (0.3, 1.5).  At (0.3, 1.05) they differ by 6.6e-13 in
    G and 9.3e-13 in y, and the residual at R_MIN reads 5.7e-14.  At
    (0.1, 1.05) they differ by 1.4e-11 in G and 2.0e-11 in y over 37
    phases, with residual 3.5e-13: above the profile's assumed noise floor
    NOISE_FLOOR_PER_TOL * tol = 1e-11 at tol 1e-12.  No fan runs there,
    though: with the default settings a fan orbit reaches the collision
    cutoff at every g0 up to 1.9 at mu = 0.1, 1.8 at mu = 0.3 and 1.7 at
    mu = 0.5 (read on a 0.05 grid from 1.05), so no profile or report
    reads the seeds at g0 = 1.05.
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


def initial_manifold_state(r0: float, phase: float, p: Params) -> np.ndarray:
    """Inbound state on the unstable manifold of infinity at r = r0.

    The angular momentum is read off the solved graph, G = 1 + g(r0, phase),
    and the negative radial velocity from the shell condition, so the energy
    residual is zero to rounding.  Flowed from 2 r0 to r0 = 3, 5, 6 or 8, a
    seed stays on the graph to the integrator floor, <= 6e-14 at tol 1e-13;
    at mu = 0, g = 0 and the seed is the parabola G = 1.  The graph is
    solved for r >= R_MIN = 3, which is the floor of r0 and the fan's seed
    radius.  involution_R maps the state onto the matching outbound seed
    of the stable manifold.
    """
    if not (isfinite(r0) and r0 >= R_MIN):
        raise ValueError(f"far-field seeding documented for r0 >= {R_MIN}")
    g = _manifold_graph(p).g(r0, phase)
    ysq = _shell_ysq(g, potential_V(r0, phase, p), 1.0 / r0, p.g0**3)
    if ysq <= 0.0:
        raise RuntimeError(f"no inbound momentum at r0={r0}")
    return np.array([r0, phase, -sqrt(ysq), 1.0 + g], dtype=float)


def lift_to_shell(r: float, y: float, p: Params) -> np.ndarray:
    """Point (r, y) of the section {phi = 0} lifted to the shell H = -g0^3.

    Solves the quadratic shell condition for the angular momentum, taking the
    root near G = 1 (evaluated in the cancellation-free form).  Raises
    ValueError for non-finite (r, y), r <= 0 and when no real solution exists.
    """
    if not (isfinite(r) and isfinite(y)):
        raise ValueError(f"section point ({r}, {y}) must be finite")
    if not r > 0.0:
        raise ValueError(f"section point needs r > 0, got r = {r}")
    c = p.g0**3 + 0.5 * y * y - 1.0 / r - potential_V(r, 0.0, p)
    disc = p.g0**6 - 2.0 * c / (r * r)
    if disc < 0.0:
        raise ValueError(f"section point ({r}, {y}) does not lift to the shell")
    G = 2.0 * c / (p.g0**3 + sqrt(disc))
    return np.array([r, 0.0, y, G], dtype=float)


def poincare_map(point: tuple[float, float], p: Params) -> tuple[float, float]:
    """One full return of the map of the section {phi = 0} on the energy
    shell.

    The synodic angle is monotone decreasing, so the return is the first
    time the unwrapped angle reaches -2pi (integrate.first_return, at
    POINCARE_TOL).  Preserves the section area element dr wedge dy up to
    integrator accuracy.
    """
    z = lift_to_shell(point[0], point[1], p)
    try:
        sol, znext = first_return(z, p, POINCARE_TOL,
                                  3.0 * 2.0 * pi / p.g0**3)
    except CollisionError as err:
        raise SectionTimeoutError("collision during section return",
                                  last_state=err.last_state) from err
    if znext is None:
        raise SectionTimeoutError("no return within three synodic periods",
                                  last_state=sol.y[:, -1])
    return (float(znext[0]), float(znext[2]))


def poincare_jacobian(point: tuple[float, float], p: Params) -> np.ndarray:
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
        fp = poincare_map((dp[0], dp[1]), p)
        fm = poincare_map((dm[0], dm[1]), p)
        J[0, k] = (fp[0] - fm[0]) / (2.0 * h)
        J[1, k] = (fp[1] - fm[1]) / (2.0 * h)
    return J


def _fan_seeds(p: Params, n_phases: int) -> np.ndarray:
    """Initial states of the fan's lanes at R_MIN, as columns.

    At mu = 0 the orbit seeded at (R_MIN, phi) is the separatrix from
    v = -v0, v0 = v_of_r(R_MIN), and it crosses the section where the
    profile phase x(v) = g0^3 v - alpha_h(v) equals phi - x(v0) (mod 2pi).
    Lane k is seeded at phi = 2pi k/n_phases + x(v0), so that its crossings
    lie at x = 2pi k/n_phases (mod 2pi), whatever the seed radius.
    """
    v0 = v_of_r(R_MIN)
    x0 = phase_of_v(v0, p) % (2.0 * pi)
    return np.array([initial_manifold_state(R_MIN,
                                            2.0 * pi * k / n_phases + x0, p)
                     for k in range(n_phases)]).T


def _fan_samples(p: Params, tol: float, n_phases: int):
    """Samples (v, Y) of both invariant curves on the section {phi = 0} from
    one fan of far-field orbits seeded at R_MIN, as (unstable, stable,
    work): two tuples of samples and the lockstep integrator's counters.

    Outgoing (y > 0) crossings of the section are unstable samples; inbound
    (y < 0) crossings, mapped by R to (v, -y), are stable samples.  Only
    crossings inside the buffered V_WINDOW are kept; v is recovered from the
    crossing radius through the separatrix closed form.  The orbits are
    integrated together by lockstep_flow.

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

    # time to fall from R_MIN plus the window traverse, with margin
    s_end = 1.35 * (float(v_of_r(R_MIN)) + v_hi + 5.0)

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

    # Section crossings above r_hi fail the window filter below, so only
    # steps with an end below r_exit are located.  Over a step r stays
    # between its end values unless the step holds a minimum of r; a lane's
    # only minimum of r is its perihelion, below r_lo, and one step moves r
    # far less than r_exit - r_lo, so a step with r >= r_exit at both ends
    # holds no crossing with r <= r_hi.
    section = section_event()
    section.gate = lambda s, z: z[0] < r_exit

    fan = lockstep_flow(_fan_seeds(p, n_phases), s_end, tol, p,
                        events=[section, exit_event, turn_event])
    # Lane k starts at 2pi k/n_phases + x0, the offset x0 of _fan_seeds
    # being common to all lanes, and phi falls, so it crosses 2pi l after
    # turning by x0 + 2pi j/n_phases: the exact integer j = k - n_phases l
    # orders the crossings of the whole fan.
    unstable, stable = [], []
    for k in range(n_phases):
        for z in fan.z_events[k][0]:
            if abs(z[2]) > 1e-6 and r_lo <= z[0] <= r_hi:
                zr = refine_to_section(z, p)
                j = k - n_phases * round(float(zr[1]) / (2.0 * pi))
                v, y = float(v_of_r(zr[0])), float(zr[2])
                if z[2] > 0.0:
                    unstable.append((j, v, y))
                else:
                    stable.append((-j, v, -y))
    unstable, stable = (tuple(s[1:] for s in sorted(b))
                        for b in (unstable, stable))
    return unstable, stable, fan.work


def compute_invariant_curve(p: Params, tol: float = DEFAULT_TOL,
                            n_samples: int = DEFAULT_N_SAMPLES
                            ) -> InvariantCurves:
    """The unstable and stable curves Y(v) over V_WINDOW on the section
    {phi = 0}, both read from one forward fan.

    The fan is seeded on the graph of W^u(infinity) at R_MIN.  meta
    carries the fan size (n_phases), the lockstep counters, the graph
    solve's last update (graph_update) and its invariance residual at
    R_MIN (graph_residual, in units of dG/ds).

    n_samples is the target number of collected samples across the window;
    the fan size is derived from it (one orbit yields about
    window * g0^3 / 2pi crossings) but kept at >= 16 phases so the fast
    synodic oscillation of the curve is resolved for interpolation.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    window = V_WINDOW[1] - V_WINDOW[0]
    per_orbit = max(window * p.g0**3 / (2.0 * pi), 0.3)
    n_phases = max(16, int(np.ceil(n_samples / per_orbit)))

    *branches, work = _fan_samples(p, tol, n_phases)
    curves = []
    for samples in branches:
        curve = ManifoldCurve(*_mask_folds(np.array([s[0] for s in samples]),
                                           np.array([s[1] for s in samples])))
        if len(curve.v) < 8:
            raise RuntimeError(f"only {len(curve.v)} window crossings "
                               "collected; increase n_samples")
        curves.append(curve)
    graph = _manifold_graph(p)
    return InvariantCurves(p, tol, *curves,
                           meta={"n_phases": n_phases,
                                 "graph_update": graph.update,
                                 "graph_residual": graph.residual(R_MIN),
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
