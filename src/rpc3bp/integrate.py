"""Adaptive integration of the rotating-chart flow and Poincare-section events.

The propagator is an 8th-order embedded Runge-Kutta (DOP853, the in-house
loop) with dense output for event location, run forward only: from s = 0 to
an s_end in (0, inf).  The synodic angle phi is kept unwrapped and is
monotone decreasing along the flow in the regime of interest.  The section is
the R-symmetric {phi = 0 (mod 2pi)}, so the stable manifold needs no backward
span.  first_return finds a single orbit's next return to it as the first
time phi reaches the level 2pi k strictly below its start; a fan of orbits
reads all its crossings as the zeros of section_event()'s sin(phi/2).

Each crossing used downstream is polished with explicit Newton micro-steps in
time until |phi| (mod 2pi) is at machine level (<= 1e-13 guaranteed).

flow steps one orbit and repeats the arithmetic of scipy's solve_ivp DOP853
bit for bit: its tableau, initial-step rule, error norm, step-size
controller, underflow check and event location.  lockstep_flow advances many
orbits ("lanes") at once with the same scheme written in numpy: one
vectorised right-hand side per stage serves every lane, while each lane
keeps its own step size and accept/reject state.  Both right-hand sides are
core.potential_kernel's: flow calls its rates with four Python floats, the
lanes its field on numpy arrays, and they agree bit for bit.

Both integrators take events as solve_ivp does, ev(s, z) with `terminal`
and `direction` attributes, and add a terminal collision guard on
r = collision_radius after them.  One routine, _record_crossings, locates
and records a step's crossings for both: those of events[e] go to
Trajectory.t_events[e] or LockstepFlow.s_events[k][e], and a crossing of
the guard raises CollisionError with the located state.  A start inside
the cutoff, which the guard would never see crossed, raises it with that
start.

flow locates a step's event crossings as soon as the step is accepted.
lockstep_flow only queues each accepted step with a sign change and locates
the crossings of every queued step after its step loop, from one batched
dense output.  At a fan's size numpy's per-call overhead dominates the lane
field, so three calls on a few hundred queued steps cost far less than
three on each of the iterations that have a sign change.  A crossing of the
collision guard has the queue located at once, so CollisionError is raised
in the iteration that reaches it.  Both locate crossings by brentq on
scipy's Dop853DenseOutput Horner form, evaluated on Python floats with the
same IEEE operations.

In flow's step only the sums over stages stay in numpy: the 11 stage sums,
the combinations with B, E5 and E3, and the two squared error norms.
np.dot hands them to the BLAS kernel (dgemv, ddot), which adds with fused
multiply-adds in an order of its own (a two-term stage sum is
fma(a0, k0, a1 * k1)), and plain Python sums round differently; Python 3.11
has no math.fma.  Everything else is a single IEEE operation per element
and runs on Python floats with the same result: the stage states, the new
state, the error scale (with np.maximum's NaN) and the divisions by it.
The stage rows reach K, and the 4-vectors leave numpy, through memoryviews.
The accepted state stays a tuple of floats: the events get it as it is, and
the step stores it so.  Only a step with a sign change builds ndarrays of
its two end states, for its dense output, and t and y become arrays once,
when the trajectory is returned.

Nothing here imports scipy.  The DOP853 tableau is vendored in _dop853 from
scipy's literals, and brentq, which locates event crossings and serves the
splitting module's root solves, is a step-for-step port of scipy's; the
tests compare both with scipy bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import (copysign, cos, floor, inf, isnan, nan, nextafter, pi, sin,
                  sqrt)

import numpy as np

from . import _dop853 as _dop
from .core import (
    CollisionError,
    Params,
    collision_radius,
    potential_kernel,
)

__all__ = [
    "TOL_MIN",
    "TOL_MAX",
    "Trajectory",
    "flow",
    "LockstepFlow",
    "lockstep_flow",
    "section_event",
    "refine_to_section",
    "first_return",
    "brentq",
]

# scipy's solve_ivp raises any rtol below 100 eps to that floor with only a
# warning; flow repeats its arithmetic, so a smaller tol is refused.  A Python
# float, so that comparing it with an int of any size cannot overflow
TOL_MIN = float(100 * np.finfo(float).eps)
TOL_MAX = 1e-6


def _section_tol(phi: float) -> float:
    """Largest |phi| (mod 2pi) that counts as on the section: 1e-13,
    or the representation floor of a large unwrapped angle phi."""
    return max(1e-13, 16.0 * np.finfo(float).eps * abs(phi))


def _check_run(s_end: float, tol: float) -> float:
    """s_end as a float, once tol and s_end are checked: both integrators
    run forward from s = 0, so s_end must lie in (0, inf)."""
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    if not 0.0 < s_end < inf:
        raise ValueError(f"s_end must lie in (0, inf), got {s_end}")
    return float(s_end)


def _collision_event(p: Params, z0):
    """The terminal guard on r = collision_radius(p) for the starts z0 (a
    state or lanes as columns); a start inside it raises CollisionError."""
    r_cut = collision_radius(p)
    for z in z0.reshape(4, -1).T:
        if z[0] < r_cut:
            raise CollisionError(f"start inside the collision cutoff {r_cut}",
                                 last_state=z)

    def ev(s, z):
        return z[0] - r_cut

    ev.terminal = True
    ev.direction = -1.0
    return ev


# DOP853 tableau (Hairer, Norsett & Wanner, vendored from scipy in _dop853)
# and step-size controller, as in scipy.integrate's DOP853
_N_STAGES = _dop.N_STAGES
_A, _B, _D = _dop.A, _dop.B, _dop.D
_E3, _E5 = _dop.E3, _dop.E5
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0
_EPS = np.finfo(float).eps


@dataclass
class Trajectory:
    """Outcome of flow, under the names of scipy's solve_ivp result.

    t, y: the accepted step times and the states there, y[:, i] at t[i],
    from t[0] = 0 to s_end or to the terminal crossing.  t_events[e],
    y_events[e]: times and states of the crossings of events[e].  nfev:
    right-hand-side evaluations.  status: 0 when the span was integrated,
    1 when a terminal event fired.
    """

    t: np.ndarray
    y: np.ndarray
    t_events: list
    y_events: list
    nfev: int
    status: int


def flow(z0, s_end: float, tol: float, p: Params, events=()) -> Trajectory:
    """Integrate one orbit forward from s = 0 to s_end with the collision
    guard installed.

    Repeats the arithmetic of scipy's solve_ivp(fun, (0, s_end), z0,
    method="DOP853", rtol=tol, atol=tol * 1e-2, events=...) bit for bit, so
    its steps, states, event crossings and nfev are solve_ivp's.  The stage
    sums, the combinations with B, E5 and E3 and the two error norms go
    through ndarray.dot as scipy's do; every other operation of a step runs
    on Python floats, and the right-hand side is potential_kernel's rates on
    four float arguments.  Events are ev(s, z) with `terminal` (a bool) and
    `direction` attributes; the crossings of events[e] are t_events[e] and
    y_events[e], the collision guard going after them, all located and
    recorded by the routine lockstep_flow shares.  At the ends of each step
    z is the step's state as a tuple of four floats; inside a step with a
    sign change, where brentq locates the crossing on the step's dense
    output, z is an ndarray.  Only such a step builds arrays of its states;
    t and y become arrays once, at the end.

    Raises ValueError for a non-finite z0 or s_end outside (0, inf),
    CollisionError if z0 lies inside the collision cutoff or the trajectory
    reaches it, carrying z0 or the located state, and RuntimeError when the
    step size underflows.
    """
    s_end = _check_run(s_end, tol)
    z = np.array(z0, dtype=float)
    if z.shape != (4,) or not np.isfinite(z).all():
        raise ValueError("z0 must be a finite state [r, phi, y, G]")
    rates = potential_kernel(p, cos, sin, sqrt).rates

    def column(zc):
        """rates for the one-lane (4, 1) arrays of the lockstep helpers."""
        return np.array(rates(*zc[:, 0].tolist()))[:, None]

    evs = [*events, _collision_event(p, z)]
    ev_dir = [getattr(ev, "direction", 0.0) for ev in evs]
    terminal = [bool(getattr(ev, "terminal", False)) for ev in evs]
    # the sign-change test, once per direction: g rising through 0, falling
    # through 0, or either
    rising = [e for e, d in enumerate(ev_dir) if d > 0.0]
    falling = [e for e, d in enumerate(ev_dir) if d < 0.0]
    either = [e for e, d in enumerate(ev_dir) if d == 0.0]
    t_events = [[] for _ in evs[:-1]]
    y_events = [[] for _ in evs[:-1]]
    s = 0.0
    x = x0, x1, x2, x3 = tuple(z.tolist())
    ts, xs = [s], [x]
    ts_append, xs_append = ts.append, xs.append
    rtol, atol = tol, tol * 1e-2
    f = rates(x0, x1, x2, x3)
    h_abs = float(_initial_step(column, z[:, None], np.array(f)[:, None],
                                s_end, rtol, atol)[0])
    nfev = 2
    status = 0
    K3 = np.empty((1, _dop.N_STAGES_EXTENDED, 4))
    K = K3[0]
    # scipy's np.dot calls, bound to the views of K they read.  Each writes
    # its 4-vector into `out`, read through a memoryview, and the stage rows
    # go into K through another.  For i = 1..11, stages holds the dot of
    # stage i's sum np.dot(K[:i].T, A[i, :i]), that row of A, and the
    # offsets of row i's four entries in K.
    Kw = memoryview(K.reshape(-1))
    out = np.empty(4)
    outw = memoryview(out)
    stages = [(K[:i].T.dot, _A[i, :i], *range(4 * i, 4 * i + 4))
              for i in range(1, _N_STAGES)]
    combine_b = K[:_N_STAGES].T.dot
    combine_err = K[:_N_STAGES + 1].T.dot
    norm_sq = out.dot
    n0, n1, n2, n3 = range(4 * _N_STAGES, 4 * _N_STAGES + 4)
    B, E5, E3 = _B, _E5, _E3
    n_stages = _N_STAGES
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    exponent = _ERROR_EXPONENT
    g = [ev(s, x) for ev in evs]

    while s < s_end:
        min_step = 10.0 * (nextafter(s, inf) - s)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        Kw[0], Kw[1], Kw[2], Kw[3] = f
        a0, a1, a2, a3 = abs(x0), abs(x1), abs(x2), abs(x3)
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"integration failed: step size underflow "
                                   f"at s = {s}")
            s_new = s + h_abs
            if s_new > s_end:
                s_new = s_end
            h = h_abs = s_new - s
            for dot, a, j0, j1, j2, j3 in stages:
                dot(a, out)
                d0, d1, d2, d3 = outw
                Kw[j0], Kw[j1], Kw[j2], Kw[j3] = rates(
                    x0 + d0 * h, x1 + d1 * h, x2 + d2 * h, x3 + d3 * h)
            combine_b(B, out)
            d0, d1, d2, d3 = outw
            x_new = (x0 + h * d0, x1 + h * d1, x2 + h * d2, x3 + h * d3)
            f_new = Kw[n0], Kw[n1], Kw[n2], Kw[n3] = rates(*x_new)
            nfev += n_stages

            # np.maximum(|z|, |z_new|) with its NaN: a NaN in the new state
            # makes a NaN scale and so a rejected step (|z| is never NaN,
            # the state of an accepted step, where Python's max would drop it)
            b0, b1, b2, b3 = map(abs, x_new)
            c0 = atol + (a0 if a0 >= b0 else b0) * rtol
            c1 = atol + (a1 if a1 >= b1 else b1) * rtol
            c2 = atol + (a2 if a2 >= b2 else b2) * rtol
            c3 = atol + (a3 if a3 >= b3 else b3) * rtol
            combine_err(E5, out)
            d0, d1, d2, d3 = outw
            outw[0], outw[1], outw[2], outw[3] = (d0 / c0, d1 / c1,
                                                  d2 / c2, d3 / c3)
            e5 = sqrt(norm_sq(out)) ** 2
            combine_err(E3, out)
            d0, d1, d2, d3 = outw
            outw[0], outw[1], outw[2], outw[3] = (d0 / c0, d1 / c1,
                                                  d2 / c2, d3 / c3)
            e3 = sqrt(norm_sq(out)) ** 2
            if e5 == 0.0 and e3 == 0.0:
                err_norm = 0.0
            else:
                err_norm = h_abs * e5 / sqrt((e5 + 0.01 * e3) * 4)
            if err_norm < 1.0:
                factor = (max_factor if err_norm == 0.0 else
                          min(max_factor, safety * err_norm ** exponent))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(min_factor, safety * err_norm ** exponent)
            rejected = True

        s_old, x_old, s, f = s, x, s_new, f_new
        x = x0, x1, x2, x3 = x_new
        g_new = [ev(s, x) for ev in evs]
        active = []
        for e in falling:
            if g[e] >= 0.0 >= g_new[e]:
                active.append(e)
        for e in rising:
            if g[e] <= 0.0 <= g_new[e]:
                active.append(e)
        for e in either:
            a, b = g[e], g_new[e]
            if a <= 0.0 <= b or a >= 0.0 >= b:
                active.append(e)
        g = g_new
        if active:
            z_old = np.array(x_old)
            F = _dense_coefficients(column, K3, np.array([h]), z_old[:, None],
                                    np.array(x)[:, None])[0]
            nfev += 3
            z_at = _dense_state(F, z_old, s_old, h)
            stop = _record_crossings(evs, terminal, sorted(active), z_at,
                                     s_old, s, t_events, y_events)
            if stop is not None:
                status, s, x = 1, stop, tuple(z_at(stop).tolist())
        ts_append(s)
        xs_append(x)
        if status == 1:
            break

    return Trajectory(t=np.array(ts), y=np.array(xs).T,
                      t_events=[np.asarray(v) for v in t_events],
                      y_events=[np.asarray(v) for v in y_events],
                      nfev=nfev, status=status)


@dataclass
class LockstepFlow:
    """Outcome of lockstep_flow, lane k being column k of the input.

    s[k], z[:, k]: final time and state of lane k, at s_end or at the
    crossing that retired it.  s_events[k][e], z_events[k][e]: times and
    states of lane k's crossings of events[e], as flow's t_events[e] and
    y_events[e], recorded by the same routine.  work: lockstep iterations;
    accepted steps, rejected steps and right-hand-side evaluations summed
    over lanes; located steps, the lane steps whose crossings were located;
    and dense passes, the batched dense-output calls that located them.
    """

    s: np.ndarray
    z: np.ndarray
    s_events: list
    z_events: list
    work: dict


# The per-lane reductions below repeat scipy's own calls lane by lane: a
# batched matmul runs the BLAS kernel of np.dot on each (16, 4) stage block
# and 4-vector, so every lane's arithmetic is the arithmetic solve_ivp does.
# Bit for bit matters: far from the primaries DOP853's error estimate is at
# the rounding floor, and one ulp of difference grows within a few steps
# into a different step sequence.

def _combine(K, c):
    """np.dot(K[k, :len(c)].T, c) for every lane k, as a (4, m) array."""
    out = np.empty((4, len(K)))
    np.matmul(K[:, :len(c)].transpose(0, 2, 1), c, out=out.T)
    return out


def _norm(x):
    """np.linalg.norm of each column of a (4, m) array."""
    x = np.ascontiguousarray(x.T)
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _pow(x, a):
    """x ** a per lane with the scalar pow that scipy's controller uses;
    0 ** a is inf for a < 0, where Python's pow raises."""
    return np.array([v ** a if v or a > 0 else np.inf for v in x.tolist()])


def _initial_step(fun, z, f, interval, rtol, atol):
    """scipy's initial step rule (Hairer, Norsett & Wanner II.4), per lane,
    with Python's max and min, which keep their first argument against the
    NaN d2 of an overflowing field: a NaN step size would never underflow."""
    scale = atol + np.abs(z) * rtol
    d0 = _norm(z / scale) / 2.0
    d1 = _norm(f / scale) / 2.0
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1))
    h0 = np.minimum(h0, interval)
    d2 = _norm((fun(z + h0 * f) - f) / scale) / 2.0 / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                  _pow(0.01 / np.where(flat, 1.0, np.where(d2 > d1, d2, d1)),
                       0.125))
    h = np.where(h1 < 100.0 * h0, h1, 100.0 * h0)
    return np.where(interval < h, interval, h)


def _dense_coefficients(fun, K, h, z_old, z_new):
    """Coefficients of DOP853's interpolant over one step, per lane.

    K holds the step's 13 stages of k lanes and room for the 3 extra ones,
    shape (k, 16, 4); the result has shape (k, 7, 4).
    """
    for i in range(_N_STAGES + 1, K.shape[1]):
        K[:, i] = fun(z_old + _combine(K, _A[i, :i]) * h).T
    dz = (z_new - z_old).T
    hk = h[:, None]
    F = np.empty((len(K), _dop.INTERPOLATOR_POWER, 4))
    F[:, 0] = dz
    F[:, 1] = hk * K[:, 0] - dz
    F[:, 2] = 2.0 * dz - hk * (K[:, _N_STAGES] + K[:, 0])
    F[:, 3:] = h[:, None, None] * np.matmul(_D, K)
    return F


def _dense_state(F, z_old, s_old, h):
    """State on one lane's step at time t, from its (7, 4) coefficients.

    scipy's Dop853DenseOutput Horner form on Python floats: from y = 0, each
    row of F from the last is added and the sum scaled by x or 1 - x in
    turn, then z_old is added.  Each is one IEEE add or multiply per
    component, as numpy's, so the state is scipy's bit for bit.
    """
    rows = F[::-1].tolist()
    y0, y1, y2, y3 = z_old.tolist()
    s_old, h = float(s_old), float(h)

    def z_at(t):
        x = (t - s_old) / h
        w = (x, 1.0 - x)
        z0 = z1 = z2 = z3 = 0.0
        for i, (f0, f1, f2, f3) in enumerate(rows):
            wi = w[i & 1]
            z0, z1, z2, z3 = ((z0 + f0) * wi, (z1 + f1) * wi,
                              (z2 + f2) * wi, (z3 + f3) * wi)
        return np.array((z0 + y0, z1 + y1, z2 + y2, z3 + y3))

    return z_at


def lockstep_flow(z0, s_end: float, tol: float, p: Params,
                  events=()) -> LockstepFlow:
    """Integrate the lanes z0[:, k] from s = 0 to s_end > 0 together.

    Each lane takes the steps that flow(z0[:, k], s_end, tol, p, events)
    takes, with the same DOP853 tableau, initial-step rule, error norm and
    step-size controller, and repeats its arithmetic.  Each lockstep
    iteration makes one step attempt in every live lane with one vectorised
    right-hand side per stage; lanes keep their own step size and
    accept/reject state.

    Events follow flow's conventions (ev(s, z) with `terminal` and
    `direction`, the crossings of events[e] in s_events[k][e], the collision
    guard after them) but get arrays: z of shape (4, m) and s of shape
    (m,).  A sign change over an accepted step is located on the lane's
    dense output as solve_ivp does, and a terminal crossing retires the
    lane: crossings before it in that step are kept, later ones dropped.
    The lane retires in the iteration of that step, but the crossings of
    all lanes are located after the step loop, in step order, from one
    batched dense output, each lane step by flow's routine; only a
    crossing of the collision guard has the queued steps located at once.
    An event may carry a `gate(s, z)` attribute; its crossings are then
    located only in steps with the gate true at either end, which spares
    locating crossings the caller would discard.

    Raises ValueError as flow does, CollisionError, with the lane's start or
    its state at the cutoff, when a lane starts inside the collision cutoff
    or reaches it, and RuntimeError when a lane's step size underflows.
    """
    s_end = _check_run(s_end, tol)
    rtol, atol = tol, tol * 1e-2
    rates = potential_kernel(p, np.cos, np.sin, np.sqrt).rates

    def fun(z):
        """The field on a (4, m) array of states, one lane per column."""
        out = np.empty_like(z)
        out[0], out[1], out[2], out[3] = rates(*z)
        return out

    z = np.array(z0, dtype=float)
    if z.ndim != 2 or z.shape[0] != 4 or not np.isfinite(z).all():
        raise ValueError("z0 must hold finite states [r, phi, y, G] as columns")
    evs = [*events, _collision_event(p, z)]
    ev_dir = np.array([getattr(ev, "direction", 0.0) for ev in evs])[:, None]
    terminal = np.array([bool(getattr(ev, "terminal", False)) for ev in evs])
    gates = [(e, ev.gate) for e, ev in enumerate(evs) if hasattr(ev, "gate")]
    n = z.shape[1]
    lane = np.arange(n)
    s = np.zeros(n)
    f = fun(z)
    h_abs = _initial_step(fun, z, f, s_end, rtol, atol)
    rejected = np.zeros(n, dtype=bool)
    g = np.array([ev(s, z) for ev in evs])
    K = np.empty((n, _dop.N_STAGES_EXTENDED, 4))
    out = LockstepFlow(s=np.empty(n), z=np.empty((4, n)),
                       s_events=[[[] for _ in events] for _ in range(n)],
                       z_events=[[[] for _ in events] for _ in range(n)],
                       work={"lockstep_iterations": 0, "accepted_steps": 0,
                             "rejected_steps": 0, "rhs_evals": 2 * n,
                             "located_steps": 0, "dense_passes": 0})
    work = out.work
    # Accepted steps with a sign change wait here, in step order, each as
    # its lanes' stage rows (with room for the 3 dense-output stages), lane
    # numbers, s, s_new, h, z, z_new and event hits
    queue = []

    def locate_queued():
        """Locate the crossings of every queued step from one batched dense
        output, lane by lane in step order."""
        Ks, *rest = zip(*queue)
        Kq = np.concatenate(Ks)
        lanes, s0, s1, hq, z0q, z1q, hits = (np.concatenate(x, axis=-1)
                                              for x in rest)
        queue.clear()
        F = _dense_coefficients(fun, Kq, hq, z0q, z1q)
        work["rhs_evals"] += 3 * len(hq)
        work["located_steps"] += len(hq)
        work["dense_passes"] += 1
        for j, k in enumerate(lanes.tolist()):
            z_at = _dense_state(F[j], z0q[:, j], s0[j], hq[j])
            stop = _record_crossings(evs, terminal, np.flatnonzero(hits[:, j]),
                                     z_at, s0[j], s1[j], out.s_events[k],
                                     out.z_events[k])
            if stop is not None:
                out.s[k], out.z[:, k] = stop, z_at(stop)

    while lane.size:
        m = lane.size
        work["lockstep_iterations"] += 1
        work["rhs_evals"] += _N_STAGES * m
        min_step = 10.0 * np.spacing(s)
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        if np.any(h_abs < min_step):
            i = np.argmax(h_abs < min_step)
            raise RuntimeError(f"integration failed: step size underflow "
                               f"in lane {lane[i]} at s = {s[i]}")
        s_new = np.minimum(s + h_abs, s_end)
        h = s_new - s
        K[:, 0] = f.T
        for i in range(1, _N_STAGES):
            K[:, i] = fun(z + _combine(K, _A[i, :i]) * h).T
        z_new = z + h * _combine(K, _B)
        f_new = fun(z_new)
        K[:, _N_STAGES] = f_new.T

        scale = atol + np.maximum(np.abs(z), np.abs(z_new)) * rtol
        e5 = _norm(_combine(K, _E5) / scale) ** 2
        e3 = _norm(_combine(K, _E3) / scale) ** 2
        denom = e5 + 0.01 * e3
        err = h * e5 / np.sqrt(np.where(denom > 0.0, denom, 1.0) * 4)
        ok = err < 1.0
        ratio = _SAFETY * _pow(err, _ERROR_EXPONENT)
        factor = np.where(ok, np.minimum(_MAX_FACTOR, ratio),
                          np.fmax(_MIN_FACTOR, ratio))
        h_abs = h * np.where(ok & rejected, np.minimum(1.0, factor), factor)
        rejected = ~ok
        n_ok = int(np.count_nonzero(ok))
        work["accepted_steps"] += n_ok
        work["rejected_steps"] += m - n_ok
        if n_ok == 0:
            continue

        g_new = np.array([ev(s_new, z_new) for ev in evs])
        up = (g <= 0.0) & (g_new >= 0.0)
        down = (g >= 0.0) & (g_new <= 0.0)
        hit = ok & ((up & (ev_dir > 0.0)) | (down & (ev_dir < 0.0))
                    | ((up | down) & (ev_dir == 0.0)))
        for e, gate in gates:
            hit[e] &= gate(s, z) | gate(s_new, z_new)
        done = ok & (s_new >= s_end)
        out.s[lane[done]], out.z[:, lane[done]] = s_new[done], z_new[:, done]
        cols = np.flatnonzero(hit.any(axis=0))
        if cols.size:
            queue.append((K[cols], lane[cols], s[cols], s_new[cols], h[cols],
                          z[:, cols], z_new[:, cols], hit[:, cols]))
            done |= (hit & terminal[:, None]).any(axis=0)
            if hit[-1].any():
                locate_queued()

        s = np.where(ok, s_new, s)
        z = np.where(ok, z_new, z)
        f = np.where(ok, f_new, f)
        g = np.where(ok, g_new, g)
        if done.any():
            keep = ~done
            lane, s, z, f, g = lane[keep], s[keep], z[:, keep], f[:, keep], g[:, keep]
            h_abs, rejected, K = h_abs[keep], rejected[keep], K[keep]

    if queue:
        locate_queued()
    for k in range(n):
        out.s_events[k] = [np.asarray(x) for x in out.s_events[k]]
        out.z_events[k] = [np.asarray(x) for x in out.z_events[k]]
    return out


# scipy.optimize.brentq's default relative tolerance and iteration limit,
# the only ones any caller uses
_BRENT_RTOL = float(4.0 * _EPS)
_BRENT_MAXITER = 100


def brentq(f, a, b, xtol):
    """Root of f in the bracket [a, b] by Brent's method (Brent 1973, ch. 4).

    A step-for-step translation of scipy's brentq.c, so it returns
    scipy.optimize.brentq(f, a, b, xtol=xtol) bit for bit; f gets Python
    floats.  Raises ValueError for xtol <= 0, f(a) and f(b) of one sign, or
    a NaN value of f, and RuntimeError when _BRENT_MAXITER iterations end
    unconverged.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xtol = float(xtol)

    def fn(x):
        fx = float(f(x))
        if isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; "
                             "brentq cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fn(xpre), fn(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if copysign(1.0, fpre) == copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if (fpre != 0.0 and fcur != 0.0
                and copysign(1.0, fpre) != copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        # the tolerance is 2 delta
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C's inf or NaN here fails the test below: bisect
                stry = nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fn(xcur)
    raise RuntimeError(f"brentq failed to converge after {_BRENT_MAXITER} "
                       f"iterations, value is {xcur}")


def _record_crossings(evs, terminal, active, z_at, s_old, s_new, t_events,
                      y_events):
    """Locate and record one step's crossings of evs[active], the events
    with a sign change over [s_old, s_new], as solve_ivp's handle_events
    does: roots by brentq on the step's dense output z_at and, when a
    terminal event is among them, only the crossings up to the first
    terminal one in time order.  The crossings of evs[e] are appended to
    t_events[e] and y_events[e].  evs[-1] is the collision guard, which has
    no list: its crossing raises CollisionError with the located state.

    Returns the time of the terminal crossing, or None.
    """
    roots = np.array([brentq(lambda t, ev=evs[e]: ev(t, z_at(t)), s_old,
                             s_new, xtol=4.0 * _EPS)
                      for e in active])
    crossings = list(zip(active, roots.tolist()))
    stop = None
    if any(terminal[e] for e in active):
        order = np.argsort(roots)
        crossings = [crossings[i] for i in order]
        cut = next(i for i, (e, _) in enumerate(crossings) if terminal[e])
        crossings = crossings[:cut + 1]
        stop = crossings[-1][1]
    for e, t in crossings:
        if e == len(evs) - 1:
            raise CollisionError("trajectory reached the collision cutoff",
                                 last_state=z_at(t))
        t_events[e].append(t)
        y_events[e].append(z_at(t))
    return stop


def section_event():
    """Event function vanishing exactly on the section {phi = 0 (mod 2pi)},
    crossed in either direction and not terminal; it takes one state or an
    array of lanes."""

    def ev(s, z):
        return np.sin(0.5 * z[1])

    ev.terminal = False
    ev.direction = 0.0
    return ev


def refine_to_section(z, p: Params) -> np.ndarray:
    """Polish a near-crossing state onto phi = 0 with Newton micro-steps.

    The correction steps are explicit Euler in time, exact to O(ds^2), so the
    residual |phi| mod 2pi contracts quadratically down to the
    representation floor of the unwrapped angle (one ulp of |phi|, i.e.
    <= 1e-13 whenever |phi| <= ~700; the time location is always accurate to
    ~1e-14 / |dphi/ds| regardless).
    """
    rhs = potential_kernel(p, cos, sin, sqrt).field
    z = np.asarray(z, dtype=float).copy()
    floor = max(1e-15, 4.0 * np.finfo(float).eps * abs(z[1]))
    for _ in range(5):
        w = (z[1] + pi) % (2.0 * pi) - pi
        if abs(w) <= floor:
            break
        f = rhs(0.0, z)
        ds = -w / f[1]
        z += ds * np.asarray(f)
    w = (z[1] + pi) % (2.0 * pi) - pi
    if abs(w) > _section_tol(z[1]):
        raise RuntimeError(f"section refinement stalled at |phi| = {abs(w)}")
    return z


def first_return(z, p: Params, tol: float, s_max: float, events=()):
    """Next return of one orbit to the section {phi = 0 (mod 2pi)}.

    phi decreases along the flow, so the return is the first time the
    unwrapped angle reaches the level 2pi k strictly below z[1]; a
    state already on the section (within refine_to_section's tolerance) goes
    on to the next level.  One flow call from 0 to s_max with events and,
    after them, a terminal event on phi - level: the crossings of events[e]
    are the trajectory's t_events[e], and as the level crossing ends the
    trajectory, the return time is its t[-1].

    Returns (trajectory, z_return), z_return being the crossing polished by
    refine_to_section, or None when a terminal event of events or s_max came
    first.  CollisionError from flow propagates.  s_max must be positive,
    as flow runs forward only.
    """
    if not s_max > 0.0:
        raise ValueError(f"s_max must be positive, got {s_max}")
    k = floor(z[1] / (2.0 * pi))
    if z[1] - 2.0 * pi * k <= _section_tol(z[1]):
        k -= 1
    level = 2.0 * pi * k

    def ev(s, zz):
        return zz[1] - level

    ev.terminal = True
    ev.direction = -1.0
    sol = flow(z, s_max, tol, p, events=[*events, ev])
    if len(sol.t_events[-1]) == 0:
        return sol, None
    return sol, refine_to_section(sol.y_events[-1][0], p)
