"""Fourier coefficients of the Melnikov potential of the parabolic separatrix,
and the leading-order predictions of the splitting they give.

The splitting of the stable/unstable manifolds of infinity is governed, at
first order, by the Melnikov potential

    L(v, xi) = int V(r_h(v+s), xi - g0^3 s + alpha_h(v+s)) ds
             = L[0] + 2 sum_{l>=1} L[l] cos(l (xi + g0^3 v)),

whose coefficients are exponentially small in g0 (L[l] ~ e^{-l g0^3/3}).
Three independent routes are implemented:

quadrature : real-line oscillatory integral of the angular Fourier modes of
    the perturbation along the separatrix.  Reliable in binary64 for g0 <= 2
    where the coefficients sit well above roundoff.  Each mode U[l](r) is a
    periodic trapezoid sum over an N-point angle grid.  Mode k of the
    potential decays like rho^|k| with rho = max(mu, 1-mu)/(g0^2 r), so the
    grid's aliasing error is about rho^(N-|l|)/r; each node takes the
    smallest N in {16, 32, 64, 128, 256} with
    N >= |l| + 1 + ln(eps)/ln(rho), which puts that error below the rounding
    floor eps/r of the sum.  Where rho >= 1 (the separatrix passes inside a
    primary's circle) or the rule asks for more, the node takes the full
    256-point grid.  The potential on the grid is core.potential_kernel's V
    on numpy arrays.  The error estimate includes twice the change of the
    panels near perihelion under a 24-node rule.
contour    : binomial-series reduction to the oscillatory integrals
    I(l, j + l, j), l >= 1, computed on a complex path hugging
    Re(tau + tau^3/3) = 0 through the singularity tau = i.  Well-conditioned
    at any g0 because the integrand peak matches the result scale.  The
    j-terms of one harmonic share the path, its nodes and the phase factor,
    and differ by the factor (tau - i)^{-2l} q^j with
    q = ((tau - i)(tau + i))^{-2}: one call evaluates them all, each with
    its floor, in binary64 on shared Gauss panels or in mpmath by one
    vector-valued tanh-sinh sum, whose nodes are evaluated by mpmath's libmp
    functions on raw tuples and whose pole factors and step sums run on
    per-node scaled integers.  The path is mirror-symmetric, so mpmath
    evaluates it once per mirror pair of nodes, at a > 0; the node at -a
    takes the conjugates, bit for bit.
asymptotic : leading-order closed forms for l = 1, 2, the one place where
    their constants are written.  The predicted splitting distance (its
    amplitudes A_l = 2 l g0^3 |L[l]|) and lobe area (4(|L1| + |L2|)) are
    computed from them.

Sign conventions: the coefficient signs follow the cross-validated values
L[1] < 0 and L[2] > 0 (for mu < 1/2); the predictions keep the relative sign
of the two harmonics, which fixes the homoclinic root geometry (extra root
pair at cos x = |L1/(4 L2)|, tangency at x = 0 mod 2pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import exp, inf, pi, sqrt

import numpy as np

from .core import Params, PrecisionError, potential_kernel
from .separatrix import (
    homoclinic_alpha,
    homoclinic_r,
    homoclinic_y,
    tau_of_v,
    v_of_tau,
)

__all__ = [
    "uhat_fourier_coeff",
    "uhat_fourier_coeff_quadrature",
    "QuadratureResult",
    "melnikov_coeff_quadrature",
    "contour_integral_I",
    "contour_integral_leading",
    "melnikov_coeff_contour",
    "melnikov_coeff_asymptotic",
    "MelnikovSeries",
    "phase_of_v",
    "predicted_distance",
    "predicted_lobe_area",
    "predicted_tangency_mu",
    "MP_DPS_MIN",
]

_EPS = float(np.finfo(float).eps)

# fewest digits of the extended route: below 17 it carries fewer digits than
# binary64 (17 round-trip a double).  It is not enough for the default series
# (lmax 4, jmax 12), which is refused as not real, on a term I(l, j + l, j)
# with j >= 9, at 17, 20, 22 and 25 digits and passes at 28, 30, 33 and 40 at
# each (mu, g0) measured: (0.3, 3.5), (0.45, 4.5), (0.3, 2.0), (0.1, 4.0),
# (0.49, 3.0) and (0.3, 5.0).  The cause is not yet known
MP_DPS_MIN = 17


def _check_mp_dps(mp_dps) -> None:
    if mp_dps is not None and not mp_dps >= MP_DPS_MIN:
        raise ValueError(f"mp_dps must be at least {MP_DPS_MIN}, got {mp_dps!r}")


def _binom_half_table(n: int) -> np.ndarray:
    """Binomial coefficients C(-1/2, j) for j = 0..n: 1, -1/2, 3/8, ..."""
    out = np.empty(n + 1)
    out[0] = 1.0
    for k in range(1, n + 1):
        out[k] = out[k - 1] * (-(2 * k - 1) / (2 * k))
    return out


def _mass_factor(l: int, j: int, mu: float) -> float:
    # mu (1-mu)^(2j+l) + (-1)^l (1-mu) mu^(2j+l); vanishes identically for
    # odd l at mu = 1/2 and for all terms at mu = 0.
    return (mu * (1.0 - mu) ** (2 * j + l)
            + (-1) ** l * (1.0 - mu) * mu ** (2 * j + l))


# ---------------------------------------------------------------------------
# Angular Fourier modes of the perturbation along the separatrix
# ---------------------------------------------------------------------------

def uhat_fourier_coeff(l: int, v: float, p: Params, jmax: int = 12) -> float:
    """Mode l of theta -> V(r_h(v), theta) by the binomial series.

    U[l](v) = sum_{j >= max(delta0(l), -l)} c_j c_{j+l}
              [mu(1-mu)^(2j+l) + (-1)^l (1-mu) mu^(2j+l)]
              / (g0^(4j+2l) r_h(v)^(2j+l+1)),

    keeping jmax + 1 terms from the first index j0 = max(delta0(l), -l), so
    the truncation depth does not depend on the sign of l and the modes stay
    exactly even in l.  The omitted terms decay geometrically, with ratio
    (max(mu, 1-mu)/(g0^2 r_h(v)))^2 at most 1/4 on the allowed radii.  Real.
    Requires r_h(v) > 2 max(mu, 1-mu)/g0^2 so the series converges with
    margin.
    """
    if jmax < 1:
        raise ValueError("jmax must be at least 1")
    l = int(l)
    r = homoclinic_r(v)
    mbar = max(p.mu, 1.0 - p.mu) / p.g0**2
    if not r > 2.0 * mbar:
        raise ValueError(
            f"r_h(v)={r:.4g} inside twice the primary distance {mbar:.4g}; "
            "series unreliable")
    j0 = max(1 if l == 0 else 0, -l)
    cj = _binom_half_table(j0 + jmax + abs(l) + 2)
    total = 0.0
    for j in range(j0, j0 + jmax + 1):
        mass = _mass_factor(l, j, p.mu)
        if mass == 0.0:
            continue
        total += (cj[j] * cj[j + l] * mass
                  / (p.g0 ** (4 * j + 2 * l) * r ** (2 * j + l + 1)))
    return total


_N_THETA = 256
_THETA_GRIDS = (16, 32, 64, 128)
# entries of the largest potential matrix formed at once: 32 nodes x 256.
# V's elementwise passes hold about six temporaries of a block's size; at
# 8192 entries each is 64 KiB, below glibc's 128 KiB mmap threshold, so
# they come from the heap and stay in a core's L2 cache.  Larger blocks
# have each temporary mapped afresh and page-faulted.  The (0.3, 1.5)
# quadrature series of lmax 4, repeated in one fresh process, took 80600
# page faults and 0.38-0.44 CPU s a call at 3072 x 256 entries (6 MiB
# temporaries), 53100 and 0.33-0.36 s at 32768, and 0-250 and 0.26-0.28 s
# here.  Its coefficients and error estimates are bit-identical at
# 786432, 65536, 32768, 16384 and 8192 entries.
_V_BLOCK = 8192


def _theta_grid_sizes(l: int, r: np.ndarray, p: Params) -> np.ndarray:
    """Angle-grid size per radius: the smallest N in {16, 32, 64, 128, 256}
    with N >= |l| + 1 + ln(eps)/ln(rho), rho = max(mu, 1-mu)/(g0^2 r), so
    the aliasing error rho^(N-|l|)/r is below the rounding floor eps/r; 256
    wherever rho >= 1 or the rule asks for more."""
    rho = max(p.mu, 1.0 - p.mu) / (p.g0**2 * r)
    inside = rho < 1.0
    need = np.full(r.shape, np.inf)
    need[inside] = abs(l) + 1 + math.log(_EPS) / np.log(rho[inside])
    sizes = np.full(r.shape, _N_THETA)
    for n in reversed(_THETA_GRIDS):
        sizes = np.where(need <= n, n, sizes)
    return sizes


def _uhat_modes(l: int, r: np.ndarray, p: Params) -> np.ndarray:
    """Mode l of theta -> V(r, theta) at each radius of the 1-d array r.

    The periodic trapezoid on each radius's grid (_theta_grid_sizes) with the
    complex weights e^{-i l theta}/N over all N points; nodes sharing a grid
    are evaluated together, no more than _V_BLOCK potential values at once.
    The grid sizes are taken in increasing order from the fixed five, each
    skipped where no node has it.
    """
    V = potential_kernel(p, np.cos, np.sin, np.sqrt).V
    sizes = _theta_grid_sizes(l, r, p)
    out = np.empty(r.shape, dtype=complex)
    for n in (*_THETA_GRIDS, _N_THETA):
        idx = np.flatnonzero(sizes == n)
        if not idx.size:
            continue
        theta = 2.0 * pi * np.arange(n) / n
        w = np.exp(-1j * l * theta) / n
        # real and imaginary parts of the weights as two real columns: a
        # real matrix product, without casting V to complex
        w2 = np.stack([w.real, w.imag], axis=1)
        cp = np.cos(theta)
        step = max(1, _V_BLOCK // n)
        for k in range(0, idx.size, step):
            sel = idx[k:k + step]
            s = V(r[sel, None], cp) @ w2
            out[sel] = s[:, 0] + 1j * s[:, 1]
    return out


def uhat_fourier_coeff_quadrature(l: int, v, p: Params) -> complex:
    """Mode l of theta -> V(r_h(v), theta) by the periodic trapezoid rule.

    Spectrally accurate (the potential is analytic in theta); serves as the
    independent oracle for uhat_fourier_coeff and as the mode evaluator of
    the real-line quadrature route.  Each node's grid is the smallest that
    keeps the aliasing error below the rounding floor eps/r_h(v), and the
    full 256 points where that cannot be ensured (_theta_grid_sizes).
    v may be an array.
    """
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    out = _uhat_modes(l, np.asarray(homoclinic_r(v_arr)), p)
    return out if np.ndim(v) else complex(out[0])


# ---------------------------------------------------------------------------
# Route 1: real-line oscillatory quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureResult:
    """Real-line quadrature of a Melnikov coefficient with diagnostics.

    tail_bound bounds what the integration-by-parts boundary terms leave of
    the two tails beyond |t| = T, summed over both; step_error estimates the
    Gauss panels' error near perihelion (melnikov_coeff_quadrature).
    """

    value: float
    imag_residue: float
    tail_bound: float
    noise_floor: float
    step_error: float


_GL12 = np.polynomial.legendre.leggauss(12)
_GL24 = np.polynomial.legendre.leggauss(24)
# the binary64 contour's panels are summed at 16 and at 24 (_GL24) nodes
_GL16 = np.polynomial.legendre.leggauss(16)
# panels meeting |t| <= _T_NEAR are checked against the 24-node rule: the
# separatrix passes its perihelion r = 1/2, nearest the primaries, at t = 0
_T_NEAR = 5.0
# the real-line quadrature's tail tolerance: it cuts the line where what the
# boundary terms leave of both tails is below QUAD_TOL/10
QUAD_TOL = 1e-9


def _g_factor(t_nodes: np.ndarray, l: int, p: Params) -> np.ndarray:
    """Slow part g(t) = U[l](t) e^{i l alpha_h(t)} of the oscillatory integrand.

    r_h and alpha_h come from one tau per node (the closed forms of
    separatrix.homoclinic_r and homoclinic_alpha)."""
    tau = np.asarray(tau_of_v(t_nodes))
    u = _uhat_modes(l, 0.5 * (tau * tau + 1.0), p)
    return u * np.exp(1j * l * (2.0 * np.arctan(tau)))


def _panel_terms(a: np.ndarray, b: np.ndarray, l: int, omega: float,
                 p: Params, rule):
    """Integrand g(t) e^{-i omega t} and weights at the nodes of the Gauss
    rule (nodes, weights) on the panels [a_k, b_k]."""
    x, w = rule
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return _g_factor(nodes, l, p) * np.exp(-1j * omega * nodes), wts


def melnikov_coeff_quadrature(l: int, p: Params) -> QuadratureResult:
    """Coefficient L[l] as the real-line integral of U[l](t) e^{i l (alpha_h(t) - g0^3 t)}.

    Gauss panels matched to the oscillation period cover |t| <= T, and the
    two leading integration-by-parts boundary terms of each tail are added in
    closed form.  With g = U[l] e^{i l alpha_h} and w = l g0^3, what they
    leave of a tail is (i w)^-2 int_T^inf g''(t) e^{-i w t} dt, at most
    4 |g''(T)| / w^3 if |g''| decays monotonically beyond T (the van der
    Corput bound).  T is set so that this bound, summed over both tails, is
    below QUAD_TOL/10; the sum is tail_bound.  Returns the real part with
    the imaginary residue as a reality diagnostic.

    The panels converge slowest near perihelion, closest to the primaries:
    step_error is twice their change, where |t| <= 5, from 12 to 24 nodes,
    which bounds the 12-node error if 24 nodes are at least twice as
    accurate.  It does not enter the value.

    Restricted to g0 <= 2 in binary64: beyond that the result approaches the
    quadrature noise floor (use the contour route instead).
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    if p.g0 > 2.0:
        raise PrecisionError(
            "real-line quadrature is specified for g0 <= 2 in binary64; "
            "use the contour route for larger g0")
    if p.mu == 0.0:
        return QuadratureResult(0.0, 0.0, 0.0, 0.0, 0.0)

    omega = l * p.g0**3

    # Truncation point: march outward until what the boundary terms leave of
    # both tails, bounded by 4 |g''(+-T)| / w^3, drops below QUAD_TOL/10.
    # g'' is the second central difference of g at T - h, T, T + h: the
    # three values the boundary terms take at the T the march stops on.
    h = 1e-3
    T = 20.0
    while True:
        ends = [_g_factor(np.array([tb - h, tb, tb + h]), l, p)
                for tb in (T, -T)]
        tail_bound = sum(4.0 * abs(g[2] - 2.0 * g[1] + g[0]) / h**2
                         for g in ends) / omega**3
        if tail_bound <= 0.1 * QUAD_TOL or T > 2e4:
            break
        T *= 1.4

    width = 0.25 * 2.0 * pi / omega
    n_panels = int(np.ceil(2.0 * T / width))
    edges = np.linspace(-T, T, n_panels + 1)

    total = 0.0 + 0.0j
    abs_sum = 0.0
    block = 256
    for i0 in range(0, n_panels, block):
        i1 = min(i0 + block, n_panels)
        f, wts = _panel_terms(edges[i0:i1], edges[i0 + 1:i1 + 1], l, omega,
                              p, _GL12)
        total += np.sum(f * wts)
        abs_sum += float(np.sum(np.abs(f) * np.abs(wts)))

    near = (edges[1:] > -_T_NEAR) & (edges[:-1] < _T_NEAR)
    sums = []
    for rule in (_GL12, _GL24):
        f, wts = _panel_terms(edges[:-1][near], edges[1:][near], l, omega,
                              p, rule)
        sums.append(np.sum(f * wts))
    step_error = 2.0 * float(abs(sums[1] - sums[0]))

    # Integration-by-parts boundary terms of both tails:
    #   int_T^inf g e^{-i w t} dt = e^{-i w T} [ g(T)/(i w) + g'(T)/(i w)^2 ] + ...
    for sign, g0v in zip((+1.0, -1.0), ends):
        tb = sign * T
        gp = (g0v[2] - g0v[0]) / (2.0 * h)
        phase = np.exp(-1j * omega * tb)
        contrib = phase * (g0v[1] / (1j * omega) + gp / (1j * omega) ** 2)
        total += sign * contrib

    floor = 10.0 * _EPS * abs_sum
    if QUAD_TOL < floor:
        raise PrecisionError(f"quadrature tolerance {QUAD_TOL:g} below its "
                             f"noise floor {floor:g}")
    return QuadratureResult(value=float(total.real),
                            imag_residue=float(total.imag),
                            tail_bound=float(tail_bound),
                            noise_floor=float(floor),
                            step_error=step_error)


def melnikov_coeff0_quadrature(p: Params,
                               tau_max: float = 300.0) -> tuple[float, float]:
    """Mean coefficient L[0] and its error estimate.

    L[0] is the plain (non-oscillatory) integral of U[0], evaluated in the
    cubic variable where the decay is tau^-4, by the trapezoid with 10 nodes
    per unit of tau on |tau| <= tau_max.  The estimate is the leading
    closed-form tail 2 mu (1-mu) / (3 g0^4 tau_max^3) of the integrand
    mu (1-mu)/(g0^4 tau^4) beyond +-tau_max, plus the trapezoid's step error,
    read as half the difference from the midpoint rule on the same step.
    """
    if p.mu == 0.0:
        return 0.0, 0.0
    n = int(round(20.0 * tau_max))
    tau = np.linspace(-tau_max, tau_max, n)

    def integrand(t):
        u0 = uhat_fourier_coeff_quadrature(0, np.asarray(v_of_tau(t)), p).real
        return u0 * (0.5 * (t * t + 1.0))

    value = float(np.trapezoid(integrand(tau), tau))
    mid = 0.5 * (tau[:-1] + tau[1:])
    midpoint = float(np.sum(integrand(mid) * np.diff(tau)))
    tail = 2.0 * p.mu * (1.0 - p.mu) / (3.0 * p.g0**4 * tau_max**3)
    return value, tail + 0.5 * abs(value - midpoint)


# ---------------------------------------------------------------------------
# Route 2: complex-contour integrals I(l, m, n)
# ---------------------------------------------------------------------------

def _bent_path(a, delta, wb, sqrt, exp, j):
    """Point tau(a) and slope dtau/da of the path through i.

    The path follows the zero-phase curve Im tau = sqrt(1 + a^2/3) of
    Re(tau + tau^3/3) = 0 and dips toward the real axis by a Gaussian bump of
    depth delta and width wb, passing the pole on the side of the original
    (real-axis) contour.  Written once for numpy arrays and mpmath scalars;
    j is the imaginary unit of the caller's arithmetic (1j, or mpmath's j,
    which spares converting a Python complex at every operation).  The
    extended route runs the mpmath form as _mp_node's libmp calls, which the
    tests hold equal to this one at every node, bit for bit.
    """
    br = sqrt(1 + a * a / 3)
    bump = exp(-((a / wb) ** 2))
    b = br - delta * bump
    bp = a / (3 * br) + delta * bump * 2 * a / wb**2
    return a + j * b, 1 + j * bp


def _pole_terms(lead, tau, l, js):
    """The j-terms lead (tau - i)^{-2(j + l)} (tau + i)^{-2j} = lead u^l q^j,
    j in js, with u = (tau - i)^{-2} and q = ((tau - i)(tau + i))^{-2},
    whose powers are built by recurrence."""
    u = 1 / (tau - 1j) ** 2
    w = 1 / (tau + 1j) ** 2
    q = u * w
    qpow = [1]
    for _ in range(js[-1]):
        qpow.append(qpow[-1] * q)
    head = lead * u**l
    return [head * qpow[j] for j in js]


def _contour_terms(l: int, js, p: Params):
    """Binary64 values of I(l, j + l, j), j in js, on shared Gauss panels,
    with floors.

    The path's panels are graded toward a = 0 on the scale dip/order, order
    = js[-1] + l being the highest pole order, where that pole factor
    varies fastest.  Every panel is built in one array operation, at 16 and
    at 24 nodes; each term must agree between the two to 1e-8 of its size or
    to its arithmetic floor 50 eps peak (peak = max |integrand| on the path),
    and must be real to the same level.  The sums and peaks are taken term
    by term: a term's array is 10-20 KiB, where the 13 of a harmonic
    stacked into one took about 270 KiB, above glibc's 128 KiB mmap
    threshold, and were mapped and page-faulted afresh at every call.
    """
    omega = l * p.g0**3
    ws = 1.0 / sqrt(omega)
    delta = 0.75 * ws
    wb = 3.0 * ws
    half_w = l * p.g0**3 / 2.0
    order = js[-1] + l

    # Half-length: undipped-path exponent (omega/2)(h(a) - 2/3) >= 46 with
    # h(a) - 2/3 >= (8/9) a^2.
    A = max(8.0 * wb, sqrt(46.0 * 2.0 / omega / (8.0 / 9.0)) * 1.5)

    edges = [0.0]
    a = delta / (2.0 * order)
    while a < A:
        edges.append(a)
        a *= 1.3
    edges.append(A)
    edges = np.array(edges)
    edges = np.concatenate([-edges[::-1], edges[1:]])
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]

    sums = []
    for nodes_ref, weights_ref in (_GL16, _GL24):
        tau, dtau = _bent_path(mid + half * nodes_ref, delta, wb,
                               np.sqrt, np.exp, 1j)
        lead = np.exp(1j * half_w * (tau + tau**3 / 3.0)) * dtau
        hw = half * weights_ref
        terms = _pole_terms(lead, tau, l, js)
        sums.append(np.array([np.sum(t * hw) for t in terms]))
    coarse, fine = sums
    peak = np.array([np.max(np.abs(t)) for t in terms])

    err = np.abs(fine - coarse)
    floor = 50.0 * _EPS * peak
    scale = np.maximum(np.abs(fine), floor)
    bad = np.flatnonzero(err > np.maximum(1e-8 * scale, floor))
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"contour quadrature for I({l},{js[k] + l},{js[k]}) did not converge: "
            f"refinement change {err[k]:g} vs scale {scale[k]:g}")
    bad = np.flatnonzero(np.abs(fine.imag)
                         > np.maximum(1e-8 * np.abs(fine.real), 2.0 * floor))
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"contour result not real: I({l},{js[k] + l},{js[k]}) = {fine[k]:g} "
            f"(peak {peak[k]:g})")
    return fine.real, floor


def _relative_error(rule, results, prec, epsilon):
    """The rule's error estimate for results scaled by the latest one."""
    scale = abs(results[-1]) or 1
    return rule.estimate_error([r / scale for r in results], prec, epsilon)


def _block_pair(z, bits: int):
    """The libmp complex tuple z as integers (x, y) and an exponent e with
    z = (x + i y) 2^e to within 2^-bits of |z|.

    The larger of |x| and |y| lies in [2^bits, 2^(bits + 1)), so |x + i y| is
    at least 2^bits; the smaller part is truncated toward zero.
    """
    (xs, xm, xe, xb), (ys, ym, ye, yb) = z
    top = max(xe + xb if xm else ye + yb, ye + yb if ym else xe + xb)
    e = top - bits - 1
    x = xm << (xe - e) if xe >= e else xm >> (e - xe)
    y = ym << (ye - e) if ye >= e else ym >> (e - ye)
    return (-x if xs else x), (-y if ys else y), e


def _add_node_terms(head, js, qx, qy, qe, conj, sums, bits):
    """Add one node's terms lead u^l q^j, j in js, into the integer step sums.

    head = (x, y, e) is the block pair of lead u^l and (qx, qy) 2^qe that of
    q; with conj, the terms of their conjugates are added.  Each term is
    added exactly into sums = (sx, sy, se), the step sum of term k being
    (sx[k] + i sy[k]) 2^se[k], kept at the smallest exponent seen.
    """
    sx, sy, se = sums
    tx, ty, te = head
    if conj:
        qy, ty = -qy, -ty
    power = 0
    for k, jk in enumerate(js):
        for _ in range(jk - power):
            tx, ty = ((tx * qx - ty * qy) >> bits,
                      (tx * qy + ty * qx) >> bits)
            te += qe
        power = jk
        shift = te - se[k]
        if shift >= 0:
            sx[k] += tx << shift
            sy[k] += ty << shift
        else:
            sx[k] = (sx[k] << -shift) + tx
            sy[k] = (sy[k] << -shift) + ty
            se[k] = te


def _mp_path(l: int, p: Params, dps: int, prec: int):
    """The extended route's path, built at the current mpmath precision: the
    split points [-A, -wb, 0, wb, A] and, for _mp_node, (delta, wb, i half_w,
    prec) with delta and wb libmp real tuples, i half_w a libmp complex
    tuple and prec the nodes' working precision in bits.

    The half-length A puts the undipped path's exponent (omega/2)(h(a) - 2/3),
    h(a) - 2/3 >= (8/9) a^2, at least dps ln 10 + 40 below the peak.
    """
    import mpmath as mp

    ctx = mp.mp
    g0 = ctx.mpf(p.g0)
    omega = l * g0**3
    ws = 1 / ctx.sqrt(omega)
    delta = ctx.mpf("0.75") * ws
    wb = 3 * ws
    digits_pad = ctx.mpf(dps) * ctx.log(10)
    A = max(8 * wb, ctx.sqrt((digits_pad + 40) * 2 / omega / ctx.mpf(8) * 9) * ctx.mpf("1.5"))
    half_w = ctx.mpf(l) * g0**3 / 2
    return [-A, -wb, 0, wb, A], (delta._mpf_, wb._mpf_, (ctx.j * half_w)._mpc_, prec)


def _mp_node(x, wt, path, lib):
    """tau, dtau, the lead factor wt dtau e^{i half_w (tau + tau^3/3)},
    u = (tau - i)^{-2} and w = (tau + i)^{-2} at the node x of weight wt on
    the path of _mp_path, all libmp tuples; lib is mpmath.libmp.

    The arithmetic is that of _bent_path and of the lead, u and w on mpmath
    numbers at the path's precision, rounded to nearest, written as the libmp
    calls their operators make, in the same order: bit for bit the same,
    without building an mpmath object per operation.
    """
    delta, wb, j_half_w, prec = path
    mul, div, add, sub = lib.mpf_mul, lib.mpf_div, lib.mpf_add, lib.mpf_sub
    mul_int, pow_int = lib.mpf_mul_int, lib.mpf_pow_int
    c_mul, c_pow_int = lib.mpc_mul, lib.mpc_pow_int
    one, three, j = lib.fone, lib.from_int(3), (lib.fzero, lib.fone)
    # _bent_path: br = sqrt(1 + a^2/3), bump = exp(-(a/wb)^2),
    # b = br - delta bump, bp = a/(3 br) + delta bump 2 a/wb^2,
    # tau = a + i b and dtau = 1 + i bp
    br = lib.mpf_sqrt(add(div(mul(x, x, prec, "n"), three, prec, "n"),
                          one, prec, "n"), prec, "n")
    bump = lib.mpf_exp(lib.mpf_neg(pow_int(div(x, wb, prec, "n"), 2, prec, "n"),
                                   prec, "n"), prec, "n")
    delta_bump = mul(delta, bump, prec, "n")
    b = sub(br, delta_bump, prec, "n")
    bp = add(div(x, mul_int(br, 3, prec, "n"), prec, "n"),
             div(mul(mul_int(delta_bump, 2, prec, "n"), x, prec, "n"),
                 pow_int(wb, 2, prec, "n"), prec, "n"),
             prec, "n")
    tau = lib.mpc_add_mpf(lib.mpc_mul_mpf(j, b, prec, "n"), x, prec, "n")
    dtau = lib.mpc_add_mpf(lib.mpc_mul_mpf(j, bp, prec, "n"), one, prec, "n")
    # wt dtau e^{i half_w (tau + tau^3/3)}, (tau - i)^{-2} and (tau + i)^{-2}
    phase = c_mul(j_half_w, lib.mpc_add(
        tau, lib.mpc_div_mpf(c_pow_int(tau, 3, prec, "n"), three, prec, "n"),
        prec, "n"), prec, "n")
    lead = c_mul(lib.mpc_mul_mpf(dtau, wt, prec, "n"),
                 lib.mpc_exp(phase, prec, "n"), prec, "n")
    u = lib.mpc_mpf_div(one, c_pow_int(lib.mpc_sub(tau, j, prec, "n"), 2, prec, "n"),
                        prec, "n")
    w = lib.mpc_mpf_div(one, c_pow_int(lib.mpc_add(tau, j, prec, "n"), 2, prec, "n"),
                        prec, "n")
    return tau, dtau, lead, u, w


def _contour_terms_mp(l: int, js, p: Params, dps: int):
    """Extended-precision I(l, j + l, j), j in js, by one vector-valued
    tanh-sinh sum, with floors.

    Replays mp.quad on the same path, split at [-A, -wb, 0, wb, A]: mpmath's
    tanh-sinh rule with its node cache, degree schedule and error estimate,
    at 20 guard bits.  A degree counts as converged on an interval only when
    the estimate of every term, relative to the term's integral over that
    interval, is below mp.quad's epsilon.  mp.quad itself compares the
    absolute estimate, which any integral below its epsilon (eps/8, about
    3e-42 at 40 digits) meets from degree 2 on, whatever its accuracy.  The
    floor of a term is its estimated absolute error summed over the
    intervals.  Below max_degree only whether some term's estimate is above
    epsilon is read, so the estimates stop at the first that is: at 40
    digits every degree from 2 to 5 fails on term 0, and the (0.3, 3.5)
    series of lmax 2 makes 132 estimates instead of 500.  At the converged
    degree and at max_degree every term's is made, for the floors and the
    non-convergence message.

    At each node _mp_node gives the lead factor wt dtau e^{i half_w (tau +
    tau^3/3)}, u = (tau - i)^{-2} and w = (tau + i)^{-2} as libmp tuples,
    by the calls and roundings of mpmath's operators without an mpmath
    object per operation, and q = u w and the head lead u^l are made the
    same way.  The head and q become block-floating pairs (x + i y) 2^e
    with integer parts of `bits` = the working precision, each scaled by
    that node's own exponent e.  The terms lead u^l q^j follow by integer
    complex multiplication and a shift of `bits`, up js.  Each is added
    exactly into its term's integer sum, kept at the smallest exponent seen,
    and the sum is rounded to mpmath once per degree.  No fixed point is
    shared between terms or nodes, so integrals far below the others
    (I(4, 4, 0) at g0 = 4.5 is about 3e-46) keep their digits.

    The path is mirror-symmetric, and the mpmath work is done once per
    mirror pair of nodes.  a -> -a takes tau to -conj(tau), and dtau, the
    lead, u and w to their conjugates, bit for bit: tau depends on a^2 and
    a, dtau on a^2 and terms odd in a, tau + tau^3/3 is odd with real
    coefficients, tau - i and tau + i go to -conj(tau - i) and
    -conj(tau + i), and mpmath rounds every operation to nearest, which
    commutes with negation.  mpmath maps its nodes, pairs +-x of equal
    weight, to [a, b] by (b + a)/2 + (b - a)/2 x, so those of [-b, -a] are
    those of [a, b] negated.  Only the nodes of [0, wb] and [wb, A] are
    evaluated; their mirror intervals take the block pairs with y negated,
    which is exact because _block_pair truncates toward zero.  The shifts
    floor, so each side walks its own powers of q and keeps its own degree
    loop, convergence test and error estimate; the right-hand nodes are
    evaluated until both sides have converged.  The totals and the errors
    are added, and a non-convergence is reported, in the interval order
    from -A to A.
    """
    import mpmath as mp
    from mpmath import libmp
    from mpmath.libmp import from_man_exp, mpc_mul, mpc_pow_int

    ctx = mp.mp
    rule = ctx._tanh_sinh
    n_terms = len(js)
    with ctx.workdps(dps):
        prec = ctx.prec
        bits = prec + 20
        points, path = _mp_path(l, p, dps, bits)
        epsilon = ctx.eps / 8
        max_degree = rule.guess_degree(prec)
        # the step sums of each interval, by degree, and its error estimates
        results = [[[] for _ in range(n_terms)] for _ in range(4)]
        errors = [[ctx.zero] * n_terms for _ in range(4)]
        ctx.prec = bits
        try:
            # each right-hand interval with its mirror
            for right, left in ((3, 0), (2, 1)):
                a, b = points[right], points[right + 1]
                live = [left, right]
                for degree in range(1, max_degree + 1):
                    h = ctx.ldexp(1, -degree)
                    # the step sum of term k is (sx[k] + i sy[k]) 2^se[k]
                    sums = {i: ([0] * n_terms, [0] * n_terms, [0] * n_terms)
                            for i in live}
                    for x, wt in rule.get_nodes(a, b, degree, prec):
                        _, _, lead, u, w = _mp_node(x._mpf_, wt._mpf_, path, libmp)
                        qx, qy, qe = _block_pair(mpc_mul(u, w, bits, "n"), bits)
                        qe += bits
                        head = _block_pair(mpc_mul(lead, mpc_pow_int(
                            u, l, bits, "n"), bits, "n"), bits)
                        # the mirror node's terms are the conjugates
                        for i in live:
                            _add_node_terms(head, js, qx, qy, qe, i == left,
                                            sums[i], bits)
                    # the tanh-sinh nodes of degree d - 1 are half of those
                    # of degree d: reuse their sum
                    for i in live:
                        sx, sy, se = sums[i]
                        for k, r in enumerate(results[i]):
                            step = ctx.make_mpc((from_man_exp(sx[k], se[k], bits, "n"),
                                                 from_man_exp(sy[k], se[k], bits, "n")))
                            r.append(h * (r[-1] / (2 * h) + step if degree > 1 else step))
                        if degree > 1:
                            # below max_degree only whether some estimate is
                            # above epsilon is read: stop at the first
                            errors[i] = []
                            for r in results[i]:
                                errors[i].append(_relative_error(rule, r, prec, epsilon))
                                if errors[i][-1] > epsilon and degree < max_degree:
                                    break
                    if degree > 1:
                        live = [i for i in live if max(errors[i]) > epsilon]
                        if not live:
                            break
            totals = [ctx.zero] * n_terms
            floors = [ctx.zero] * n_terms
            for i in range(4):
                for k in range(n_terms):
                    if errors[i][k] > epsilon:
                        raise RuntimeError(
                            f"extended contour quadrature for I({l},{js[k] + l},{js[k]}) "
                            f"did not converge on [{float(points[i]):g}, "
                            f"{float(points[i + 1]):g}]: estimated relative "
                            f"error {float(errors[i][k]):g} above "
                            f"{float(epsilon):g}")
                    totals[k] += results[i][k][-1]
                    floors[k] += errors[i][k] * abs(results[i][k][-1])
        finally:
            ctx.prec = prec
        vals = [+t for t in totals]

    for k in range(n_terms):
        re, im = float(vals[k].real), float(vals[k].imag)
        if abs(im) > max(_EPS * abs(re), 2.0 * float(floors[k])):
            raise RuntimeError(
                f"extended contour result not real: I({l},{js[k] + l},{js[k]}) = "
                f"{re:g} + {im:g}i")
    return (np.array([float(v.real) for v in vals]),
            np.array([float(e) for e in floors]))


def contour_integral_I(l: int, js, p: Params, mp_dps: int | None = None):
    """The j-terms I(l, j + l, j), j in js, of harmonic l >= 1, where
    I(l, m, n) = int e^{i l (g0^3/2)(tau + tau^3/3)} (tau - i)^{-2m}
    (tau + i)^{-2n} dtau over the real line; js is a nonempty, strictly
    increasing sequence of nonnegative integers.

    The terms share one path through the singularity at i, where the
    integrand peak matches the result scale ~ g0^{3m - 3/2} e^{-l g0^3/3}
    however small the answer.  Binary64 by default; mp_dps selects an
    mpmath tanh-sinh summation at that many digits, at least MP_DPS_MIN.
    Each term passes its own convergence and reality check (RuntimeError
    otherwise).  Returns the arrays (values, floors), the floor being
    50 eps max|integrand| in binary64 and the quadrature's error estimate in
    mpmath: a value no larger than its floor carries no digit.
    """
    l = int(l)
    if l < 1:
        raise ValueError(f"l must be a positive integer, got {l}")
    js = [int(j) for j in js]
    if not js or js[0] < 0 or any(a >= b for a, b in zip(js, js[1:])):
        raise ValueError("js must be a nonempty, strictly increasing sequence "
                         f"of nonnegative integers, got {js}")
    _check_mp_dps(mp_dps)
    if mp_dps is None:
        return _contour_terms(l, js, p)
    return _contour_terms_mp(l, js, p, mp_dps)


def _double_factorial_odd(m: int) -> float:
    """(2m - 1)!! for m >= 1."""
    return float(math.prod(range(2 * m - 1, 0, -2)))


def contour_integral_leading(l: int, m: int, n: int, p: Params) -> float:
    """Leading asymptotic of I(l, m, n) for l >= 1, m >= 1 as g0 -> infinity:

        (-1)^m sqrt(2 pi) l^{m-1/2} / (2m-1)!!  *  g0^{3m-3/2} e^{-l g0^3/3} / (-4)^n,

    from the Gaussian saddle at tau = i with pole order 2m.  Relative error
    O(g0^{-3/2}).  In particular I(1,2,1) is negative and
    I(2,2,0) -> (4/3) sqrt(pi) g0^{9/2} e^{-2 g0^3/3}.
    """
    if l < 1 or m < 1:
        raise ValueError("leading form requires l >= 1 and m >= 1")
    J = (-1.0) ** m * sqrt(2.0 * pi) * l ** (m - 0.5) / _double_factorial_odd(m)
    return (J * p.g0 ** (3 * m - 1.5) * exp(-l * p.g0**3 / 3.0) / (-4.0) ** n)


def melnikov_coeff_contour(l: int, p: Params, jmax: int = 12,
                           mp_dps: int | None = None) -> tuple[float, float]:
    """Coefficient L[l] (l >= 1) assembled from the contour integrals:

        L[l] = sum_{j>=0} c_j c_{l+j}
               [mu(1-mu)^(2j+l) + (-1)^l (1-mu) mu^(2j+l)] / g0^(4j+2l)
               * (-1)^l 2^(2j+l) I(l, j+l, j),

    truncated at j = jmax.  Terms with an identically-zero mass factor (all
    of them for odd l at mu = 1/2, everything at mu = 0) are skipped exactly.
    The integrals of all terms come from one contour_integral_I call on the
    shared path.  Returns (L[l], error estimate), the estimate being the
    larger of the geometric truncation tail and the
    arithmetic floor sum_j |coefficient_j| floor_j of the terms summed.  The
    tail's ratio is at least rho_p^2, rho_p = 2 max(mu, 1-mu)/g0^2, and the
    estimate is infinite where the ratio reaches 1 and the series diverges.
    mp_dps below MP_DPS_MIN raises ValueError, even where no term is summed.
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    if jmax < 2:
        raise ValueError("jmax must be at least 2")
    _check_mp_dps(mp_dps)
    cj = _binom_half_table(jmax + l + 1)
    js = [j for j in range(jmax + 1) if _mass_factor(l, j, p.mu) != 0.0]
    total = 0.0
    floor = 0.0
    terms = []      # (term, its floor) of the last two terms summed
    if js:
        I, I_floor = contour_integral_I(l, js, p, mp_dps=mp_dps)
        for j, Ij, fj in zip(js, I.tolist(), I_floor.tolist()):
            coef = (cj[j] * cj[j + l] * _mass_factor(l, j, p.mu)
                    / p.g0 ** (4 * j + 2 * l) * (-1.0) ** l * 2.0 ** (2 * j + l))
            term = coef * Ij
            total += term
            floor += abs(coef) * fj
            terms = [*terms[-1:], (term, abs(coef) * fj)]
            # geometric decay in j: once a term is below the arithmetic floor
            # of the accumulated sum, later ones cannot contribute
            if total != 0.0 and abs(term) < 1e-3 * _EPS * abs(total):
                break
    # the terms decay like rho_p^(2j), rho_p = 2 max(mu, 1-mu)/g0^2; an
    # observed ratio may only raise that, and is read only from two terms
    # above their floors, since noise terms (g0 >= 2) read ratios above 1
    ratio = (2.0 * max(p.mu, 1.0 - p.mu) / p.g0**2) ** 2
    if len(terms) == 2 and all(abs(t) > f for t, f in terms):
        ratio = max(ratio, abs(terms[1][0] / terms[0][0]))
    last = abs(terms[-1][0]) if terms else 0.0
    tail = (0.0 if last == 0.0 else inf if ratio >= 1.0
            else last * ratio / (1.0 - ratio))
    return total, max(tail, floor)


# ---------------------------------------------------------------------------
# Route 3: leading-order closed forms
# ---------------------------------------------------------------------------

def melnikov_coeff_asymptotic(l: int, p: Params) -> float:
    """Leading-order L[l] for l in {1, 2}:

        L[1] = - mu (1-mu) (1-2mu) sqrt(pi) / (4 sqrt(2)) g0^{-3/2} e^{-g0^3/3}
        L[2] = + 2 mu (1-mu) sqrt(pi) g0^{1/2} e^{-2 g0^3/3}

    Error factors (1 + O(g0^-2)) resp. (1 + O(g0^-1/2)) are not included.
    The sign of L[2] is the one the quadrature and contour routes confirm.
    Higher harmonics have only an order bound, no closed form.
    """
    mu, g0 = p.mu, p.g0
    if l == 1:
        return (-mu * (1.0 - mu) * (1.0 - 2.0 * mu) * sqrt(pi)
                / (4.0 * sqrt(2.0)) * g0**-1.5 * exp(-g0**3 / 3.0))
    if l == 2:
        return 2.0 * mu * (1.0 - mu) * sqrt(pi) * sqrt(g0) * exp(-2.0 * g0**3 / 3.0)
    raise ValueError(f"closed form only for l in {{1, 2}}, got l={l}")


# ---------------------------------------------------------------------------
# Series container and evaluation
# ---------------------------------------------------------------------------

@dataclass
class MelnikovSeries:
    """Real cosine-series coefficients of the Melnikov potential.

    L(v, xi) = coefficients[0] + 2 sum_{l>=1} coefficients[l] cos(l(xi + g0^3 v)).
    precision is "extended" for a contour series summed in mpmath, "double"
    for every other.
    """

    coefficients: dict[int, float]
    method: str
    params: Params
    error_estimates: dict[int, float] = field(default_factory=dict)
    precision: str = "double"

    @property
    def untrusted(self) -> bool:
        """Whether some nonzero coefficient's error estimate exceeds a tenth
        of it, which leaves it no trusted digit.  A NaN estimate (the
        asymptotic forms carry none) never compares; an infinite one does."""
        return any(self.coefficients[l] != 0.0
                   and err > 0.1 * abs(self.coefficients[l])
                   for l, err in self.error_estimates.items())

    @classmethod
    def compute(cls, p: Params, method: str = "contour", lmax: int = 4,
                jmax: int = 12,
                mp_dps: int | None = None) -> "MelnikovSeries":
        if lmax < 1:
            raise ValueError(f"lmax must be at least 1, got {lmax!r}")
        _check_mp_dps(mp_dps)
        coeffs: dict[int, float] = {}
        errs: dict[int, float] = {}
        if method == "quadrature":
            coeffs[0], errs[0] = melnikov_coeff0_quadrature(p)
            for l in range(1, lmax + 1):
                res = melnikov_coeff_quadrature(l, p)
                coeffs[l] = res.value
                errs[l] = max(res.tail_bound, res.noise_floor,
                              abs(res.imag_residue), res.step_error)
        elif method == "contour":
            for l in range(1, lmax + 1):
                coeffs[l], errs[l] = melnikov_coeff_contour(l, p, jmax,
                                                            mp_dps=mp_dps)
        elif method == "asymptotic":
            for l in (1, 2):
                if l <= lmax:
                    coeffs[l] = melnikov_coeff_asymptotic(l, p)
                    errs[l] = float("nan")
        else:
            raise ValueError(f"unknown method {method!r}")
        extended = method == "contour" and mp_dps is not None
        return cls(coefficients=coeffs, method=method, params=p,
                   error_estimates=errs,
                   precision="extended" if extended else "double")

    def to_json_dict(self) -> dict:
        return {
            "mu": self.params.mu,
            "g0": self.params.g0,
            "method": self.method,
            "coefficients": [
                {"l": l, "value": self.coefficients[l],
                 "error_estimate": self.error_estimates.get(l, float("nan"))}
                for l in sorted(self.coefficients)
            ],
        }


# ---------------------------------------------------------------------------
# Leading-order predictions for the splitting observables
# ---------------------------------------------------------------------------

def phase_of_v(v, phi0: float, p: Params):
    """Section phase x = phi0 - alpha_h(v) + g0^3 v (unwrapped, increasing)."""
    return phi0 - np.asarray(homoclinic_alpha(v)) + p.g0**3 * np.asarray(v)


def predicted_distance(v_star: float | np.ndarray, phi0: float, p: Params):
    """Leading-order splitting distance on the section r = r_h(v*):

        y_h(v*)^-1 [ A1 sin x - A2 sin 2x ],  x = phi0 - alpha_h(v*) + g0^3 v*,

    with A1 = -2 g0^3 L[1] and A2 = 4 g0^3 L[2] from melnikov_coeff_asymptotic.
    The relative sign of the harmonics follows the verified coefficient signs
    (L[1] < 0 < L[2]); it places the extra homoclinic roots at
    cos x = A1/(2 A2) when A1 < 2 A2.  Error terms are excluded.  v_star is a
    number or an array; every value must be positive (y_h vanishes at the
    turning point).
    """
    v_star = np.asarray(v_star, dtype=float)
    if np.any(v_star <= 0.0):
        raise ValueError("v_star must be positive (y_h(0) = 0)")
    a1 = -2.0 * p.g0**3 * melnikov_coeff_asymptotic(1, p)
    a2 = 4.0 * p.g0**3 * melnikov_coeff_asymptotic(2, p)
    x = phase_of_v(v_star, phi0, p)
    return (a1 * np.sin(x) - a2 * np.sin(2.0 * x)) / homoclinic_y(v_star)


def _harmonic_ratio(g0: float) -> float:
    """16 sqrt(2) g0^2 e^{-g0^3/3} = (1-2mu) A2/A1: the weight of sin 2x in
    the normalized distance (1-2mu) sin x - b sin 2x, and 1/2 - mu*."""
    return 16.0 * sqrt(2.0) * g0**2 * exp(-g0**3 / 3.0)


def predicted_lobe_area(p: Params) -> float:
    """Leading-order lobe area between consecutive transversal homoclinic
    points, 4(|L[1]| + |L[2]|) from melnikov_coeff_asymptotic; the
    (1 + O(g0^{-1/2})) error factor excluded."""
    L1 = melnikov_coeff_asymptotic(1, p)
    L2 = melnikov_coeff_asymptotic(2, p)
    return 4.0 * (abs(L1) + abs(L2))


def predicted_tangency_mu(g0: float) -> float:
    """Leading-order mass ratio mu*(g0) = 1/2 - 16 sqrt(2) g0^2 e^{-g0^3/3}
    of the cubic homoclinic tangency.

    Monotonically increasing to 1/2.  Below the validity floor
    (16 sqrt(2) g0^2 e^{-g0^3/3} >= 1/2, i.e. g0 < ~2.58) the formula leaves
    (0, 1/2] and ValueError is raised.
    """
    val = 0.5 - _harmonic_ratio(g0)
    if val <= 0.0:
        raise ValueError(
            f"g0={g0} below the tangency validity floor ~2.5792; "
            f"formula gives mu*={val:.4g} outside (0, 1/2]")
    return val
