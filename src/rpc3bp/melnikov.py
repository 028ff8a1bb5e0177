"""Melnikov potential of the parabolic separatrix and its Fourier coefficients.

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
    on numpy arrays.
contour    : binomial-series reduction to the oscillatory integrals
    I(l, m, n) computed on a complex path hugging Re(tau + tau^3/3) = 0
    through the singularity tau = sign(l) i.  Well-conditioned at any g0
    because the integrand peak matches the result scale.  The j-terms
    I(l, j+l, j) of one harmonic share the path, its nodes and the phase
    factor, and differ by the factor (tau - i)^{-2l} q^j with
    q = ((tau - i)(tau + i))^{-2}: one call evaluates them all, in binary64
    on shared Gauss panels or in mpmath by one vector-valued tanh-sinh sum.
asymptotic : leading-order closed forms for l = 1, 2.

Sign conventions: the coefficient signs follow the cross-validated values
L[1] < 0 and L[2] > 0 (for mu < 1/2); all derived prediction formulas use the
same relative sign of the two harmonics, which fixes the homoclinic root
geometry (extra root pair at cos x = |L1/(4 L2)|, tangency at x = 0 mod 2pi).
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
    "binom_half",
    "uhat_fourier_coeff",
    "uhat_truncation_tail",
    "uhat_fourier_coeff_quadrature",
    "QuadratureResult",
    "melnikov_coeff_quadrature",
    "contour_integral_I",
    "contour_integral_leading",
    "melnikov_coeff_contour",
    "melnikov_coeff_asymptotic",
    "MelnikovSeries",
    "melnikov_potential",
    "predicted_distance",
    "predicted_distance_amplitudes",
    "first_order_zero_function",
    "has_two_first_order_roots",
    "predicted_lobe_area",
    "predicted_tangency_mu",
    "predicted_tangency_lobe_area",
    "TANGENCY_G0_FLOOR",
]

_EPS = float(np.finfo(float).eps)

# g0 at which 16 sqrt(2) g0^2 e^{-g0^3/3} drops below 1/2, i.e. where the
# tangency curve enters the physical mass range mu in (0, 1/2].
TANGENCY_G0_FLOOR = 2.5792


def binom_half(j: int) -> float:
    """Binomial coefficient C(-1/2, j): 1, -1/2, 3/8, -5/16, ..."""
    if j < 0 or j != int(j):
        raise ValueError("j must be a nonnegative integer")
    c = 1.0
    for k in range(1, int(j) + 1):
        c *= -(2 * k - 1) / (2 * k)
    return c


def _binom_half_table(n: int) -> np.ndarray:
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

    keeping jmax + 1 terms from the first index j0 = max(delta0(l), -l)
    (tail bound from uhat_truncation_tail), so the truncation depth does not
    depend on the sign of l and the modes stay exactly even in l.  Real.
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


def uhat_truncation_tail(l: int, v: float, p: Params, jmax: int = 12) -> float:
    """Geometric bound on the part of uhat_fourier_coeff beyond jmax+1 terms."""
    l = int(l)
    r = homoclinic_r(v)
    mbar = max(p.mu, 1.0 - p.mu) / p.g0**2
    ratio = (mbar / r) ** 2
    j = max(1 if l == 0 else 0, -l) + jmax + 1
    cj = _binom_half_table(j + abs(l) + 1)
    lead = abs(cj[j] * cj[j + l]) * 2.0 * max(p.mu, 1.0 - p.mu) ** (2 * j + l)
    term = lead / (p.g0 ** (4 * j + 2 * l) * r ** (2 * j + l + 1))
    return term / (1.0 - ratio)


_N_THETA = 256
_THETA_GRIDS = (16, 32, 64, 128)
# entries of the largest potential matrix formed at once: 3072 nodes x 256
_V_BLOCK = 3072 * _N_THETA


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
    """
    V = potential_kernel(p, np.cos, np.sin, np.sqrt).V
    sizes = _theta_grid_sizes(l, r, p)
    out = np.empty(r.shape, dtype=complex)
    for n in np.unique(sizes).tolist():
        idx = np.flatnonzero(sizes == n)
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
    """Real-line quadrature of a Melnikov coefficient with diagnostics."""

    value: float
    imag_residue: float
    tail_bound: float
    noise_floor: float
    t_cut: float


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _g_factor(t_nodes: np.ndarray, l: int, p: Params) -> np.ndarray:
    """Slow part g(t) = U[l](t) e^{i l alpha_h(t)} of the oscillatory integrand.

    r_h and alpha_h come from one tau per node (the closed forms of
    separatrix.homoclinic_r and homoclinic_alpha)."""
    tau = np.asarray(tau_of_v(t_nodes))
    u = _uhat_modes(l, 0.5 * (tau * tau + 1.0), p)
    return u * np.exp(1j * l * (2.0 * np.arctan(tau)))


def melnikov_coeff_quadrature(l: int, p: Params, tol: float = 1e-9) -> QuadratureResult:
    """Coefficient L[l] as the real-line integral of U[l](t) e^{i l (alpha_h(t) - g0^3 t)}.

    Gauss panels matched to the oscillation period cover |t| <= T with T set
    so the one-sided tail bound 4 |U[l](T)| / (l g0^3) is below tol/10; the
    two leading integration-by-parts boundary terms of each tail are added in
    closed form, which leaves a residual well below the bound.  Returns the
    real part with the imaginary residue as a reality diagnostic.

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

    # Truncation point: march outward until the van der Corput tail bound of
    # the remaining integral drops below tol/10.
    T = 20.0
    while True:
        amp = abs(uhat_fourier_coeff_quadrature(l, T, p))
        if 4.0 * amp / omega <= 0.1 * tol or T > 2e4:
            break
        T *= 1.4
    tail_bound = 4.0 * abs(uhat_fourier_coeff_quadrature(l, T, p)) / omega

    width = 0.25 * 2.0 * pi / omega
    n_panels = int(np.ceil(2.0 * T / width))
    edges = np.linspace(-T, T, n_panels + 1)

    total = 0.0 + 0.0j
    abs_sum = 0.0
    block = 256
    for i0 in range(0, n_panels, block):
        i1 = min(i0 + block, n_panels)
        a = edges[i0:i1]
        b = edges[i0 + 1:i1 + 1]
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        wts = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        g = _g_factor(nodes, l, p)
        f = g * np.exp(-1j * omega * nodes)
        total += np.sum(f * wts)
        abs_sum += float(np.sum(np.abs(f) * np.abs(wts)))

    # Integration-by-parts boundary terms of both tails:
    #   int_T^inf g e^{-i w t} dt = e^{-i w T} [ g(T)/(i w) + g'(T)/(i w)^2 ] + ...
    h = 1e-3
    for sign in (+1.0, -1.0):
        tb = sign * T
        g0v = _g_factor(np.array([tb - h, tb, tb + h]), l, p)
        gp = (g0v[2] - g0v[0]) / (2.0 * h)
        phase = np.exp(-1j * omega * tb)
        contrib = phase * (g0v[1] / (1j * omega) + gp / (1j * omega) ** 2)
        total += sign * contrib

    floor = 10.0 * _EPS * abs_sum
    if tol < floor:
        raise PrecisionError(
            f"requested tol {tol:g} below the quadrature noise floor {floor:g}")
    return QuadratureResult(value=float(total.real),
                            imag_residue=float(total.imag),
                            tail_bound=float(tail_bound),
                            noise_floor=float(floor),
                            t_cut=float(T))


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

def _bent_path(a, sgn, delta, wb, sqrt, exp):
    """Point tau(a) and slope dtau/da of the path through sgn * i.

    The path follows the zero-phase curve Im tau = sqrt(1 + a^2/3) of
    Re(tau + tau^3/3) = 0 and dips toward the real axis by a Gaussian bump of
    depth delta and width wb, passing the pole on the side of the original
    (real-axis) contour.  Written once for numpy arrays and mpmath scalars.
    """
    br = sqrt(1 + a * a / 3)
    bump = exp(-((a / wb) ** 2))
    b = sgn * (br - delta * bump)
    bp = sgn * (a / (3 * br) + delta * bump * 2 * a / wb**2)
    return a + 1j * b, 1 + 1j * bp


def _pole_terms(lead, tau, m, n):
    """lead (tau - i)^{-2 m_k} (tau + i)^{-2 n_k} for every pair (m_k, n_k).

    The pairs share q = ((tau - i)(tau + i))^{-2}, whose powers are built by
    recurrence: (m, n) is lead u^{m-n} q^n with u = (tau - i)^{-2} when
    m >= n, and lead w^{n-m} q^m with w = (tau + i)^{-2} otherwise.  The
    terms of one harmonic, (j + l, j), are thus lead u^l q^j.
    """
    u = 1 / (tau - 1j) ** 2
    w = 1 / (tau + 1j) ** 2
    q = u * w
    qpow = [1]
    for _ in range(max(min(a, b) for a, b in zip(m, n))):
        qpow.append(qpow[-1] * q)
    heads = {}
    out = []
    for a, b in zip(m, n):
        d = a - b
        if d not in heads:
            heads[d] = lead * (u**d if d >= 0 else w**-d)
        out.append(heads[d] * qpow[min(a, b)])
    return out


def _contour_terms(l: int, m, n, p: Params):
    """Binary64 values of I(l, m_k, n_k) on shared Gauss panels, with floors.

    The path's panels are graded toward a = 0 on the scale dip/order, order
    being the highest pole order among the pairs, where that pole factor
    varies fastest.  Every panel is built in one array operation, at 16 and
    at 24 nodes; each term must agree between the two to 1e-8 of its size or
    to its arithmetic floor 50 eps peak (peak = max |integrand| on the path),
    and must be real to the same level.
    """
    omega = abs(l) * p.g0**3
    ws = 1.0 / sqrt(omega)
    delta = 0.75 * ws
    wb = 3.0 * ws
    sgn = 1.0 if l > 0 else -1.0
    half_w = l * p.g0**3 / 2.0
    order = max(max(m), max(n))

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
    for n_per_panel in (16, 24):
        nodes_ref, weights_ref = np.polynomial.legendre.leggauss(n_per_panel)
        tau, dtau = _bent_path(mid + half * nodes_ref, sgn, delta, wb,
                               np.sqrt, np.exp)
        lead = np.exp(1j * half_w * (tau + tau**3 / 3.0)) * dtau
        vals = np.stack(_pole_terms(lead, tau, m, n))
        sums.append(np.sum(vals * (half * weights_ref), axis=(1, 2)))
    coarse, fine = sums
    peak = np.max(np.abs(vals), axis=(1, 2))

    err = np.abs(fine - coarse)
    floor = 50.0 * _EPS * peak
    scale = np.maximum(np.abs(fine), floor)
    bad = np.flatnonzero(err > np.maximum(1e-8 * scale, floor))
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"contour quadrature for I({l},{m[k]},{n[k]}) did not converge: "
            f"refinement change {err[k]:g} vs scale {scale[k]:g}")
    bad = np.flatnonzero(np.abs(fine.imag)
                         > np.maximum(1e-8 * np.abs(fine.real), 2.0 * floor))
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"contour result not real: I({l},{m[k]},{n[k]}) = {fine[k]:g} "
            f"(peak {peak[k]:g})")
    return fine.real, floor


def _relative_error(rule, results, prec, epsilon):
    """The rule's error estimate for results scaled by the latest one."""
    scale = abs(results[-1]) or 1
    return rule.estimate_error([r / scale for r in results], prec, epsilon)


def _contour_terms_mp(l: int, m, n, p: Params, dps: int):
    """Extended-precision I(l, m_k, n_k) by one vector-valued tanh-sinh sum.

    Replays mp.quad on the same path, split at [-A, -wb, 0, wb, A]: mpmath's
    tanh-sinh rule with its node cache, degree schedule and error estimate,
    at 20 guard bits.  The integrand is evaluated once per node and its step
    sums for all pairs are accumulated as the nodes go by; a degree counts as
    converged on an interval only when the estimate of every term, relative
    to the term's integral over that interval, is below mp.quad's epsilon.
    mp.quad itself compares the absolute estimate, which any integral below
    its epsilon (eps/8, about 3e-42 at 40 digits) meets from degree 2 on,
    whatever its accuracy.  The floor of a term is its estimated absolute
    error summed over the intervals.
    """
    import mpmath as mp

    ctx = mp.mp
    rule = ctx._tanh_sinh
    n_terms = len(m)
    with ctx.workdps(dps):
        g0 = ctx.mpf(p.g0)
        omega = abs(l) * g0**3
        ws = 1 / ctx.sqrt(omega)
        delta = ctx.mpf("0.75") * ws
        wb = 3 * ws
        sgn = 1 if l > 0 else -1
        digits_pad = ctx.mpf(dps) * ctx.log(10)
        A = max(8 * wb, ctx.sqrt((digits_pad + 40) * 2 / omega / ctx.mpf(8) * 9) * ctx.mpf("1.5"))
        half_w = ctx.mpf(l) * g0**3 / 2
        points = [-A, -wb, 0, wb, A]

        prec = ctx.prec
        epsilon = ctx.eps / 8
        max_degree = rule.guess_degree(prec)
        totals = [ctx.zero] * n_terms
        errors = [ctx.zero] * n_terms
        ctx.prec += 20
        try:
            for a, b in zip(points[:-1], points[1:]):
                results = [[] for _ in range(n_terms)]
                err = [ctx.zero] * n_terms
                for degree in range(1, max_degree + 1):
                    h = ctx.ldexp(1, -degree)
                    # the tanh-sinh nodes of degree d - 1 are half of those
                    # of degree d: reuse their sum
                    step = ([r[-1] / (2 * h) for r in results] if degree > 1
                            else [ctx.zero] * n_terms)
                    for x, wt in rule.get_nodes(a, b, degree, prec):
                        tau, dtau = _bent_path(x, sgn, delta, wb, ctx.sqrt, ctx.exp)
                        lead = wt * dtau * ctx.exp(1j * half_w * (tau + tau**3 / 3))
                        for k, t in enumerate(_pole_terms(lead, tau, m, n)):
                            step[k] += t
                    for r, s in zip(results, step):
                        r.append(h * s)
                    if degree > 1:
                        err = [_relative_error(rule, r, prec, epsilon)
                               for r in results]
                        if max(err) <= epsilon:
                            break
                for k in range(n_terms):
                    if err[k] > epsilon:
                        raise RuntimeError(
                            f"extended contour quadrature for I({l},{m[k]},{n[k]}) "
                            f"did not converge on [{float(a):g}, {float(b):g}]: "
                            f"estimated relative error {float(err[k]):g} above "
                            f"{float(epsilon):g}")
                    totals[k] += results[k][-1]
                    errors[k] += err[k] * abs(results[k][-1])
        finally:
            ctx.prec = prec
        vals = [+t for t in totals]

    for k in range(n_terms):
        re, im = float(vals[k].real), float(vals[k].imag)
        if abs(im) > max(_EPS * abs(re), 2.0 * float(errors[k])):
            raise RuntimeError(
                f"extended contour result not real: I({l},{m[k]},{n[k]}) = "
                f"{re:g} + {im:g}i")
    return (np.array([float(v.real) for v in vals]),
            np.array([float(e) for e in errors]))


def contour_integral_I(l: int, m, n, p: Params, mp_dps: int | None = None,
                       with_floor: bool = False):
    """Oscillatory integral I(l,m,n) = int e^{i l (g0^3/2)(tau + tau^3/3)}
    (tau - i)^{-2m} (tau + i)^{-2n} dtau over the real line.

    Computed on a deformed complex path through the singularity at
    sign(l) * i; the integrand peak there matches the result scale
    ~ g0^{3m - 3/2} e^{-|l| g0^3/3}, so the evaluation is well-conditioned
    however exponentially small the answer.  The value is real; satisfies
    I(-l, n, m) = I(l, m, n).

    m and n are integers, or equal-length integer sequences for several
    integrals of one l at once (an array is returned).  These share the path,
    its nodes and the factor e^{i l (g0^3/2)(tau + tau^3/3)} dtau, and differ
    by pole factors built by recurrence in q = ((tau - i)(tau + i))^{-2}, so
    all the j-terms (j + l, j) of one harmonic cost little more than one.
    Binary64 by default; mp_dps selects an mpmath tanh-sinh summation at that
    many digits.  Each integral passes its own convergence and reality check
    (RuntimeError otherwise).  With with_floor, returns (value, floor): the
    binary64 arithmetic floor 50 eps max|integrand|, or in mpmath the
    quadrature's error estimate.  Without it, a value no larger in magnitude
    than its floor carries no digit, and PrecisionError is raised.
    """
    l = int(l)
    if l == 0:
        raise ValueError("l must be nonzero")
    scalar = np.ndim(m) == 0 and np.ndim(n) == 0
    ms = [int(k) for k in np.atleast_1d(m)]
    ns = [int(k) for k in np.atleast_1d(n)]
    if np.ndim(m) > 1 or np.ndim(n) > 1 or len(ms) != len(ns) or not ms:
        raise ValueError("m and n must be integers or equal-length, "
                         "nonempty integer sequences")
    for mk, nk in zip(ms, ns):
        if mk < 0 or nk < 0:
            raise ValueError(f"pole orders must be nonnegative, got ({mk}, {nk})")
        if (mk, nk) == (0, 0):
            raise ValueError("(m, n) = (0, 0) diverges (no decay)")
    if mp_dps is None:
        vals, floors = _contour_terms(l, ms, ns, p)
    else:
        vals, floors = _contour_terms_mp(l, ms, ns, p, mp_dps)
    if not with_floor:
        lost = np.abs(vals) <= floors
        if lost.any():
            k = int(np.argmax(lost))
            raise PrecisionError(
                f"I({l}, {ms[k]}, {ns[k]}) = {vals[k]:.3g} is not above its floor "
                f"{floors[k]:.3g}; with_floor=True returns both")
    if scalar:
        vals, floors = float(vals[0]), float(floors[0])
    return (vals, floors) if with_floor else vals


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
                           mp_dps: int | None = None,
                           with_error: bool = False):
    """Coefficient L[l] (l >= 1) assembled from the contour integrals:

        L[l] = sum_{j>=0} c_j c_{l+j}
               [mu(1-mu)^(2j+l) + (-1)^l (1-mu) mu^(2j+l)] / g0^(4j+2l)
               * (-1)^l 2^(2j+l) I(l, j+l, j),

    truncated at j = jmax.  Terms with an identically-zero mass factor (all
    of them for odd l at mu = 1/2, everything at mu = 0) are skipped exactly.
    The integrals of all terms come from one contour_integral_I call on the
    shared path.  With with_error, returns (L[l], error estimate), the
    estimate being the larger of the geometric truncation tail and the
    arithmetic floor sum_j |coefficient_j| floor_j of the terms summed.  The
    tail's ratio is at least rho_p^2, rho_p = 2 max(mu, 1-mu)/g0^2, and the
    estimate is infinite where the ratio reaches 1 and the series diverges.
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    if jmax < 2:
        raise ValueError("jmax must be at least 2")
    cj = _binom_half_table(jmax + l + 1)
    js = [j for j in range(jmax + 1) if _mass_factor(l, j, p.mu) != 0.0]
    total = 0.0
    floor = 0.0
    terms = []      # (term, its floor) of the last two terms summed
    if js:
        I, I_floor = contour_integral_I(l, [j + l for j in js], js, p,
                                        mp_dps=mp_dps, with_floor=True)
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
    if with_error:
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
    return total


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
    """

    coefficients: dict[int, float]
    method: str
    params: Params
    lmax: int
    jmax: int = 12
    error_estimates: dict[int, float] = field(default_factory=dict)

    @classmethod
    def compute(cls, p: Params, method: str = "contour", lmax: int = 4,
                jmax: int = 12, tol: float = 1e-9,
                mp_dps: int | None = None) -> "MelnikovSeries":
        coeffs: dict[int, float] = {}
        errs: dict[int, float] = {}
        if method == "quadrature":
            coeffs[0], errs[0] = melnikov_coeff0_quadrature(p)
            for l in range(1, lmax + 1):
                res = melnikov_coeff_quadrature(l, p, tol)
                coeffs[l] = res.value
                errs[l] = max(res.tail_bound, res.noise_floor, abs(res.imag_residue))
        elif method == "contour":
            for l in range(1, lmax + 1):
                coeffs[l], errs[l] = melnikov_coeff_contour(
                    l, p, jmax, mp_dps=mp_dps, with_error=True)
        elif method == "asymptotic":
            for l in (1, 2):
                if l <= lmax:
                    coeffs[l] = melnikov_coeff_asymptotic(l, p)
                    errs[l] = float("nan")
        else:
            raise ValueError(f"unknown method {method!r}")
        return cls(coefficients=coeffs, method=method, params=p, lmax=lmax,
                   jmax=jmax, error_estimates=errs)

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


def melnikov_potential(v: float, xi: float, series: MelnikovSeries) -> float:
    """Evaluate the cosine series; depends on (v, xi) only through xi + g0^3 v."""
    phase = xi + series.params.g0**3 * v
    out = series.coefficients.get(0, 0.0)
    for l, c in series.coefficients.items():
        if l >= 1:
            out += 2.0 * c * math.cos(l * phase)
    return out


# ---------------------------------------------------------------------------
# Leading-order predictions for the splitting observables
# ---------------------------------------------------------------------------

def predicted_distance_amplitudes(p: Params) -> tuple[float, float]:
    """Leading amplitudes (A1, A2) of the splitting distance written as
    (A1 sin x - A2 sin 2x)/y_h(v), with x the section phase."""
    mu, g0 = p.mu, p.g0
    common = mu * (1.0 - mu) * sqrt(pi)
    a1 = common * (1.0 - 2.0 * mu) / (2.0 * sqrt(2.0)) * g0**1.5 * exp(-g0**3 / 3.0)
    a2 = common * 8.0 * g0**3.5 * exp(-2.0 * g0**3 / 3.0)
    return a1, a2


def predicted_distance(v_star: float | np.ndarray, phi0: float, p: Params):
    """Leading-order splitting distance on the section r = r_h(v*):

        y_h(v*)^-1 [ A1 sin x - A2 sin 2x ],  x = phi0 - alpha_h(v*) + g0^3 v*,

    with A1, A2 from predicted_distance_amplitudes.  The relative sign of the
    harmonics follows the verified coefficient signs (L[1] < 0 < L[2]); it
    places the extra homoclinic roots at cos x = A1/(2 A2) when A1 < 2 A2.
    Error terms are excluded.  v_star is a number or an array; every value
    must be positive (y_h vanishes at the turning point).
    """
    v_star = np.asarray(v_star, dtype=float)
    if np.any(v_star <= 0.0):
        raise ValueError("v_star must be positive (y_h(0) = 0)")
    a1, a2 = predicted_distance_amplitudes(p)
    x = phi0 - homoclinic_alpha(v_star) + p.g0**3 * v_star
    return (a1 * np.sin(x) - a2 * np.sin(2.0 * x)) / homoclinic_y(v_star)


def first_order_zero_function(x: float, p: Params) -> float:
    """Normalized first-order distance shape
    f(x) = (1-2mu) sin x - 16 sqrt(2) g0^2 e^{-g0^3/3} sin 2x.

    Roots of f locate the homoclinic points at leading order: always x = 0
    and x = pi; two more per period when (1-2mu) < 32 sqrt(2) g0^2 e^{-g0^3/3}.
    """
    b = 16.0 * sqrt(2.0) * p.g0**2 * exp(-p.g0**3 / 3.0)
    return (1.0 - 2.0 * p.mu) * math.sin(x) - b * math.sin(2.0 * x)


def has_two_first_order_roots(p: Params) -> bool:
    """True when the leading-order distance has only the two roots x = 0, pi
    per period, i.e. (1-2mu) > 32 sqrt(2) g0^2 e^{-g0^3/3}."""
    return (1.0 - 2.0 * p.mu) > 32.0 * sqrt(2.0) * p.g0**2 * exp(-p.g0**3 / 3.0)


def predicted_lobe_area(p: Params) -> float:
    """Leading-order lobe area between consecutive transversal homoclinic
    points:

        A = mu (1-mu) sqrt(pi) [ (1-2mu)/sqrt(2) g0^{-3/2} e^{-g0^3/3}
                                 + 8 g0^{1/2} e^{-2 g0^3/3} ],

    the (1 + O(g0^{-1/2})) error factor excluded.  Equals 4(|L1| + |L2|).
    """
    mu, g0 = p.mu, p.g0
    return mu * (1.0 - mu) * sqrt(pi) * (
        (1.0 - 2.0 * mu) / sqrt(2.0) * g0**-1.5 * exp(-g0**3 / 3.0)
        + 8.0 * sqrt(g0) * exp(-2.0 * g0**3 / 3.0))


def predicted_tangency_mu(g0: float) -> float:
    """Leading-order mass ratio mu*(g0) = 1/2 - 16 sqrt(2) g0^2 e^{-g0^3/3}
    of the cubic homoclinic tangency.

    Monotonically increasing to 1/2.  Below the validity floor
    (16 sqrt(2) g0^2 e^{-g0^3/3} >= 1/2, i.e. g0 < ~2.58) the formula leaves
    (0, 1/2]; a ValueError carrying the computed value is raised.
    """
    val = 0.5 - 16.0 * sqrt(2.0) * g0**2 * exp(-g0**3 / 3.0)
    if val <= 0.0:
        err = ValueError(
            f"g0={g0} below the tangency validity floor ~{TANGENCY_G0_FLOOR}; "
            f"formula gives mu*={val:.4g} outside (0, 1/2]")
        err.value = val
        raise err
    return val


def predicted_tangency_lobe_area(g0: float) -> float:
    """Stated leading-order lobe area between the cubic tangency and the
    adjacent transversal homoclinic point: 10 sqrt(pi) g0^{1/2} e^{-2 g0^3/3}."""
    return 10.0 * sqrt(pi) * sqrt(g0) * exp(-2.0 * g0**3 / 3.0)
