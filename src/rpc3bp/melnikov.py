"""Melnikov potential of the parabolic separatrix and its Fourier coefficients.

The splitting of the stable/unstable manifolds of infinity is governed, at
first order, by the Melnikov potential

    L(v, xi) = int V(r_h(v+s), xi - g0^3 s + alpha_h(v+s)) ds
             = L[0] + 2 sum_{l>=1} L[l] cos(l (xi + g0^3 v)),

whose coefficients are exponentially small in g0 (L[l] ~ e^{-l g0^3/3}).
Three independent routes are implemented:

quadrature : real-line oscillatory integral of the angular Fourier modes of
    the perturbation along the separatrix, with FFT-computed modes.  Reliable
    in binary64 for g0 <= 2 where the coefficients sit well above roundoff.
contour    : binomial-series reduction to the oscillatory integrals
    I(l, m, n) computed on a complex path hugging Re(tau + tau^3/3) = 0
    through the singularity tau = sign(l) i.  Well-conditioned at any g0
    because the integrand peak matches the result scale.
asymptotic : leading-order closed forms for l = 1, 2.

Sign conventions: the coefficient signs follow the cross-validated values
L[1] < 0 and L[2] > 0 (for mu < 1/2); all derived prediction formulas use the
same relative sign of the two harmonics, which fixes the homoclinic root
geometry (extra root pair at cos x = |L1/(4 L2)|, tangency at x = 0 mod 2pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import exp, pi, sqrt

import numpy as np

from .core import Params, PrecisionError
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


def _V_np(r, phi, mu, g0):
    """Vectorized rescaled perturbation potential."""
    m1 = mu / g0**2
    m2 = (1.0 - mu) / g0**2
    cp = np.cos(phi)
    d1 = np.sqrt(r * r - 2.0 * m1 * r * cp + m1 * m1)
    d2 = np.sqrt(r * r + 2.0 * m2 * r * cp + m2 * m2)
    return (1.0 - mu) / d1 + mu / d2 - 1.0 / r


_N_THETA = 256


def uhat_fourier_coeff_quadrature(l: int, v, p: Params,
                                  n_theta: int = _N_THETA) -> complex:
    """Mode l of theta -> V(r_h(v), theta) by the periodic trapezoid rule.

    Spectrally accurate (the potential is analytic in theta); serves as the
    independent oracle for uhat_fourier_coeff and as the mode evaluator of
    the real-line quadrature route.  v may be an array.
    """
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    r = np.asarray(homoclinic_r(v_arr))
    theta = 2.0 * pi * np.arange(n_theta) / n_theta
    w = np.exp(-1j * l * theta) / n_theta
    vals = _V_np(r[:, None], theta[None, :], p.mu, p.g0)
    out = vals @ w
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


def _panel_nodes(a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return mid + half * _GL_NODES, half * _GL_WEIGHTS


def _g_factor(t_nodes: np.ndarray, l: int, p: Params) -> np.ndarray:
    """Slow part g(t) = U[l](t) e^{i l alpha_h(t)} of the oscillatory integrand."""
    u = uhat_fourier_coeff_quadrature(l, t_nodes, p)
    return u * np.exp(1j * l * np.asarray(homoclinic_alpha(t_nodes)))


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


def melnikov_coeff0_quadrature(p: Params, tau_max: float = 300.0) -> float:
    """Mean coefficient L[0]: plain (non-oscillatory) integral of U[0],
    evaluated in the cubic variable where the decay is tau^-4."""
    if p.mu == 0.0:
        return 0.0
    n = 6000
    tau = np.linspace(-tau_max, tau_max, n)
    v = np.asarray(v_of_tau(tau))
    rhat = 0.5 * (tau * tau + 1.0)
    u0 = uhat_fourier_coeff_quadrature(0, v, p).real
    return float(np.trapezoid(u0 * rhat, tau))


# ---------------------------------------------------------------------------
# Route 2: complex-contour integrals I(l, m, n)
# ---------------------------------------------------------------------------

def _contour_quad(f, p: Params, l: int, n_per_panel: int, pole_order: int = 1):
    """Integrate f(tau) dtau along the bent path through sign(l) * i.

    The path follows the zero-phase curve Im tau = sqrt(1 + a^2/3) of
    Re(tau + tau^3/3) = 0 and dips toward the real axis by a Gaussian bump of
    depth ~ (|l| g0^3)^{-1/2}, passing the pole on the side of the original
    (real-axis) contour.  Panels are graded toward a = 0, on the scale
    dip/pole_order where the high-order pole factor varies fastest.
    """
    omega = abs(l) * p.g0**3
    ws = 1.0 / sqrt(omega)
    delta = 0.75 * ws
    wb = 3.0 * ws
    sgn = 1.0 if l > 0 else -1.0

    # Half-length: undipped-path exponent (omega/2)(h(a) - 2/3) >= 46 with
    # h(a) - 2/3 >= (8/9) a^2.
    A = max(8.0 * wb, sqrt(46.0 * 2.0 / omega / (8.0 / 9.0)) * 1.5)

    edges = [0.0]
    a = delta / (2.0 * max(pole_order, 1))
    while a < A:
        edges.append(a)
        a *= 1.3
    edges.append(A)
    edges = np.array(edges)
    edges = np.concatenate([-edges[::-1], edges[1:]])

    nodes_ref, weights_ref = np.polynomial.legendre.leggauss(n_per_panel)
    total = 0.0 + 0.0j
    peak = 0.0
    for aa, bb in zip(edges[:-1], edges[1:]):
        half = 0.5 * (bb - aa)
        mid = 0.5 * (bb + aa)
        an = mid + half * nodes_ref
        br = np.sqrt(1.0 + an * an / 3.0)
        bump = np.exp(-((an / wb) ** 2))
        b = sgn * (br - delta * bump)
        bp = sgn * (an / (3.0 * br) + delta * bump * 2.0 * an / wb**2)
        tau = an + 1j * b
        dtau = 1.0 + 1j * bp
        vals = f(tau) * dtau
        total += half * np.sum(weights_ref * vals)
        peak = max(peak, float(np.max(np.abs(vals))))
    return total, peak


def contour_integral_I(l: int, m: int, n: int, p: Params,
                       mp_dps: int | None = None) -> float:
    """Oscillatory integral I(l,m,n) = int e^{i l (g0^3/2)(tau + tau^3/3)}
    (tau - i)^{-2m} (tau + i)^{-2n} dtau over the real line.

    Computed on a deformed complex path through the singularity at
    sign(l) * i; the integrand peak there matches the result scale
    ~ g0^{3m - 3/2} e^{-|l| g0^3/3}, so the evaluation is well-conditioned
    however exponentially small the answer.  The value is real; satisfies
    I(-l, n, m) = I(l, m, n).
    """
    l, m, n = int(l), int(m), int(n)
    if l == 0:
        raise ValueError("l must be nonzero")
    if (m, n) == (0, 0):
        raise ValueError("(m, n) = (0, 0) diverges (no decay)")
    if mp_dps is not None:
        return _contour_integral_I_mp(l, m, n, p, mp_dps)

    half_w = l * p.g0**3 / 2.0

    def f(tau):
        return (np.exp(1j * half_w * (tau + tau**3 / 3.0))
                / (tau - 1j) ** (2 * m) / (tau + 1j) ** (2 * n))

    order = max(m, n)
    coarse, _ = _contour_quad(f, p, l, 16, pole_order=order)
    fine, peak = _contour_quad(f, p, l, 24, pole_order=order)
    err = abs(fine - coarse)
    floor = 50.0 * _EPS * peak
    scale = max(abs(fine), floor)
    if err > max(1e-8 * scale, floor):
        raise RuntimeError(
            f"contour quadrature for I({l},{m},{n}) did not converge: "
            f"refinement change {err:g} vs scale {scale:g}")
    if abs(fine.imag) > max(1e-8 * abs(fine.real), 2.0 * floor):
        raise RuntimeError(
            f"contour result not real: I({l},{m},{n}) = {fine:g} (peak {peak:g})")
    return float(fine.real)


def _contour_integral_I_mp(l: int, m: int, n: int, p: Params, dps: int) -> float:
    """Extended-precision contour integral via mpmath on the same path."""
    import mpmath as mp

    with mp.workdps(dps):
        g0 = mp.mpf(p.g0)
        omega = abs(l) * g0**3
        ws = 1 / mp.sqrt(omega)
        delta = mp.mpf("0.75") * ws
        wb = 3 * ws
        sgn = 1 if l > 0 else -1
        digits_pad = mp.mpf(dps) * mp.log(10)
        A = max(8 * wb, mp.sqrt((digits_pad + 40) * 2 / omega / mp.mpf(8) * 9) * mp.mpf("1.5"))
        half_w = mp.mpf(l) * g0**3 / 2

        def f(a):
            br = mp.sqrt(1 + a * a / 3)
            bump = mp.e**(-((a / wb) ** 2))
            b = sgn * (br - delta * bump)
            bp = sgn * (a / (3 * br) + delta * bump * 2 * a / wb**2)
            tau = mp.mpc(a, b)
            dtau = mp.mpc(1, bp)
            return mp.e**(1j * half_w * (tau + tau**3 / 3)) / (tau - 1j) ** (2 * m) / (tau + 1j) ** (2 * n) * dtau

        val = mp.quad(f, [-A, -wb, 0, wb, A])
        return float(mp.re(val))


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
                           with_tail: bool = False):
    """Coefficient L[l] (l >= 1) assembled from the contour integrals:

        L[l] = sum_{j>=0} c_j c_{l+j}
               [mu(1-mu)^(2j+l) + (-1)^l (1-mu) mu^(2j+l)] / g0^(4j+2l)
               * (-1)^l 2^(2j+l) I(l, j+l, j),

    truncated at j = jmax.  Terms with an identically-zero mass factor (all
    of them for odd l at mu = 1/2, everything at mu = 0) are skipped exactly.
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    if jmax < 2:
        raise ValueError("jmax must be at least 2")
    cj = _binom_half_table(jmax + l + 1)
    total = 0.0
    last = 0.0
    prev = 0.0
    for j in range(0, jmax + 1):
        mass = _mass_factor(l, j, p.mu)
        if mass == 0.0:
            continue
        I = contour_integral_I(l, j + l, j, p, mp_dps=mp_dps)
        term = (cj[j] * cj[j + l] * mass / p.g0 ** (4 * j + 2 * l)
                * (-1.0) ** l * 2.0 ** (2 * j + l) * I)
        total += term
        prev, last = last, term
        # geometric decay in j: once a term is below the arithmetic floor of
        # the accumulated sum, later ones cannot contribute
        if total != 0.0 and abs(term) < 1e-3 * _EPS * abs(total):
            break
    if with_tail:
        if last == 0.0:
            tail = 0.0
        else:
            ratio = min(abs(last / prev) if prev != 0.0 else 0.5, 0.9)
            tail = abs(last) * ratio / (1.0 - ratio)
        return total, tail
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
            coeffs[0] = melnikov_coeff0_quadrature(p)
            errs[0] = 0.0
            for l in range(1, lmax + 1):
                res = melnikov_coeff_quadrature(l, p, tol)
                coeffs[l] = res.value
                errs[l] = max(res.tail_bound, res.noise_floor, abs(res.imag_residue))
        elif method == "contour":
            for l in range(1, lmax + 1):
                val, tail = melnikov_coeff_contour(l, p, jmax, mp_dps=mp_dps,
                                                   with_tail=True)
                coeffs[l] = val
                errs[l] = tail
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
