"""Correctness checks for the benchmark's `toolkit` outputs.

Everything the checks compare against is computed here, apart from the
rpc3bp code under test: the parabolic separatrix, the closed-form splitting
amplitudes and lobe area, the rotating-chart Hamiltonian and its vector
field.  The checks test properties the method must have (factor-2 agreement
with first-order theory, alternating transversal roots, energy conservation,
agreement with an independent integration), not copies of one run's output.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

# The window `toolkit splitting` uses with its default configuration, and
# the 1% edge padding its distance profile drops on each side.
DEFAULT_V_WINDOW = (0.4, 1.6)
PROFILE_PAD = 0.01

SPLIT_FACTOR = 2.0          # measured/closed-form band for max|D| and lobes
SPACING_REL_TOL = 0.20      # root spacing against the first-order spacing
QUAD_CONTOUR_REL_TOL = 1e-6
EXTENDED_DOUBLE_REL_TOL = 1e-10
ENERGY_TOL = 1e-8
FIRST_RETURN_TOL = 1e-8


# ---------------------------------------------------------------------------
# Separatrix and first-order theory
# ---------------------------------------------------------------------------

def tau_of_v(v):
    """Real root of (tau^3/3 + tau)/2 = v, by Cardano and two Newton steps."""
    v = np.asarray(v, dtype=float)
    s = np.sqrt(9.0 * v * v + 1.0)
    tau = np.cbrt(3.0 * v + s) + np.cbrt(3.0 * v - s)
    for _ in range(2):
        tau = tau - (tau**3 / 3.0 + tau - 2.0 * v) / (tau * tau + 1.0)
    return tau


def separatrix(v):
    """(r, y, alpha) of the parabolic separatrix at parameter v."""
    tau = tau_of_v(v)
    return (0.5 * (tau * tau + 1.0), 2.0 * tau / (tau * tau + 1.0),
            2.0 * np.arctan(tau))


def amplitudes(mu: float, g0: float) -> tuple[float, float]:
    """First-order amplitudes (A1, A2) of the distance
    (A1 sin x - A2 sin 2x) / y_h(v)."""
    c = mu * (1.0 - mu) * math.sqrt(math.pi)
    a1 = c * (1.0 - 2.0 * mu) / (2.0 * math.sqrt(2.0)) * g0**1.5 * math.exp(-g0**3 / 3.0)
    a2 = 8.0 * c * g0**3.5 * math.exp(-2.0 * g0**3 / 3.0)
    return a1, a2


def closed_form_lobe_area(mu: float, g0: float) -> float:
    """First-order lobe area 4(|L1| + |L2|) from the closed-form L1, L2."""
    return mu * (1.0 - mu) * math.sqrt(math.pi) * (
        (1.0 - 2.0 * mu) / math.sqrt(2.0) * g0**-1.5 * math.exp(-g0**3 / 3.0)
        + 8.0 * math.sqrt(g0) * math.exp(-2.0 * g0**3 / 3.0))


def first_order_profile(mu: float, g0: float, phi0: float = 0.0,
                        v_window=DEFAULT_V_WINDOW, n: int = 20001):
    """Grid v over the padded window, the phase x and the first-order distance."""
    lo, hi = v_window
    pad = PROFILE_PAD * (hi - lo)
    v = np.linspace(lo + pad, hi - pad, n)
    _, y, alpha = separatrix(v)
    x = phi0 - alpha + g0**3 * v
    a1, a2 = amplitudes(mu, g0)
    return v, x, (a1 * np.sin(x) - a2 * np.sin(2.0 * x)) / y


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def check_splitting(report: dict, mu: float, g0: float, phi0: float = 0.0,
                    v_window=DEFAULT_V_WINDOW) -> list[str]:
    """Check a `toolkit splitting` splitting.json payload."""
    bad = []
    if report.get("untrusted") is not False:
        bad.append("report flagged untrusted")
    v, x, pred = first_order_profile(mu, g0, phi0, v_window)
    ratio = report["max_distance"] / float(np.max(np.abs(pred)))
    if not 1.0 / SPLIT_FACTOR <= ratio <= SPLIT_FACTOR:
        bad.append(f"max|D| / closed-form amplitude = {ratio:.4g} outside "
                   f"[1/{SPLIT_FACTOR:g}, {SPLIT_FACTOR:g}]")

    roots = report["roots"]
    lobes = report["lobe_areas"]
    if len(lobes) != max(len(roots) - 1, 0):
        bad.append(f"{len(lobes)} lobes for {len(roots)} roots")
    if lobes:
        lobe_ratio = max(lobes) / closed_form_lobe_area(mu, g0)
        if not 1.0 / SPLIT_FACTOR <= lobe_ratio <= SPLIT_FACTOR:
            bad.append(f"largest lobe / closed-form area = {lobe_ratio:.4g} "
                       f"outside [1/{SPLIT_FACTOR:g}, {SPLIT_FACTOR:g}]")

    expected = int(np.count_nonzero(np.diff(np.sign(pred)) != 0))
    if abs(len(roots) - expected) > 1:
        bad.append(f"{len(roots)} roots, first-order count {expected}")
    vs = [r["v"] for r in roots]
    if any(b <= a for a, b in zip(vs, vs[1:])):
        bad.append("roots not strictly increasing in v")
    # consecutive transversal zeros of a continuous distance cross in
    # opposite directions; a missing or duplicated root breaks the pattern
    for ra, rb in zip(roots, roots[1:]):
        if ra["D_prime"] * rb["D_prime"] >= 0.0:
            bad.append(f"roots at v={ra['v']:.6f} and v={rb['v']:.6f} have "
                       "D' of the same sign")
            break

    a1, a2 = amplitudes(mu, g0)
    if a1 > 2.0 * a2:
        # two roots per period (x = 0, pi): spacing pi / (dx/dv)
        for va, vb in zip(vs, vs[1:]):
            r_mid, _, _ = separatrix(0.5 * (va + vb))
            want = math.pi / (g0**3 - 1.0 / float(r_mid) ** 2)
            if abs((vb - va) / want - 1.0) > SPACING_REL_TOL:
                bad.append(f"root spacing {vb - va:.6f} at v={va:.4f} vs "
                           f"first-order {want:.6f}")
                break
    return bad


# ---------------------------------------------------------------------------
# melnikov
# ---------------------------------------------------------------------------

def read_series(path) -> dict[int, float]:
    """Coefficients {l: L[l]} of a melnikov_<method>.json file."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return {int(c["l"]): float(c["value"]) for c in payload["coefficients"]}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def check_series_signs(series: dict[int, float], label: str) -> list[str]:
    l1, l2 = series.get(1), series.get(2)
    if l1 is None or l2 is None or not l1 < 0.0 < l2:
        return [f"{label}: expected L1 < 0 < L2, got L1={l1}, L2={l2}"]
    return []


def check_series_agree(a: dict[int, float], b: dict[int, float],
                       rel_tol: float, label: str) -> list[str]:
    bad = []
    for l in (1, 2):
        gap = _rel(a[l], b[l])
        if not gap <= rel_tol:
            bad.append(f"{label}: L{l} differs by {gap:.3g} relative "
                       f"(limit {rel_tol:g})")
    return bad


# ---------------------------------------------------------------------------
# oscillate
# ---------------------------------------------------------------------------

class RotatingSystem:
    """Rotating-chart Hamiltonian of the RPC3BP,

        H = y^2/2 - g0^3 G + G^2/(2 r^2) - 1/r - V(r, phi),

    with V the perturbation of the two primaries at distances mu/g0^2 and
    (1 - mu)/g0^2 from the origin, on opposite sides."""

    def __init__(self, mu: float, g0: float):
        self.mu, self.g0 = mu, g0
        self.a = mu / g0**2            # mass 1 - mu sits at angle 0
        self.b = (1.0 - mu) / g0**2    # mass mu sits at angle pi

    def _dist(self, r, phi):
        c = math.cos(phi)
        return (math.sqrt(r * r - 2.0 * self.a * r * c + self.a**2),
                math.sqrt(r * r + 2.0 * self.b * r * c + self.b**2))

    def V(self, r, phi):
        d1, d2 = self._dist(r, phi)
        return (1.0 - self.mu) / d1 + self.mu / d2 - 1.0 / r

    def H(self, r, phi, y, G):
        return (0.5 * y * y - self.g0**3 * G + G * G / (2.0 * r * r)
                - 1.0 / r - self.V(r, phi))

    def field(self, s, z):
        r, phi, y, G = z
        d1, d2 = self._dist(r, phi)
        c, sn = math.cos(phi), math.sin(phi)
        k1 = (1.0 - self.mu) / d1**3
        k2 = self.mu / d2**3
        V_r = -k1 * (r - self.a * c) - k2 * (r + self.b * c) + 1.0 / (r * r)
        V_phi = -k1 * self.a * r * sn + k2 * self.b * r * sn
        return [y, G / (r * r) - self.g0**3,
                G * G / r**3 - 1.0 / (r * r) + V_r, V_phi]

    def lift(self, r, y, phi):
        """Angular momentum G near 1 putting (r, phi, y, G) on H = -g0^3."""
        g3 = self.g0**3
        c = g3 + 0.5 * y * y - 1.0 / r - self.V(r, phi)
        # G^2/(2r^2) - g3 G + c = 0, small root in cancellation-free form
        return 2.0 * c / (g3 + math.sqrt(g3 * g3 - 2.0 * c / (r * r)))

    def first_return(self, r, y, phi0: float = 0.0):
        """(s, r, y) at the first crossing of phi = phi0 - 2 pi."""
        z0 = [r, phi0, y, self.lift(r, y, phi0)]

        def hit(s, z):
            return z[1] - (phi0 - 2.0 * math.pi)
        hit.terminal = True
        hit.direction = -1.0
        sol = solve_ivp(self.field, (0.0, 4.0 * 2.0 * math.pi / self.g0**3),
                        z0, method="DOP853", rtol=1e-13, atol=1e-15,
                        events=[hit])
        if len(sol.t_events[0]) == 0:
            raise RuntimeError("no section return within four periods")
        z = sol.y_events[0][0]
        return float(sol.t_events[0][0]), float(z[0]), float(z[2])


def read_returns(path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def check_oscillation(returns: list[dict], summary: dict, mu: float, g0: float,
                      seed: tuple[float, float], phi0: float = 0.0,
                      reference=None) -> list[str]:
    """Check `toolkit oscillate` returns.csv rows and oscillation.json.

    reference is the (s, r, y) of the seed's first return from
    RotatingSystem.first_return; it is computed when not given."""
    bad = []
    if summary["n_returns"] != len(returns):
        bad.append(f"oscillation.json counts {summary['n_returns']} returns, "
                   f"returns.csv has {len(returns)}")
    if not returns:
        return bad + ["no section return logged"]
    sysm = RotatingSystem(mu, g0)
    worst = max(abs(sysm.H(q["r"], phi0, q["y"], q["G"]) + g0**3) for q in returns)
    if not worst <= ENERGY_TOL:
        bad.append(f"|H + g0^3| reaches {worst:.3g} on a logged return")
    s = [q["s"] for q in returns]
    if any(b <= a for a, b in zip(s, s[1:])):
        bad.append("return times not increasing")
    ref = reference or sysm.first_return(seed[0], seed[1], phi0)
    first = returns[0]
    gap = max(abs(first["r"] - ref[1]), abs(first["y"] - ref[2]))
    if not gap <= FIRST_RETURN_TOL:
        bad.append(f"first return (r, y) = ({first['r']:.12g}, {first['y']:.12g}) "
                   f"vs reference ({ref[1]:.12g}, {ref[2]:.12g})")
    return bad
