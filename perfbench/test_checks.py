"""Self-tests of the benchmark: each check accepts a good output and rejects
a deliberately wrong one; the reference physics and the tracer are sound.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

MU = 0.3


def _toolkit(argv, out: Path) -> None:
    from rpc3bp.cli import main
    assert main(argv + ["--out", str(out)]) == 0


# ---------------------------------------------------------------------------
# reference physics
# ---------------------------------------------------------------------------

def test_separatrix_is_the_zero_energy_parabola():
    v = np.linspace(-3.0, 3.0, 61)
    r, y, _ = checks.separatrix(v)
    np.testing.assert_allclose(0.5 * y * y + 0.5 / r**2 - 1.0 / r, 0.0, atol=1e-14)
    tau = checks.tau_of_v(v)
    np.testing.assert_allclose(0.5 * (tau**3 / 3.0 + tau), v, atol=1e-13)


def test_field_is_hamiltonian():
    sysm = checks.RotatingSystem(MU, 2.2)
    z = np.array([1.3, 0.7, 0.4, 1.05])
    h = 1e-6
    grad = []
    for k in range(4):
        dz = np.zeros(4)
        dz[k] = h
        grad.append((sysm.H(*(z + dz)) - sysm.H(*(z - dz))) / (2.0 * h))
    H_r, H_phi, H_y, H_G = grad
    np.testing.assert_allclose(sysm.field(0.0, z), [H_y, H_G, -H_r, -H_phi],
                               rtol=1e-8, atol=1e-9)


def test_lift_lands_on_the_shell():
    sysm = checks.RotatingSystem(MU, 2.2)
    G = sysm.lift(1.39, 0.93, 0.0)
    assert abs(sysm.H(1.39, 0.0, 0.93, G) + 2.2**3) < 1e-12


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def _first_order_report(g0: float) -> dict:
    """A splitting.json as first-order theory would write it."""
    v, _, pred = checks.first_order_profile(MU, g0)
    idx = np.flatnonzero(np.diff(np.sign(pred)) != 0)
    roots = []
    for i in idx:
        vr = v[i] - pred[i] * (v[i + 1] - v[i]) / (pred[i + 1] - pred[i])
        roots.append({"v": float(vr), "D_prime": float(pred[i + 1] - pred[i]),
                      "phase": 0.0, "kind": "transversal"})
    area = checks.closed_form_lobe_area(MU, g0)
    return {"mu": MU, "g0": g0, "untrusted": False, "roots": roots,
            "max_distance": 1.1 * float(np.max(np.abs(pred))),
            "lobe_areas": [area] * (len(roots) - 1)}


@pytest.mark.parametrize("g0", [2.4, 2.8])
def test_splitting_accepts_first_order_report(g0):
    assert checks.check_splitting(_first_order_report(g0), MU, g0) == []


@pytest.mark.parametrize("g0", [2.4, 2.8])
def test_splitting_rejects_scaled_distance(g0):
    rep = _first_order_report(g0)
    rep["max_distance"] *= 3.0
    assert checks.check_splitting(rep, MU, g0)


def test_splitting_rejects_scaled_lobe():
    rep = _first_order_report(2.4)
    rep["lobe_areas"][0] *= 3.0
    assert checks.check_splitting(rep, MU, 2.4)


@pytest.mark.parametrize("g0", [2.4, 2.8])
def test_splitting_rejects_dropped_root(g0):
    rep = _first_order_report(g0)
    k = len(rep["roots"]) // 2
    del rep["roots"][k]
    del rep["lobe_areas"][k]
    assert checks.check_splitting(rep, MU, g0)


def test_splitting_rejects_untrusted():
    rep = _first_order_report(2.4)
    rep["untrusted"] = True
    assert checks.check_splitting(rep, MU, 2.4)


def test_splitting_rejects_misplaced_root():
    rep = _first_order_report(2.8)
    a, b = rep["roots"][2]["v"], rep["roots"][3]["v"]
    rep["roots"][2]["v"] = a - 0.3 * (b - a)
    assert checks.check_splitting(rep, MU, 2.8)


# ---------------------------------------------------------------------------
# melnikov
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def contour_series(tmp_path_factory):
    out = tmp_path_factory.mktemp("melnikov")
    _toolkit(["melnikov", "--mu", str(MU), "--g0", "2.8"], out)
    return checks.read_series(out / "melnikov_contour.json")


def test_series_signs(contour_series):
    assert checks.check_series_signs(contour_series, "contour") == []
    flipped = {l: -c for l, c in contour_series.items()}
    assert checks.check_series_signs(flipped, "contour")


def test_series_agreement(contour_series):
    near = {l: c * (1.0 + 3e-7) for l, c in contour_series.items()}
    assert checks.check_series_agree(near, contour_series, 1e-6, "q/c") == []
    scaled = dict(contour_series)
    scaled[1] *= 3.0
    assert checks.check_series_agree(scaled, contour_series, 1e-6, "q/c")
    off = {l: c * (1.0 + 1e-9) for l, c in contour_series.items()}
    assert checks.check_series_agree(off, contour_series, 1e-10, "ext/dbl")


# ---------------------------------------------------------------------------
# oscillate
# ---------------------------------------------------------------------------

SEED = (1.39, 0.93)


@pytest.fixture(scope="module")
def oscillation(tmp_path_factory):
    out = tmp_path_factory.mktemp("oscillate")
    _toolkit(["oscillate", "--mu", str(MU), "--g0", "2.2", "--seed-r",
              repr(SEED[0]), "--seed-y", repr(SEED[1]), "--n-iter", "4"], out)
    rows = checks.read_returns(out / "returns.csv")
    summary = json.loads((out / "oscillation.json").read_text())
    ref = checks.RotatingSystem(MU, 2.2).first_return(*SEED)
    return rows, summary, ref


def _check_osc(rows, summary, ref):
    return checks.check_oscillation(rows, summary, MU, 2.2, SEED, reference=ref)


def test_oscillation_accepts_toolkit_output(oscillation):
    assert _check_osc(*oscillation) == []


def test_oscillation_rejects_identity_return(oscillation):
    rows, summary, ref = copy.deepcopy(oscillation)
    rows[0]["r"], rows[0]["y"] = SEED
    assert _check_osc(rows, summary, ref)


def test_oscillation_rejects_energy_drift(oscillation):
    rows, summary, ref = copy.deepcopy(oscillation)
    rows[-1]["G"] += 1e-6
    assert _check_osc(rows, summary, ref)


def test_oscillation_rejects_unordered_times(oscillation):
    rows, summary, ref = copy.deepcopy(oscillation)
    rows[1]["s"], rows[2]["s"] = rows[2]["s"], rows[1]["s"]
    assert _check_osc(rows, summary, ref)


def test_oscillation_rejects_miscounted_returns(oscillation):
    rows, summary, ref = copy.deepcopy(oscillation)
    summary["n_returns"] += 1
    assert _check_osc(rows, summary, ref)


# ---------------------------------------------------------------------------
# speed scaling, tracing and the benchmark definition
# ---------------------------------------------------------------------------

def test_scale_reads_nominal_seconds():
    assert speed.scale([speed.NOMINAL_S] * 3) == pytest.approx(1.0)
    # half speed for half the samples: 3/4 of nominal work per wall second
    assert speed.scale([speed.NOMINAL_S, 2.0 * speed.NOMINAL_S]) == pytest.approx(0.75)


def test_factor_uses_the_samples_of_the_call():
    s = speed.SpeedSampler()
    s.times = [0.0, 1.0, 2.0, 3.0]
    s.durations = [speed.NOMINAL_S, 2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S,
                   speed.NOMINAL_S]
    assert s.factor(0.9, 2.1) == pytest.approx(0.5)
    assert s.factor(2.9, 2.95) == pytest.approx(1.0)   # nearest sample


def test_sampler_samples_and_stops():
    with speed.SpeedSampler() as s:
        t_end = time.perf_counter() + 0.35
        while time.perf_counter() < t_end:
            pass
    n = len(s.durations)
    assert 2 <= n <= 4 and s.busy > 0.0
    time.sleep(0.25)
    assert len(s.durations) == n


def test_self_time_subtracts_children():
    spans = [["cli.main", 0.0, 10.0, None, None],
             ["manifolds.curve", 1.0, 7.0, 0, {"orbits": 2}],
             ["integrate.flow", 1.0, 3.0, 1, {"nfev": 10, "steps": 4, "far_steps": 1}],
             ["integrate.flow", 3.0, 6.0, 1, {"nfev": 20, "steps": 6, "far_steps": 0}]]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["manifolds.self_s"] == pytest.approx(1.0)
    assert m["integrate.flow_s"] == pytest.approx(5.0)
    assert m["manifolds.steps_per_orbit"] == pytest.approx(5.0)
    assert m["integrate.far_steps"] == 1
    # two rounds: sums halve, ratios stay
    m2 = tracing.layer_metrics(spans, rounds=2)
    assert m2["integrate.flow_s"] == pytest.approx(2.5)
    assert m2["manifolds.steps_per_orbit"] == pytest.approx(5.0)


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    import importlib
    integrate = importlib.import_module("rpc3bp.integrate")
    manifolds = importlib.import_module("rpc3bp.manifolds")
    orbits = importlib.import_module("rpc3bp.orbits")
    flow = integrate.flow
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert manifolds.flow is integrate.flow is orbits.flow is not flow
        _toolkit(["oscillate", "--mu", str(MU), "--g0", "2.2", "--seed-r",
                  "1.39", "--seed-y", "0.93", "--n-iter", "2"], tmp_path)
    finally:
        tracer.close()
    assert manifolds.flow is integrate.flow is orbits.flow is flow
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "orbits.demo", "integrate.flow", "integrate.refine"} <= names
    assert tracing.layer_metrics(tracer.spans)["orbits.returns"] == 2


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
