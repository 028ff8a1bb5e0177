"""Command-line front end.

    toolkit <homoclinic|melnikov|manifolds|splitting|tangency|oscillate|sweep>
            [--config cfg.json] [--mu X --g0 Y --phi0 Z --tol T --out DIR
             --precision {double,extended}] [subcommand options]

Configuration is a single JSON document overlaid onto defaults; command-line
flags override file values.  Every output file carries a provenance header
(config hash, tolerances, precision mode, toolkit version).  Outputs are
deterministic: rerunning a command with the same configuration reproduces
byte-identical files.

Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 untrusted-results flag.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import Params, PrecisionError
from .melnikov import MelnikovSeries
from .manifolds import compute_invariant_curve, curve_to_csv
from .orbits import oscillation_demo
from .separatrix import homoclinic_state
from .splitting import (
    SplittingConfig,
    continuation_tangency_curve,
    splitting_report,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_UNTRUSTED = 4

MAX_GRID = 10_000

DEFAULTS = {
    "mu": 0.3,
    "g0": 2.4,
    "phi0": 0.0,
    "tol": 1e-12,
    "quad_tol": 1e-9,
    "jmax": 12,
    "lmax": 4,
    "v_window": [0.4, 1.6],
    "r0": 50.0,
    "n_samples": 60,
    "precision": "double",
    "mp_dps": 40,
    "out": ".",
}


def _load_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in ("mu", "g0", "phi0", "tol", "out", "precision"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _config_hash(cfg: dict) -> str:
    # output location does not affect the computation, so two runs writing to
    # different directories still share a hash (and identical bytes)
    canon = json.dumps({k: v for k, v in cfg.items() if k != "out"},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _provenance(cfg: dict) -> dict:
    return {
        "toolkit_version": __version__,
        "config_hash": _config_hash(cfg),
        "precision": cfg["precision"],
        "tol": cfg["tol"],
        "quad_tol": cfg["quad_tol"],
    }


def _header_lines(cfg: dict) -> tuple[str, ...]:
    prov = _provenance(cfg)
    return tuple(f"{k}={prov[k]}" for k in sorted(prov))


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _write_json(path: Path, payload: dict, cfg: dict) -> None:
    payload = {"provenance": _provenance(cfg), **payload}
    path.write_text(json.dumps(payload, sort_keys=True, indent=1,
                               default=_json_default) + "\n",
                    encoding="utf-8")


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _write_csv(path: Path, header: str, rows, cfg: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        for line in _header_lines(cfg):
            fh.write(f"# {line}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _params(cfg: dict) -> Params:
    return Params(float(cfg["mu"]), float(cfg["g0"]))


def _mp_dps(cfg: dict) -> int | None:
    return int(cfg["mp_dps"]) if cfg["precision"] == "extended" else None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_homoclinic(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg["out"])
    n = args.n
    if n < 2 or n > MAX_GRID:
        raise ValueError(f"grid size must lie in [2, {MAX_GRID}]")
    vs = np.linspace(args.v_min, args.v_max, n)
    if args.v_min < 0.0 < args.v_max and not np.any(vs == 0.0):
        vs = np.sort(np.append(vs, 0.0))
    rows = []
    ry_rows = []
    for v in vs:
        h = homoclinic_state(float(v))
        rows.append((h.v, h.tau, h.r, h.y, h.alpha))
        ry_rows.append((h.r, h.y))
    _write_csv(out / "homoclinic.csv", "v,tau,r,y,alpha", rows, cfg)
    _write_csv(out / "homoclinic_ry.csv", "r,y", ry_rows, cfg)
    print(f"wrote {out / 'homoclinic.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_melnikov(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg["out"])
    p = _params(cfg)
    methods = args.methods.split(",")
    lmax = int(cfg["lmax"])
    series = {}
    for m in methods:
        if m == "asymptotic" and lmax > 2:
            print("note: closed asymptotic forms exist only for l in {1, 2}; "
                  f"harmonics above 2 of the requested lmax={lmax} are omitted")
            series[m] = MelnikovSeries.compute(p, m, lmax=2, jmax=int(cfg["jmax"]))
        else:
            series[m] = MelnikovSeries.compute(
                p, m, lmax=lmax, jmax=int(cfg["jmax"]),
                tol=float(cfg["quad_tol"]), mp_dps=_mp_dps(cfg))
    untrusted = False
    for m, s in series.items():
        _write_json(out / f"melnikov_{m}.json", s.to_json_dict(), cfg)
        # an estimate above a tenth of its coefficient leaves no trusted
        # digit; the asymptotic forms have no estimate (NaN never compares)
        for l, err in s.error_estimates.items():
            val = s.coefficients[l]
            if val != 0.0 and err > 0.1 * abs(val):
                untrusted = True
    rows = []
    ls = sorted({l for s in series.values() for l in s.coefficients if l >= 1})
    for l in ls:
        row = [l]
        vals = []
        for m in methods:
            val = series[m].coefficients.get(l)
            row.append(val if val is not None else "")
            if val is not None:
                vals.append(val)
        ratio = (vals[0] / vals[1] if len(vals) >= 2 and vals[1] != 0 else "")
        row.append(ratio)
        rows.append(tuple(row))
    hdr = "l," + ",".join(methods) + ",ratio_first_two"
    _write_csv(out / "melnikov_compare.csv", hdr, rows, cfg)
    print(f"wrote melnikov series for methods {methods}")
    return EXIT_UNTRUSTED if untrusted else EXIT_OK


def cmd_manifolds(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg["out"])
    p = _params(cfg)
    branches = args.branch.split(",")
    for b in branches:
        curve = compute_invariant_curve(
            b, float(cfg["phi0"]), tuple(cfg["v_window"]), p,
            tol=float(cfg["tol"]), n_samples=int(cfg["n_samples"]),
            r0=float(cfg["r0"]))
        curve_to_csv(curve, out / f"curve_{b}.csv", _header_lines(cfg))
        print(f"wrote {out / f'curve_{b}.csv'} ({len(curve.v)} samples)")
    return EXIT_OK


def _report_payload(rep) -> dict:
    return {
        "mu": rep.params.mu,
        "g0": rep.params.g0,
        "phi0": rep.phi0,
        "max_distance": rep.max_distance,
        "predicted_amplitude": rep.predicted_amplitude,
        "distance_ratio": rep.distance_ratio,
        "roots": [{"v": r.v, "phase": r.phase, "D_prime": r.D_prime,
                   "kind": r.kind} for r in rep.roots],
        "lobe_areas": rep.lobe_areas,
        "predicted_lobe_area": rep.predicted_area,
        "area_ratios": rep.area_ratios,
        "measured_distances": [{"phase_start": a, "max_abs_D": b}
                               for a, b in rep.measured_distances],
        "noise_floor": rep.noise_floor,
        "untrusted": rep.untrusted,
        "fold_intervals": rep.profile.fold_intervals,
    }


def _split_cfg(cfg: dict) -> SplittingConfig:
    return SplittingConfig(v_window=tuple(cfg["v_window"]),
                           tol=float(cfg["tol"]),
                           n_samples=int(cfg["n_samples"]),
                           r0=float(cfg["r0"]))


def cmd_splitting(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg["out"])
    rep = splitting_report(_params(cfg), float(cfg["phi0"]), _split_cfg(cfg))
    _write_json(out / "splitting.json", _report_payload(rep), cfg)
    rows = [(r.v, r.phase, r.D_prime, r.kind) for r in rep.roots]
    _write_csv(out / "roots.csv", "v,phase,D_prime,kind", rows, cfg)
    _write_csv(out / "lobes.csv", "v_a,v_b,area",
               [(ra.v, rb.v, a) for ra, rb, a in
                zip(rep.roots[:-1], rep.roots[1:], rep.lobe_areas)], cfg)
    print(f"splitting report: max|D|={rep.max_distance:.4e}, "
          f"{len(rep.roots)} roots, untrusted={rep.untrusted}")
    return EXIT_UNTRUSTED if rep.untrusted else EXIT_OK


def cmd_tangency(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg["out"])
    pts = continuation_tangency_curve((args.g0_min, args.g0_max), args.steps,
                                      _split_cfg(cfg), float(cfg["phi0"]))
    rows = []
    for pt in pts:
        ratio = (0.5 - pt.mu_star) / (0.5 - pt.mu_predicted)
        rows.append((pt.g0, pt.mu_star, pt.mu_predicted, ratio))
    _write_csv(out / "tangency.csv", "g0,mu_star,mu_predicted,ratio", rows, cfg)
    print(f"wrote {out / 'tangency.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_oscillate(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg["out"])
    p = _params(cfg)
    log = oscillation_demo(p, (args.seed_r, args.seed_y), args.n_iter,
                           args.r_out, args.r_in, float(cfg["phi0"]),
                           tol=float(cfg["tol"]))
    rows = [(r.s, r.r, r.y, r.G, r.max_r_since_last) for r in log.returns]
    _write_csv(out / "returns.csv", "s,r,y,G,max_r_since_last", rows, cfg)
    _write_json(out / "oscillation.json", {
        "mu": p.mu, "g0": p.g0, "seed": list(log.seed),
        "n_returns": len(log.returns),
        "n_excursions": log.n_excursions,
        "excursions": [list(e) for e in log.excursions],
        "escaped": log.escaped, "escape_kind": log.escape_kind,
        "energy_residual": log.energy_residual,
    }, cfg)
    print(f"oscillation: {len(log.returns)} returns, "
          f"{log.n_excursions} excursions, escaped={log.escaped}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg["out"])
    mus = [float(x) for x in args.grid_mu.split(",")]
    g0s = [float(x) for x in args.grid_g0.split(",")]
    if len(mus) * len(g0s) > MAX_GRID:
        raise ValueError(f"sweep grid exceeds {MAX_GRID} combinations")
    rows = []
    any_untrusted = False
    for mu in mus:
        for g0 in g0s:
            key = (mu, g0)
            try:
                rep = splitting_report(Params(mu, g0), float(cfg["phi0"]),
                                       _split_cfg(cfg))
                rows.append((mu, g0, rep.max_distance, rep.predicted_amplitude,
                             rep.distance_ratio, len(rep.roots),
                             "untrusted" if rep.untrusted else "ok"))
                any_untrusted |= rep.untrusted
            except Exception as err:  # failures isolated per parameter
                rows.append((mu, g0, "", "", "", "", f"error:{type(err).__name__}"))
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_csv(out / "sweep.csv",
               "mu,g0,max_distance,predicted_amplitude,ratio,n_roots,status",
               rows, cfg)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return EXIT_UNTRUSTED if any_untrusted else EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toolkit",
        description="Splitting of the parabolic manifolds of infinity in the "
                    "restricted planar circular three-body problem")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--mu", type=float)
        sp.add_argument("--g0", type=float)
        sp.add_argument("--phi0", type=float)
        sp.add_argument("--tol", type=float)
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--precision", choices=("double", "extended"))

    sp = sub.add_parser("homoclinic", help="tabulate the separatrix")
    common(sp)
    sp.add_argument("--v-min", type=float, default=-3.0)
    sp.add_argument("--v-max", type=float, default=3.0)
    sp.add_argument("--n", type=int, default=601)
    sp.set_defaults(func=cmd_homoclinic)

    sp = sub.add_parser("melnikov", help="Melnikov coefficients by one or "
                                         "more methods")
    common(sp)
    sp.add_argument("--methods", default="contour",
                    help="comma list of quadrature,contour,asymptotic")
    sp.set_defaults(func=cmd_melnikov)

    sp = sub.add_parser("manifolds", help="invariant curves on the section")
    common(sp)
    sp.add_argument("--branch", default="unstable,stable")
    sp.set_defaults(func=cmd_manifolds)

    sp = sub.add_parser("splitting", help="distance profile, roots, lobes")
    common(sp)
    sp.set_defaults(func=cmd_splitting)

    sp = sub.add_parser("tangency", help="continuation of the tangency curve")
    common(sp)
    sp.add_argument("--g0-min", type=float, default=2.7)
    sp.add_argument("--g0-max", type=float, default=3.2)
    sp.add_argument("--steps", type=int, default=6)
    sp.set_defaults(func=cmd_tangency)

    sp = sub.add_parser("oscillate", help="finite-horizon oscillation demo")
    common(sp)
    sp.add_argument("--seed-r", type=float, required=True)
    sp.add_argument("--seed-y", type=float, required=True)
    sp.add_argument("--n-iter", type=int, default=200)
    sp.add_argument("--r-out", type=float, default=5.0)
    sp.add_argument("--r-in", type=float, default=2.0)
    sp.set_defaults(func=cmd_oscillate)

    sp = sub.add_parser("sweep", help="splitting reports over a parameter grid")
    common(sp)
    sp.add_argument("--grid-mu", default="0.1,0.3,0.5")
    sp.add_argument("--grid-g0", default="2.0,2.4")
    sp.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PrecisionError, ArithmeticError, RuntimeError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
