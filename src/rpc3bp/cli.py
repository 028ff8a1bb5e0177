"""Command-line front end.

    toolkit <command> [--config cfg.json] [--out DIR] [flags] [options]

One table, _READS, lists the config keys each command reads.  A command
takes the settings flags among them (the keys in _FLAGS), and its --config
file, a JSON object overlaid onto those keys' defaults, may hold no other
key; flags override file values.  Every output file carries a provenance
header: the toolkit version, a hash of the keys' values (out aside) and
the values of precision and tol where the command reads them.
Outputs are deterministic: rerunning a command with the same
configuration reproduces byte-identical files.  JSON files are strict RFC
8259: a non-finite number (no estimate, a divergent estimate, an undefined
ratio) is written as null.

Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 untrusted-results flag.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import Params, PrecisionError
from .melnikov import MP_DPS_MIN, MelnikovSeries
from .manifolds import compute_invariant_curve
from .orbits import oscillation_demo
from .separatrix import homoclinic_r, homoclinic_state
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
    "jmax": 12,
    "lmax": 4,
    "n_samples": SplittingConfig.n_samples,
    "precision": "double",
    "mp_dps": 40,
    "out": ".",
}

PRECISIONS = ("double", "extended")

# the settings flags, by the config key each overrides
_FLAGS = {"mu": {"type": float}, "g0": {"type": float}, "phi0": {"type": float},
          "tol": {"type": float}, "precision": {"choices": PRECISIONS}}

# the settings each command reads: its flags, its config keys, its config
# hash and its provenance lines all come from its row
_SPLIT_KEYS = ("phi0", "tol", "n_samples")
_READS = {command: (*keys, "out") for command, keys in {
    "homoclinic": (),
    "melnikov": ("mu", "g0", "precision", "jmax", "lmax", "mp_dps"),
    "manifolds": ("mu", "g0", *_SPLIT_KEYS),
    "splitting": ("mu", "g0", *_SPLIT_KEYS),
    "oscillate": ("mu", "g0", "phi0", "tol"),
    "tangency": _SPLIT_KEYS,
    "sweep": _SPLIT_KEYS,
}.items()}

# the settings written into the provenance of a command that reads them
_PROVENANCE_KEYS = ("precision", "tol")

# what float() reads with a leading minus: argparse's own pattern misses the
# exponent forms and infinities, and takes `--seed-y -1e-3` for two options
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


def _same_kind(val, default) -> bool:
    """val has default's type (an int passes for a float, a bool for
    neither)."""
    return type(val) is type(default) or (type(default), type(val)) == (float, int)


def _load_config(args) -> dict:
    reads = _READS[args.command]
    cfg = {key: DEFAULTS[key] for key in reads}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unread = set(file_cfg) - set(reads)
        if unread:
            raise ValueError(f"{args.command} reads no config keys "
                             f"{sorted(unread)}")
        for key, val in file_cfg.items():
            if not (val in PRECISIONS if key == "precision"
                    else _same_kind(val, DEFAULTS[key])):
                raise ValueError(f"config key {key!r} cannot be {val!r} "
                                 f"(default {DEFAULTS[key]!r})")
        cfg.update(file_cfg)
    for key in (*_FLAGS, "out"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    # the section is 2pi-periodic in phi0, so this bound loses no section; the
    # comparison also refuses NaN, and an int of any size without converting it
    if "phi0" in cfg and not abs(cfg["phi0"]) <= 2.0 * math.pi:
        raise ValueError(f"config key 'phi0' must be finite with "
                         f"|phi0| <= 2pi, got {cfg['phi0']!r}")
    # the library refuses these at entry too (mp_dps in extended precision
    # only), but here the message names the config key, and sweep would turn
    # a library refusal into error:ValueError rows and exit 0
    for key, least in (("mp_dps", MP_DPS_MIN), ("lmax", 1), ("n_samples", 1)):
        if key in cfg and cfg[key] < least:
            raise ValueError(f"config key {key!r} must be at least {least}, "
                             f"got {cfg[key]!r}")
    # each sizes arrays in proportion to its value before any useful work
    for key in ("n_samples", "jmax"):
        if key in cfg and cfg[key] > MAX_GRID:
            raise ValueError(f"config key {key!r} must be at most {MAX_GRID}, "
                             f"got {cfg[key]!r}")
    if not Path(cfg["out"]).is_dir():
        raise ValueError(f"output directory {cfg['out']!r} does not exist "
                         f"or is not a directory")
    return cfg


def _config_hash(cfg: dict) -> str:
    # output location does not affect the computation, so two runs writing to
    # different directories still share a hash (and identical bytes)
    canon = json.dumps({k: v for k, v in cfg.items() if k != "out"},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _provenance(cfg: dict) -> dict:
    # cfg holds the command's row of _READS only
    return {"toolkit_version": __version__, "config_hash": _config_hash(cfg),
            **{k: cfg[k] for k in _PROVENANCE_KEYS if k in cfg}}


def _header_lines(cfg: dict) -> tuple[str, ...]:
    prov = _provenance(cfg)
    return tuple(f"{k}={prov[k]}" for k in sorted(prov))


def _jsonable(obj):
    """obj with numpy scalars and arrays as Python numbers and lists, and
    every non-finite float as None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write_json(path: Path, payload: dict, cfg: dict,
                precision: str | None = None) -> None:
    # precision, if given, replaces the run's in the provenance and leaves
    # its config_hash
    prov = _provenance(cfg)
    if precision is not None:
        prov["precision"] = precision
    payload = {"provenance": prov, **payload}
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=1,
                               allow_nan=False) + "\n",
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

def cmd_homoclinic(args, cfg: dict, out: Path) -> int:
    n = args.n
    if n < 2 or n > MAX_GRID:
        raise ValueError(f"grid size must lie in [2, {MAX_GRID}]")
    # tau_of_v squares 3v: where 9 v^2 overflows, as at inf or NaN, the
    # separatrix state is not finite, and every grid point lies between
    # the bounds
    for flag, v in (("--v-min", args.v_min), ("--v-max", args.v_max)):
        if not math.isfinite(9.0 * v * v):
            raise ValueError(f"{flag} must be finite with |v| below about "
                             f"4.469e153, where 9 v^2 overflows; got {v!r}")
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


def cmd_melnikov(args, cfg: dict, out: Path) -> int:
    # only the contour route reads mp_dps: the quadrature and asymptotic
    # series would be binary64 under an extended-precision header
    if cfg["precision"] == "extended" and "contour" not in args.methods:
        raise ValueError(f"--precision extended applies to the contour "
                         f"method only, and --methods "
                         f"{','.join(args.methods)} has none")
    p = _params(cfg)
    lmax = int(cfg["lmax"])
    series = {}
    for m in args.methods:
        if m == "asymptotic" and lmax > 2:
            print("note: closed asymptotic forms exist only for l in {1, 2}; "
                  f"harmonics above 2 of the requested lmax={lmax} are omitted")
        series[m] = MelnikovSeries.compute(
            p, m, lmax=lmax, jmax=int(cfg["jmax"]), mp_dps=_mp_dps(cfg))
    for m, s in series.items():
        _write_json(out / f"melnikov_{m}.json", s.to_json_dict(), cfg,
                    precision=s.precision)
    untrusted = any(s.untrusted for s in series.values())
    rows = []
    ls = sorted({l for s in series.values() for l in s.coefficients if l >= 1})
    for l in ls:
        vals = [series[m].coefficients.get(l) for m in args.methods]
        # the ratio of the first two methods listed, where both have l
        a, b = (vals + [None])[:2]
        ratio = "" if None in (a, b) or b == 0 else a / b
        rows.append((l, *("" if v is None else v for v in vals), ratio))
    hdr = "l," + ",".join(args.methods) + ",ratio_first_two"
    _write_csv(out / "melnikov_compare.csv", hdr, rows, cfg)
    print(f"wrote melnikov series for methods {args.methods}")
    return EXIT_UNTRUSTED if untrusted else EXIT_OK


def cmd_manifolds(args, cfg: dict, out: Path) -> int:
    p = _params(cfg)
    for b in args.branch:
        curve = compute_invariant_curve(b, float(cfg["phi0"]), p,
                                        tol=float(cfg["tol"]),
                                        n_samples=int(cfg["n_samples"]))
        rows = [(v, homoclinic_r(v), Y, b, curve.phi0, p.mu, p.g0, curve.tol)
                for v, Y in zip(curve.v, curve.Y)]
        _write_csv(out / f"curve_{b}.csv", "v,r,Y,branch,phi0,mu,g0,tol",
                   rows, cfg)
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
    return SplittingConfig(tol=float(cfg["tol"]),
                           n_samples=int(cfg["n_samples"]))


def cmd_splitting(args, cfg: dict, out: Path) -> int:
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


def cmd_tangency(args, cfg: dict, out: Path) -> int:
    if not 1 <= args.steps <= MAX_GRID:
        raise ValueError(f"--steps must lie in [1, {MAX_GRID}], "
                         f"got {args.steps}")
    pts = continuation_tangency_curve((args.g0_min, args.g0_max), args.steps,
                                      _split_cfg(cfg), float(cfg["phi0"]))
    rows = []
    for pt in pts:
        ratio = (0.5 - pt.mu_star) / (0.5 - pt.mu_predicted)
        rows.append((pt.g0, pt.mu_star, pt.mu_predicted, ratio))
    _write_csv(out / "tangency.csv", "g0,mu_star,mu_predicted,ratio", rows, cfg)
    untrusted = [f"{pt.g0:.6g}" for pt in pts if pt.untrusted]
    note = f", untrusted at g0 = {', '.join(untrusted)}" if untrusted else ""
    print(f"wrote {out / 'tangency.csv'} ({len(rows)} rows){note}")
    return EXIT_UNTRUSTED if untrusted else EXIT_OK


def cmd_oscillate(args, cfg: dict, out: Path) -> int:
    p = _params(cfg)
    log = oscillation_demo(p, (args.seed_r, args.seed_y), args.n_iter,
                           float(cfg["phi0"]), tol=float(cfg["tol"]))
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


def cmd_sweep(args, cfg: dict, out: Path) -> int:
    mus = [float(x) for x in args.grid_mu.split(",")]
    g0s = [float(x) for x in args.grid_g0.split(",")]
    # a repeated value would compute the same report twice and write its row
    # twice
    for flag, vals in (("--grid-mu", mus), ("--grid-g0", g0s)):
        if len(set(vals)) < len(vals):
            raise ValueError(f"{flag} repeats a value: {vals}")
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

class _Parser(argparse.ArgumentParser):
    """argparse's parser, taking every negative float for a value.

    A token that looks like a negative number is an option's value, not an
    option; argparse decides that with the pattern each parser keeps in its
    private _negative_number_matcher, here widened to _NEGATIVE_NUMBER
    (test_negative_floats_in_exponent_form fails if argparse stops reading
    it).  Subparsers are built of this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _name_list(*names: str):
    """argparse type: a comma list of distinct names, so an unknown or
    repeated name exits 2 before any work."""
    def parse(text: str) -> list[str]:
        items = text.split(",")
        if not set(items) <= set(names) or len(set(items)) < len(items):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a list of distinct names out of {names}")
        return items
    return parse


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="toolkit",
        description="Splitting of the parabolic manifolds of infinity in the "
                    "restricted planar circular three-body problem")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output directory")
        for key in _READS[name]:
            if key in _FLAGS:
                sp.add_argument(f"--{key}", **_FLAGS[key])
        return sp

    sp = command("homoclinic", help="tabulate the separatrix")
    sp.add_argument("--v-min", type=float, default=-3.0)
    sp.add_argument("--v-max", type=float, default=3.0)
    sp.add_argument("--n", type=int, default=601)
    sp.set_defaults(func=cmd_homoclinic)

    sp = command("melnikov", help="Melnikov coefficients by one or more "
                                  "methods")
    sp.add_argument("--methods", default="contour",
                    type=_name_list("quadrature", "contour", "asymptotic"),
                    help="comma list of quadrature,contour,asymptotic")
    sp.set_defaults(func=cmd_melnikov)

    sp = command("manifolds", help="invariant curves on the section")
    sp.add_argument("--branch", default="unstable,stable",
                    type=_name_list("unstable", "stable"))
    sp.set_defaults(func=cmd_manifolds)

    sp = command("splitting", help="distance profile, roots, lobes")
    sp.set_defaults(func=cmd_splitting)

    sp = command("tangency", help="continuation of the tangency curve")
    sp.add_argument("--g0-min", type=float, default=2.7)
    sp.add_argument("--g0-max", type=float, default=3.2)
    sp.add_argument("--steps", type=int, default=6)
    sp.set_defaults(func=cmd_tangency)

    sp = command("oscillate", help="finite-horizon oscillation demo")
    sp.add_argument("--seed-r", type=float, required=True)
    sp.add_argument("--seed-y", type=float, required=True)
    sp.add_argument("--n-iter", type=int, default=200)
    sp.set_defaults(func=cmd_oscillate)

    sp = command("sweep", help="splitting reports over a parameter grid")
    sp.add_argument("--grid-mu", default="0.1,0.3,0.5")
    sp.add_argument("--grid-g0", default="2.0,2.4")
    sp.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.func(args, cfg, Path(cfg["out"]))
    except (ValueError, OSError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PrecisionError, ArithmeticError, RuntimeError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
