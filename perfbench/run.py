"""Benchmark of the rpc3bp `toolkit` command, run in-process.

    python3 perfbench/run.py --workload {splitting,melnikov,oscillate}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ./src.  Each
run times whole rounds of its workload's `toolkit` calls (see workloads.py),
starting another round only while it should end within S seconds; scales
the times to nominal machine speed (speed.py); checks every output against
computations made apart from rpc3bp (checks.py); and prints one JSON object
as its last line: the end-to-end metrics with --trace 0, the per-layer
metrics of the traced rounds with --trace 1.  Run records go to
.perfbench_runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import EXTENDED_G0, MU, WORKLOADS

# checks, speed and tracing import numpy: they are imported inside the
# functions that use them, so the set-up probes time a fresh import

# one process, one thread of numerical work; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

SETUP_PROBES = 5        # fresh interpreters timed for setup_s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s": "s",
    "results_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "integrate.flow_calls": "count",
    "integrate.flow_s": "s",
    "integrate.rhs_evals": "count",
    "integrate.steps": "count",
    "integrate.far_steps": "count",
    "integrate.us_per_rhs_eval": "us",
    "integrate.refine_calls": "count",
    "integrate.refine_s": "s",
    "manifolds.curves": "count",
    "manifolds.curve_s": "s",
    "manifolds.orbits_per_curve": "count",
    "manifolds.steps_per_orbit": "count",
    "manifolds.samples_per_orbit": "count",
    "manifolds.self_s": "s",
    "splitting.profile_s": "s",
    "splitting.root_calls": "count",
    "splitting.roots_s": "s",
    "splitting.self_s": "s",
    "melnikov.contour_I_calls_double": "count",
    "melnikov.contour_I_s_double": "s",
    "melnikov.contour_I_calls_extended": "count",
    "melnikov.contour_I_s_extended": "s",
    "melnikov.quadrature_s": "s",
    "melnikov.predicted_distance_calls": "count",
    "melnikov.predicted_s": "s",
    "melnikov.self_s": "s",
    "orbits.demo_s": "s",
    "orbits.returns": "count",
    "orbits.steps_per_return": "count",
    "orbits.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
}


def _import_toolkit():
    """rpc3bp.cli from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import importlib
    cli = importlib.import_module("rpc3bp.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"rpc3bp imported from {cli.__file__}, not {SRC}")
    return cli


def _call(cli_module, argv: list[str]) -> int:
    # the CLI's progress lines would mix with the result line
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_module.main(argv)


def setup_probe() -> None:
    """Time the import of rpc3bp plus one warm-up call (run in a fresh
    interpreter); print the seconds, scaled to nominal machine speed by
    reference samples taken right after."""
    t0 = perf_counter()
    cli = _import_toolkit()
    out = RUNS / f"probe-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        rc = _call(cli, ["homoclinic", "--out", str(out), "--n", "11"])
        elapsed = perf_counter() - t0
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if rc != 0:
        raise SystemExit(f"warm-up call exited with {rc}")
    import speed
    print(repr(elapsed * speed.scale([speed.reference_kernel() for _ in range(100)])))


def measure_setup() -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe"], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs and checks the rounds of one workload."""

    def __init__(self, cli_module, ops, run_dir: Path, sampler):
        self.cli = cli_module
        self.sampler = sampler
        self.ops = ops
        self.dirs = [run_dir / f"op{k:03d}" for k in range(len(ops))]
        self.first_bytes: dict[int, dict[str, bytes]] = {}
        self.references: dict[int, tuple] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        # per op, per round: (start, end, seconds less sampling time)
        self.times: list[list[tuple]] = [[] for _ in ops]
        self.pass_times: list[float] = []
        self.results = 0            # items the first round's outputs hold
        for k, op in enumerate(ops):
            self.dirs[k].mkdir(parents=True, exist_ok=True)
            if op.config:
                (run_dir / f"op{k:03d}.json").write_text(json.dumps(op.config))

    def argv(self, k: int) -> list[str]:
        argv = self.ops[k].argv + ["--out", str(self.dirs[k])]
        if self.ops[k].config:
            argv += ["--config", str(self.dirs[k].parent / f"op{k:03d}.json")]
        return argv

    def run_pass(self) -> None:
        total = 0.0
        series = {}
        for k, op in enumerate(self.ops):
            for f in self.dirs[k].iterdir():
                f.unlink()
            argv = self.argv(k)
            self.attempted += 1
            busy = self.sampler.busy
            t0 = perf_counter()
            try:
                rc = _call(self.cli, argv)
            except Exception:
                rc = None
                traceback.print_exc()
            t1 = perf_counter()
            dt = t1 - t0 - (self.sampler.busy - busy)
            total += dt
            if rc != 0:
                self.failed += 1
                print(f"perfbench: {' '.join(op.argv)} exited with {rc}",
                      file=sys.stderr)
                continue
            self.times[k].append((t0, t1, dt))
            self._check(k, op, series)
        self._cross_check(series)
        self.pass_times.append(total)

    def _check(self, k: int, op, series: dict) -> None:
        import checks
        out = self.dirs[k]
        label = " ".join(op.argv)
        try:
            if op.kind == "report":
                rep = json.loads((out / "splitting.json").read_text())
                bad = checks.check_splitting(rep, MU, op.g0)
                items = len(rep["roots"])
            elif op.kind == "orbit":
                rows = checks.read_returns(out / "returns.csv")
                summary = json.loads((out / "oscillation.json").read_text())
                if k not in self.references:
                    sysm = checks.RotatingSystem(MU, op.g0)
                    self.references[k] = sysm.first_return(*op.seed)
                bad = checks.check_oscillation(
                    rows, summary, MU, op.g0, op.seed,
                    reference=self.references[k])
                items = len(rows)
            else:
                bad, items = [], 0
                methods = ["quadrature", "contour"] if op.kind == "quadrature" else ["contour"]
                got = {}
                for m in methods:
                    got[m] = checks.read_series(out / f"melnikov_{m}.json")
                    bad += checks.check_series_signs(got[m], f"{m} at g0={op.g0}")
                    items += len(got[m])
                if op.kind == "quadrature":
                    bad += checks.check_series_agree(
                        got["quadrature"], got["contour"],
                        checks.QUAD_CONTOUR_REL_TOL,
                        f"quadrature vs contour at g0={op.g0}")
                prov = json.loads((out / "melnikov_contour.json").read_text())["provenance"]
                want = "extended" if op.kind == "extended" else "double"
                if prov["precision"] != want:
                    bad.append(f"ran in {prov['precision']} precision")
                series[(op.kind, op.g0)] = got["contour"]
        except (OSError, KeyError, ValueError) as err:
            bad, items = [f"unreadable output: {err!r}"], 0
        if len(self.pass_times) == 0:
            self.results += items
        self._same_as_first_round(k, out, bad)
        self.problems += [f"{label}: {b}" for b in bad]

    def call_times(self) -> list[float]:
        """Each successful call's nominal-speed seconds: the median over the
        run's rounds and over the calls of a round with the same arguments."""
        keys = [(tuple(op.argv), json.dumps(op.config, sort_keys=True))
                for op in self.ops]
        runs: dict[tuple, list[float]] = {}
        for key, ts in zip(keys, self.times):
            runs.setdefault(key, []).extend(
                dt * self.sampler.factor(t0, t1) for t0, t1, dt in ts)
        return [statistics.median(runs[key])
                for key, ts in zip(keys, self.times) if ts]

    def _same_as_first_round(self, k: int, out: Path, bad: list[str]) -> None:
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        if k not in self.first_bytes:
            self.first_bytes[k] = files
        elif files != self.first_bytes[k]:
            bad.append("output differs from the first round's")

    def _cross_check(self, series: dict) -> None:
        import checks
        ext = series.get(("extended", EXTENDED_G0))
        dbl = series.get(("contour", EXTENDED_G0))
        if ext is not None and dbl is not None:
            self.problems += checks.check_series_agree(
                ext, dbl, checks.EXTENDED_DOUBLE_REL_TOL,
                f"extended vs binary64 contour at g0={EXTENDED_G0}")


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "rpc3bp" / "cli.py").is_file():
        print(f"perfbench: no rpc3bp sources in {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if argv == ["--setup-probe"]:
        setup_probe()
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_samples = [] if args.trace else measure_setup()
    cli = _import_toolkit()
    warm = RUNS / f"warmup-{os.getpid()}"
    warm.mkdir(parents=True, exist_ok=True)
    _call(cli, ["homoclinic", "--out", str(warm), "--n", "11"])

    ops = WORKLOADS[args.workload](random.Random(args.seed))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = RUNS / f"{tag}-{os.getpid()}"
    from speed import SpeedSampler
    sampler = SpeedSampler()
    runner = Runner(cli, ops, run_dir, sampler)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    start = perf_counter()
    try:
        with sampler:
            # whole rounds only: start another while it should end in time
            while True:
                runner.run_pass()
                elapsed = perf_counter() - start
                per_round = elapsed / len(runner.pass_times)
                if elapsed + per_round > args.seconds:
                    break
    finally:
        if tracer is not None:
            tracer.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(warm, ignore_errors=True)

    n_pass = len(runner.pass_times)
    calls = runner.call_times()
    wall = sum(calls)
    if tracer is None:
        metrics = _metric_block({
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall,
            "op_s": wall / len(calls) if calls else 0.0,
            "results_per_s": runner.results / wall if wall else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, END_TO_END_UNITS)
    else:
        from tracing import layer_metrics
        values = layer_metrics(tracer.spans, n_pass)
        values["trace.wall_s"] = wall
        metrics = _metric_block(values, PER_LAYER_UNITS)

    result = {"correct": not runner.problems, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "passes": n_pass,
              "setup_samples": setup_samples, "pass_times": runner.pass_times,
              "reference_median_s": statistics.median(sampler.durations),
              "ops": [" ".join(op.argv) for op in ops],
              "op_times": [[(t0, t1, dt, sampler.factor(t0, t1))
                            for t0, t1, dt in ts] for ts in runner.times],
              "problems": runner.problems,
              "result": result}
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (RUNS / f"{tag}-spans.json").write_text(json.dumps(tracer.to_json()))
    for p in runner.problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
