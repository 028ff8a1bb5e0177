import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from rpc3bp import cli, manifolds, orbits, splitting
from rpc3bp.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNTRUSTED,
    EXIT_VALIDATION,
    main,
)
from rpc3bp.manifolds import _manifold_graph
from rpc3bp.splitting import TangencyPoint


def run(args):
    return main([str(a) for a in args])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def load_json(path):
    """Parse an output file as strict RFC 8259 JSON (no NaN or Infinity)."""
    return json.loads(path.read_text(encoding="utf-8"),
                      parse_constant=_reject_constant)


class TestHomoclinic:
    def test_grid_and_turning_point(self, tmp_path):
        code = run(["homoclinic", "--out", tmp_path, "--v-min", -1, "--v-max", 1,
                    "--n", 41])
        assert code == EXIT_OK
        lines = [l for l in (tmp_path / "homoclinic.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "v,tau,r,y,alpha"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 41
        zero = [r for r in rows if float(r[0]) == 0.0]
        assert len(zero) == 1
        assert (float(zero[0][2]), float(zero[0][3]), float(zero[0][4])) == (0.5, 0.0, 0.0)
        assert (tmp_path / "homoclinic_ry.csv").exists()

    def test_zero_inserted_and_grid_bounds(self, tmp_path):
        # a grid that straddles v = 0 without sampling it gains the
        # turning point as one extra row
        code = run(["homoclinic", "--out", tmp_path, "--v-min", -3,
                    "--v-max", 3, "--n", 4])
        assert code == EXIT_OK
        lines = [l for l in (tmp_path / "homoclinic.csv").read_text().splitlines()
                 if not l.startswith("#")]
        vs = [float(l.split(",")[0]) for l in lines[1:]]
        assert len(vs) == 5 and vs.count(0.0) == 1 and vs == sorted(vs)
        assert run(["homoclinic", "--out", tmp_path, "--n", 1]) == EXIT_VALIDATION

    def test_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(); b.mkdir()
        run(["homoclinic", "--out", a, "--n", 11])
        run(["homoclinic", "--out", b, "--n", 11])
        assert (a / "homoclinic.csv").read_bytes() == (b / "homoclinic.csv").read_bytes()


class TestMelnikov:
    def test_mu0_all_zero(self, tmp_path):
        code = run(["melnikov", "--out", tmp_path, "--mu", 0.0, "--g0", 1.5,
                    "--methods", "quadrature,contour"])
        assert code == EXIT_OK
        for m in ("quadrature", "contour"):
            data = load_json(tmp_path / f"melnikov_{m}.json")
            assert all(c["value"] == 0.0 for c in data["coefficients"])

    def test_cross_method_agreement_column(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jmax": 18, "lmax": 2}))
        code = run(["melnikov", "--out", tmp_path, "--config", cfg,
                    "--mu", 0.3, "--g0", 1.5, "--methods", "quadrature,contour"])
        assert code == EXIT_OK
        lines = [l for l in (tmp_path / "melnikov_compare.csv").read_text().splitlines()
                 if not l.startswith("#")]
        for row in lines[1:]:
            ratio = float(row.split(",")[-1])
            assert abs(ratio - 1.0) < 1e-6

    def test_ratio_of_the_first_two_methods_only(self, tmp_path):
        # the ratio divided the first two values a row had: with asymptotic
        # first, rows l = 3 and 4 held contour over quadrature
        code = run(["melnikov", "--out", tmp_path, "--mu", 0.3, "--g0", 1.5,
                    "--methods", "asymptotic,contour,quadrature"])
        assert code == EXIT_OK
        lines = (tmp_path / "melnikov_compare.csv").read_text().splitlines()
        rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
        assert [r["l"] for r in rows] == ["1", "2", "3", "4"]
        for r in rows:
            if r["l"] in ("1", "2"):
                assert float(r["ratio_first_two"]) == (float(r["asymptotic"])
                                                       / float(r["contour"]))
            else:
                assert r["asymptotic"] == r["ratio_first_two"] == ""
                assert r["contour"] and r["quadrature"]

    def test_asymptotic_harmonic_cap_notice(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lmax": 4}))
        code = run(["melnikov", "--out", tmp_path, "--config", cfg,
                    "--mu", 0.25, "--g0", 3.0, "--methods", "asymptotic"])
        assert code == EXIT_OK
        data = load_json(tmp_path / "melnikov_asymptotic.json")
        assert sorted(c["l"] for c in data["coefficients"]) == [1, 2]
        assert "only for l in {1, 2}" in capsys.readouterr().out

    def test_provenance_header(self, tmp_path):
        run(["melnikov", "--out", tmp_path, "--mu", 0.0, "--g0", 1.5,
             "--methods", "contour"])
        data = load_json(tmp_path / "melnikov_contour.json")
        prov = data["provenance"]
        # melnikov reads no tol: its quadrature tolerance is a constant
        assert set(prov) == {"toolkit_version", "config_hash", "precision"}

    def test_untrusted_contour_exit_code(self, tmp_path):
        # at g0 = 1.05 the perihelion lies inside the larger primary's circle
        # and the binomial series of the contour route diverges: the L1
        # estimate exceeds the value.  At g0 = 1.2 the series converges with
        # ratio 0.945, slowly enough that jmax = 12 leaves L1 about 0.009 off
        # the converged -0.1284; the estimate must cover that
        for g0 in (1.05, 1.2):
            code = run(["melnikov", "--out", tmp_path, "--mu", 0.3, "--g0", g0])
            assert code == EXIT_UNTRUSTED
            data = load_json(tmp_path / "melnikov_contour.json")
            c1 = [c for c in data["coefficients"] if c["l"] == 1][0]
            if g0 == 1.05:
                # the infinite estimate of a divergent series is written null
                assert c1["error_estimate"] is None
            else:
                assert c1["error_estimate"] > 0.1 * abs(c1["value"])

    def test_untrusted_quadrature_exit_code(self, tmp_path):
        # at g0 = 1.05 the 12-node panels at perihelion are off by about 0.1
        # in L1; their 24-node check must flag it
        code = run(["melnikov", "--out", tmp_path, "--mu", 0.3, "--g0", 1.05,
                    "--methods", "quadrature"])
        assert code == EXIT_UNTRUSTED
        data = load_json(tmp_path / "melnikov_quadrature.json")
        c1 = [c for c in data["coefficients"] if c["l"] == 1][0]
        assert c1["error_estimate"] > 0.1 * abs(c1["value"])

    def test_json_is_strict(self, tmp_path):
        # non-finite numbers are written null: the asymptotic forms carry no
        # estimate, and the contour estimate at g0 = 1.05 is infinite
        run(["melnikov", "--out", tmp_path, "--mu", 0.3, "--g0", 1.05,
             "--methods", "contour,asymptotic"])
        contour = load_json(tmp_path / "melnikov_contour.json")
        assert any(c["error_estimate"] is None for c in contour["coefficients"])
        asym = load_json(tmp_path / "melnikov_asymptotic.json")
        assert all(c["error_estimate"] is None for c in asym["coefficients"])
        assert all(isinstance(c["value"], float) for c in asym["coefficients"])

    def test_extended_precision_runs(self, tmp_path):
        code = run(["melnikov", "--out", tmp_path, "--mu", 0.25, "--g0", 4.5,
                    "--precision", "extended", "--methods", "contour,asymptotic"])
        assert code == EXIT_OK
        data = load_json(tmp_path / "melnikov_contour.json")
        c1 = [c for c in data["coefficients"] if c["l"] == 1][0]
        assert c1["value"] != 0.0

    @pytest.mark.parametrize("other", ["asymptotic", "quadrature"])
    def test_binary64_series_of_an_extended_run_say_double(self, tmp_path,
                                                           other):
        # mp_dps reaches the contour route alone: the other series were
        # written under precision=extended, though computed in binary64.
        # Both files keep the run's config_hash, and the comparison table,
        # holding the contour column, keeps the run's header
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lmax": 1, "jmax": 2}))
        out = tmp_path / "out"
        out.mkdir()
        assert run(["melnikov", "--mu", 0.3, "--g0", 2.0, "--methods",
                    f"{other},contour", "--precision", "extended",
                    "--config", cfg, "--out", out]) == EXIT_OK
        binary64 = load_json(out / f"melnikov_{other}.json")["provenance"]
        extended = load_json(out / "melnikov_contour.json")["provenance"]
        assert binary64["precision"] == "double"
        assert extended["precision"] == "extended"
        assert binary64["config_hash"] == extended["config_hash"]
        header = (out / "melnikov_compare.csv").read_text().splitlines()
        assert "# precision=extended" in header
        assert f"# config_hash={extended['config_hash']}" in header


# the settings flags each command takes, and the value each test passes
KEPT_FLAGS = {
    "homoclinic": (),
    "melnikov": ("--mu", "--g0", "--precision"),
    "manifolds": ("--mu", "--g0", "--tol"),
    "splitting": ("--mu", "--g0", "--tol"),
    "oscillate": ("--mu", "--g0", "--tol"),
    "tangency": ("--tol",),
    "sweep": ("--tol",),
}
# --r-out and --r-in were oscillate's excursion radii, now constants, and
# --phi0 the angle of the section, now phi = 0
FLAG_VALUES = {"--mu": "0.3", "--g0": "2.4", "--phi0": "0.5", "--tol": "1e-11",
               "--precision": "extended", "--r-out": "5.0", "--r-in": "2.0"}
REQUIRED = {"oscillate": ["--seed-r", "1.3", "--seed-y", "0.68"]}
REMOVED_FLAGS = [(command, flag) for command, kept in KEPT_FLAGS.items()
                 for flag in FLAG_VALUES if flag not in kept]

# the config keys each command reads
_SPLIT_KEYS = ("tol", "n_samples", "out")
READ_KEYS = {
    "homoclinic": ("out",),
    "melnikov": ("mu", "g0", "precision", "jmax", "lmax", "mp_dps", "out"),
    "manifolds": ("mu", "g0", *_SPLIT_KEYS),
    "splitting": ("mu", "g0", *_SPLIT_KEYS),
    "oscillate": ("mu", "g0", "tol", "out"),
    "tangency": _SPLIT_KEYS,
    "sweep": _SPLIT_KEYS,
}
# keys that were settings once, with their last defaults: no command reads
# them now
REMOVED_KEYS = {"quad_tol": 1e-9, "v_window": [0.4, 1.6], "phi0": 0.0}
KEY_VALUES = {**cli.DEFAULTS, **REMOVED_KEYS}
UNREAD_KEYS = [(command, key) for command, read in READ_KEYS.items()
               for key in KEY_VALUES if key not in read]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_command_table() -> dict:
    """{command: (settings flags, config keys)} as README's command table
    lists them, from the backquoted words of each row's cells."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| command | settings flags | config keys |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        commands, flags, keys = ([w for span in re.findall(r"`([^`]*)`", cell)
                                  for w in span.split()]
                                 for cell in line.strip("|").split("|"))
        for command in commands:
            assert command not in table, f"{command} has two rows"
            table[command] = ({w for w in flags if w.startswith("--")},
                              set(keys))
    return table


def test_readme_command_table_matches_the_cli():
    # the table is written by hand, and every change of a command's settings
    # has to edit it: its flags are the command's settings flags, its config
    # keys those the command reads besides out
    table = _readme_command_table()
    assert set(table) == set(cli._READS)
    for command, reads in cli._READS.items():
        flags = {f"--{key}" for key in cli._FLAGS if key in reads}
        assert table[command] == (flags, set(reads) - {"out"}), command


def never(*args, **kwargs):
    raise AssertionError("computed before the arguments were checked")


@pytest.fixture
def no_work(monkeypatch):
    """Every command's computation raises if it is reached: each function is
    patched in the module the command reads it from."""
    for module, name in ((cli, "homoclinic_state"),
                         (manifolds, "compute_invariant_curve"),
                         (splitting, "splitting_report"),
                         (splitting, "continuation_tangency_curve"),
                         (orbits, "oscillation_demo")):
        monkeypatch.setattr(module, name, never)
    monkeypatch.setattr(cli.MelnikovSeries, "compute", never)


class TestValidation:
    @pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
    def test_flag_the_command_does_not_read(self, command, flag, tmp_path,
                                            capsys):
        # every command took every settings flag and wrote the ignored value
        # into its provenance; tangency --g0 is ambiguous between --g0-min
        # and --g0-max, the rest are unrecognized
        with pytest.raises(SystemExit) as exc:
            run([command, *REQUIRED.get(command, []), flag, FLAG_VALUES[flag],
                 "--out", tmp_path])
        assert exc.value.code == EXIT_VALIDATION
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", KEPT_FLAGS)
    def test_flags_the_command_reads(self, command):
        argv = [command, *REQUIRED.get(command, [])]
        for flag in KEPT_FLAGS[command]:
            argv += [flag, FLAG_VALUES[flag]]
        args = cli._build_parser().parse_args(argv)
        for flag in KEPT_FLAGS[command]:
            want = FLAG_VALUES[flag]
            assert getattr(args, flag[2:]) == (want if flag == "--precision"
                                               else float(want))

    @pytest.mark.parametrize("command,key", UNREAD_KEYS)
    def test_config_key_the_command_does_not_read(self, command, key,
                                                  tmp_path, no_work, capsys):
        # every command took every config key, hashed it into config_hash
        # and wrote precision, tol and quad_tol into its provenance; the
        # value here is the key's default (or its last one, for a removed
        # key), so only the key is at fault
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({key: KEY_VALUES[key]}))
        out.mkdir()
        assert run([command, *REQUIRED.get(command, []), "--config", cfg,
                    "--out", out]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("validation error") == 1 and repr(key) in err
        assert list(out.iterdir()) == []

    def test_iteration_count_below_one(self, tmp_path, capsys):
        # --n-iter 0 or -3 wrote returns.csv and oscillation.json with no
        # returns and exited 0
        for n_iter in (0, -3):
            assert run(["oscillate", "--seed-r", 1.3, "--seed-y", 0.68,
                        "--n-iter", n_iter, "--out", tmp_path]) \
                == EXIT_VALIDATION
            assert "n_iter" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_mu_exit_code(self, tmp_path):
        assert run(["melnikov", "--out", tmp_path, "--mu", 0.7, "--g0", 2.0]) \
            == EXIT_VALIDATION

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for bad in ({"nonsense": 1}, {"root_tol": 1e-12}, {"r0": 8.0}):
            cfg.write_text(json.dumps(bad))
            assert run(["melnikov", "--out", tmp_path, "--config", cfg]) \
                == EXIT_VALIDATION

    def test_malformed_config_values(self, tmp_path, capsys):
        # each value must have its default's type, and the file must hold an
        # object; a precision outside the choices is not run in binary64
        cfg = tmp_path / "cfg.json"
        for command, bad in (("melnikov", 3),
                             ("melnikov", {"lmax": None}),
                             ("splitting", {"n_samples": 60.0}),
                             ("melnikov", {"precision": "quad", "lmax": 2}),
                             ("melnikov", {"lmax": True}),
                             ("splitting", {"tol": "1e-12"})):
            cfg.write_text(json.dumps(bad))
            assert run([command, "--out", tmp_path, "--config", cfg]) \
                == EXIT_VALIDATION
            assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "melnikov_contour.json").exists()
        # a path that cannot be read as a file
        assert run(["melnikov", "--out", tmp_path, "--config", tmp_path]) \
            == EXIT_VALIDATION

    def test_non_finite_inputs_and_nonpositive_seed_radius(self, tmp_path,
                                                           capsys):
        # tol must lie in [TOL_MIN, TOL_MAX], checked before any numerics;
        # a config file may give it as an int too large for a float
        big = tmp_path / "big_tol.json"
        big.write_text('{"tol": ' + "9" * 400 + "}")
        tol_cases = (["splitting", "--tol", "inf"],
                     ["splitting", "--tol", "1e300"],
                     ["oscillate", "--tol", "inf", "--seed-r", 1.3,
                      "--seed-y", 0.68],
                     ["manifolds", "--tol", "nan"],
                     ["splitting", "--config", big])
        # homoclinic wrote rows of nan or inf and exited 0: 9 v^2 overflows
        # in tau_of_v from |v| ~ 4.47e153; tangency's grid of an infinite
        # range warned before its NaN rung exited 2
        range_cases = (["homoclinic", "--n", 4, "--v-min", "nan"],
                       ["homoclinic", "--n", 4, "--v-max", "inf"],
                       ["homoclinic", "--n", 4, "--v-min", -1e200,
                        "--v-max", 1e200],
                       ["tangency", "--g0-min", 2.9, "--g0-max", "inf",
                        "--steps", 2])
        # a NaN seed y lifted to a NaN state, whose energy was computed
        # before flow refused it with a message about z0, not the seed
        seed_cases = tuple(["oscillate", "--seed-r", 1.3, "--seed-y", seed_y]
                           for seed_y in ("nan", "inf", "-inf"))
        for args in (["melnikov", "--g0", "inf"], ["splitting", "--g0", "inf"],
                     ["oscillate", "--seed-r", 0, "--seed-y", 0.5],
                     *tol_cases, *range_cases, *seed_cases):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run([*args, "--out", tmp_path]) == EXIT_VALIDATION
            assert not [w for w in caught
                        if issubclass(w.category, RuntimeWarning)]
            err = capsys.readouterr().err
            if args in tol_cases:
                assert "'tol'" in err
            if args in seed_cases:
                assert f"section point (1.3, {args[-1]}) must be finite" in err
        assert list(tmp_path.iterdir()) == [big]

    def test_seed_inside_collision_cutoff(self, tmp_path, capsys):
        # the cutoff at (0.3, 2.2) is 0.289; from r = 0.01 the orbit ran
        # between the primaries unguarded and the demo wrote n_returns 0
        # and escaped true with exit 0
        assert run(["oscillate", "--mu", 0.3, "--g0", 2.2, "--seed-r", 0.01,
                    "--seed-y", 0, "--n-iter", 12, "--out", tmp_path]) \
            == EXIT_VALIDATION
        assert "collision cutoff" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_too_few_digits_or_harmonics(self, tmp_path, capsys):
        # below 17 digits the extended route wrote L1 = -9.42e-7 with error
        # estimate 4.7e-9 at g0 = 2.8, where binary64 gives -5.32e-6; an lmax
        # below 1 wrote an empty series
        cfg = tmp_path / "cfg.json"
        for bad, key in (({"mp_dps": 0, "lmax": 1, "jmax": 2}, "mp_dps"),
                         ({"mp_dps": 16}, "mp_dps"),
                         ({"lmax": 0}, "lmax"), ({"lmax": -2}, "lmax")):
            cfg.write_text(json.dumps(bad))
            assert run(["melnikov", "--g0", 2.8, "--precision", "extended",
                        "--config", cfg, "--out", tmp_path]) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.count("validation error") == 1 and repr(key) in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_negative_floats_in_exponent_form(self, tmp_path, capsys):
        # argparse's own pattern took `--seed-y -1e-3` for two options
        outs = (tmp_path / "a", tmp_path / "b")
        for out, seed_y in zip(outs, (["--seed-y", "-1e-3"], ["--seed-y=-1e-3"])):
            out.mkdir()
            assert run(["oscillate", "--seed-r", 1.3, *seed_y, "--n-iter", 2,
                        "--out", out]) == EXIT_OK
        for name in ("returns.csv", "oscillation.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        # every float flag: the value reaches its own check
        for args, key in ((["--tol", "-inf"], "'tol'"),
                          (["--mu", "-1E+3"], "mu must be")):
            assert run(["oscillate", "--seed-r", 1.3, "--seed-y", 0.68, *args,
                        "--out", tmp_path]) == EXIT_VALIDATION
            assert key in capsys.readouterr().err

    def test_out_checked_before_any_work(self, tmp_path, no_work, capsys):
        # a missing or non-directory --out was found only at the first write,
        # after the orbit, the tangency solves or the grid were computed
        a_file = tmp_path / "file"
        a_file.write_text("")
        for out in (tmp_path / "missing", tmp_path / "missing" / "deeper",
                    a_file):
            for args in (["oscillate", "--seed-r", 1.3, "--seed-y", 0.68],
                         ["tangency", "--g0-min", 2.9, "--g0-max", 2.9,
                          "--steps", 1],
                         ["homoclinic", "--n", 11], ["splitting"]):
                assert run([*args, "--out", out]) == EXIT_VALIDATION
                err = capsys.readouterr().err
                assert "validation error: output directory" in err
                assert repr(str(out)) in err
        assert list(tmp_path.iterdir()) == [a_file]

    def test_sample_count_quadrature_tolerance_and_steps(self, tmp_path,
                                                        no_work, capsys):
        # n_samples below 1 ran a 16-phase fan and exited 0, quad_tol <= 0
        # exited 3 after the quadrature ran (quad_tol is no key now, and is
        # refused as one), and --steps 0 wrote a CSV with a header only;
        # above MAX_GRID, n_samples, jmax and --steps sized their seed,
        # pole-factor and rung arrays before any work, and so would a sweep
        # grid of more combinations; a tol the integrator refuses made sweep
        # write error:ValueError rows and exit 0; a jmax below 2 exited 2 on
        # the contour route's own message, naming no key, after the
        # quadrature series ran, and with asymptotic only it exited 0
        cfg = tmp_path / "cfg.json"
        big = cli.MAX_GRID + 1
        grid = [",".join(str(0.001 * i) for i in range(n)) for n in (101, 100)]
        for args, bad, key in ((["splitting"], {"n_samples": 0}, "'n_samples'"),
                               (["manifolds"], {"n_samples": -1}, "'n_samples'"),
                               (["melnikov", "--methods", "quadrature"],
                                {"quad_tol": 0.0}, "'quad_tol'"),
                               (["melnikov"], {"quad_tol": -1e-9}, "'quad_tol'"),
                               (["tangency", "--steps", 0], {}, "--steps"),
                               (["splitting"], {"n_samples": 10**9}, "'n_samples'"),
                               (["sweep"], {"n_samples": big}, "'n_samples'"),
                               (["melnikov"], {"jmax": 10**6}, "'jmax'"),
                               (["tangency", "--steps", 10**9], {}, "--steps"),
                               (["tangency", "--steps", big], {}, "--steps"),
                               (["sweep", "--grid-mu", grid[0], "--grid-g0",
                                 grid[1]], {}, "sweep grid exceeds"),
                               (["sweep", "--tol", "1e-3"], {}, "'tol'"),
                               (["sweep", "--tol", "nan"], {}, "'tol'"),
                               *((["melnikov", "--methods", methods],
                                  {"jmax": 1}, "'jmax'")
                                 for methods in ("quadrature,contour",
                                                 "contour", "quadrature",
                                                 "asymptotic"))):
            cfg.write_text(json.dumps(bad))
            assert run([*args, "--config", cfg, "--out", tmp_path]) \
                == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.count("validation error") == 1 and key in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("flag,values", [("--grid-mu", "0.3,0.3"),
                                             ("--grid-g0", "2.4,2.40")])
    def test_sweep_repeated_grid_value(self, flag, values, tmp_path, no_work,
                                       capsys):
        # a repeated value computed the same report twice and wrote two
        # identical rows
        assert run(["sweep", flag, values, "--out", tmp_path]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("validation error") == 1 and flag in err
        assert list(tmp_path.iterdir()) == []

    def test_tangency_repeated_rung(self, monkeypatch, tmp_path, capsys):
        # equal ends over --steps 3 solved the same rung three times (about
        # 3 s each at 2.9), each from another bracket, and wrote it thrice
        monkeypatch.setattr(splitting, "find_tangency", never)
        assert run(["tangency", "--g0-min", 2.9, "--g0-max", 2.9, "--steps", 3,
                    "--out", tmp_path]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("validation error") == 1 and "repeats a rung" in err
        assert list(tmp_path.iterdir()) == []

    def test_extended_precision_without_the_contour_method(self, tmp_path,
                                                           no_work, capsys):
        # only the contour route reads mp_dps: --g0 1.5 --methods quadrature
        # exited 0 with its binary64 series under precision=extended
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"precision": "extended"}))
        for args in (["--precision", "extended", "--methods", "quadrature"],
                     ["--precision", "extended", "--methods",
                      "asymptotic,quadrature"],
                     ["--config", cfg, "--methods", "asymptotic"]):
            assert run(["melnikov", "--g0", 1.5, *args, "--out", tmp_path]) \
                == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.count("validation error") == 1 and "--precision" in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("args", [
        ["melnikov", "--g0", 1.5, "--methods", "quadrature,bogus"],
        ["melnikov", "--methods", "contour,contour"],
        ["melnikov", "--methods", ""]],
        ids=["melnikov-unknown", "melnikov-repeated", "melnikov-empty"])
    def test_comma_list_checked_at_the_parser(self, args, tmp_path, no_work,
                                              capsys):
        # an unknown name was met only after the earlier names' series had
        # been computed; a repeated name was computed twice and written twice
        with pytest.raises(SystemExit) as exc:
            run([*args, "--out", tmp_path])
        assert exc.value.code == EXIT_VALIDATION
        assert args[-2] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_quadrature_beyond_binary64_is_numerical_failure(self, tmp_path):
        code = run(["melnikov", "--out", tmp_path, "--mu", 0.3, "--g0", 3.0,
                    "--methods", "quadrature"])
        assert code == 3

    @pytest.mark.parametrize("command", ["splitting", "manifolds"])
    def test_collision_during_a_run_is_numerical_failure(self, command,
                                                         tmp_path, capsys):
        # at (0.3, 1.5) a fan orbit reaches the collision cutoff while the
        # fan runs: no input is at fault, so the exit is 3, not 2
        assert run([command, "--mu", 0.3, "--g0", 1.5, "--out", tmp_path]) \
            == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical error" in err and "collision cutoff" in err
        assert list(tmp_path.iterdir()) == []

    def test_collision_in_a_sweep_is_an_error_row(self, tmp_path):
        assert run(["sweep", "--grid-mu", 0.3, "--grid-g0", 1.5,
                    "--out", tmp_path]) == EXIT_OK
        rows = [l for l in (tmp_path / "sweep.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert rows[1:] == ["0.3,1.5,,,,,error:CollisionError"]


# the settings each command writes into its provenance, and a quick run of it
PROVENANCE = {
    "homoclinic": ((), ["--n", 2]),
    "melnikov": (("precision",), ["--methods", "asymptotic"]),
    "manifolds": (("tol",), []),
    "splitting": (("tol",), []),
    "oscillate": (("tol",), [*REQUIRED["oscillate"], "--n-iter", 2]),
    "tangency": (("tol",), ["--steps", 1]),
    "sweep": (("tol",), ["--grid-mu", 0.7, "--grid-g0", 2.4]),
}


class TestProvenance:
    @pytest.mark.parametrize("command", PROVENANCE)
    def test_settings_the_command_reads(self, command, tmp_path, monkeypatch):
        # every header held precision, tol and quad_tol, read or not; the
        # tangency solve is stubbed, and sweep's one grid point is refused
        monkeypatch.setattr(splitting, "continuation_tangency_curve",
                            lambda *args, **kwargs: [])
        keys, args = PROVENANCE[command]
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({"n_samples": 25}
                                  if "n_samples" in READ_KEYS[command] else {}))
        out.mkdir()
        assert run([command, *args, "--config", cfg, "--out", out]) == EXIT_OK
        want = {"toolkit_version", "config_hash", *keys}
        files = sorted(out.iterdir())
        assert files
        for path in files:
            if path.suffix == ".json":
                assert set(load_json(path)["provenance"]) == want, path.name
            else:
                prov = [l[2:] for l in path.read_text().splitlines()
                        if l.startswith("# ")]
                assert {l.split("=")[0] for l in prov} == want, path.name


class TestSplitting:
    def test_mu0_empty_roots_exit0(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_samples": 25}))
        code = run(["splitting", "--out", tmp_path, "--config", cfg,
                    "--mu", 0.0, "--g0", 2.4])
        assert code == EXIT_OK
        data = load_json(tmp_path / "splitting.json")
        assert data["roots"] == []
        assert data["lobe_areas"] == []
        # no prediction at mu = 0: the ratio is undefined and written null
        assert data["distance_ratio"] is None
        lines = [l for l in (tmp_path / "roots.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines == ["v,phase,D_prime,kind"]

    def test_deterministic_reruns(self, tmp_path):
        # the second run rebuilds the fan and the manifold graph
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_samples": 25}))
        outs = (tmp_path / "a", tmp_path / "b")
        for out in outs:
            out.mkdir()
            _manifold_graph.cache_clear()
            assert run(["splitting", "--out", out, "--config", cfg]) == EXIT_OK
        for name in ("splitting.json", "roots.csv", "lobes.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestTangency:
    def test_table_and_ratio(self, tmp_path, monkeypatch, capsys):
        # the continuation is stubbed: this checks the command's table and
        # its exit code only; an untrusted rung is written and named
        pts = [TangencyPoint(g0=g0, mu_star=mu, residual_D=0.0,
                             residual_D_prime=0.0, residual_D_second=0.0,
                             mu_predicted=pred, untrusted=untrusted)
               for g0, mu, pred, untrusted in ((2.7, 0.25, 0.1, False),
                                               (3.1, 0.4, 0.3, True))]
        seen = {}

        def stub(g0_range, steps, tol, n_samples):
            seen.update(g0_range=g0_range, steps=steps, tol=tol,
                        n_samples=n_samples)
            return pts

        monkeypatch.setattr(splitting, "continuation_tangency_curve", stub)
        code = run(["tangency", "--out", tmp_path, "--g0-min", 2.7,
                    "--g0-max", 3.1, "--steps", 2])
        assert code == EXIT_UNTRUSTED
        assert capsys.readouterr().out.endswith(
            "(2 rows), untrusted at g0 = 3.1\n")
        assert seen == {"g0_range": (2.7, 3.1), "steps": 2, "tol": 1e-12,
                        "n_samples": 60}
        lines = (tmp_path / "tangency.csv").read_text().splitlines()
        prov = [l for l in lines if l.startswith("# ")]
        # the flow commands read tol, and no precision or quad_tol
        assert {l[2:].split("=")[0] for l in prov} == {
            "config_hash", "tol", "toolkit_version"}
        rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
        assert list(rows[0]) == ["g0", "mu_star", "mu_predicted", "ratio"]
        assert [float(r["g0"]) for r in rows] == [2.7, 3.1]
        assert [float(r["ratio"]) for r in rows] == [
            (0.5 - 0.25) / (0.5 - 0.1), (0.5 - 0.4) / (0.5 - 0.3)]


class TestManifolds:
    def test_curve_csv_cells_parse_as_floats(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_samples": 25}))
        code = run(["manifolds", "--out", tmp_path, "--config", cfg,
                    "--mu", 0.3, "--g0", 2.4])
        assert code == EXIT_OK
        for branch in ("unstable", "stable"):
            text = (tmp_path / f"curve_{branch}.csv").read_text()
            lines = text.splitlines()
            assert lines[0].startswith("# ")
            rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
            assert len(rows) >= 8
            for row in rows:
                v, r, Y = float(row["v"]), float(row["r"]), float(row["Y"])
                assert 0.0 < v and r >= 0.5 and Y > 0.0
                assert row["branch"] == branch
                assert (float(row["mu"]), float(row["g0"])) == (0.3, 2.4)


class TestOscillateAndSweep:
    def test_oscillate_outputs(self, tmp_path):
        code = run(["oscillate", "--out", tmp_path, "--mu", 0.0, "--g0", 2.2,
                    "--seed-r", 1.0, "--seed-y", 0.9, "--n-iter", 10])
        assert code == EXIT_OK
        data = load_json(tmp_path / "oscillation.json")
        assert data["n_returns"] == 10
        lines = [l for l in (tmp_path / "returns.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "s,r,y,G,max_r_since_last"
        assert len(lines) == 11

    def test_oscillate_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(); b.mkdir()
        args = ["--mu", 0.3, "--g0", 2.2, "--seed-r", 1.2,
                "--seed-y", math.sqrt(2 * 1.2 - 1) / 1.2 - 0.04, "--n-iter", 12]
        assert run(["oscillate", "--out", a, *args]) == EXIT_OK
        assert run(["oscillate", "--out", b, *args]) == EXIT_OK
        for name in ("returns.csv", "oscillation.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_sweep_merges_and_isolates(self, tmp_path):
        # mu = 0.7 is outside [0, 1/2]: its row records the error and the
        # other grid point still runs; rows come out sorted by (mu, g0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_samples": 25}))
        code = run(["sweep", "--out", tmp_path, "--config", cfg,
                    "--grid-mu", "0.7,0.0", "--grid-g0", "2.4"])
        assert code == EXIT_OK
        lines = [l for l in (tmp_path / "sweep.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "mu,g0,max_distance,predicted_amplitude,ratio,n_roots,status"
        rows = [l.split(",") for l in lines[1:]]
        assert [(float(r[0]), r[-1]) for r in rows] == [
            (0.0, "ok"), (0.7, "error:ValueError")]

    def test_sweep_propagates_a_programming_error(self, tmp_path,
                                                  monkeypatch):
        # sweep caught every Exception: a TypeError in the report, such as a
        # stale keyword, became an error:TypeError row and the run exited 0
        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword argument")

        monkeypatch.setattr(splitting, "splitting_report", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run(["sweep", "--grid-mu", 0.3, "--grid-g0", 2.4,
                 "--out", tmp_path])
        assert list(tmp_path.iterdir()) == []


# Runs in a fresh interpreter: imports the modules listed as JSON in argv[4]
# and the CLI, runs the commands given as a JSON list in argv[2] and prints
# every module of package argv[3] then loaded.
_FRESH_SCRIPT = """
import importlib, json, sys
from pathlib import Path
for name in json.loads(sys.argv[4]):
    importlib.import_module(name)
from rpc3bp import cli
out = Path(sys.argv[1])
for argv in json.loads(sys.argv[2]):
    assert cli.main([*argv, "--out", str(out)]) == 0, argv
pkg = sys.argv[3]
print(json.dumps(sorted(m for m in sys.modules
                        if m == pkg or m.startswith(pkg + "."))))
"""

# homoclinic (the benchmark's warm-up) and melnikov and oscillate in binary64
_BINARY64_COMMANDS = [
    ["homoclinic"], ["melnikov", "--g0", "2.8"],
    ["melnikov", "--methods", "quadrature,contour", "--g0", "1.5"],
    ["oscillate", "--n-iter", "2", "--seed-r", "1.3", "--seed-y", "0.68"]]

# the modules that only the commands integrating an orbit use
_ORBIT_MODULES = {"rpc3bp.integrate", "rpc3bp._dop853", "rpc3bp.manifolds",
                  "rpc3bp.orbits", "rpc3bp.splitting"}


def _small_extended(tmp_path):
    """An extended-precision melnikov call of one harmonic and two terms."""
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"lmax": 1, "jmax": 2}))
    return ["melnikov", "--g0", "2.8", "--precision", "extended",
            "--config", str(small)]


def _modules_loaded(tmp_path, commands, package,
                    imports=("rpc3bp.splitting",)):
    """The modules of package loaded once a fresh interpreter has imported
    `imports` and the CLI and run the commands.  The default imports
    splitting, so that the modules it loads are checked too, whichever the
    commands load."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", _FRESH_SCRIPT, str(tmp_path),
                           json.dumps(commands), package,
                           json.dumps(list(imports))], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestStartup:
    def test_commands_without_splines_load_no_scipy(self, tmp_path):
        assert _modules_loaded(tmp_path, [*_BINARY64_COMMANDS,
                                          _small_extended(tmp_path)],
                               "scipy") == []

    def test_binary64_commands_load_no_mpmath(self, tmp_path):
        # mpmath is imported by the extended contour route alone: importing
        # it would add to every command's start-up time
        assert _modules_loaded(tmp_path, _BINARY64_COMMANDS, "mpmath") == []

    def test_commands_without_orbits_load_no_orbit_module(self, tmp_path):
        # homoclinic and melnikov integrate no orbit: importing the CLI and
        # running them leaves the flow, the fan and the report unloaded
        commands = [cmd for cmd in _BINARY64_COMMANDS if cmd[0] != "oscillate"]
        loaded = _modules_loaded(
            tmp_path, [*commands, _small_extended(tmp_path)], "rpc3bp",
            imports=())
        assert sorted(_ORBIT_MODULES.intersection(loaded)) == []

    def test_oscillate_loads_no_splitting(self, tmp_path):
        # the demo lifts its seed with core.lift_to_shell and iterates
        # integrate.first_return, so neither the fan nor the report loads
        loaded = _modules_loaded(tmp_path, [_BINARY64_COMMANDS[-1]], "rpc3bp",
                                 imports=())
        assert "rpc3bp.orbits" in loaded
        assert "rpc3bp.splitting" not in loaded
        assert "rpc3bp.manifolds" not in loaded
