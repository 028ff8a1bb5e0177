import json
import math

from rpc3bp.cli import (
    EXIT_OK,
    EXIT_UNTRUSTED,
    EXIT_VALIDATION,
    main,
)


def run(args):
    return main([str(a) for a in args])


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
            data = json.loads((tmp_path / f"melnikov_{m}.json").read_text())
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

    def test_asymptotic_harmonic_cap_notice(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lmax": 4}))
        code = run(["melnikov", "--out", tmp_path, "--config", cfg,
                    "--mu", 0.25, "--g0", 3.0, "--methods", "asymptotic"])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "melnikov_asymptotic.json").read_text())
        assert sorted(c["l"] for c in data["coefficients"]) == [1, 2]
        assert "only for l in {1, 2}" in capsys.readouterr().out

    def test_provenance_header(self, tmp_path):
        run(["melnikov", "--out", tmp_path, "--mu", 0.0, "--g0", 1.5,
             "--methods", "contour"])
        data = json.loads((tmp_path / "melnikov_contour.json").read_text())
        prov = data["provenance"]
        assert {"toolkit_version", "config_hash", "precision", "tol",
                "quad_tol"} <= set(prov)

    def test_untrusted_contour_exit_code(self, tmp_path):
        # at g0 = 1.05 the perihelion lies inside the larger primary's circle
        # and the binomial series of the contour route diverges: the L1
        # estimate exceeds the value.  At g0 = 1.2 the series converges with
        # ratio 0.945, slowly enough that jmax = 12 leaves L1 about 0.009 off
        # the converged -0.1284; the estimate must cover that
        for g0 in (1.05, 1.2):
            code = run(["melnikov", "--out", tmp_path, "--mu", 0.3, "--g0", g0])
            assert code == EXIT_UNTRUSTED
            data = json.loads((tmp_path / "melnikov_contour.json").read_text())
            c1 = [c for c in data["coefficients"] if c["l"] == 1][0]
            assert c1["error_estimate"] > 0.1 * abs(c1["value"])

    def test_extended_precision_runs(self, tmp_path):
        code = run(["melnikov", "--out", tmp_path, "--mu", 0.25, "--g0", 4.5,
                    "--precision", "extended", "--methods", "contour,asymptotic"])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "melnikov_contour.json").read_text())
        c1 = [c for c in data["coefficients"] if c["l"] == 1][0]
        assert c1["value"] != 0.0


class TestValidation:
    def test_bad_mu_exit_code(self, tmp_path):
        assert run(["melnikov", "--out", tmp_path, "--mu", 0.7, "--g0", 2.0]) \
            == EXIT_VALIDATION

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for bad in ({"nonsense": 1}, {"root_tol": 1e-12}):
            cfg.write_text(json.dumps(bad))
            assert run(["melnikov", "--out", tmp_path, "--config", cfg]) \
                == EXIT_VALIDATION

    def test_quadrature_beyond_binary64_is_numerical_failure(self, tmp_path):
        code = run(["melnikov", "--out", tmp_path, "--mu", 0.3, "--g0", 3.0,
                    "--methods", "quadrature"])
        assert code == 3


class TestSplitting:
    def test_mu0_empty_roots_exit0(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_samples": 25}))
        code = run(["splitting", "--out", tmp_path, "--config", cfg,
                    "--mu", 0.0, "--g0", 2.4])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "splitting.json").read_text())
        assert data["roots"] == []
        assert data["lobe_areas"] == []
        lines = [l for l in (tmp_path / "roots.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines == ["v,phase,D_prime,kind"]


class TestOscillateAndSweep:
    def test_oscillate_outputs(self, tmp_path):
        code = run(["oscillate", "--out", tmp_path, "--mu", 0.0, "--g0", 2.2,
                    "--seed-r", 1.0, "--seed-y", 0.9, "--n-iter", 10])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "oscillation.json").read_text())
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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_samples": 25}))
        code = run(["sweep", "--out", tmp_path, "--config", cfg,
                    "--grid-mu", "0.0", "--grid-g0", "2.4"])
        assert code == EXIT_OK
        lines = [l for l in (tmp_path / "sweep.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "mu,g0,max_distance,predicted_amplitude,ratio,n_roots,status"
        assert len(lines) == 2
        assert lines[1].endswith("ok")
