import json
import subprocess
import sys

import numpy as np
import pytest

from wishartcond import cli
from wishartcond.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SELFTEST,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    parse_grid,
)


class TestParseGrid:
    def test_inclusive_endpoints(self):
        got = parse_grid("2:4:5")
        assert got == pytest.approx([2.0, 2.5, 3.0, 3.5, 4.0])

    def test_rejects_malformed(self):
        for bad in ("1:2", "a:2:3", "2:1:5", "1:2:1", "1:2:3:4"):
            with pytest.raises(UsageError):
                parse_grid(bad)

    def test_rejects_non_finite_ends(self):
        for bad in ("3:inf:3", "0:inf:3", "-inf:0:3", "nan:1:3", "0:nan:3"):
            with pytest.raises(UsageError, match="finite"):
                parse_grid(bad)


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(command="density", metric="kappa-d", n=3, alpha=1,
                        grid="3.1:9:40", format="json")
        assert RunConfig(**json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            RunConfig(**{"command": "density", "wat": 1})


class TestUsageFailures:
    def test_unknown_flag(self):
        assert cli.main(["density", "--metric", "kappa-d", "--n", "2",
                         "--alpha", "0", "--grid", "3:5:3", "--wat", "1"]) == EXIT_USAGE

    def test_kappa_e_needs_three_columns(self):
        assert cli.main(["density", "--metric", "kappa-e", "--n", "2",
                         "--alpha", "0", "--grid", "3:5:3"]) == EXIT_USAGE

    def test_asymptotic_rejects_n(self):
        assert cli.main(["density", "--metric", "kappa-d", "--kind", "asymptotic",
                         "--n", "5", "--alpha", "0", "--grid", "0.1:2:5"]) == EXIT_USAGE

    def test_asymptotic_needs_supported_metric(self):
        assert cli.main(["density", "--metric", "lambda-min", "--kind", "asymptotic",
                        "--alpha", "0", "--grid", "0.1:2:5"]) == EXIT_USAGE

    def test_unknown_figure_id(self):
        assert cli.main(["figure", "--id", "9z"]) == EXIT_USAGE

    def test_no_extended_precision(self, capsys):
        # every density is summed in double, and the lambda-2 points that
        # cancel are summed again from positive weights: there is no flag
        for mode in ("extended", "double", "auto"):
            assert cli.main(["density", "--metric", "lambda-2", "--n", "5", "--alpha", "3",
                             "--grid", "0.1:1:3", "--precision", mode]) == EXIT_USAGE
            assert "unrecognized arguments: --precision" in capsys.readouterr().err

    def test_grid_bound_before_allocation(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linspace called")

        monkeypatch.setattr(cli.np, "linspace", refuse)
        assert cli.main(["density", "--metric", "kappa-d", "--n", "4", "--alpha", "1",
                         "--grid", "5:10:100000000000"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(cli.MAX_GRID_POINTS) in err and "Traceback" not in err
        with pytest.raises(UsageError, match=str(cli.MAX_GRID_POINTS)):
            parse_grid(f"5:10:{cli.MAX_GRID_POINTS + 1}")

    def test_memory_error_is_one_line(self, monkeypatch, capsys):
        def exhaust(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "pdf_kappa_d_grid", exhaust)
        assert cli.main(["density", "--metric", "kappa-d", "--n", "4", "--alpha", "1",
                         "--grid", "5:10:3"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 745. GiB for an array\n"

    def test_mgf_needs_exactly_one_argument_form(self):
        base = ["mgf", "--metric", "kappa-d", "--n", "3", "--alpha", "0"]
        assert cli.main(base) == EXIT_USAGE
        assert cli.main(base + ["--s", "0.1", "--grid", "0:1:5"]) == EXIT_USAGE

    def test_dims_message_names_the_flags(self, capsys):
        assert cli.main(["mc", "--kind", "asymptotic", "--metric", "kappa-d",
                         "--alpha", "1", "--samples", "50"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "both --n and --alpha" in err and "exact" not in err

    @pytest.mark.parametrize("argv, message", [
        (["mc", "--metric", "lambda-2", "--n", "2", "--alpha", "0"], "n >= 3"),
        (["mc", "--metric", "kappa-e", "--n", "3", "--alpha", "-1"], "alpha must be >= 0"),
        (["mc", "--kind", "asymptotic", "--metric", "lambda-min", "--n", "10", "--alpha", "0"],
         "kappa-d and kappa-e only"),
        (["mc", "--kind", "asymptotic", "--metric", "kappa-e", "--n", "10", "--alpha", "5"],
         "limit cap 4"),
        (["mc", "--metric", "kappa-d", "--n", "3", "--alpha", "0", "--bins", "0"],
         "--bins must be >= 1"),
        (["figure", "--id", "2a", "--bins", "0"], "--bins must be >= 1"),
    ])
    def test_mc_rejects_before_sampling(self, argv, message, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("mc_collect called")

        monkeypatch.setattr(cli, "mc_collect", refuse)
        assert cli.main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_bad_thread_env(self, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "many")
        assert cli.main(["mc", "--metric", "kappa-d", "--n", "3", "--alpha", "0",
                         "--samples", "50"]) == EXIT_USAGE


class TestDensityCommand:
    def test_reference_value_in_csv(self, capsys):
        assert cli.main(["density", "--metric", "kappa-d", "--kind", "exact",
                        "--n", "2", "--alpha", "0", "--grid", "3:5:3"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,pdf"
        assert len(lines) == 4
        x, pdf = (float(p) for p in lines[2].split(","))
        assert x == 4.0
        assert pdf == pytest.approx(0.09375, abs=1e-10)

    def test_17_digit_round_trip(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert cli.main(["density", "--metric", "kappa-d", "--n", "2", "--alpha", "0",
                         "--grid", "2.3:7:11", "--out", str(out)]) == EXIT_OK
        rows = out.read_text().strip().splitlines()[1:]
        from wishartcond.exact import Dims, pdf_kappa_d
        for row in rows:
            x, pdf = (float(p) for p in row.split(","))
            assert pdf == pdf_kappa_d(x, Dims(2, 0))  # lossless round-trip

    def test_json_payload(self, tmp_path):
        out = tmp_path / "curve.json"
        assert cli.main(["density", "--metric", "kappa-d", "--kind", "asymptotic",
                         "--alpha", "0", "--mu", "1", "--grid", "0.5:1.5:3",
                         "--format", "json", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert RunConfig(**payload["config"]).metric == "kappa-d"
        assert payload["meta"] == {"alpha": 0}
        assert payload["x"] == pytest.approx([0.5, 1.0, 1.5])
        assert payload["pdf"][1] == pytest.approx(np.exp(-1.0), rel=1e-13)

    def test_no_partial_file_left(self, tmp_path):
        out = tmp_path / "curve.csv"
        cli.main(["density", "--metric", "kappa-d", "--n", "2", "--alpha", "0",
                  "--grid", "3:5:3", "--out", str(out)])
        assert out.exists()
        assert not (tmp_path / "curve.csv.part").exists()

    def test_negative_grid_start(self, capsys):
        # a space-separated grid may start below zero; no density there
        assert cli.main(["density", "--metric", "kappa-d", "--n", "3", "--alpha", "0",
                         "--grid", "-1:5:4"]) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        xs = [float(x) for x, _ in rows]
        pdf = [float(p) for _, p in rows]
        assert xs == pytest.approx([-1.0, 1.0, 3.0, 5.0])
        assert pdf[:3] == [0.0, 0.0, 0.0]
        assert pdf[3] > 0.0
        # mgf takes the same form; the negative s is then refused by the
        # library, not by the argument parser
        assert cli.main(["mgf", "--metric", "kappa-d", "--n", "3", "--alpha", "0",
                         "--grid", "-0.5:0.5:3"]) == EXIT_USAGE
        assert "s must be >= 0" in capsys.readouterr().err


class TestParserReuse:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_share_no_state(self, capsys, tmp_path):
        mc = ["mc", "--metric", "kappa-d", "--n", "3", "--alpha", "0", "--samples", "50"]
        density = ["density", "--metric", "kappa-d", "--n", "3", "--alpha", "0",
                   "--grid", "3.5:5:3"]
        # each command keeps its own default format, whatever ran before
        assert cli.config_from_args(mc).format == "json"
        assert cli.config_from_args(density).format == "csv"
        assert cli.config_from_args(mc).format == "json"
        out = tmp_path / "mc.json"
        assert cli.main(mc + ["--out", str(out)]) == EXIT_OK
        assert "ks_statistic" in json.loads(out.read_text())["results"]
        capsys.readouterr()
        # a usage error leaves the parser usable
        assert cli.main(density + ["--wat", "1"]) == EXIT_USAGE
        assert cli.main(density) == EXIT_OK
        assert capsys.readouterr().out.startswith("x,pdf\n")


class TestNonFiniteInputs:
    def test_density_grid_to_inf(self):
        assert cli.main(["density", "--metric", "kappa-d", "--n", "3", "--alpha", "0",
                         "--grid", "3:inf:3"]) == EXIT_USAGE

    def test_mgf_nan_and_inf(self, monkeypatch, capsys):
        # refused before any quadrature: a NaN integrand once ran for minutes
        from wishartcond import exact

        def refuse(*args, **kwargs):
            raise AssertionError("integrate_finite called")

        monkeypatch.setattr(exact, "integrate_finite", refuse)
        base = ["mgf", "--metric", "kappa-d", "--n", "3", "--alpha", "1"]
        assert cli.main(base + ["--s", "nan"]) == EXIT_USAGE
        assert "NaN" in capsys.readouterr().err
        assert cli.main(base + ["--grid", "0:inf:3"]) == EXIT_USAGE
        assert "finite" in capsys.readouterr().err


class TestMgfCommand:
    def test_trivial_value(self, capsys):
        assert cli.main(["mgf", "--metric", "kappa-d", "--n", "3", "--alpha", "1",
                         "--s", "0"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "1"

    def test_curve_output(self, tmp_path):
        out = tmp_path / "mgf.csv"
        assert cli.main(["mgf", "--metric", "kappa-d", "--n", "3", "--alpha", "0",
                         "--grid", "0:0.2:3", "--out", str(out)]) == EXIT_OK
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "x,pdf"
        vals = [float(r.split(",")[1]) for r in rows[1:]]
        assert vals[0] == pytest.approx(1.0, rel=1e-9)
        assert vals[0] > vals[1] > vals[2]


class TestMcCommand:
    def test_json_report(self, tmp_path):
        out = tmp_path / "mc.json"
        assert cli.main(["mc", "--metric", "kappa-d", "--n", "3", "--alpha", "0",
                         "--samples", "2000", "--seed", "9", "--bins", "24",
                         "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        res = payload["results"]
        assert res["samples"] == 2000
        assert len(res["bin_masses"]) == 24
        assert len(res["bin_edges"]) == 25
        assert sum(res["bin_masses"]) == pytest.approx(1.0, abs=1e-12)
        assert res["passed"] is True
        assert RunConfig(**payload["config"]) == RunConfig(
            command="mc", metric="kappa-d", n=3, alpha=0, samples=2000,
            seed=9, bins=24, format="json", out=str(out))

    def test_histogram_csv(self, capsys):
        assert cli.main(["mc", "--metric", "lambda-2", "--n", "3", "--alpha", "1",
                         "--samples", "500", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,mass"
        masses = [float(r.split(",")[2]) for r in lines[1:]]
        assert sum(masses) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_comparison(self, tmp_path):
        out = tmp_path / "mc_scaled.json"
        assert cli.main(["mc", "--metric", "kappa-d", "--kind", "asymptotic",
                         "--n", "30", "--alpha", "0", "--mu", "4",
                         "--samples", "1500", "--seed", "3",
                         "--out", str(out)]) == EXIT_OK
        res = json.loads(out.read_text())["results"]
        assert res["meta"]["scale"] == pytest.approx(4.0 * 30 ** 3)
        # the alpha = 0 limit is one Gamma law: its table leaves nothing out
        assert res["meta"]["cdf_error_bound"] == 0.0

    def test_reports_sampling_cost(self, tmp_path, caplog):
        out = tmp_path / "mc.json"
        with caplog.at_level("DEBUG", logger="wishartcond"):
            assert cli.main(["mc", "--metric", "kappa-e", "--n", "4", "--alpha", "1",
                             "--samples", "400", "--out", str(out)]) == EXIT_OK
        meta = json.loads(out.read_text())["results"]["meta"]
        assert meta["sample_s"] > 0
        assert meta["draws_per_s"] == pytest.approx(400 / meta["sample_s"])
        # 400 draws are one chunk: its two stages lie within the run's time
        assert 0 < meta["variates_s"] + meta["search_s"] <= meta["sample_s"]
        assert any("mc_collect kappa-e n=4 alpha=1: sample_s=" in r.getMessage()
                   for r in caplog.records)

    def test_thread_env_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "2")
        out = tmp_path / "mc.json"
        assert cli.main(["mc", "--metric", "kappa-d", "--n", "3", "--alpha", "0",
                         "--samples", "300", "--out", str(out)]) == EXIT_OK


class TestFigureCommand:
    def test_files_and_determinism(self, tmp_path):
        prefix = str(tmp_path / "fig")
        args = ["figure", "--id", "2a", "--samples", "1500", "--seed", "4",
                "--out", prefix]
        assert cli.main(args) == EXIT_OK
        first = {}
        for suffix in ("_curve.csv", "_hist.csv", "_report.json"):
            path = tmp_path / f"fig{suffix}"
            assert path.exists()
            first[suffix] = path.read_bytes()
        assert cli.main(args) == EXIT_OK
        for suffix in ("_curve.csv", "_hist.csv"):
            assert (tmp_path / f"fig{suffix}").read_bytes() == first[suffix]
        # the report matches apart from the sampling times, which are measured
        payload = json.loads(first["_report.json"])
        again = json.loads((tmp_path / "fig_report.json").read_text())
        for report in (payload, again):
            meta = report["results"]["meta"]
            assert meta.pop("sample_s") > 0 and meta.pop("draws_per_s") > 0
            assert meta.pop("variates_s") > 0 and meta.pop("search_s") > 0
        assert again == payload
        res = payload["results"]
        assert res["n"] == 10 and res["alpha"] == 0
        assert res["ks_threshold"] == 0.03
        assert sum(res["bin_masses"]) == pytest.approx(1.0, abs=1e-12)
        assert res["files"] == [f"{prefix}_curve.csv", f"{prefix}_hist.csv"]

        curve = first["_curve.csv"].decode().splitlines()
        assert curve[0] == "x,pdf"
        assert len(curve) == 401


class TestSelftest:
    def test_runs_clean(self, capsys):
        assert cli.main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all" in out and "FAIL" not in out

    def test_failure_exit_code(self, monkeypatch, capsys):
        def boom():
            raise AssertionError("rigged")
        monkeypatch.setattr(cli, "_SELFTEST_CHECKS",
                            (("always ok", lambda: None), ("rigged", boom)))
        assert cli.main(["selftest"]) == EXIT_SELFTEST
        out = capsys.readouterr().out
        assert "FAIL  rigged" in out
        assert "ok    always ok" in out


class TestNumericalExit:
    def test_convergence_failure_maps_to_exit_2(self, monkeypatch):
        from wishartcond.numkit import QuadratureError

        def explode(cfg):
            raise QuadratureError("synthetic")
        monkeypatch.setitem(cli._COMMANDS, "density", explode)
        assert cli.main(["density", "--metric", "kappa-d", "--n", "2",
                         "--alpha", "0", "--grid", "3:5:3"]) == EXIT_NUMERICAL

    def test_arithmetic_error_maps_to_exit_2(self, monkeypatch, capsys):
        from wishartcond import exact

        def explode(dims):
            raise ArithmeticError("synthetic table failure")
        monkeypatch.setattr(exact, "_ke_det", explode)
        # cleared caches, so the density is rebuilt through the patched table
        exact._lambda2_law.cache_clear()
        exact._trace_ratio_law.cache_clear()
        assert cli.main(["density", "--metric", "kappa-e", "--n", "4",
                         "--alpha", "1", "--grid", "4:6:3"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: synthetic table failure" in err

    def test_negative_kappa_d_coefficient_maps_to_exit_2(self, monkeypatch, capsys):
        from wishartcond import exact

        fracs = exact._min_eig_fracs(exact.Dims(4, 2))
        monkeypatch.setattr(exact, "_min_eig_fracs", lambda dims: (-fracs[0],) + fracs[1:])
        exact._trace_ratio_law.cache_clear()
        assert cli.main(["density", "--metric", "kappa-d", "--n", "4",
                         "--alpha", "2", "--grid", "5:8:3"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: kappa-d table: negative coefficient" in err


class TestConsoleEntry:
    def test_mgf_huge_s_is_quiet(self):
        # s w overflows to inf, whose exp is the right 0: no RuntimeWarning
        proc = subprocess.run(
            [sys.executable, "-m", "wishartcond.cli", "mgf", "--metric", "kappa-d",
             "--n", "4", "--alpha", "1", "--s", "1e308"],
            capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")

    def test_import_leaves_out_mpmath(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, wishartcond.cli; print('mpmath' in sys.modules)"],
            capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wishartcond.cli", "mgf", "--metric", "kappa-d",
             "--n", "3", "--alpha", "1", "--s", "0"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"
