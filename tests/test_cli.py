import dataclasses
import filecmp
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import roughmerton.cli as cli
import roughmerton.kernels as kernels
import roughmerton.simulate as simulate
from roughmerton.cli import ConfigError, _default_config_path, dispatch, load_config, main


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_config(tmp_path, mutate=None, name="cfg.json"):
    with open(_default_config_path()) as fh:
        raw = json.load(fh)
    if mutate is not None:
        mutate(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestLoadConfig:
    def test_shipped_default(self):
        cfg = load_config(_default_config_path())
        assert cfg.params.d == 2
        assert np.allclose(cfg.params.alpha, [0.9, 0.6])
        assert cfg.utility_kind == "power"
        assert cfg.gammas == (0.2, 0.5, 0.8)
        assert cfg.n_sim == 600 and cfg.n_riccati == 200
        assert cfg.paths == 10000 and cfg.seed == 42
        assert len(cfg.sha256) == 64

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda raw: raw.update(extra=1),
            lambda raw: raw["model"].update(beta=1.0),
            lambda raw: raw["grids"].update(n_foo=3),
            lambda raw: raw["mc"].update(streams=2),
            lambda raw: raw["utility"].update(curvature=0.5),
            lambda raw: raw.setdefault("tolerances", {}).update(bogus_tol=1.0),
        ],
    )
    def test_unknown_keys_rejected(self, tmp_path, mutate):
        path = write_config(tmp_path, mutate)
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("value", [12.7, "abc", "12", True, None])
    @pytest.mark.parametrize(
        "section,key",
        [("grids", "n_sim"), ("grids", "n_riccati"), ("mc", "paths"), ("mc", "seed"), ("mc", "block_size")],
    )
    def test_non_integral_run_size_is_named(self, tmp_path, section, key, value):
        path = write_config(tmp_path, lambda raw: raw[section].update({key: value}))
        with pytest.raises(ConfigError, match=f"{section}.{key} must be an integer"):
            load_config(path)

    def test_integral_float_run_size_accepted(self, tmp_path):
        path = write_config(tmp_path, lambda raw: raw["grids"].update(n_sim=12.0))
        cfg = load_config(path)
        assert cfg.n_sim == 12 and isinstance(cfg.n_sim, int)

    def test_missing_required_section(self, tmp_path):
        path = write_config(tmp_path, lambda raw: raw.pop("model"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_gamma_rejected(self, tmp_path):
        path = write_config(tmp_path, lambda raw: raw["utility"].update(gamma=[1.0]))
        with pytest.raises(ConfigError):
            load_config(path)
        path = write_config(tmp_path, lambda raw: raw["utility"].update(gamma=[]))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_model_value_rejected(self, tmp_path):
        path = write_config(tmp_path, lambda raw: raw["model"].update(alpha=[0.4, 0.6]))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unreadable_and_invalid(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(bad))


def run_cli(args):
    return main(args)


def tolerance(value):
    """A config mutation setting tolerances.profile_z to ``value``."""
    return lambda raw: raw.update(tolerances={"profile_z": value})


class TestCommands:
    def shrink(self, raw):
        raw["grids"] = {"n_sim": 40, "n_riccati": 50}
        raw["mc"] = {"paths": 400, "seed": 42, "block_size": 25000}
        raw["utility"]["gamma"] = [0.2, 0.5]

    def test_stabilizer_outputs_and_header(self, tmp_path):
        cfg = write_config(tmp_path, self.shrink)
        out = str(tmp_path / "out")
        assert run_cli(["stabilizer", "--config", cfg, "--out", out]) == 0
        csv = os.path.join(out, "stabilizer.csv")
        with open(csv) as fh:
            head = [next(fh) for _ in range(4)]
        assert head[0].startswith("# config_sha256=")
        assert head[1].startswith("# seed=42")
        assert head[2].startswith("# version=")
        assert head[3].strip() == "# columns=t,sigma_1,sigma_2"
        data = np.loadtxt(csv, delimiter=",", comments="#")
        assert data.shape == (41, 3)
        report = read_json(os.path.join(out, "stabilizer_report.json"))
        assert report["asset_1"]["passed"] and report["asset_2"]["passed"]
        assert report["_meta"]["seed"] == 42

    def test_riccati_value_strategy(self, tmp_path):
        cfg = write_config(tmp_path, self.shrink)
        out = str(tmp_path / "out")
        assert run_cli(["riccati", "--config", cfg, "--out", out]) == 0
        data = np.loadtxt(os.path.join(out, "riccati.csv"), delimiter=",", comments="#")
        assert data.shape == (51, 3)
        assert np.all(data[0, 1:] == 0.0)

        assert run_cli(["value", "--config", cfg, "--out", out]) == 0
        vals = read_json(os.path.join(out, "value.json"))
        assert set(vals["values"]) == {"gamma_0.2", "gamma_0.5"}
        assert vals["utility"] == "power"

        assert run_cli(["strategy", "--config", cfg, "--out", out]) == 0
        for g in ("0.2", "0.5"):
            path = os.path.join(out, f"strategy_power_gamma{g}.csv")
            rules = np.loadtxt(path, delimiter=",", comments="#")
            assert rules.shape == (51, 3)

    def test_simulate_and_rerun_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.shrink)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli(["simulate", "--config", cfg, "--out", out1]) == 0
        assert run_cli(["simulate", "--config", cfg, "--out", out2]) == 0
        assert filecmp.cmp(
            os.path.join(out1, "simulate.csv"), os.path.join(out2, "simulate.csv"), shallow=False
        )
        report = read_json(os.path.join(out1, "simulate_report.json"))
        assert "stationarity" in report

    def test_gamma_and_utility_overrides(self, tmp_path):
        cfg = write_config(tmp_path, self.shrink)
        out = str(tmp_path / "out")
        assert run_cli(["value", "--config", cfg, "--out", out, "--gamma", "0.3"]) == 0
        vals = read_json(os.path.join(out, "value.json"))
        assert list(vals["values"]) == ["gamma_0.3"]
        # power gammas are invalid for gamma >= 1 but fine for exponential
        assert run_cli(["value", "--config", cfg, "--out", out, "--gamma", "1.5"]) == 1
        assert (
            run_cli(
                ["value", "--config", cfg, "--out", out, "--utility", "exponential", "--gamma", "1.5"]
            )
            == 0
        )

    def test_one_gamma_source(self, tmp_path):
        # a rule solved for one gamma is the same whichever gammas the run holds
        all_out, one_out = str(tmp_path / "all"), str(tmp_path / "one")
        assert run_cli(["strategy", "--out", all_out]) == 0
        assert run_cli(["strategy", "--gamma", "0.5", "--out", one_out]) == 0
        assert os.listdir(one_out) == ["strategy_power_gamma0.5.csv"]
        assert filecmp.cmp(
            os.path.join(all_out, "strategy_power_gamma0.5.csv"),
            os.path.join(one_out, "strategy_power_gamma0.5.csv"),
            shallow=False,
        )
        assert run_cli(["riccati", "--gamma", "0.5", "--out", one_out]) == 0
        report = read_json(os.path.join(one_out, "riccati_report.json"))
        assert report["gamma"] == 0.5 and report["variant"] == "power_general"

    @pytest.mark.parametrize(
        "field,args,mutate",
        [
            pytest.param("grids.n_sim", [], lambda raw: raw["grids"].update(n_sim=0), id="n_sim"),
            pytest.param("grids.n_riccati", [], lambda raw: raw["grids"].update(n_riccati=1), id="n_riccati"),
            pytest.param("mc.paths", [], lambda raw: raw["mc"].update(paths=1), id="paths"),
            pytest.param("mc.block_size", [], lambda raw: raw["mc"].update(block_size=0), id="block_size"),
            pytest.param("grids.n_sim", [], lambda raw: raw["grids"].update(n_sim=12.7), id="n_sim_fractional"),
            pytest.param("grids.n_sim", [], lambda raw: raw["grids"].update(n_sim="abc"), id="n_sim_string"),
            pytest.param("mc.paths", ["--paths", "0"], None, id="paths_override"),
            pytest.param("grids.n_sim", ["--steps", "0"], None, id="steps_override"),
            # every other config field outside its domain exits the same way
            pytest.param("outputs", [], lambda raw: raw.update(outputs=5), id="outputs_number"),
            pytest.param("grids", [], lambda raw: raw.update(grids=5), id="grids_number"),
            pytest.param("tolerances", [], lambda raw: raw.update(tolerances=[3.0]), id="tolerances_list"),
            pytest.param("tolerances.profile_z", [], tolerance("3"), id="tolerance_string"),
            pytest.param("tolerances.profile_z", [], tolerance(-1.0), id="tolerance_negative"),
            pytest.param("tolerances.profile_z", [], tolerance(float("nan")), id="tolerance_nan"),
            pytest.param("utility.gamma", [], lambda raw: raw["utility"].update(gamma=["abc"]), id="gamma_string"),
            pytest.param("utility.gamma", [], lambda raw: raw["utility"].update(gamma=[True]), id="gamma_bool"),
            pytest.param("model.x0", [], lambda raw: raw["model"].update(x0=float("nan")), id="x0_nan"),
            pytest.param("model.T", [], lambda raw: raw["model"].update(T="1"), id="T_string"),
        ],
    )
    def test_out_of_range_run_size_is_named(self, tmp_path, capsys, field, args, mutate):
        cfg = write_config(tmp_path, mutate)
        out = str(tmp_path / "out")
        assert run_cli(["simulate", "--config", cfg, "--out", out] + args) == 1
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "Traceback" not in err
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError" and field in payload["message"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("bad", ["a", float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["alpha", "lam", "nu", "theta", "rho", "mu0", "c", "rate.knots", "rate.values"]
    )
    def test_bad_model_entry_is_named(self, tmp_path, capsys, field, bad):
        def mutate(raw):
            section = raw["model"]["rate"] if field.startswith("rate.") else raw["model"]
            section[field.split(".")[-1]][0] = bad

        cfg = write_config(tmp_path, mutate)
        out = str(tmp_path / "out")
        assert run_cli(["value", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigError"
        assert f"model.{field}[0] must be a finite number" in payload["message"]
        assert not os.path.exists(out)

    def test_power_utility_needs_positive_x0(self, tmp_path, capsys):
        zero_x0 = lambda raw: raw["model"].update(x0=0.0)
        with pytest.raises(ConfigError, match="model.x0"):
            load_config(write_config(tmp_path, zero_x0))
        expo = write_config(tmp_path, lambda raw: (zero_x0(raw), raw["utility"].update(kind="exponential")))
        assert load_config(expo).params.x0 == 0.0
        # the --utility override is checked again, before any bundle is simulated
        out = str(tmp_path / "out")
        assert run_cli(["verify", "--config", expo, "--out", out, "--utility", "power"]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigError" and "model.x0" in payload["message"]
        assert not os.path.exists(out)

    def test_verify_builds_each_factor_once_and_solves_each_gamma_once(self, tmp_path, monkeypatch):
        calls = {"factor": 0, "solve": 0, "bundle": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(simulate, "integral_factor", counted("factor", simulate.integral_factor))
        monkeypatch.setattr(cli, "solve_riccati", counted("solve", cli.solve_riccati))
        monkeypatch.setattr(cli, "simulate_variance", counted("bundle", cli.simulate_variance))
        cfg = write_config(tmp_path, self.shrink)
        out = str(tmp_path / "out")
        run_cli(["verify", "--config", cfg, "--out", out])
        assert os.path.isfile(os.path.join(out, "verify_report.json"))
        # one bundle serves every gate: one factor per asset; two gammas
        assert calls == {"factor": 2, "solve": 2, "bundle": 1}

    def test_verify_rerun_bit_identical_and_stationarity_of_simulate(self, tmp_path):
        cfg = write_config(tmp_path, self.shrink)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli(["verify", "--config", cfg, "--out", out1])
        run_cli(["verify", "--config", cfg, "--out", out2])
        for name in ("verify_report.json", "verify_profile.csv"):
            assert filecmp.cmp(os.path.join(out1, name), os.path.join(out2, name), shallow=False), name
        # the verify bundle is the simulate bundle of the same config and seed
        run_cli(["simulate", "--config", cfg, "--out", out1])
        report = read_json(os.path.join(out1, "verify_report.json"))
        simulated = read_json(os.path.join(out1, "simulate_report.json"))
        assert report["stationarity"]["report"] == simulated["stationarity"]
        assert report["stationarity"]["passed"] == simulated["passed"]
        # target is the value at the drawn V_0s, analytic the value at V_0 = x_inf
        for entry in report["value_agreement"].values():
            assert entry["target"] != entry["analytic"]

    @pytest.mark.parametrize("utility", ["power", "exponential"])
    def test_analytic_subcommands_make_no_quad_calls(self, tmp_path, monkeypatch, utility):
        # the analytic layer on the packaged config needs no adaptive quadrature
        calls = []
        real_quad = kernels.integrate.quad

        def counting_quad(*args, **kwargs):
            calls.append(1)
            return real_quad(*args, **kwargs)

        monkeypatch.setattr(kernels.integrate, "quad", counting_quad)
        for sub in ("stabilizer", "riccati", "strategy", "value"):
            out = str(tmp_path / sub)
            assert run_cli([sub, "--utility", utility, "--out", out]) == 0
        assert len(calls) == 0

    def test_packaged_config_runs_warning_free(self, tmp_path, capsys, monkeypatch):
        # the thread settings of the benchmark's child processes
        monkeypatch.setenv("VM_THREADS", "1")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        runs = [["stabilizer"], ["riccati"], ["strategy"], ["value"], ["verify", "--paths", "200"]]
        for args in runs:
            out = str(tmp_path / args[0])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli(args + ["--out", out])
            assert [str(w.message) for w in caught] == [], args[0]
            assert capsys.readouterr().err == "", args[0]
            if args[0] == "verify":
                # 200 paths are too few for the optimality gate to pass
                assert code in (0, 1) and os.path.isfile(os.path.join(out, "verify_report.json"))
            else:
                assert code == 0

    def test_error_path_exit_code(self, tmp_path, capsys):
        bad = write_config(tmp_path, lambda raw: raw["model"].update(lam=[-1.0, 0.6]))
        assert run_cli(["value", "--config", bad]) == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "ConfigError"

    def test_arithmetic_error_is_a_json_error_line(self, tmp_path, capsys, monkeypatch):
        def negative_series(*args, **kwargs):
            raise ArithmeticError("stabilizer series went negative inside its trust radius")

        monkeypatch.setattr(cli, "build_stabilizer", negative_series)
        assert run_cli(["stabilizer", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err.strip().splitlines()[-1])["error"] == "ArithmeticError"

    def test_dispatch_unknown(self, tmp_path):
        cfg = load_config(write_config(tmp_path, self.shrink))
        with pytest.raises(ValueError):
            dispatch("frobnicate", cfg)

    def test_all_emits_figures(self, tmp_path):
        cfg = write_config(tmp_path, self.shrink)
        out = str(tmp_path / "out")
        assert run_cli(["all", "--config", cfg, "--out", out]) == 0
        for name, ncols in (("fig1", 3), ("fig2", 5), ("fig3", 5), ("fig4", 5)):
            data = np.loadtxt(os.path.join(out, f"{name}.csv"), delimiter=",", comments="#")
            assert data.shape[1] == ncols


def test_csv_rows_match_per_value_format(tmp_path):
    # one format string per row writes what formatting each value alone did
    cfg = dataclasses.replace(load_config(_default_config_path()), out_dir=str(tmp_path))
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
    rows[0] = [-0.0, 0.0, np.inf, -np.inf]
    rows[1] = [np.nan, 1e-320, 5e-324, np.finfo(float).max]
    rows[2] = [0.1, 1.0 / 3.0, 2.0**0.5, -1.0]

    def body(data):
        cli._write_csv(cfg, "t.csv", ["c"] * np.atleast_2d(data).shape[1], data)
        with open(tmp_path / "t.csv") as fh:
            return [line for line in fh.read().splitlines() if not line.startswith("#")]

    for data in (rows, rows[:, :1], rows[3]):
        assert body(data) == [",".join("%.17g" % v for v in row) for row in np.atleast_2d(data)]
    assert body(rows[:2]) == [
        "-0,0,inf,-inf",
        "nan,9.9998886718268301e-321,4.9406564584124654e-324,1.7976931348623157e+308",
    ]


def test_cli_import_loads_no_heavy_scipy_subpackage():
    # import time is part of every invocation's setup; none of these is needed
    heavy = {"scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.ndimage"}
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, roughmerton.cli; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = {".".join(name.split(".")[:2]) for name in out.stdout.split()}
    assert "roughmerton.cli" in loaded
    assert not loaded & heavy
