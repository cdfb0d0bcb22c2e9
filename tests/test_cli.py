"""End-to-end command-line behavior through in-process main(argv).

Each test drives a real subcommand against a temp config and inspects the
exit code, the files written under --out, and the messages, so the public
contract (codes 0/2/3/4/5, CSV schemas, manifest fields) is pinned here.
"""

import argparse
import copy
import csv
import importlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from chaoslab import __version__, cli
from chaoslab.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_CONSISTENCY,
    EXIT_OK,
    EXIT_UNRELIABLE,
    _finish_run,
    build_parser,
    main,
)
from chaoslab.core import config_from_dict, load_json
from chaoslab.experiment import TABLES, RunResult, load_plan, plan_from_dict
from chaoslab.kernels import biot_savart_periodic

SHIPPED_CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def sim_config(**over):
    cfg = {
        "domain": {"kind": "euclidean", "dim": 1},
        "drift": {"name": "linear_pair", "params": {}},
        "n_particles": 4,
        "grid": {"t0": 0.0, "dt": 0.005, "steps": 20},
        "noise": {"kind": "brownian"},
        "initial_law": {"name": "gaussian", "params": {"mean": [0.2], "sigma": 0.5}},
        "seed": 97,
        "replicas": 300,
    }
    cfg.update(over)
    return cfg


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestExitCodes:
    def test_simulate_ok(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", sim_config(replicas=5))
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        rows = read_rows(tmp_path / "out" / "positions.csv")
        # snapshots at t = 0 and the terminal time
        assert len(rows) == 2 * 5 * 4
        assert set(rows[0]) == {"t", "replica", "particle", "x0"}
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert man["command"] == "simulate"
        assert "position rows" in capsys.readouterr().out

    def test_missing_config(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {**sim_config(), "typo": 1})
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("domain", 5), ("grid", "fast")])
    def test_malformed_section_names_the_key(self, tmp_path, capsys, key, value):
        cfg = write_json(tmp_path, "c.json", sim_config(**{key: value}))
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"key {key!r} expects dict" in capsys.readouterr().err

    @pytest.mark.parametrize("as_plan", [False, True])
    def test_knn_replica_floor_fails_at_parse_time(self, tmp_path, capsys, as_plan):
        # a bare config and a plan that names no estimators both run knn,
        # whose particle side is the 50 replicas
        data = sim_config(replicas=50)
        if as_plan:
            data = {"base": data, "sweep": {"n": [4]}, "picard": {"m": 100}, "knn": {"samples": 100}}
        cfg = write_json(tmp_path, "c.json", data)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "knn estimator needs replicas >= 100, got 50" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_picard_iters_beyond_the_stream_budget_fail_at_parse_time(self, tmp_path, capsys):
        # iterates past the Picard stream-key budget must not start a run
        data = {"base": sim_config(), "sweep": {"n": [4]}, "picard": {"m": 100, "iters": 100}}
        cfg = write_json(tmp_path, "p.json", data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "picard_iters must be <= 99" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oversized_generic_picard_ensemble_fails_at_parse_time(self, tmp_path, capsys):
        # 200000 members x 41 steps of a generic drift would exhaust memory
        # inside the run; it is refused before the output directory exists
        base = sim_config(drift={"name": "sign_gated_pair", "params": {}}, grid={"dt": 0.0025, "steps": 40})
        data = {"base": base, "sweep": {"n": [4]}, "picard": {"m": 200_000}}
        cfg = write_json(tmp_path, "p.json", data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "picard m = 200000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_sweep_fails_at_parse_time(self, tmp_path, capsys):
        # a plan with no sweep point runs nothing, so it is refused
        data = {"base": sim_config(), "sweep": {"n": []}, "picard": {"m": 100}}
        cfg = write_json(tmp_path, "p.json", data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "sweep_n must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "simulate"])
    @pytest.mark.parametrize("dim", [10**12, 10**6])
    def test_a_huge_dimension_fails_closed_without_allocating(self, tmp_path, capsys, command, dim):
        # a Gaussian law that names no mean takes any dim; one block at this
        # dim would need gigabytes, so the domain is refused at parse time
        data = sim_config(domain={"kind": "euclidean", "dim": dim},
                          initial_law={"name": "gaussian", "params": {"sigma": 0.5}})
        if command == "run":
            data = {"base": data, "sweep": {"n": [4]}, "picard": {"m": 100}}
        cfg = write_json(tmp_path, "c.json", data)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert f"key 'dim' = {dim} exceeds 3906" in capsys.readouterr().err
        assert peak < 1_000_000
        assert not (tmp_path / "out").exists()

    def test_an_oversized_bounds_cascade_fails_closed_without_allocating(self, tmp_path, capsys):
        # n = 100000 to T = 1 steps the cascade at 1/(2 n): about 2e10 values, 160 GB,
        # which a point would build after its particle stages; the plan is refused
        data = {"base": sim_config(), "sweep": {"n": [4, 100_000], "t": [0.1]}, "picard": {"m": 100}}
        data["base"]["grid"] = {"t0": 0.0, "dt": 0.05, "steps": 20}
        cfg = write_json(tmp_path, "p.json", data)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "swept n = 100000 needs a bounds cascade of more than 8000000 values" in err
        assert "Traceback" not in err
        assert peak < 1_000_000
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "simulate", "noise-check"])
    @pytest.mark.parametrize(
        "over,message",
        [
            ({"drift": {"name": "nope"}}, "unknown drift 'nope'"),
            ({"drift": {"name": "linear_pair", "params": {"strength": 2}}}, "drift.params: unknown keys ['strength']"),
            (
                {
                    "domain": {"kind": "euclidean", "dim": 2},
                    "initial_law": {"name": "gaussian", "params": {"mean": [0.2, 0.2]}},
                    "drift": {"name": "sign_gated_pair"},
                },
                "sign_gated_pair drift lives on R^1",
            ),
            (
                {
                    "domain": {"kind": "torus", "dim": 2},
                    "initial_law": {"name": "uniform"},
                    "drift": None,
                    "kernel": {"name": "smooth_divfree", "params": {"frequency": 0}},
                },
                "smooth_divfree requires frequency >= 1",
            ),
            (
                {
                    "domain": {"kind": "euclidean", "dim": 2},
                    "initial_law": {"name": "gaussian", "params": {"mean": [0.2, 0.2]}},
                    "drift": None,
                    "kernel": {"name": "biot_savart_free"},
                },
                "biot_savart_free kernel lives on T^2",
            ),
        ],
        ids=["unknown-drift", "unknown-param", "sign-gated-on-r2", "frequency-0", "kernel-on-rd"],
    )
    def test_malformed_interaction_fails_at_parse_time(self, tmp_path, capsys, command, over, message):
        # the kernel or drift is resolved when the config is parsed, so a
        # malformed one writes nothing instead of failing every sweep point
        data = sim_config(**over)
        if command == "run":
            data = {"base": data, "sweep": {"n": [4]}, "picard": {"m": 100}}
        cfg = write_json(tmp_path, "c.json", data)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_blowup(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path, "c.json",
            sim_config(drift={"name": "restoring_b0", "params": {"rate": -1e30}}, replicas=4),
        )
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_BLOWUP
        assert "simulation blow-up" in capsys.readouterr().err

    def test_seed_bounds(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", sim_config(replicas=4))
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out, "--seed", str(2**64)]) == EXIT_CONFIG
        assert main(["simulate", "--config", cfg, "--out", out, "--seed", "-3"]) == EXIT_CONFIG
        assert "u64" in capsys.readouterr().err


class TestSimulateSeeding:
    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", sim_config(replicas=5))
        for name, seed in (("a", "11"), ("b", "11"), ("c", "12")):
            assert main(["simulate", "--config", cfg, "--out",
                         str(tmp_path / name), "--seed", seed]) == EXIT_OK
        a = (tmp_path / "a" / "positions.csv").read_bytes()
        b = (tmp_path / "b" / "positions.csv").read_bytes()
        c = (tmp_path / "c" / "positions.csv").read_bytes()
        assert a == b
        assert a != c


@pytest.mark.filterwarnings("ignore:only \\d+ replicas")
class TestEntropyAndRun:
    def plan_dict(self):
        return {
            "label": "cli-toy",
            "base": sim_config(),
            "sweep": {"n": [4, 6], "k": [1], "t": [0.1]},
            "picard": {"m": 300, "iters": 2},
            "knn": {"neighbors": 4, "samples": 300},
            "tv": {"bins": 8},
        }

    def test_entropy_on_bare_config(self, tmp_path):
        # run turns a bare simulation config into one point at the
        # terminal time and runs every estimator there
        cfg = write_json(tmp_path, "c.json", sim_config())
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out / "entropy.csv")
        assert {r["estimator"] for r in rows} == {"girsanov", "knn", "histogram_tv"}
        assert {(r["n"], r["k"], r["t"]) for r in rows} == {("4", "1", "0.1")}
        man = json.loads((out / "manifest.json").read_text())
        assert man["plan"]["estimators"] == ["girsanov", "knn", "histogram_tv"]

    def test_manifest_names_the_model(self, tmp_path):
        data = load_json(SHIPPED_CONFIG_DIR / "smooth_torus.json")
        data["base"]["replicas"] = 100
        data.update(sweep={"n": [4], "k": [1], "t": [0.125]}, picard={"m": 100, "iters": 1},
                    knn={"neighbors": 4, "samples": 100}, estimators=["girsanov"])
        cfg = write_json(tmp_path, "p.json", data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) in (EXIT_OK, EXIT_CONSISTENCY)
        base = json.loads((tmp_path / "out" / "manifest.json").read_text())["plan"]["base"]
        assert base["kernel"] == {"name": "smooth_divfree", "params": {"frequency": 1}}
        assert base["domain"] == {"kind": "torus", "dim": 2}
        assert base["initial_law"] == {"name": "uniform", "params": {}}
        assert base["truncation_radius"] == 8
        assert base["drift"] is None and base["n_particles"] == data["base"]["n_particles"]

    def test_run_uses_all_estimators(self, tmp_path):
        cfg = write_json(tmp_path, "p.json", self.plan_dict())
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out / "entropy.csv")
        assert {r["estimator"] for r in rows} == {"girsanov", "knn", "histogram_tv"}
        assert {r["n"] for r in rows} == {"4", "6"}

    def test_explicit_estimators_win(self, tmp_path):
        plan = {**self.plan_dict(), "estimators": ["girsanov"]}
        cfg = write_json(tmp_path, "p.json", plan)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "entropy.csv")
        assert {r["estimator"] for r in rows} == {"girsanov"}

    def test_manifest_records_environment(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", sim_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
        }

    def test_threads_do_not_change_bytes(self, tmp_path):
        cfg = write_json(tmp_path, "p.json", self.plan_dict())
        for name, threads in (("t1", "1"), ("t2", "2")):
            assert main(["run", "--config", cfg, "--out",
                         str(tmp_path / name), "--threads", threads]) == EXIT_OK
        for fname in ("entropy.csv", "bounds.csv", "checks.csv",
                      "horizons.csv", "manifest.json"):
            assert (tmp_path / "t1" / fname).read_bytes() == (tmp_path / "t2" / fname).read_bytes()

    def test_bare_config_writes_the_bytes_of_its_one_point_plan(self, tmp_path):
        base = sim_config()
        configs = {
            "bare": base,
            "plan": {"base": base, "sweep": {"n": [base["n_particles"]]}},
        }
        for name, data in configs.items():
            cfg = write_json(tmp_path, f"{name}.json", data)
            assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        for fname in ("entropy.csv", "bounds.csv", "checks.csv",
                      "horizons.csv", "manifest.json"):
            assert (tmp_path / "bare" / fname).read_bytes() == (tmp_path / "plan" / fname).read_bytes()

    @pytest.mark.parametrize("t0", [0.0, 0.5])
    def test_a_sweep_at_the_grid_start_alone_runs(self, tmp_path, t0):
        # the bounds cascade there is its start, C0 k^2 / n^2
        data = self.plan_dict()
        data["base"]["grid"] = {"t0": t0, "dt": 0.01, "steps": 10}
        data["sweep"]["t"] = [t0]
        cfg = write_json(tmp_path, "p.json", data)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "bounds.csv")
        assert [(r["n"], r["t"]) for r in rows] == [("4", repr(t0)), ("6", repr(t0))]
        assert [float(r["cascade"]) for r in rows] == [0.05 * 1 * 1 / (n * n) for n in (4, 6)]


class TestFinishRunPriority:
    """run's status comes from its error list, its check rows and the ESS
    flag; each case is built from those alone."""

    def result(self, checks=(), **over):
        res = RunResult(manifest={"label": "x"}, **over)
        res.tables["checks"].extend(checks)
        return res

    FAILED_CHECK = {"n": 4, "k": 1, "t": 0.1, "check": "pinsker", "passed": False,
                    "margin": -0.2, "value": 1.0, "threshold": 0.8}

    def test_blowup_beats_everything(self, tmp_path, capsys):
        res = self.result(checks=[self.FAILED_CHECK], any_unreliable=True,
                          errors=[{"n": 4, "kind": "config", "error": "bad"},
                                  {"n": 6, "kind": "blowup", "error": "boom"}])
        assert _finish_run(res, str(tmp_path / "o")) == EXIT_BLOWUP
        err = capsys.readouterr().err
        assert "failed (blowup)" in err and "check failed: pinsker" in err

    def test_failed_check_row_returns_consistency(self, tmp_path, capsys):
        res = self.result(checks=[self.FAILED_CHECK], any_unreliable=True,
                          errors=[{"n": 6, "kind": "runtime", "error": "bad"}])
        assert _finish_run(res, str(tmp_path / "o")) == EXIT_CONSISTENCY
        assert "check failed: pinsker" in capsys.readouterr().err

    def test_unreliable_beats_point_errors(self, tmp_path):
        res = self.result(any_unreliable=True,
                          errors=[{"n": 4, "kind": "config", "error": "bad"}])
        assert _finish_run(res, str(tmp_path / "o")) == EXIT_UNRELIABLE

    def test_point_errors_alone(self, tmp_path):
        res = self.result(errors=[{"n": 4, "kind": "runtime", "error": "bad"}])
        assert _finish_run(res, str(tmp_path / "o")) == EXIT_CONFIG

    def test_clean_result(self, tmp_path, capsys):
        passed = dict(self.FAILED_CHECK, passed=True, margin=0.2)
        assert _finish_run(self.result(checks=[passed]), str(tmp_path / "o")) == EXIT_OK
        assert "rows:" in capsys.readouterr().out


class TestBoundsCommand:
    def test_reference_horizons_and_domination(self, tmp_path):
        cfg = write_json(tmp_path, "b.json", {
            "C0": 0.05, "gamma": 1.0, "M": 1.0, "T": 0.5, "n": [10, 20],
            "horizons": [
                {"kappa": 1.0, "beta": 2.0},
                {"kappa": 1.0, "beta": 2.0, "regime": "fractional",
                 "hurst": 0.75, "C": 16.0},
            ],
        })
        out = tmp_path / "out"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
        hz = read_rows(out / "horizons.csv")
        assert float(hz[0]["delta_star"]) == 1.0 / 32.0
        assert float(hz[1]["delta_star"]) == pytest.approx(32.0**-2, rel=1e-12)
        rows = read_rows(out / "bounds.csv")
        assert len(rows) == 10 + 20
        assert all(float(r["closed_form"]) >= float(r["cascade"]) for r in rows)

    def test_k_selection_and_validation(self, tmp_path, capsys):
        base = {"C0": 0.05, "gamma": 1.0, "M": 1.0, "T": 0.5, "n": [10]}
        cfg = write_json(tmp_path, "b1.json", {**base, "k": [2, 5]})
        out = tmp_path / "o1"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert [r["k"] for r in read_rows(out / "bounds.csv")] == ["2", "5"]
        bad = write_json(tmp_path, "b2.json", {**base, "k": [11]})
        assert main(["bounds", "--config", bad, "--out", str(tmp_path / "o2")]) == EXIT_CONFIG
        assert "exceeds n" in capsys.readouterr().err
        extra = write_json(tmp_path, "b3.json", {**base, "weird": 1})
        assert main(["bounds", "--config", extra, "--out", str(tmp_path / "o3")]) == EXIT_CONFIG

    @pytest.mark.parametrize("key,value", [("n", [10.5]), ("k", [2.5]), ("k", [True])])
    def test_non_integral_n_and_k_rejected(self, tmp_path, capsys, key, value):
        base = {"C0": 0.05, "gamma": 1.0, "M": 1.0, "T": 0.5, "n": [10]}
        cfg = write_json(tmp_path, "b.json", {**base, key: value})
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("C0", float("inf")), ("T", "0.5"), ("dt", True)])
    def test_non_numeric_constants_rejected(self, tmp_path, capsys, key, value):
        base = {"C0": 0.05, "gamma": 1.0, "M": 1.0, "T": 0.5, "n": [10]}
        cfg = write_json(tmp_path, "b.json", {**base, key: value})
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n,T,message",
        [(0, 0.1, "key 'n' = 0 must be in [2, 4000000]"), (-1, 0.1, "key 'n' = -1 must be in [2, 4000000]"),
         (100000, 1.0, "key 'n' = 100000 needs a cascade of more than 8000000 values")],
        ids=["zero", "negative", "cascade-of-2e10-values"],
    )
    def test_n_fails_closed_before_anything_sized_by_it(self, tmp_path, capsys, n, T, message):
        # n = 100000 would build a cascade of (1e5, 200001) floats, about 160 GB
        cfg = write_json(tmp_path, "b.json", {"C0": 0.05, "gamma": 1.0, "M": 1.0, "T": T, "n": [n]})
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"bounds config: {message}" in err and "Traceback" not in err
        assert peak < 1_000_000
        assert not (tmp_path / "out").exists()

    def test_the_cascade_bound_counts_every_step(self, tmp_path, capsys):
        # gamma = 0 keeps dt: T = 2 is 2000 steps, 4000 * 2001 values, one step over the bound
        cfg = write_json(tmp_path, "b.json", {"C0": 0.05, "gamma": 0.0, "M": 1.0, "T": 2.0, "n": [4000], "k": [1]})
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "key 'n' = 4000 needs a cascade of more than 8000000 values" in capsys.readouterr().err

    def test_a_step_that_underflows_is_an_oversized_cascade(self, tmp_path, capsys):
        # gamma n overflows, so the stability limit 1/(2 gamma n) underflows to a zero step
        cfg = write_json(tmp_path, "b.json", {"C0": 0.05, "gamma": 1e308, "M": 1.0, "T": 1.0, "n": [32]})
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "key 'n' = 32 needs a cascade of more than 8000000 values" in err and "Traceback" not in err

    @pytest.mark.parametrize("key,value", [("T", 0.0), ("T", -0.5), ("dt", 0.0), ("dt", -1e-3)])
    def test_a_non_positive_horizon_or_step_is_refused(self, tmp_path, capsys, key, value):
        base = {"C0": 0.05, "gamma": 1.0, "M": 1.0, "T": 0.5, "n": [10]}
        cfg = write_json(tmp_path, "b.json", {**base, key: value})
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "bounds config: keys 'T' and 'dt' must be > 0" in capsys.readouterr().err

    def test_non_object_horizon_rejected(self, tmp_path, capsys):
        base = {"C0": 0.05, "gamma": 1.0, "M": 1.0, "T": 0.5, "n": [10]}
        cfg = write_json(tmp_path, "b.json", {**base, "horizons": [{"kappa": 1.0, "beta": 2.0}, 5]})
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "horizons[1] expects an object, got 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value", [("kappa", float("nan")), ("beta", "2"), ("hurst", True), ("C", float("inf"))]
    )
    def test_horizon_values_must_be_finite_numbers(self, tmp_path, capsys, key, value):
        base = {"C0": 0.05, "gamma": 1.0, "M": 1.0, "T": 0.5, "n": [10]}
        spec = {"kappa": 1.0, "beta": 1.0, "regime": "fractional", "hurst": 0.75, key: value}
        cfg = write_json(tmp_path, "b.json", {**base, "horizons": [spec]})
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"horizons[0]: key '{key}'" in capsys.readouterr().err


class TestNoiseCheckCommand:
    def test_brownian_covariance_passes(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json",
                         sim_config(replicas=3000,
                                    grid={"t0": 0.0, "dt": 0.01, "steps": 8}))
        out = tmp_path / "out"
        assert main(["noise-check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "noise_covariance.csv")
        assert len(rows) == 8 * 9 // 2
        assert set(rows[0]) == {"t", "s", "hurst", "empirical", "exact", "stderr", "z"}
        man = json.loads((out / "manifest.json").read_text())
        assert man["worst_z"] <= 4.0
        assert man["config"]["noise"]["hurst"] == 0.5
        assert "worst |z|" in capsys.readouterr().out

    def test_fractional_hurst_from_config(self, tmp_path):
        cfg = write_json(tmp_path, "c.json",
                         sim_config(noise={"kind": "fbm", "hurst": 0.3},
                                    replicas=2000,
                                    grid={"t0": 0.0, "dt": 0.01, "steps": 8}))
        out = tmp_path / "out"
        assert main(["noise-check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["noise"]["hurst"] == 0.3

    def test_the_grid_start_labels_the_rows_only(self, tmp_path):
        # the sampled series start at the grid start, so only t and s move with t0
        columns = {}
        for t0 in (0.0, 0.5):
            cfg = write_json(tmp_path, f"c{t0}.json",
                             sim_config(noise={"kind": "fbm", "hurst": 0.3}, replicas=2000,
                                        grid={"t0": t0, "dt": 0.01, "steps": 8}))
            out = tmp_path / f"out{t0}"
            assert main(["noise-check", "--config", cfg, "--out", str(out)]) == EXIT_OK
            rows = read_rows(out / "noise_covariance.csv")
            columns[t0] = [[row[c] for c in ("empirical", "exact", "stderr", "z")] for row in rows]
            assert float(rows[0]["t"]) == t0 + 0.01
        assert columns[0.0] == columns[0.5]

    def test_covariance_mismatch_exits_consistency(self, tmp_path, monkeypatch):
        import chaoslab.cli as cli_mod

        def fake_table(grid, hurst, n_paths, rng, method="circulant"):
            return [{"t": 0.1, "s": 0.1, "H": hurst, "emp": 2.0,
                     "exact": 0.1, "stderr": 0.01}]

        monkeypatch.setattr(cli_mod, "empirical_covariance_table", fake_table)
        cfg = write_json(tmp_path, "c.json", sim_config(replicas=100))
        out = tmp_path / "out"
        assert main(["noise-check", "--config", cfg, "--out", str(out)]) == EXIT_CONSISTENCY


class TestKernelProbeCommand:
    def torus_config(self):
        return sim_config(
            domain={"kind": "torus", "dim": 2},
            drift=None,
            kernel={"name": "smooth_divfree", "params": {"frequency": 1}},
            initial_law={"name": "uniform", "params": {}},
        )

    def test_smooth_kernel_probe(self, tmp_path, capsys):
        cfg_d = self.torus_config()
        del cfg_d["drift"]
        cfg = write_json(tmp_path, "c.json", cfg_d)
        out = tmp_path / "out"
        assert main(["kernel-probe", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "kernel_probe.csv")
        assert len(rows) == 100
        assert set(rows[0]) == {"x0", "x1", "K0", "K1", "divergence"}
        man = json.loads((out / "manifest.json").read_text())
        assert man["antisymmetry_exact"] is True
        assert man["max_abs_divergence"] < 1e-3
        # the lattice-sum L^p table only applies to the singular kernel
        assert not (out / "kernel_lp.csv").exists()

    def test_periodic_biot_savart_probe(self, tmp_path, capsys):
        cfg_d = self.torus_config()
        cfg_d.update(kernel={"name": "biot_savart_periodic"}, truncation_radius=1, eps=0)
        cfg = write_json(tmp_path, "c.json", cfg_d)
        out = tmp_path / "out"
        assert main(["kernel-probe", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "kernel_probe.csv")
        probes = np.array([[float(r["x0"]), float(r["x1"])] for r in rows])
        vals = np.array([[float(r["K0"]), float(r["K1"])] for r in rows])
        # the probe evaluates the configured kernel, radius and eps bound
        assert np.array_equal(vals, biot_savart_periodic(probes, truncation_radius=1, eps=0.0))
        assert len(read_rows(out / "kernel_lp.csv")) == 8
        assert json.loads((out / "manifest.json").read_text())["config"]["kernel"]["name"] == "biot_savart_periodic"

    def test_requires_kernel_config(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", sim_config())
        assert main(["kernel-probe", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "needs a config with a kernel" in capsys.readouterr().err


class TestPlanConfigs:
    """simulate, noise-check and kernel-probe read a plan's base as their
    simulation config, as run does."""

    COMMANDS = ["simulate", "noise-check", "kernel-probe"]

    def base(self):
        cfg = sim_config(
            domain={"kind": "torus", "dim": 2},
            kernel={"name": "smooth_divfree", "params": {"frequency": 1}},
            initial_law={"name": "uniform", "params": {}},
            grid={"t0": 0.0, "dt": 0.01, "steps": 4},
            replicas=200,
        )
        del cfg["drift"]
        return cfg

    @pytest.mark.parametrize("command, name", [
        ("noise-check", "fractional_h030.json"),
        ("kernel-probe", "smooth_torus.json"),
    ])
    def test_readme_commands_run_on_the_shipped_plans(self, tmp_path, capsys, command, name):
        path = Path(__file__).resolve().parents[1] / "scripts" / "configs" / name
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("command", COMMANDS)
    def test_plan_writes_the_bytes_of_its_base(self, tmp_path, capsys, command):
        configs = {
            "bare": self.base(),
            "plan": {"base": self.base(), "sweep": {"n": [4]}, "picard": {"m": 100}},
        }
        codes = {}
        for name, data in configs.items():
            cfg = write_json(tmp_path, f"{name}.json", data)
            codes[name] = main([command, "--config", cfg, "--out", str(tmp_path / name)])
        assert codes == {"bare": EXIT_OK, "plan": EXIT_OK}
        files = sorted(os.listdir(tmp_path / "bare"))
        assert files == sorted(os.listdir(tmp_path / "plan"))
        for fname in files:
            assert (tmp_path / "bare" / fname).read_bytes() == (tmp_path / "plan" / fname).read_bytes()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_plan_with_an_unknown_key_fails_closed(self, tmp_path, capsys, command):
        cfg = write_json(tmp_path, "p.json", {"base": self.base(), "sweep": {"n": [4]}, "picard_m": 100})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "picard_m" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRunAllScript:
    def test_killed_run_is_a_failure(self, tmp_path, monkeypatch, capsys):
        # a run killed by signal 9 counts as exit 128 + 9, as in a shell
        path = Path(__file__).resolve().parents[1] / "scripts" / "run_all.py"
        spec = importlib.util.spec_from_file_location("run_all", path)
        run_all = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run_all)
        (tmp_path / "c.json").write_text("{}")
        monkeypatch.setattr(run_all, "CONFIG_DIR", tmp_path)
        monkeypatch.setattr(sys, "argv", ["run_all.py", "--out", str(tmp_path / "out")])
        popen = subprocess.Popen
        suicide = [sys.executable, "-c", "import os, signal; os.kill(os.getpid(), signal.SIGKILL)"]
        monkeypatch.setattr(subprocess, "Popen", lambda cmd: popen(suicide))
        assert run_all.main() == 137
        assert "killed by signal 9" in capsys.readouterr().err


class TestRateFitCommand:
    def entropy_csv(self, tmp_path):
        path = tmp_path / "entropy.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "n", "k", "estimator", "value", "stderr",
                             "ess", "eps", "dt", "seed"])
            for n in (16, 32, 64, 128):
                writer.writerow([0.25, n, 1, "girsanov", 3.0 / n**2, 1e-4,
                                 "", 0.01, 1e-3, 7])
                writer.writerow([0.25, n, 1, "knn", 9.9, 1e-4, "", 0.01, 1e-3, 7])
                writer.writerow([0.5, n, 1, "girsanov", 1.0, 1e-4, "", 0.01, 1e-3, 7])
        return str(path)

    def test_fit_with_filters(self, tmp_path, capsys):
        data = self.entropy_csv(tmp_path)
        cfg = write_json(tmp_path, "r.json", {
            "input": data, "axis": "n",
            "filter": {"estimator": "girsanov", "k": 1, "t": 0.25},
        })
        out = tmp_path / "out"
        assert main(["rate-fit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        fit = json.loads((out / "manifest.json").read_text())
        assert abs(fit["slope"] + 2.0) < 1e-9
        assert fit["n_points"] == 4
        assert fit["config"]["axis"] == "n"
        assert "slope = -2.0000" in capsys.readouterr().out

    def test_missing_input_and_bad_keys(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "r.json", {"input": str(tmp_path / "no.csv")})
        assert main(["rate-fit", "--config", cfg,
                     "--out", str(tmp_path / "o1")]) == EXIT_CONFIG
        assert "input CSV not found" in capsys.readouterr().err
        data = self.entropy_csv(tmp_path)
        bad_axis = write_json(tmp_path, "r2.json", {"input": data, "axis": "m"})
        assert main(["rate-fit", "--config", bad_axis,
                     "--out", str(tmp_path / "o2")]) == EXIT_CONFIG
        bad_filter = write_json(tmp_path, "r3.json",
                                {"input": data, "filter": {"species": 1}})
        assert main(["rate-fit", "--config", bad_filter,
                     "--out", str(tmp_path / "o3")]) == EXIT_CONFIG

    def test_non_integral_k_filter_rejected(self, tmp_path, capsys):
        data = self.entropy_csv(tmp_path)
        cfg = write_json(tmp_path, "r.json", {
            "input": data, "filter": {"estimator": "girsanov", "k": 1.5, "t": 0.25},
        })
        assert main(["rate-fit", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "key 'k'" in capsys.readouterr().err

    def test_non_finite_t_filter_rejected(self, tmp_path, capsys):
        data = self.entropy_csv(tmp_path)
        cfg = write_json(tmp_path, "r.json", {"input": data, "filter": {"t": float("nan")}})
        assert main(["rate-fit", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "key 't'" in capsys.readouterr().err

    def test_missing_column_named(self, tmp_path, capsys):
        bounds = tmp_path / "bounds.csv"
        bounds.write_text("n,k,t,closed_form,cascade,C,gamma,M\n8,1,0.1,0.5,0.1,1.0,1.0,1.0\n")
        cfg = write_json(tmp_path, "r.json", {"input": str(bounds)})
        assert main(["rate-fit", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "lacks column(s) ['estimator', 'value']" in capsys.readouterr().err

    def test_unreadable_input_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "r.json", {"input": str(tmp_path)})
        assert main(["rate-fit", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "input CSV unreadable" in capsys.readouterr().err
        short = tmp_path / "short.csv"
        short.write_text("t,n,k,estimator,value\n0.1,8,1,girsanov\n")
        cfg = write_json(tmp_path, "r2.json", {"input": str(short)})
        assert main(["rate-fit", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "data row 1" in capsys.readouterr().err

    def test_too_few_points_is_config_error(self, tmp_path, capsys):
        data = self.entropy_csv(tmp_path)
        cfg = write_json(tmp_path, "r.json", {
            "input": data, "filter": {"estimator": "girsanov", "t": 0.25, "n": 16},
        })
        assert main(["rate-fit", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "usable points" in capsys.readouterr().err


def small_plan():
    return {
        "base": sim_config(replicas=100, grid={"t0": 0.0, "dt": 0.01, "steps": 8}, truncation_radius=8),
        "sweep": {"n": [4], "k": [1, 2]},
        "picard": {"m": 100, "iters": 1},
        "knn": {"neighbors": 3, "samples": 100},
        "tv": {"bins": 4},
        "bounds": {"C0": 0.05},
    }


def torus_kernel_config():
    cfg = sim_config(
        domain={"kind": "torus", "dim": 2},
        kernel={"name": "smooth_divfree", "params": {"frequency": 2}},
        initial_law={"name": "uniform", "params": {}},
    )
    del cfg["drift"]
    return cfg


def torus_plan():
    """small_plan on the torus, under the smooth_divfree kernel at frequency 1."""
    data = small_plan()
    data["base"] = {**torus_kernel_config(), "replicas": 100, "grid": data["base"]["grid"]}
    data["base"]["kernel"]["params"]["frequency"] = 1
    return data


def bounds_config():
    return {"C0": 0.05, "gamma": 1.0, "M": 1.0, "T": 0.5, "n": [6], "k": [2],
            "horizons": [{"kappa": 1.0, "beta": 2.0}]}


def rate_fit_config(tmp_path, axis="n", filt=None):
    # H = k / n^2 on a 4 x 3 (n, k) lattice, written once per test
    path = tmp_path / "entropy.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "n", "k", "estimator", "value"])
        for n in (16, 32, 64, 128):
            for k in (1, 2, 4):
                writer.writerow([0.5, n, k, "girsanov", k / n**2])
    return {"input": str(path), "axis": axis, "filter": filt if filt is not None else {"k": 2}}


# command -> its config builder; every command writes manifest.json
COMMAND_CONFIGS = {
    "run": lambda tmp_path: small_plan(),
    "simulate": lambda tmp_path: sim_config(replicas=3),
    "noise-check": lambda tmp_path: sim_config(replicas=200, grid={"t0": 0.0, "dt": 0.01, "steps": 4}),
    "kernel-probe": lambda tmp_path: torus_kernel_config(),
    "bounds": lambda tmp_path: bounds_config(),
    "rate-fit": rate_fit_config,
}


def _at(data, path):
    """The container holding path's last key, and that key."""
    for key in path[:-1]:
        data = data[key]
    return data, path[-1]


def _run_command(tmp_path, command, data, name):
    cfg = write_json(tmp_path, f"{name}.json", data)
    return main([command, "--config", cfg, "--out", str(tmp_path / name)])


@pytest.mark.filterwarnings("ignore:only \\d+ replicas")
class TestOneReader:
    """Every command reads its JSON through core._pop_key and
    core._reject_unknown: one integer rule, one null rule, one message for
    an unknown key."""

    @pytest.mark.parametrize(
        "command,path,where",
        [
            ("run", ("base", "bogus"), "config"),
            ("run", ("base", "domain", "bogus"), "domain"),
            ("run", ("base", "grid", "bogus"), "grid"),
            ("run", ("base", "noise", "bogus"), "noise"),
            ("run", ("base", "initial_law", "bogus"), "initial_law"),
            ("run", ("base", "initial_law", "params", "bogus"), "initial_law.params"),
            ("run", ("base", "drift", "bogus"), "drift"),
            ("run", ("base", "drift", "params", "bogus"), "drift.params"),
            ("kernel-probe", ("kernel", "params", "bogus"), "kernel.params"),
            ("run", ("bogus",), "plan"),
            ("run", ("sweep", "bogus"), "sweep"),
            ("run", ("picard", "bogus"), "picard"),
            ("run", ("knn", "bogus"), "knn"),
            ("run", ("tv", "bogus"), "tv"),
            ("run", ("bounds", "bogus"), "bounds"),
            ("bounds", ("bogus",), "bounds config"),
            ("bounds", ("horizons", 0, "bogus"), "bounds config: horizons[0]"),
            ("rate-fit", ("bogus",), "rate-fit config"),
            ("rate-fit", ("filter", "bogus"), "rate-fit filter"),
        ],
    )
    def test_unknown_key_has_one_message(self, tmp_path, capsys, command, path, where):
        data = COMMAND_CONFIGS[command](tmp_path)
        node, key = _at(data, path)
        node[key] = 1
        assert _run_command(tmp_path, command, data, "out") == EXIT_CONFIG
        assert f"config error: {where}: unknown keys ['bogus']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,path",
        [
            ("run", ("base", "domain", "dim")),
            ("run", ("base", "grid", "steps")),
            ("run", ("base", "n_particles")),
            ("run", ("base", "seed")),
            ("run", ("base", "replicas")),
            ("run", ("base", "truncation_radius")),
            ("run", ("sweep", "n", 0)),
            ("run", ("sweep", "k", 1)),
            ("run", ("picard", "m")),
            ("run", ("picard", "iters")),
            ("run", ("knn", "neighbors")),
            ("run", ("knn", "samples")),
            ("run", ("tv", "bins")),
            ("kernel-probe", ("kernel", "params", "frequency")),
            ("bounds", ("n", 0)),
            ("bounds", ("k", 0)),
            ("rate-fit", ("filter", "k")),
            ("rate-fit", ("filter", "n")),
            ("run", ("base", "kernel", "params", "frequency")),
        ],
    )
    def test_integer_keys_take_integral_numbers_only(self, tmp_path, capsys, command, path):
        data = COMMAND_CONFIGS[command](tmp_path)
        if path == ("filter", "n"):
            data = rate_fit_config(tmp_path, axis="k", filt={"n": 32})
        if path[:2] == ("base", "kernel"):
            data = torus_plan()
        node, key = _at(data, path)
        value = node[key]
        assert type(value) is int
        codes = {"int": _run_command(tmp_path, command, data, "int")}
        node[key] = float(value)
        codes["float"] = _run_command(tmp_path, command, data, "float")
        assert codes["float"] == codes["int"] in (EXIT_OK, EXIT_CONSISTENCY)
        files = sorted(os.listdir(tmp_path / "int"))
        assert "manifest.json" in files and files == sorted(os.listdir(tmp_path / "float"))
        for fname in files:
            assert (tmp_path / "int" / fname).read_bytes() == (tmp_path / "float" / fname).read_bytes(), fname
        name = next(k for k in reversed(path) if isinstance(k, str))
        capsys.readouterr()
        for bad in (value + 0.5, True):
            node[key] = bad
            assert _run_command(tmp_path, command, data, "bad") == EXIT_CONFIG
            assert f"key {name!r}: expected an integer, got {bad!r}" in capsys.readouterr().err
            assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "command,path",
        [
            ("run", ("picard",)),
            ("run", ("estimators",)),
            ("run", ("base", "eps")),
            ("run", ("base", "grid", "t0")),
            ("run", ("base", "initial_law", "params", "sigma")),
            ("kernel-probe", ("kernel", "params", "frequency")),
            ("bounds", ("k",)),
            ("bounds", ("horizons", 0, "C")),
            ("rate-fit", ("filter",)),
        ],
    )
    def test_null_on_an_optional_key_is_absent(self, tmp_path, capsys, command, path):
        data = COMMAND_CONFIGS[command](tmp_path)
        node, key = _at(data, path)
        node.pop(key, None)
        absent = _run_command(tmp_path, command, data, "absent")
        node[key] = None
        assert _run_command(tmp_path, command, data, "null") == absent != EXIT_CONFIG
        files = sorted(os.listdir(tmp_path / "absent"))
        assert files == sorted(os.listdir(tmp_path / "null"))
        for fname in files:
            assert (tmp_path / "absent" / fname).read_bytes() == (tmp_path / "null" / fname).read_bytes(), fname

    @pytest.mark.parametrize(
        "command,path,where",
        [
            ("run", ("base", "seed"), "config"),
            ("run", ("base", "grid", "dt"), "grid"),
            ("run", ("sweep",), "plan"),
            ("kernel-probe", ("kernel", "name"), "kernel"),
            ("bounds", ("T",), "bounds config"),
            ("bounds", ("horizons", 0, "beta"), "bounds config: horizons[0]"),
            ("rate-fit", ("input",), "rate-fit config"),
        ],
    )
    def test_null_on_a_required_key_is_missing(self, tmp_path, capsys, command, path, where):
        data = COMMAND_CONFIGS[command](tmp_path)
        node, key = _at(data, path)
        node[key] = None
        assert _run_command(tmp_path, command, data, "out") == EXIT_CONFIG
        assert f"config error: {where}: missing required key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", sorted(p.name for p in SHIPPED_CONFIG_DIR.glob("*.json")))
    def test_load_plan_is_the_plan_run_runs(self, tmp_path, monkeypatch, name):
        # the plan run runs is the one that reaches run_experiment; the
        # file's base alone is a bare config, run as its one-point plan
        ran = []
        monkeypatch.setattr(cli, "run_experiment", lambda plan, threads: ran.append(plan) or RunResult())
        data = load_json(SHIPPED_CONFIG_DIR / name)
        for part, content in (("plan", data), ("base", data["base"])):
            path = write_json(tmp_path, f"{part}.json", content)
            assert main(["run", "--config", path, "--out", str(tmp_path / part)]) == EXIT_OK
            assert ran.pop() == load_plan(path)
        assert load_plan(path).sweep_n == (data["base"]["n_particles"],)

    def test_a_null_kernel_param_runs_the_bytes_of_its_absence(self, tmp_path):
        # test_null_on_an_optional_key_is_absent covers a drift plan's initial-law param
        data = small_plan()
        data["base"] = {**torus_kernel_config(), "replicas": 100, "grid": data["base"]["grid"]}
        node = data["base"]["kernel"]["params"]
        node.pop("frequency")
        absent = copy.deepcopy(data)
        node["frequency"] = None
        assert config_from_dict(data["base"]) == config_from_dict(absent["base"])
        codes = {name: _run_command(tmp_path, "run", plan, name) for name, plan in (("absent", absent), ("null", data))}
        assert codes["absent"] == codes["null"] in (EXIT_OK, EXIT_CONSISTENCY)
        for fname in (*(f"{name}.csv" for name in TABLES), "manifest.json"):
            assert (tmp_path / "absent" / fname).read_bytes() == (tmp_path / "null" / fname).read_bytes(), fname

    def test_every_manifest_has_the_same_header(self, tmp_path):
        env = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
        }
        for command, build in COMMAND_CONFIGS.items():
            assert _run_command(tmp_path, command, build(tmp_path), command) in (EXIT_OK, EXIT_CONSISTENCY)
            man = json.loads((tmp_path / command / "manifest.json").read_text())
            assert (man["command"], man["version"], man["environment"]) == (command, __version__, env)


class TestManifests:
    """Every manifest holds the command's input as read, then what the command found."""

    @pytest.mark.filterwarnings("ignore:only \\d+ replicas")
    @pytest.mark.parametrize("command", list(COMMAND_CONFIGS))
    def test_a_manifests_input_runs_to_the_same_files(self, tmp_path, command):
        data = COMMAND_CONFIGS[command](tmp_path)
        assert _run_command(tmp_path, command, data, "first") in (EXIT_OK, EXIT_CONSISTENCY)
        man = json.loads((tmp_path / "first" / "manifest.json").read_text())
        again = man["plan" if command == "run" else "config"]
        assert _run_command(tmp_path, command, again, "again") in (EXIT_OK, EXIT_CONSISTENCY)
        files = sorted(os.listdir(tmp_path / "first"))
        assert files == sorted(os.listdir(tmp_path / "again"))
        for fname in files:
            assert (tmp_path / "first" / fname).read_bytes() == (tmp_path / "again" / fname).read_bytes(), fname

    @pytest.mark.filterwarnings("ignore:only \\d+ replicas")
    def test_runs_plan_parses_back_to_the_plan_that_ran(self, tmp_path):
        path = write_json(tmp_path, "p.json", small_plan())
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"), "--seed", "5"]) == EXIT_OK
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        plan = load_plan(path)
        assert plan_from_dict(man["plan"]) == replace(plan, base=replace(plan.base, seed=5))
        assert set(man) == {"command", "version", "environment", "plan", "points", "errors", "row_counts"}
        assert set(man["points"]) == {"4"}
        assert set(man["points"]["4"]) == {"picard_residuals", "picard_non_convergent"}

    @pytest.mark.parametrize("command", ["simulate", "noise-check", "kernel-probe"])
    def test_a_simulation_config_parses_back_to_the_config_that_ran(self, tmp_path, command):
        data = COMMAND_CONFIGS[command](tmp_path)
        assert _run_command(tmp_path, command, data, "out") in (EXIT_OK, EXIT_CONSISTENCY)
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert config_from_dict(man["config"]) == config_from_dict(data)

    def test_bounds_writes_its_config_as_read(self, tmp_path):
        data = {**bounds_config(), "n": [6.0], "C0": 1, "horizons": [{"kappa": 1, "beta": 2.0}]}
        assert _run_command(tmp_path, "bounds", data, "out") == EXIT_OK
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        horizon = {"kappa": 1.0, "beta": 2.0, "regime": "brownian", "hurst": None, "C": 16.0}
        assert man["config"] == {"C0": 1.0, "gamma": 1.0, "M": 1.0, "T": 0.5, "n": [6], "k": [2], "dt": 1e-3,
                                 "horizons": [horizon]}

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_a_failing_point_is_named_by_its_n(self, tmp_path):
        # perfbench reads the failed points from the top-level errors
        data = small_plan()
        # per-step growth factor ~1e28 overflows the state within 20 steps
        data["base"].update(drift={"name": "restoring_b0", "params": {"rate": -1e30}},
                            grid={"t0": 0.0, "dt": 0.01, "steps": 20})
        assert _run_command(tmp_path, "run", data, "out") == EXIT_BLOWUP
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [(err["n"], err["kind"]) for err in man["errors"]] == [(4, "blowup")]
        assert man["points"] == {} and man["row_counts"]["entropy"] == 0


class TestPublicSurface:
    def test_exported_names_resolve_and_entropy_is_gone(self, tmp_path):
        for name in ("bounds", "measure"):
            module = importlib.import_module(f"chaoslab.{name}")
            for attr in module.__all__:
                assert hasattr(module, attr), (name, attr)
        # run with a plan naming its estimators replaces the old subcommand
        cfg = write_json(tmp_path, "c.json", sim_config())
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--config", cfg, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_each_subcommand_takes_only_the_flags_it_reads(self, tmp_path, capsys):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        plain = {"--config", "--out"}
        assert flags == {
            "simulate": plain | {"--seed"},
            "bounds": plain,
            "noise-check": plain | {"--seed"},
            "kernel-probe": plain | {"--seed"},
            "rate-fit": plain,
            "run": plain | {"--seed", "--threads"},
        }
        cfg = write_json(tmp_path, "c.json", sim_config())
        for argv in (["bounds", "--seed", "1"], ["rate-fit", "--threads", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--config", cfg])
            assert exc.value.code == 2
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "0"]) == EXIT_CONFIG
        assert "threads must be >= 1, got 0" in capsys.readouterr().err
