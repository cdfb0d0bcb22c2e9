"""End-to-end command-line behavior through in-process main(argv).

Each test drives a real subcommand against a temp config and inspects the
exit code, the files written under --out, and the messages, so the public
contract (codes 0/2/3/4/5, CSV schemas, manifest fields) is pinned here.
"""

import csv
import json
import os

import numpy as np
import pytest

from chaoslab.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_CONSISTENCY,
    EXIT_OK,
    EXIT_UNRELIABLE,
    _default_threads,
    _finish_run,
    main,
)
from chaoslab.experiment import RunResult


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
        cfg = write_json(tmp_path, "c.json", sim_config())
        out = tmp_path / "out"
        code = main(["entropy", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out / "entropy.csv")
        assert {r["estimator"] for r in rows} == {"girsanov", "knn"}
        man = json.loads((out / "manifest.json").read_text())
        assert man["estimators"] == ["girsanov", "knn"]

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

    def test_threads_do_not_change_bytes(self, tmp_path):
        cfg = write_json(tmp_path, "p.json", self.plan_dict())
        for name, threads in (("t1", "1"), ("t2", "2")):
            assert main(["run", "--config", cfg, "--out",
                         str(tmp_path / name), "--threads", threads]) == EXIT_OK
        for fname in ("entropy.csv", "bounds.csv", "checks.csv",
                      "horizons.csv", "manifest.json"):
            assert (tmp_path / "t1" / fname).read_bytes() == (tmp_path / "t2" / fname).read_bytes()


class TestFinishRunPriority:
    def result(self, **over):
        res = RunResult()
        res.manifest = {"label": "x"}
        for key, val in over.items():
            setattr(res, key, val)
        return res

    def test_blowup_beats_everything(self, tmp_path, capsys):
        res = self.result(any_blowup=True, any_check_failed=True,
                          any_unreliable=True,
                          errors=[{"n": 4, "kind": "blowup", "error": "boom"}])
        assert _finish_run(res, str(tmp_path / "o")) == EXIT_BLOWUP
        assert "failed (blowup)" in capsys.readouterr().err

    def test_failed_check_row_returns_consistency(self, tmp_path, capsys):
        row = {"n": 4, "k": 1, "t": 0.1, "check": "pinsker", "passed": False,
               "margin": -0.2, "value": 1.0, "threshold": 0.8}
        res = self.result(check_rows=[row], any_unreliable=True)
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
        assert _finish_run(self.result(), str(tmp_path / "o")) == EXIT_OK
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
        assert man["hurst"] == 0.5
        assert "worst |z|" in capsys.readouterr().out

    def test_fractional_hurst_from_config(self, tmp_path):
        cfg = write_json(tmp_path, "c.json",
                         sim_config(noise={"kind": "fbm", "hurst": 0.3},
                                    replicas=2000,
                                    grid={"t0": 0.0, "dt": 0.01, "steps": 8}))
        out = tmp_path / "out"
        assert main(["noise-check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        man = json.loads((out / "manifest.json").read_text())
        assert man["hurst"] == 0.3

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

    def test_requires_kernel_config(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", sim_config())
        assert main(["kernel-probe", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "needs a config with a kernel" in capsys.readouterr().err


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
        fit = json.loads((out / "rate_fit.json").read_text())
        assert abs(fit["slope"] + 2.0) < 1e-9
        assert fit["n_points"] == 4
        assert fit["axis"] == "n"
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

    def test_too_few_points_is_config_error(self, tmp_path, capsys):
        data = self.entropy_csv(tmp_path)
        cfg = write_json(tmp_path, "r.json", {
            "input": data, "filter": {"estimator": "girsanov", "t": 0.25, "n": 16},
        })
        assert main(["rate-fit", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "usable points" in capsys.readouterr().err


class TestThreadDefaults:
    def test_env_variable_respected(self, monkeypatch):
        monkeypatch.setenv("CHAOSLAB_THREADS", "3")
        assert _default_threads() == 3
        monkeypatch.setenv("CHAOSLAB_THREADS", "junk")
        assert _default_threads() == 1
        monkeypatch.setenv("CHAOSLAB_THREADS", "0")
        assert _default_threads() == 1
        monkeypatch.delenv("CHAOSLAB_THREADS")
        assert _default_threads() == 1
