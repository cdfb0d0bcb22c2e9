"""Sweep orchestration: plan parsing, row assembly, rate fits, CSV output."""

import copy
import csv
import json
import math
import os
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

from chaoslab import __version__, experiment
from chaoslab.core import ConfigError, RngStream
from chaoslab.dynamics import sample_reference_marginals, simulate_particle_system, solve_mckean_vlasov_picard
from chaoslab.experiment import (
    TABLES,
    ExperimentPlan,
    RunResult,
    _fmt,
    fit_rate,
    load_plan,
    plan_as_dict,
    plan_from_dict,
    run_experiment,
    table_row,
    write_result,
)

ROOT = Path(__file__).resolve().parents[1]
# the shipped plans and the benchmark's own
PLAN_FILES = [*sorted((ROOT / "scripts" / "configs").glob("*.json")),
              ROOT / "perfbench" / "configs" / "generic_pair.json"]


def make_plan_dict():
    return {
        "label": "toy",
        "base": {
            "domain": {"kind": "euclidean", "dim": 1},
            "drift": {"name": "linear_pair", "params": {}},
            "n_particles": 4,
            "grid": {"t0": 0.0, "dt": 0.005, "steps": 20},
            "noise": {"kind": "brownian"},
            "initial_law": {"name": "gaussian", "params": {"mean": [0.2], "sigma": 0.5}},
            "seed": 97,
            "replicas": 400,
        },
        "sweep": {"n": [4, 6], "k": [1, 2], "t": [0.05, 0.1]},
        "estimators": ["girsanov", "knn", "histogram_tv"],
        "picard": {"m": 300, "iters": 2},
        "knn": {"neighbors": 4, "samples": 300},
        "tv": {"bins": 8},
        "bounds": {"C0": 0.05, "gamma": 1.0, "M": 1.0, "kappa": 1.0},
    }


class TestFitRate:
    def test_exact_inverse_square(self):
        pts = [(n, 3.0 / n**2) for n in (16, 32, 64, 128)]
        fit = fit_rate(pts)
        assert abs(fit.slope + 2.0) < 1e-9
        assert abs(fit.intercept - math.log(3.0)) < 1e-9
        assert fit.r_squared > 1.0 - 1e-12
        assert fit.n_points == 4 and fit.n_excluded == 0
        assert not fit.no_trend

    def test_exact_linear_growth(self):
        fit = fit_rate([(k, k / 50.0) for k in (1, 2, 4, 8)], axis="k")
        assert abs(fit.slope - 1.0) < 1e-9
        assert fit.axis == "k"

    def test_nonpositive_points_excluded(self):
        pts = [(16, 1.0), (32, 0.25), (64, 0.0625), (128, -0.01), (256, 0.0)]
        fit = fit_rate(pts)
        assert fit.n_points == 3 and fit.n_excluded == 2
        assert abs(fit.slope + 2.0) < 1e-9

    def test_too_few_usable_points(self):
        with pytest.raises(ValueError, match="need >= 3 usable points, have 1 \\(3 excluded\\)"):
            fit_rate([(16, 1.0), (32, -1.0), (64, 0.0), (128, math.nan)])

    def test_constant_input_flags_no_trend(self):
        fit = fit_rate([(n, 0.7) for n in (2, 4, 8)])
        assert fit.no_trend
        assert fit.slope == 0.0
        assert fit.r_squared == 0.0
        assert math.isclose(fit.intercept, math.log(0.7), rel_tol=1e-12)

    @given(
        st.floats(-3.0, 3.0),
        st.floats(0.1, 10.0),
    )
    def test_recovers_power_law(self, slope, amp):
        pts = [(float(2**j), amp * float(2**j) ** slope) for j in range(5)]
        fit = fit_rate(pts)
        assert abs(fit.slope - slope) < 1e-9
        assert abs(fit.intercept - math.log(amp)) < 1e-9


class TestPlanParsing:
    def test_round_trip_and_defaults(self):
        plan = plan_from_dict(
            {"base": make_plan_dict()["base"], "sweep": {"n": [4]}}
        )
        assert plan.sweep_n == (4,)
        assert plan.sweep_k == (1,)
        assert plan.sweep_t == (plan.base.grid.terminal,)
        assert plan.estimators == ("girsanov", "knn", "histogram_tv")
        assert (plan.picard_m, plan.picard_iters) == (10_000, 3)
        assert (plan.knn_neighbors, plan.knn_samples) == (4, 10_000)
        assert plan.tv_bins == 32
        assert (plan.bound_c0, plan.bound_gamma, plan.bound_m, plan.kappa) == (0.05, 1.0, 1.0, 1.0)
        assert plan.label == "run"

    def test_full_dict_parsed(self):
        plan = plan_from_dict(make_plan_dict())
        assert plan.label == "toy"
        assert plan.sweep_n == (4, 6)
        assert plan.sweep_k == (1, 2)
        assert plan.sweep_t == (0.05, 0.1)
        assert plan.estimators == ("girsanov", "knn", "histogram_tv")
        assert plan.picard_m == 300

    @pytest.mark.parametrize("path", PLAN_FILES, ids=lambda path: path.stem)
    def test_plan_as_dict_reads_back_to_the_plan(self, path):
        plan = load_plan(path)
        data = json.loads(json.dumps(plan_as_dict(plan)))
        assert plan_from_dict(data) == plan
        assert plan_as_dict(plan_from_dict(data)) == data

    def test_input_dict_not_mutated(self):
        data = make_plan_dict()
        snapshot = copy.deepcopy(data)
        plan_from_dict(data)
        assert data == snapshot

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d.__setitem__("extra", 1), "plan: unknown keys"),
            (lambda d: d["sweep"].__setitem__("m", [1]), "sweep: unknown keys"),
            (lambda d: d["picard"].__setitem__("tol", 0.1), "picard: unknown keys"),
            (lambda d: d["knn"].__setitem__("metric", "l2"), "knn: unknown keys"),
            (lambda d: d["tv"].__setitem__("range", 2), "tv: unknown keys"),
            (lambda d: d["bounds"].__setitem__("alpha", 0.0), "bounds: unknown keys"),
            (lambda d: d.__setitem__("estimators", ["girsanov", "mine"]), "unknown estimator"),
            (lambda d: d["sweep"].__setitem__("k", [5]), "exceeds the smallest"),
            (lambda d: d["sweep"].__setitem__("k", [0]), "k must be >= 1"),
            (lambda d: d["sweep"].__setitem__("n", [1]), "n must be >= 2"),
            (lambda d: d["sweep"].__setitem__("t", [0.033]), "not a grid point"),
            (lambda d: d["sweep"].__setitem__("t", []), "sweep_t must not be empty"),
            (lambda d: d["picard"].__setitem__("m", 50), "picard_m"),
            (lambda d: d["picard"].__setitem__("iters", 0), "picard_iters"),
            (lambda d: d["sweep"].__setitem__("t", ["0.1"]), "sweep: key 't'"),
            (lambda d: d["sweep"].__setitem__("t", [True]), "sweep: key 't'"),
            (lambda d: d["bounds"].__setitem__("C0", 10**400), "bounds: key 'C0'"),
            (lambda d: d["base"]["initial_law"]["params"].__setitem__("sigma", "0.5"), "key 'sigma'"),
            (lambda d: d["base"]["initial_law"]["params"].__setitem__("mean", [0.2, 0.0]), "one entry per dimension"),
            (lambda d: d["knn"].__setitem__("samples", 99), "knn samples must be >= 100"),
            (lambda d: d["knn"].__setitem__("neighbors", 0), "knn neighbors must be >= 1"),
            (lambda d: d["tv"].__setitem__("bins", 1), "tv bins must be >= 2"),
            (lambda d: d["sweep"].__setitem__("k", []), "sweep_k must not be empty"),
            (lambda d: d["sweep"].__setitem__("n", [4, 4]), "sweep_n lists a value twice"),
            (lambda d: d["base"].__setitem__("replicas", 50), "knn estimator needs replicas >= 100, got 50"),
            (
                lambda d: (d["knn"].__setitem__("neighbors", 150), d["base"].__setitem__("replicas", 120)),
                "knn estimator needs replicas >= 151, got 120",
            ),
            (lambda d: d["picard"].__setitem__("iters", 100), "picard_iters must be <= 99"),
            (lambda d: d["sweep"].__setitem__("n", []), "sweep_n must not be empty"),
            (lambda d: d.__setitem__("estimators", []), "estimators must not be empty"),
            (lambda d: d.__setitem__("estimators", ["knn", "knn"]), "estimators lists a value twice"),
            (lambda d: d.__setitem__("estimators", ["girsanov", "knn", "girsanov"]), "estimators lists a value twice"),
        ],
    )
    def test_fail_closed(self, mutate, message):
        data = make_plan_dict()
        mutate(data)
        with pytest.raises(ConfigError, match=message):
            plan_from_dict(data)

    @pytest.mark.parametrize("steps,refused", [(1999, False), (2000, True)])
    def test_the_bounds_cascade_is_counted_as_chaoslab_bounds_counts_it(self, steps, refused):
        # gamma = 0 keeps the grid's dt: T = steps / 1000 is n (steps + 1) values, the
        # 4000 x 2001 cascade that `chaoslab bounds` refuses one step over the bound
        data = make_plan_dict()
        data["base"]["grid"] = {"t0": 0.0, "dt": 1e-3, "steps": steps}
        data["sweep"] = {"n": [4, 4000], "k": [1]}
        data["bounds"]["gamma"] = 0.0
        if refused:
            with pytest.raises(ConfigError, match="swept n = 4000 needs a bounds cascade of more than 8000000 values"):
                plan_from_dict(data)
        else:
            assert plan_from_dict(data).sweep_n == (4, 4000)

    def test_knn_replica_floor_only_binds_the_knn_estimator(self):
        data = make_plan_dict()
        data["base"]["replicas"] = 50
        data["estimators"] = ["girsanov", "histogram_tv"]
        plan = plan_from_dict(data)
        assert plan.base.replicas == 50
        with pytest.raises(ConfigError, match="needs replicas >= 100"):
            replace(plan, estimators=("girsanov", "knn"))

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("sweep", "n", [4, 8.9]),
            ("sweep", "k", [1.5]),
            ("sweep", "k", [True]),
            ("picard", "m", 150.7),
            ("picard", "iters", 2.5),
            ("knn", "neighbors", 4.2),
            ("knn", "samples", 300.5),
            ("tv", "bins", 8.5),
            ("tv", "bins", float("inf")),
        ],
    )
    def test_non_integral_counts_rejected(self, section, key, value):
        data = make_plan_dict()
        data[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}: key '{key}'"):
            plan_from_dict(data)

    def test_integral_floats_parse_as_ints(self):
        data = make_plan_dict()
        data["sweep"]["n"] = [4.0, 6]
        data["picard"]["m"] = 300.0
        plan = plan_from_dict(data)
        assert plan.sweep_n == (4, 6) and all(type(n) is int for n in plan.sweep_n)
        assert plan.picard_m == 300 and type(plan.picard_m) is int

    @pytest.mark.parametrize(
        "path",
        [("picard",), ("knn",), ("tv",), ("bounds",), ("estimators",), ("label",), ("sweep", "k"), ("sweep", "t"),
         ("picard", "m"), ("knn", "samples"), ("bounds", "kappa"), ("base", "eps")],
    )
    def test_null_is_absent(self, path):
        def parent(data):
            for key in path[:-1]:
                data = data[key]
            return data

        null, absent = make_plan_dict(), make_plan_dict()
        parent(null)[path[-1]] = None
        parent(absent).pop(path[-1], None)
        assert plan_from_dict(null) == plan_from_dict(absent)

    def test_load_plan_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(make_plan_dict()))
        plan = load_plan(str(path))
        assert plan.label == "toy"
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_plan(str(bad))
        with pytest.raises(ConfigError, match="config not found"):
            load_plan(str(tmp_path / "missing.json"))

    def test_load_plan_resolves_the_drift(self, tmp_path):
        # a malformed drift fails when the plan is loaded, before any point runs
        data = make_plan_dict()
        data["base"]["drift"] = {"name": "linear_pair", "params": {"strength": 2}}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=r"drift.params: unknown keys \['strength'\]"):
            load_plan(str(path))

    def test_oversized_generic_picard_ensemble_fails_at_load(self, tmp_path):
        # a generic mean field keeps m * (steps + 1) * d path values; past
        # MAX_ENSEMBLE_ELEMENTS the plan is refused before any point runs
        data = make_plan_dict()
        data["base"]["drift"] = {"name": "sign_gated_pair", "params": {}}
        data["base"]["grid"] = {"t0": 0.0, "dt": 0.0025, "steps": 40}
        data["sweep"]["t"] = [0.05]
        data["picard"]["m"] = 200_000
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="picard m = 200000.*reduce m or steps"):
            load_plan(str(path))
        # at exactly the limit, or with a separable drift, the plan parses
        data["base"]["grid"]["steps"] = 39
        assert plan_from_dict(data).picard_m == 200_000
        data["base"]["grid"]["steps"] = 40
        data["base"]["drift"] = {"name": "linear_pair", "params": {}}
        assert plan_from_dict(data).picard_m == 200_000


SHIPPED_PLANS = [
    json.loads(path.read_text())
    for path in sorted((Path(__file__).resolve().parents[1] / "scripts" / "configs").glob("*.json"))
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _containers(node):
    """Every dict and list inside node, with its path."""
    found = [node]
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            found += _containers(child)
    return found


class TestPlanParsingProperty:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_plans_parse_or_fail_closed(self, data):
        # a value replaced by any JSON value, a key dropped or a key added,
        # anywhere in a shipped plan: parsing returns a plan or a ConfigError
        plan = copy.deepcopy(data.draw(st.sampled_from(SHIPPED_PLANS)))
        for _ in range(data.draw(st.integers(1, 3))):
            node = data.draw(st.sampled_from(_containers(plan)))
            op = data.draw(st.sampled_from(["replace", "drop", "add"]))
            if op == "add" or not node:
                if isinstance(node, dict):
                    node[data.draw(st.text(max_size=6))] = data.draw(json_values)
                else:
                    node.append(data.draw(json_values))
                continue
            key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            if op == "drop":
                del node[key]
            else:
                node[key] = data.draw(json_values)
        try:
            parsed = plan_from_dict(plan)
        except ConfigError:
            return
        assert isinstance(parsed, ExperimentPlan)


@pytest.mark.filterwarnings("ignore:only \\d+ replicas")
class TestRunExperiment:
    def test_row_assembly(self):
        plan = plan_from_dict(make_plan_dict())
        result = run_experiment(plan)
        # per n: 2 t x 2 k x 3 estimators (d=1 keeps every k under the TV
        # dimension cap)
        assert len(result.tables["entropy"]) == 2 * 12
        assert len(result.tables["bounds"]) == 2 * 4
        assert len(result.tables["horizons"]) == 2
        # per n: martingale per t, pinsker+subadditivity only at k=1 (the
        # k=2 histogram is too sparse for 300 samples at 8^2 bins)
        per_n = [r for r in result.tables["checks"] if r["n"] == 4]
        assert sum(r["check"] == "martingale" for r in per_n) == 2
        assert sum(r["check"] == "pinsker" for r in per_n) == 2
        assert sum(r["check"] == "subadditivity" for r in per_n) == 2
        assert {r["k"] for r in per_n if r["check"] == "pinsker"} == {1}
        assert not result.errors

    def test_row_schema_and_order(self):
        plan = plan_from_dict(make_plan_dict())
        result = run_experiment(plan)
        row = result.tables["entropy"][0]
        assert set(row) == {"t", "n", "k", "estimator", "value", "stderr",
                            "ess", "eps", "dt", "seed"}
        keys = [(r["t"], r["n"], r["k"], r["estimator"]) for r in result.tables["entropy"]]
        assert keys == sorted(keys)
        bkeys = [(r["n"], r["k"], r["t"]) for r in result.tables["bounds"]]
        assert bkeys == sorted(bkeys)
        for r in result.tables["bounds"]:
            assert r["closed_form"] >= r["cascade"]

    def test_manifest_contents(self):
        plan = plan_from_dict(make_plan_dict())
        result = run_experiment(plan)
        man = result.manifest
        assert man["plan"]["label"] == "toy"
        assert man["plan"]["sweep"] == {"n": [4, 6], "k": [1, 2], "t": [0.05, 0.1]}
        assert set(man["points"]) == {"4", "6"}
        assert man["points"]["4"]["picard_residuals"]
        assert man["row_counts"]["entropy"] == len(result.tables["entropy"])
        assert man["errors"] == []

    def test_thread_count_does_not_change_rows(self):
        plan = plan_from_dict(make_plan_dict())
        a = run_experiment(plan, threads=1)
        b = run_experiment(plan, threads=3)
        assert a.tables["entropy"] == b.tables["entropy"]
        assert a.tables["bounds"] == b.tables["bounds"]
        assert a.tables["horizons"] == b.tables["horizons"]
        assert a.tables["checks"] == b.tables["checks"]
        assert a.manifest == b.manifest

    def test_fbm_at_hurst_half_writes_the_brownian_rows(self, tmp_path):
        # fBm with H = 1/2 is Brownian motion: the sampler, the weights and
        # the horizons row all decide by NoiseSpec.fractional
        paths = {}
        for name, noise in (("fbm", {"kind": "fbm", "hurst": 0.5}), ("brownian", {"kind": "brownian"})):
            data = make_plan_dict()
            data["base"]["noise"] = noise
            paths[name] = write_result(run_experiment(plan_from_dict(data)), str(tmp_path / name))
        for fname in ("entropy.csv", "bounds.csv", "horizons.csv", "checks.csv"):
            assert open(paths["fbm"][fname], "rb").read() == open(paths["brownian"][fname], "rb").read(), fname

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_blowup_point_isolated(self):
        data = make_plan_dict()
        # per-step growth factor ~5e27 overflows the state within 20 steps
        data["base"]["drift"] = {"name": "restoring_b0", "params": {"rate": -1e30}}
        data["estimators"] = ["girsanov"]
        data["sweep"] = {"n": [4, 6], "k": [1], "t": [0.1]}
        plan = plan_from_dict(data)
        result = run_experiment(plan)
        assert {e["n"] for e in result.errors} == {4, 6}
        assert all(e["kind"] == "blowup" for e in result.errors)
        assert "non-finite" in result.errors[0]["error"]
        assert result.tables["entropy"] == []
        assert result.manifest["errors"] == result.errors

    @pytest.mark.parametrize("noise", [{"kind": "brownian"}, {"kind": "fbm", "hurst": 0.3}], ids=["brownian", "fbm"])
    def test_the_grid_start_labels_the_rows_only(self, noise):
        # everything after the grid start reads the time elapsed since it: a plan
        # shifted to t0 = 0.5 writes the rows of t0 = 0 bit for bit, apart from t
        written = {}
        for t0, times in ((0.0, [0.05, 0.1]), (0.5, [0.55, 0.6])):
            data = make_plan_dict()
            data["base"].update(noise=noise, replicas=200, grid={"t0": t0, "dt": 0.01, "steps": 10})
            data.update(sweep={"n": [4], "k": [1, 2], "t": times}, knn={"neighbors": 4, "samples": 200})
            result = run_experiment(plan_from_dict(data))
            assert not result.errors
            written[t0] = {name: [[_fmt(r[c]) for c in TABLES[name][0] if c != "t"] for r in rows]
                           for name, rows in result.tables.items()}
            if t0:
                assert {r["t"] for r in result.tables["bounds"]} == {r["t"] for r in result.tables["entropy"]}
        for name in TABLES:
            assert written[0.5][name] and written[0.5][name] == written[0.0][name], name


def _run_with(estimators):
    data = make_plan_dict()
    data["estimators"] = estimators
    return run_experiment(plan_from_dict(data)).tables


@pytest.mark.filterwarnings("ignore:only \\d+ replicas")
class TestEstimators:
    """Each estimator is one ESTIMATORS entry; a sweep point runs each stage
    the plan's estimators read once and makes each (estimator, k, t) report
    once, and every row and check reads those reports."""

    def test_an_estimator_subset_writes_the_full_plans_rows(self):
        full = _run_with(["girsanov", "knn", "histogram_tv"])
        girsanov = _run_with(["girsanov"])
        assert girsanov["entropy"] == [r for r in full["entropy"] if r["estimator"] == "girsanov"]
        assert girsanov["checks"] == [r for r in full["checks"] if r["check"] == "martingale"]
        assert girsanov["horizons"] == full["horizons"]
        samples = _run_with(["knn", "histogram_tv"])
        assert samples["entropy"] == [r for r in full["entropy"] if r["estimator"] != "girsanov"]
        assert samples["checks"] == samples["horizons"] == []
        assert girsanov["bounds"] == samples["bounds"] == full["bounds"]

    def test_the_estimator_order_moves_no_row(self):
        assert _run_with(["histogram_tv", "knn", "girsanov"]) == _run_with(["girsanov", "knn", "histogram_tv"])

    def test_each_girsanov_report_is_made_once(self, monkeypatch):
        # with kNN off the checks read the Girsanov k-marginal report, and the
        # full-system report is the k = n one; none of them is made twice
        calls, original = [], experiment.entropy_girsanov

        def counted(weights, k, step=None):
            calls.append((weights.n, k, step))
            return original(weights, k=k, step=step)

        monkeypatch.setattr(experiment, "entropy_girsanov", counted)
        data = make_plan_dict()
        data["estimators"] = ["girsanov", "histogram_tv"]
        data["sweep"]["k"] = [1, 4]
        tables = run_experiment(plan_from_dict(data)).tables
        assert any(r["check"] == "subadditivity" for r in tables["checks"])
        assert len(calls) == len(set(calls))
        # per n and t: k = 1 and 4, and the full system (k = n = 4 is one report)
        assert sorted({(n, k) for n, k, _ in calls}) == [(4, 1), (4, 4), (6, 1), (6, 4), (6, 6)]
        assert len(calls) == 2 * 5

    @pytest.mark.parametrize("noise", [{"kind": "brownian"}, {"kind": "fbm", "hurst": 0.3}], ids=["brownian", "fbm"])
    def test_the_stage_order_moves_no_byte(self, noise):
        # every stage draws from its own purpose-keyed streams, so the weights
        # come out the same before or after the particle system and references
        data = make_plan_dict()
        data["base"]["noise"] = noise
        cfg = plan_from_dict(data).base
        times = (0.05, 0.1)

        def stages(weights_first):
            rng = RngStream(cfg.seed, counter=cfg.n_particles)
            mf = solve_mckean_vlasov_picard(cfg, rng, m=300, iters=2)
            out = {}
            if weights_first:
                out["weights"] = experiment.girsanov_weight(cfg, mf, rng, snapshot_times=times)
            out["particles"] = simulate_particle_system(cfg, rng, snapshot_times=times, particles=2)
            out["references"] = sample_reference_marginals(cfg, mf, 600, rng, snapshot_times=times)
            if not weights_first:
                out["weights"] = experiment.girsanov_weight(cfg, mf, rng, snapshot_times=times)
            return out

        first, last = stages(True), stages(False)
        for name in ("log_z", "energy"):
            assert np.array_equal(getattr(first["weights"], name), getattr(last["weights"], name)), name
        assert first["particles"].snapshots.keys() == last["particles"].snapshots.keys()
        for step, x in first["particles"].snapshots.items():
            assert np.array_equal(x, last["particles"].snapshots[step])
        for step, x in first["references"].items():
            assert np.array_equal(x, last["references"][step])


class TestTables:
    """run's tables come from one registry: TABLES names each table's columns
    and row order, and table_row builds every row."""

    @pytest.mark.filterwarnings("ignore:only \\d+ replicas")
    def test_every_table_is_written_with_its_columns_in_its_order(self, tmp_path):
        result = run_experiment(plan_from_dict(make_plan_dict()))
        paths = write_result(result, str(tmp_path))
        assert list(result.manifest["row_counts"]) == list(TABLES)
        for name, (columns, order) in TABLES.items():
            rows = result.tables[name]
            keys = [tuple(r[c] for c in order) for r in rows]
            assert rows and keys == sorted(keys), name
            assert result.manifest["row_counts"][name] == len(rows)
            with open(paths[f"{name}.csv"], encoding="utf-8", newline="") as fh:
                lines = list(csv.reader(fh))
            assert lines[0] == list(columns), name
            assert lines[1:] == [[_fmt(r[c]) for c in columns] for r in rows], name

    def test_a_row_needs_every_column(self):
        columns = TABLES["bounds"][0]
        assert list(table_row("bounds", *range(len(columns)))) == list(columns)
        with pytest.raises(ValueError):
            table_row("bounds", *range(len(columns) - 1))
        with pytest.raises(ValueError):
            table_row("bounds", *range(len(columns) + 1))


class TestCsvOutput:
    def test_float_formatting_round_trips(self):
        assert _fmt(True) == "true" and _fmt(False) == "false"
        assert _fmt(np.float64(0.1)) == repr(0.1)
        assert _fmt(np.int64(7)) == "7"
        assert _fmt("girsanov") == "girsanov"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_repr_is_lossless(self, x):
        assert float(_fmt(x)) == x

    def test_write_result_files_and_headers(self, tmp_path):
        result = RunResult()
        result.manifest = {"label": "empty"}
        paths = write_result(result, str(tmp_path))
        assert set(paths) == {"entropy.csv", "bounds.csv", "horizons.csv",
                              "checks.csv", "manifest.json"}
        header = open(paths["entropy.csv"]).read().splitlines()
        assert header == ["t,n,k,estimator,value,stderr,ess,eps,dt,seed"]
        header = open(paths["checks.csv"]).read().splitlines()
        assert header == ["n,k,t,check,passed,margin,value,threshold"]
        man = json.loads(open(paths["manifest.json"]).read())
        # the result's manifest under the header every manifest carries
        assert man == {
            "label": "empty",
            "command": "run",
            "version": __version__,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "cpu_count": os.cpu_count(),
            },
        }

    @pytest.mark.filterwarnings("ignore:only \\d+ replicas")
    def test_written_bytes_deterministic(self, tmp_path):
        plan = plan_from_dict(make_plan_dict())
        result = run_experiment(plan)
        pa = write_result(result, str(tmp_path / "a"))
        pb = write_result(run_experiment(plan, threads=2), str(tmp_path / "b"))
        for name in pa:
            ba = open(pa[name], "rb").read()
            bb = open(pb[name], "rb").read()
            assert ba == bb, name
