"""Smoke test of the benchmark harness at tiny sizes (about 15 s).

    python3 -m pytest -q perfbench/test_smoke.py

Covers the metric printout, the span self-time arithmetic and the
correctness gate tripping on a deliberately altered CSV copy. It is not
part of the tier-1 suite, which collects tests/ only.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time

import pytest

import run
import tracing

TINY_PLAN = {
    "label": "tiny",
    "base": {
        "domain": {"kind": "euclidean", "dim": 1},
        "n_particles": 2,
        "grid": {"dt": 0.01, "steps": 4},
        "noise": {"kind": "brownian"},
        "initial_law": {"name": "gaussian", "params": {"mean": [0.0], "sigma": 1.0}},
        "seed": 1,
        "replicas": 200,
        "drift": {"name": "linear_pair", "params": {}},
    },
    "sweep": {"n": [2, 3], "k": [1, 2], "t": [0.04]},
    "picard": {"m": 100, "iters": 2},
    "knn": {"neighbors": 4, "samples": 200},
    "tv": {"bins": 4},
}


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_PLAN), encoding="utf-8")
    monkeypatch.setitem(run.WORKLOADS, "tiny", [str(config)])
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "PINS", tmp_path / "pins.json")
    return config


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["cli.run", 0.0, 10.0, -1],
        ["experiment.point", 1.0, 4.0, 0],
        ["kernels.pair_mean", 2.0, 3.0, 1],
        ["measure.knn", 5.0, 7.0, 0],
        ["noise.fbm", 6.0, 6.5, 3],
        ["noise.volterra", 6.25, 6.75, 3],  # overlaps its sibling
        ["bounds.theorem_bound", 11.0, 11.5, -1],
    ]
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.25, 0.5, 0.5, 0.5])
    m = tracing.summarize(spans, {}, traced_wall=12.0, untraced_wall=10.0)
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["noise.self_s"] == pytest.approx(1.0)
    assert m["measure.knn.busy_s"] == pytest.approx(2.0)
    assert m["experiment.point_max_s"] == pytest.approx(3.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.2)
    assert m["trace.uncovered_frac"] == pytest.approx(1.0 - 10.5 / 12.0)
    # self times add up to the covered time, plus the overlap the two
    # sibling spans each keep as their own
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(10.5 + 0.25)


@pytest.mark.parametrize("trace", [0, 1])
def test_printout_names_every_metric_with_its_unit(tiny, capsys, trace):
    assert run.main(["--workload", "tiny", "--seed", "7", "--seconds", "1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1]), name
    if trace:
        steps = run._plan_particle_steps(TINY_PLAN)
        assert result["metrics"]["dynamics.particle_steps"]["value"] == steps
        assert result["metrics"]["experiment.points"]["value"] == 2


def test_gate_trips_on_an_altered_csv(tiny, tmp_path):
    work = tmp_path / "gate"
    work.mkdir()
    plan = run.Plan(tiny, run.DEFAULT_SEED, work)
    runner = run.Runner(work, deadline=time.monotonic() + 60)
    first = runner.run("run", 1, [plan])
    first["mode"] = "run"

    def gate_with_copy(alter: bool) -> run.Gate:
        copy = dict(first, out=tmp_path / f"copy{len(list(tmp_path.glob('copy*')))}", threads=2)
        shutil.copytree(first["out"], copy["out"])
        if alter:
            path = copy["out"] / plan.stem / "entropy.csv"
            data = bytearray(path.read_bytes())
            data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
            path.write_bytes(bytes(data))
        gate = run.Gate("tiny", run.DEFAULT_SEED, [plan])
        gate.add(first)
        gate.add(copy)
        return gate

    pins = {
        "environment": first["env"],
        "seed": run.DEFAULT_SEED,
        "workloads": {"tiny": {plan.stem: run._sha(run._csvs(first["out"] / plan.stem))}},
    }
    run.PINS.write_text(json.dumps(pins), encoding="utf-8")

    clean = gate_with_copy(alter=False)
    assert clean.evaluate() == (2, 0)
    assert clean.correct, clean.notes

    altered = gate_with_copy(alter=True)
    assert altered.evaluate() == (2, 2)
    assert not altered.correct
    assert any("differ from the first run" in note for note in altered.notes)

    # a failing check row fails its point once, however many runs repeat it
    checks = first["out"] / plan.stem / "checks.csv"
    original = checks.read_bytes()
    header, row, *rest = original.decode("utf-8").splitlines()
    cells = row.split(",")
    cells[header.split(",").index("passed")] = "false"
    checks.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", encoding="utf-8")
    flagged = gate_with_copy(alter=False)
    flagged.check_pins = False
    assert flagged.evaluate() == (2, 1)
    assert flagged.correct, flagged.notes
    checks.write_bytes(original)

    # a pin that no longer matches fails every point
    entropy = pins["workloads"]["tiny"][plan.stem]
    entropy["entropy.csv"] = hashlib.sha256(b"other bytes").hexdigest()
    run.PINS.write_text(json.dumps(pins), encoding="utf-8")
    repinned = gate_with_copy(alter=False)
    assert repinned.evaluate() == (2, 2)
    assert any("differ from the pins" in note for note in repinned.notes)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
