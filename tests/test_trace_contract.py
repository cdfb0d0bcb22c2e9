"""Contract with the benchmark's layer tracer (perfbench/tracing.py).

The tracer wraps chaoslab names from outside and derives exact work counts
from call shapes. A refactor that routes a non-separable evaluation around
DriftSpec.pair_mean_generic or DriftSpec.mean_field_drift would silently
falsify kernels.generic.pair_evals; these tests pin that count on a tiny
generic-drift plan, the separable fast paths' span counts on two Brownian
linear_pair plans, and the fBm normal and call counts on two fractional
plans; of each pair of plans one runs within a block and one across block
boundaries. Every count is pinned to its closed form. The tracer patches
modules in place, so each run is in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chaoslab.dynamics import BLOCK_REPLICAS, PATH_BLOCK

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import collections, json, sys
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from chaoslab.cli import main
code = main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "counts": dict(tracer.counts), "spans": collections.Counter(tracer.names)}))
"""


def traced_run(tmp_path, plan):
    """Run the plan under the tracer in a fresh interpreter; its exit code,
    the tracer's counts and its spans counted by name."""
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    env["PYTHONWARNINGS"] = "ignore"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] in (0, 4, 5), proc.stderr  # ran; tiny sizes may flag estimates
    return result


def test_generic_pair_evals_match_closed_form(tmp_path):
    steps, replicas, m, iters, samples = 4, 100, 100, 2, 100
    sweep_n, sweep_k = [3, 4], [1, 2]
    plan = {
        "label": "trace_contract",
        "base": {
            "domain": {"kind": "euclidean", "dim": 1},
            "n_particles": 3,
            "grid": {"dt": 0.01, "steps": steps},
            "noise": {"kind": "brownian"},
            "initial_law": {"name": "gaussian", "params": {"mean": [0.0], "sigma": 1.0}},
            "seed": 3,
            "replicas": replicas,
            "drift": {"name": "sign_gated_pair", "params": {}},
        },
        "sweep": {"n": sweep_n, "k": sweep_k, "t": [steps * 0.01]},
        "picard": {"m": m, "iters": iters},
        "knn": {"neighbors": 2, "samples": samples},
        "tv": {"bins": 4},
    }
    result = traced_run(tmp_path, plan)

    want = 0
    for n in sweep_n:
        want += iters * steps * m * m  # Picard: each ensemble path against the previous iterate
        want += 2 * steps * replicas * (n * n + n)  # pair means in simulate and in the weights
        want += steps * replicas * n * m  # one mean-field evaluation per weight step
        want += steps * samples * max(sweep_k) * m  # reference marginals
    assert result["counts"]["kernels.generic.pair_evals"] == want
    assert result["counts"]["dynamics.particle_steps"] == sum(
        iters * m * steps + 2 * replicas * n * steps + samples * max(sweep_k) * steps for n in sweep_n
    )


@pytest.mark.parametrize(
    "replicas, m, samples",
    [(100, 100, 100), (1030, 4100, 2100)],
    ids=["one_block", "across_blocks"],
)
def test_separable_fast_path_spans_match_closed_form(tmp_path, replicas, m, samples):
    # the Brownian separable path of torus_sweep and linear_sweep: one pair_mean span per
    # step of each simulation and weight block, one mf_drift span per step of each Picard,
    # reference and weight block (Picard and reference blocks of PATH_BLOCK paths)
    steps, iters = 4, 2
    sweep_n, sweep_k = [3, 4], [1, 2]
    plan = {
        "label": "trace_contract_separable",
        "base": {
            "domain": {"kind": "euclidean", "dim": 1},
            "n_particles": 3,
            "grid": {"t0": 0.0, "dt": 0.01, "steps": steps},
            "noise": {"kind": "brownian"},
            "initial_law": {"name": "gaussian", "params": {"mean": [0.0], "sigma": 1.0}},
            "seed": 3,
            "replicas": replicas,
            "drift": {"name": "linear_pair", "params": {}},
        },
        "sweep": {"n": sweep_n, "k": sweep_k, "t": [steps * 0.01]},
        "picard": {"m": m, "iters": iters},
        "knn": {"neighbors": 2, "samples": samples},
        "tv": {"bins": 4},
    }
    result = traced_run(tmp_path, plan)

    s_k = samples * max(sweep_k)
    assert result["counts"]["dynamics.particle_steps"] == sum(
        (iters * m + 2 * replicas * n + s_k) * steps for n in sweep_n
    )
    replica_blocks = -(-replicas // BLOCK_REPLICAS)
    assert result["spans"]["kernels.pair_mean"] == len(sweep_n) * 2 * steps * replica_blocks
    path_blocks = iters * -(-m // PATH_BLOCK) + -(-s_k // PATH_BLOCK)
    assert result["spans"]["kernels.mf_drift"] == len(sweep_n) * steps * (path_blocks + replica_blocks)
    assert result["counts"].get("kernels.generic.pair_evals", 0) == 0


@pytest.mark.parametrize(
    "replicas, m, samples",
    [(100, 100, 100), (1030, 4100, 2100)],
    ids=["one_block", "across_blocks"],
)
def test_fbm_normals_match_closed_form(tmp_path, replicas, m, samples):
    # the tracer reads sample_fbm_batch's bound method and its third result;
    # the second plan's sizes cross the block boundaries of every path family
    steps, iters = 4, 2
    sweep_n, sweep_k = [3, 4], [1, 2]
    plan = {
        "label": "trace_contract_fbm",
        "base": {
            "domain": {"kind": "euclidean", "dim": 1},
            "n_particles": 3,
            "grid": {"t0": 0.0, "dt": 0.01, "steps": steps},
            "noise": {"kind": "fbm", "hurst": 0.3},
            "initial_law": {"name": "gaussian", "params": {"mean": [0.0], "sigma": 1.0}},
            "seed": 3,
            "replicas": replicas,
            "drift": {"name": "linear_pair", "params": {}},
        },
        "sweep": {"n": sweep_n, "k": sweep_k, "t": [steps * 0.01]},
        "picard": {"m": m, "iters": iters},
        "knn": {"neighbors": 2, "samples": samples},
        "tv": {"bins": 4},
    }
    result = traced_run(tmp_path, plan)

    # the circulant route (Picard, simulation, reference marginals) draws two
    # normals per step, the weights' causal Cholesky route one
    want = sum(
        steps * (2 * iters * m + 2 * replicas * n + 2 * samples * max(sweep_k) + replicas * n) for n in sweep_n
    )
    assert result["counts"]["noise.fbm.normals"] == want
    assert result["counts"]["noise.fbm.cholesky_fallbacks"] == 0
    # one fBm call per block: Picard and reference blocks of PATH_BLOCK
    # paths, simulation and weight blocks of BLOCK_REPLICAS replicas
    calls = iters * -(-m // PATH_BLOCK) + 2 * -(-replicas // BLOCK_REPLICAS) + -(-samples * max(sweep_k) // PATH_BLOCK)
    assert result["counts"]["noise.fbm.calls"] == len(sweep_n) * calls
