"""Contract with the benchmark's layer tracer (perfbench/tracing.py).

The tracer wraps chaoslab names from outside and derives exact work counts
from call shapes. A refactor that routes a non-separable evaluation around
DriftSpec.pair_mean_generic or DriftSpec.mean_field_drift would silently
falsify kernels.generic.pair_evals; this test pins the count to its closed
form on a tiny generic-drift plan. The tracer patches modules in place, so
it runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from chaoslab.cli import main
code = main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "counts": dict(tracer.counts)}))
"""


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
