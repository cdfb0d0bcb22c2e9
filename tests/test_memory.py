"""Working-set budget of the pipeline stages.

The fBm sampler and the Volterra weights run in fixed row chunks, so each
stage holds a few block-sized arrays, not one per temporary of the whole
batch. P is one block's (replicas, n, d, steps) float64 array; tracemalloc
sees numpy's data buffers. A sweep point keeps log-weights only at its
swept steps and snapshots only of its first max-k particles.
"""

import tracemalloc

import pytest

from chaoslab import experiment
from chaoslab.core import RngStream, config_from_dict
from chaoslab.dynamics import (
    BLOCK_REPLICAS,
    sample_reference_marginals,
    simulate_particle_system,
    solve_mckean_vlasov_picard,
)
from chaoslab.measure import girsanov_weight

STEPS = 256
N = 8
BUDGET_P = 6.0


@pytest.fixture
def traced():
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    yield
    if started:
        tracemalloc.stop()


def peak_in_p(fn):
    """(result, peak bytes allocated during fn above its start, in P)."""
    p_bytes = BLOCK_REPLICAS * N * 1 * STEPS * 8
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    out = fn()
    return out, (tracemalloc.get_traced_memory()[1] - before) / p_bytes


def test_fractional_stage_peaks_within_budget(traced):
    cfg = config_from_dict({
        "domain": {"kind": "euclidean", "dim": 1},
        "drift": {"name": "linear_pair", "params": {}},
        "n_particles": N,
        "grid": {"t0": 0.0, "dt": 1.0 / 1024, "steps": STEPS},
        "noise": {"kind": "fbm", "hurst": 0.3},
        "initial_law": {"name": "gaussian", "params": {"mean": [0.0], "sigma": 0.5}},
        "seed": 7,
        "replicas": BLOCK_REPLICAS,
    })
    # Picard and reference paths come in two blocks of 4096 series each
    law, picard = peak_in_p(lambda: solve_mckean_vlasov_picard(cfg, RngStream(1), m=8192, iters=2))
    _, simulate = peak_in_p(lambda: simulate_particle_system(cfg, RngStream(2)))
    _, reference = peak_in_p(lambda: sample_reference_marginals(cfg, law, 8192, RngStream(3)))
    _, weights = peak_in_p(lambda: girsanov_weight(cfg, law, RngStream(4)))
    peaks = {"picard": picard, "simulate": simulate, "reference": reference, "girsanov": weights}
    print({k: round(v, 2) for k, v in peaks.items()})
    assert max(peaks.values()) <= BUDGET_P, peaks


@pytest.mark.filterwarnings("ignore:only 150 replicas")
def test_sweep_point_keeps_only_what_its_rows_read(monkeypatch):
    plan = experiment.plan_from_dict({
        "base": {
            "domain": {"kind": "euclidean", "dim": 2},
            "drift": {"name": "linear_pair", "params": {}},
            "n_particles": N,
            "grid": {"t0": 0.0, "dt": 0.01, "steps": 20},
            "noise": {"kind": "brownian"},
            "initial_law": {"name": "gaussian", "params": {"sigma": 0.5}},
            "seed": 11,
            "replicas": 150,
        },
        "sweep": {"n": [N], "k": [1, 2], "t": [0.05, 0.1]},
        "estimators": ["girsanov", "knn", "histogram_tv"],
        "picard": {"m": 100, "iters": 1},
        "knn": {"samples": 100},
    })
    made = {}

    def capture(name):
        fn = getattr(experiment, name)

        def wrapped(*args, **kwargs):
            made[name] = fn(*args, **kwargs)
            return made[name]

        monkeypatch.setattr(experiment, name, wrapped)

    capture("girsanov_weight")
    capture("simulate_particle_system")
    experiment._point_rows(plan, N)

    replicas, k, d, f64 = 150, 2, 2, 8
    recorded = (0, 5, 10, 20)  # the swept steps, the start and the end
    gw, ens = made["girsanov_weight"], made["simulate_particle_system"]
    assert gw.steps == recorded
    assert gw.log_z.nbytes == replicas * len(recorded) * f64
    assert set(ens.snapshots) == set(recorded)
    for pos in ens.snapshots.values():
        assert pos.nbytes == replicas * k * d * f64
