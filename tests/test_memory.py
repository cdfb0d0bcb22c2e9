"""Working-set budget of the pipeline stages.

The fBm sampler and the Volterra weights run in fixed row chunks, so each
stage holds a few block-sized arrays, not one per temporary of the whole
batch. P is one block's (replicas, n, d, steps) float64 array; tracemalloc
sees numpy's data buffers. A Girsanov block frees its fBm increments
before its weights go through the Volterra inverse, and its driver and
delta history before the next block samples. A sweep point keeps log-weights only
at its swept steps and snapshots only of its first max-k particles. The
generic interaction paths evaluate a fixed number of pair values per kernel
call.
"""

import tracemalloc

import numpy as np
import pytest

from chaoslab import experiment, measure
from chaoslab.core import RngStream, config_from_dict
from chaoslab.dynamics import (
    BLOCK_REPLICAS,
    sample_reference_marginals,
    simulate_particle_system,
    solve_mckean_vlasov_picard,
)
from chaoslab.kernels import _BATCH, build_drift
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


P_BYTES = BLOCK_REPLICAS * N * 1 * STEPS * 8


def peak_in_p(fn):
    """(result, peak bytes allocated during fn above its start, in P)."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    out = fn()
    return out, (tracemalloc.get_traced_memory()[1] - before) / P_BYTES


def fractional_config(replicas):
    return config_from_dict({
        "domain": {"kind": "euclidean", "dim": 1},
        "drift": {"name": "linear_pair", "params": {}},
        "n_particles": N,
        "grid": {"t0": 0.0, "dt": 1.0 / 1024, "steps": STEPS},
        "noise": {"kind": "fbm", "hurst": 0.3},
        "initial_law": {"name": "gaussian", "params": {"mean": [0.0], "sigma": 0.5}},
        "seed": 7,
        "replicas": replicas,
    })


def test_fractional_stage_peaks_within_budget(traced):
    cfg = fractional_config(BLOCK_REPLICAS)
    # Picard and reference paths come in two blocks of 4096 series each
    law, picard = peak_in_p(lambda: solve_mckean_vlasov_picard(cfg, RngStream(1), m=8192, iters=2))
    _, simulate = peak_in_p(lambda: simulate_particle_system(cfg, RngStream(2)))
    _, reference = peak_in_p(lambda: sample_reference_marginals(cfg, law, 8192, RngStream(3)))
    _, weights = peak_in_p(lambda: girsanov_weight(cfg, law, RngStream(4)))
    peaks = {"picard": picard, "simulate": simulate, "reference": reference, "girsanov": weights}
    print({k: round(v, 2) for k, v in peaks.items()})
    assert max(peaks.values()) <= BUDGET_P, peaks


def test_fractional_weights_free_each_block_before_the_next(traced):
    # A Girsanov block holds three P-sized arrays: its fBm increments, its
    # driver increments and its delta history. Everything else is smaller
    # than P: the log-weights of 2 blocks at every step (0.26 P), the
    # energies, and the chunk-sized Volterra and sampling temporaries. So
    # two blocks fit in 4 P only if the first block's arrays are gone
    # before the second block samples its noise.
    cfg = fractional_config(2 * BLOCK_REPLICAS)
    law = solve_mckean_vlasov_picard(cfg, RngStream(1), m=4096, iters=1)
    _, weights = peak_in_p(lambda: girsanov_weight(cfg, law, RngStream(4)))
    print({"girsanov_two_blocks": round(weights, 2)})
    assert weights <= 4.0, weights


@pytest.mark.parametrize("blocks", [1, 2])
def test_volterra_step_never_sees_the_blocks_increments(traced, monkeypatch, blocks):
    # When the Volterra inverse runs, the block still needs its driver
    # increments (P) and its delta history (P). Everything else held then
    # is below 0.5 P: the log-weights of 2 blocks at every step (0.26 P),
    # the energies and the chunk temporaries. So 2.5 P holds only if the
    # block's fBm increments (P) were freed before its weights are built.
    cfg = fractional_config(blocks * BLOCK_REPLICAS)
    law = solve_mckean_vlasov_picard(cfg, RngStream(1), m=4096, iters=1)
    apply, held = measure.volterra_inverse_apply, []

    def spy(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return apply(*args, **kwargs)

    monkeypatch.setattr(measure, "volterra_inverse_apply", spy)
    before = tracemalloc.get_traced_memory()[0]
    girsanov_weight(cfg, law, RngStream(4))
    worst = (max(held) - before) / P_BYTES
    print({"volterra_step_held": round(worst, 2)})
    assert worst <= 2.5, worst


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


def test_generic_paths_stay_within_their_evaluation_budget(traced):
    # the full (1024 x 8) x 2000 pair tensor would take 131 MB; the generic
    # mean field and pair mean evaluate _BATCH values (128 KiB) per call
    cfg = config_from_dict({
        "domain": {"kind": "euclidean", "dim": 1},
        "drift": {"name": "sign_gated_pair", "params": {}},
        "n_particles": N,
        "grid": {"t0": 0.0, "dt": 0.01, "steps": 10},
        "noise": {"kind": "brownian"},
        "initial_law": {"name": "gaussian", "params": {"sigma": 1.0}},
        "seed": 3,
        "replicas": BLOCK_REPLICAS,
    })
    drift = build_drift(cfg)
    gen = np.random.default_rng(4)
    x, ens = gen.normal(size=(BLOCK_REPLICAS, N, 1)), gen.normal(size=(2000, 1))
    budget = _BATCH * 8
    for fn in (lambda: drift.mean_field_drift(0.0, x, ens, None), lambda: drift.pair_mean_generic(0.0, x)):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1] - before
        assert peak <= 8 * budget, peak / budget


def test_brownian_weights_do_not_hold_every_step(traced):
    # a Brownian block records its log Z increments a fixed window of steps at a
    # time: one block's increments at every step of this grid would take 164 MB
    steps = 20_000
    cfg = config_from_dict({
        "domain": {"kind": "euclidean", "dim": 1},
        "drift": {"name": "linear_pair", "params": {}},
        "n_particles": 2,
        "grid": {"t0": 0.0, "dt": 1e-5, "steps": steps},
        "noise": {"kind": "brownian"},
        "initial_law": {"name": "gaussian", "params": {"sigma": 0.5}},
        "seed": 5,
        "replicas": BLOCK_REPLICAS,
    })
    law = solve_mckean_vlasov_picard(cfg, RngStream(1), m=100, iters=1)
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    weights = girsanov_weight(cfg, law, RngStream(2), snapshot_times=[cfg.grid.terminal])
    peak = tracemalloc.get_traced_memory()[1] - before
    print({"brownian_weights_peak_mb": round(peak / 1e6, 2)})
    assert weights.steps == (0, steps)
    assert peak < 16e6, peak
