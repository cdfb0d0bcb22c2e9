"""Acceptance suite: one test per shipped guarantee, run at the stated
scale and tolerance.

Each test prints its measured numbers before asserting, so a red test
carries the evidence inline. Every random quantity runs under a frozen
seed, which makes the suite reproducible bit for bit; the seeds were
fixed ahead of time, not tuned to the assertions.
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chaoslab.bounds import (
    constant_C,
    estimate_beta,
    hierarchy_ode_solve,
    short_time_horizon,
    theorem_bound,
)
from chaoslab.core import RngStream, TimeGrid, config_from_dict
from chaoslab.dynamics import (
    extract_marginal,
    sample_reference_marginals,
    simulate_particle_system,
    solve_mckean_vlasov_picard,
)
from chaoslab.experiment import load_plan, run_experiment
from chaoslab.kernels import biot_savart_periodic, divergence_fd, grid_lp_norm
from chaoslab.measure import (
    GirsanovWeight,
    concentration_bounds,
    entropy_girsanov,
    entropy_knn,
    girsanov_weight,
    log_weights_from_deltas,
    pinsker_and_subadditivity_check,
    tv_histogram,
)
from chaoslab.noise import empirical_covariance_table

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"
SHIPPED = ("smooth_torus", "linear_growth", "fractional_h030", "fractional_h075")


def _report(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_1_fbm_covariance_exactness():
    """Empirical fractional covariance matches E[B_t B_s] entrywise.

    8-point grid, 1e5 paths per Hurst index, every (t, s) entry within
    4 Monte Carlo standard errors, under two minutes.
    """
    grid = TimeGrid(t0=0.0, dt=0.125, steps=8)
    t0 = time.time()
    worst = 0.0
    for hurst in (0.2, 0.5, 0.8):
        rng = RngStream(20260819, counter=int(hurst * 100))
        rows = empirical_covariance_table(grid, hurst, 100_000, rng)
        assert len(rows) == 36
        z = max(abs((r["emp"] - r["exact"]) / r["stderr"]) for r in rows)
        worst = max(worst, z)
        print(f"  H={hurst}: worst |z| = {z:.3f} over {len(rows)} entries", flush=True)
    elapsed = time.time() - t0
    ok = worst <= 4.0 and elapsed < 120.0
    _report("criterion 1", ok, f"worst |z| = {worst:.3f} (limit 4), {elapsed:.1f}s (limit 120)")
    assert worst <= 4.0
    assert elapsed < 120.0


def test_criterion_2_biot_savart_kernel():
    """Periodic Biot-Savart: exact antisymmetry, small numeric divergence,
    and the L^p refinement signature (stable for p = 1.5, growing for
    p = 2) on 32 -> 256 cells per axis.
    """
    gen = np.random.Generator(np.random.Philox(20260819))
    probes = np.empty((0, 2))
    while probes.shape[0] < 100:
        batch = gen.uniform(-0.5, 0.5, size=(300, 2))
        keep = batch[np.linalg.norm(batch, axis=1) >= 0.1]
        probes = np.vstack([probes, keep])
    probes = probes[:100]

    k_pos = biot_savart_periodic(probes, truncation_radius=8)
    k_neg = biot_savart_periodic(-probes, truncation_radius=8)
    antisymmetric = np.array_equal(k_neg, -k_pos)

    div = divergence_fd(lambda y: biot_savart_periodic(y, truncation_radius=8), probes)
    max_div = float(np.max(np.abs(div)))

    cells = (32, 64, 128, 256)
    p15 = [grid_lp_norm(1.5, c) for c in cells]
    p20 = [grid_lp_norm(2.0, c) for c in cells]
    d15 = np.diff(p15)
    d20 = np.diff(p20)
    print(f"  L^1.5 norms {[f'{v:.4f}' for v in p15]}  increments {[f'{v:.5f}' for v in d15]}", flush=True)
    print(f"  L^2.0 norms {[f'{v:.4f}' for v in p20]}  increments {[f'{v:.5f}' for v in d20]}", flush=True)
    # stabilization: increments shrink geometrically and the last one is
    # sub-percent relative; blow-up: increments stay near-constant per
    # doubling (a log-divergent square integral)
    stabilizes = bool(np.all(d15 > 0) and d15[2] < 0.6 * d15[0] and d15[2] / p15[-1] < 0.02)
    blows_up = bool(np.all(d20 > 0) and d20[2] > 0.7 * d20[0] and np.sum(d20) > 0.15)

    ok = antisymmetric and max_div < 1e-3 and stabilizes and blows_up
    _report(
        "criterion 2",
        ok,
        f"antisymmetry exact = {antisymmetric}, max |div| = {max_div:.2e} (limit 1e-3), "
        f"p=1.5 stabilizes = {stabilizes}, p=2 blows up = {blows_up}",
    )
    assert antisymmetric
    assert max_div < 1e-3
    assert stabilizes
    assert blows_up


def _constant_shift_weight(c, replicas, steps, dt, seed):
    # the weight of a constant drift shift c has log Z_T = c W_T - c^2 T / 2,
    # so E[Z log Z] = c^2 T / 2 exactly
    grid = TimeGrid(t0=0.0, dt=dt, steps=steps)
    gen = np.random.Generator(np.random.Philox(seed))
    dw = math.sqrt(dt) * gen.standard_normal((replicas, steps, 1))
    delta = np.full((replicas, steps, 1), c)
    lz = log_weights_from_deltas(delta, dw, dt)
    return GirsanovWeight(grid=grid, log_z=lz, n=1)


def test_criterion_3_gaussian_shift_oracles():
    """Estimator cross-validation on the unit drift shift, 1e4 replicas.

    At T = 0.5 the exact entropy is 0.25: the weight-based estimate must
    land within 3 stderr and the marginal kNN estimate within 0.1. The
    same shift run to unit time separates N(0,1) from N(1,1), whose exact
    total variation is 2 Phi(1/2) - 1; the histogram estimate must land
    within 0.02, and the Pinsker/subadditivity check must pass at both
    horizons. Under five minutes.
    """
    exact_tv_unit = 0.3829249225480263  # 2 Phi(1/2) - 1
    seed = 137
    t0 = time.time()

    w = _constant_shift_weight(1.0, 10_000, 100, 0.01, seed)
    rep_half = entropy_girsanov(w, 1, step=50)
    rep_unit = entropy_girsanov(w, 1, step=100)

    gen = np.random.Generator(np.random.Philox(seed + 1))
    p_half = 0.5 + math.sqrt(0.5) * gen.standard_normal((10_000, 1))
    q_half = math.sqrt(0.5) * gen.standard_normal((10_000, 1))
    knn = entropy_knn(p_half, q_half, neighbors=4)
    p_unit = 1.0 + gen.standard_normal((10_000, 1))
    q_unit = gen.standard_normal((10_000, 1))
    tv_unit = tv_histogram(p_unit, q_unit)
    tv_half = tv_histogram(p_half, q_half)

    chk_half = pinsker_and_subadditivity_check(rep_half, tv_half, rep_half)
    chk_unit = pinsker_and_subadditivity_check(rep_unit, tv_unit, rep_unit)
    elapsed = time.time() - t0

    girsanov_ok = abs(rep_half.value - 0.25) < 3.0 * rep_half.stderr
    knn_ok = abs(knn.value - 0.25) < 0.1
    tv_ok = abs(tv_unit.value - exact_tv_unit) < 0.02
    pinsker_ok = chk_half.passed and chk_unit.passed
    ok = girsanov_ok and knn_ok and tv_ok and pinsker_ok and elapsed < 300.0
    _report(
        "criterion 3",
        ok,
        f"girsanov = {rep_half.value:.5f} +/- {rep_half.stderr:.5f} (exact 0.25), "
        f"knn = {knn.value:.4f} (exact 0.25 +/- 0.1), "
        f"tv = {tv_unit.value:.4f} (exact {exact_tv_unit:.4f} +/- 0.02), "
        f"pinsker margins = ({chk_half.pinsker_margin:.3f}, {chk_unit.pinsker_margin:.3f}), "
        f"{elapsed:.1f}s (limit 300)",
    )
    assert girsanov_ok
    assert knn_ok
    assert tv_ok
    assert pinsker_ok
    assert elapsed < 300.0


def test_criterion_4_martingale_normalization():
    """E[Z_t] = 1 within 3 stderr at every sweep point of every shipped
    config (the weight is an exponential martingale, so any drift here
    means a bug in the change of measure, not statistics).
    """
    rows_all = []
    for name in SHIPPED:
        plan = load_plan(CONFIG_DIR / f"{name}.json")
        plan = replace(plan, estimators=("girsanov",))
        res = run_experiment(plan, threads=2)
        assert res.errors == []
        mart = [r for r in res.tables["checks"] if r["check"] == "martingale"]
        for r in mart:
            print(
                f"  {name} n={r['n']:>3} t={r['t']}: mean Z = {r['value']:.6f}, "
                f"|z| = {3.0 - r['margin']:.3f}",
                flush=True,
            )
        rows_all.extend(mart)
    assert len(rows_all) == 14
    worst = max(3.0 - r["margin"] for r in rows_all)
    ok = all(r["passed"] for r in rows_all)
    _report("criterion 4", ok, f"14 sweep points, worst |z| = {worst:.3f} (limit 3)")
    assert ok


def test_criterion_5_torus_chaos_decay():
    """One-particle relative entropy against the mean-field law is zero
    within 3 stderr at every n in (16, 32, 64, 128), for the bounded
    divergence-free torus kernel from the uniform start at t = 0.25,
    dt = 1e-3, 1e4 replicas. Under thirty minutes.

    The exact value is 0 at every n. K(x) = (sin 2 pi x2, sin 2 pi x1) is
    divergence-free, so sum_i div_{x_i} b_i = 0 and the uniform product
    law on T^{2n} is stationary for the n-particle system; K has mean
    zero, so K * uniform = 0 and the McKean-Vlasov law stays uniform too.
    From the uniform start the one-particle marginal therefore equals the
    mean-field law for all t and n: the O(k^2/n^2) bound holds with
    nothing to decay. A nonzero estimate here means the pipeline reports
    entropy where there is none (a biased torus kNN, a non-uniform
    sampler, a reference law that drifts from the simulated one).
    """
    with open(CONFIG_DIR / "smooth_torus.json") as fh:
        doc = json.load(fh)
    raw = doc["base"]
    raw["grid"] = {"dt": 0.001, "steps": 250}
    base = config_from_dict(raw)

    t0 = time.time()
    table = []
    for n in (16, 32, 64, 128):
        cfg = replace(base, n_particles=n)
        rng = RngStream(cfg.seed, counter=n)
        mf = solve_mckean_vlasov_picard(cfg, rng, m=10_000, iters=3)
        ens = simulate_particle_system(cfg, rng, snapshot_times=(0.25,))
        refs = sample_reference_marginals(cfg, mf, 10_000, rng, snapshot_times=(0.25,))
        rep = entropy_knn(extract_marginal(ens, 1, 0.25), refs[cfg.grid.steps],
                          neighbors=4, torus=True)
        table.append((n, rep.value, rep.stderr))
        print(f"  n={n:>3}: knn entropy = {rep.value:+.5f} +/- {rep.stderr:.5f}", flush=True)
    elapsed = time.time() - t0
    assert elapsed < 1800.0

    # reported, not asserted: the closed-form envelope with the config's
    # own (C0, gamma, M) falls below one stderr at n = 128, so domination
    # there says nothing about the estimator
    b = doc["bounds"]
    gamma = b["gamma"]
    c_env = constant_C(b["C0"], gamma, b["M"], 0.25)
    envelope = [theorem_bound(c_env, gamma, 0.25, n, 1) for n, _, _ in table]
    dominated = all(v <= e for (_, v, _), e in zip(table, envelope))
    print(
        f"  envelope: C = {c_env:.4f}, gamma = {gamma:g}, "
        f"values {[f'{e:.5f}' for e in envelope]}; dominates all points: {dominated}",
        flush=True,
    )

    # the 3-stderr convention of criteria 3 and 4, against the exact 0
    zs = [v / se for _, v, se in table]
    ok = all(abs(z) <= 3.0 for z in zs)
    detail = (
        f"values {[f'{v:+.5f}' for _, v, _ in table]}, "
        f"z {[f'{z:+.2f}' for z in zs]} (exact 0, limit |z| <= 3), "
        f"envelope dominates = {dominated}, {elapsed:.1f}s (limit 1800)"
    )
    _report("criterion 5", ok, detail)
    assert ok, detail


def test_criterion_6_short_time_entropy_scaling():
    """Full-system entropy under the pairwise linear drift x + y on R^1,
    measured inside the empirical short-time horizon, is stable in n (the
    k/n subadditive scaling: the k = 1 surrogate falls like 1/n exactly
    when the full-system value is flat). Spread < 25% across
    n in (32, 64, 128, 256); under twenty minutes.
    """
    with open(CONFIG_DIR / "linear_growth.json") as fh:
        base = config_from_dict(json.load(fh)["base"])

    t0 = time.time()
    table = []
    for n in (32, 64, 128, 256):
        cfg = replace(base, n_particles=n)
        rng = RngStream(cfg.seed, counter=n)
        mf = solve_mckean_vlasov_picard(cfg, rng, m=10_000, iters=3)
        gw = girsanov_weight(cfg, mf, rng)
        fit = estimate_beta(gw.energy, n, delta=cfg.grid.terminal)
        horizon = short_time_horizon(1.0, fit.beta)
        t_star = min(0.1, horizon.delta_star / 2.0)
        times = cfg.grid.times()
        step = int(np.argmin(np.abs(times - t_star)))
        rep = entropy_girsanov(gw, k=n, step=step)
        h_full = rep.params["h_full"]
        table.append((n, h_full, rep.params["stderr_full"], float(times[step])))
        print(
            f"  n={n:>3}: beta = {fit.beta:.4f}, delta* = {horizon.delta_star:.5f}, "
            f"t = {float(times[step]):.4f}, H_full = {h_full:.6f} +/- {rep.params['stderr_full']:.6f}",
            flush=True,
        )
    elapsed = time.time() - t0

    values = [h for _, h, _, _ in table]
    spread = (max(values) - min(values)) / min(values)
    xs = np.log([n for n, _, _, _ in table])
    ys = np.log([h / n for n, h, _, _ in table])
    slope = float(np.polyfit(xs, ys, 1)[0])
    ok = spread < 0.25 and -1.25 <= slope <= -0.75 and elapsed < 1200.0
    _report(
        "criterion 6",
        ok,
        f"H_full spread = {spread * 100:.2f}% (limit 25%), per-particle slope = {slope:.4f} "
        f"(expect ~ -1), {elapsed:.1f}s (limit 1200)",
    )
    assert spread < 0.25
    assert -1.25 <= slope <= -0.75
    assert elapsed < 1200.0


def test_criterion_7_concentration_domination():
    """Closed-form concentration bounds dominate simulation: the
    sub-Gaussian tail bound over 1e5 trials on a 5-point epsilon grid,
    and the 2q-th Gaussian moment bound over 1e6 samples for q in
    (1, 2, 3). Under two minutes.
    """
    t0 = time.time()
    gen = np.random.Generator(np.random.Philox(20260819))
    n, trials, b = 50, 100_000, 1.0
    means = gen.uniform(-b, b, size=(trials, n)).mean(axis=1)
    worst_margin = math.inf
    for eps in (0.05, 0.10, 0.15, 0.20, 0.25):
        bound = concentration_bounds("hoeffding", n=n, eps=eps, b=b)
        freq = float(np.mean(np.abs(means) >= eps))
        se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / trials)
        margin = bound + 3.0 * se - freq
        worst_margin = min(worst_margin, margin)
        print(f"  eps={eps:.2f}: empirical {freq:.5f} <= bound {bound:.5f} + 3se", flush=True)
        assert freq <= bound + 3.0 * se

    samples = gen.standard_normal(1_000_000)
    for q in (1, 2, 3):
        emp = float(np.mean(samples ** (2 * q)))
        bound = concentration_bounds("moment", q=q, v=1.0)
        print(f"  q={q}: empirical E X^{2 * q} = {emp:.4f} <= {bound:.1f}", flush=True)
        assert emp <= bound
    elapsed = time.time() - t0
    _report("criterion 7", elapsed < 120.0,
            f"tail margin >= {worst_margin:.4f}, moments dominated, {elapsed:.1f}s (limit 120)")
    assert elapsed < 120.0


def test_criterion_8_bound_arithmetic_and_domination():
    """Closed-form envelope arithmetic to 1e-12 and domination of the
    integrated hierarchy on the full parameter grid; under one minute.
    """
    t0 = time.time()
    assert math.isclose(constant_C(1.0, 1.0, 1.0, 1.0), 24.0 * math.exp(6.0), rel_tol=1e-12)
    gamma_ref = math.log(10.0 / 9.0)
    expect = 2e-4 + math.exp(-200.0 * 0.89**2)
    assert math.isclose(theorem_bound(1.0, gamma_ref, 1.0, 100, 1), expect, rel_tol=1e-12)
    assert short_time_horizon(1.0, 2.0).delta_star == 1.0 / 32.0
    frac = short_time_horizon(1.0, 2.0, regime="fractional", hurst=0.75, C=16.0)
    assert math.isclose(frac.delta_star, 32.0**-2, rel_tol=1e-12)

    c0, t_end = 0.05, 0.5
    checked = 0
    for n in (50, 100):
        h0 = np.array([c0 * k * k / (n * n) for k in range(1, n + 1)])
        for gamma in (0.5, 1.0):
            for m in (0.1, 1.0):
                cascade = hierarchy_ode_solve(n, m, gamma, h0, t_end, 1.0 / (2 * gamma * n))
                c = constant_C(c0, gamma, m, t_end)
                k_max = int(n * math.exp(-gamma * t_end))
                for k in range(1, k_max + 1):
                    assert theorem_bound(c, gamma, t_end, n, k) >= cascade.at(k)
                    checked += 1
    elapsed = time.time() - t0
    _report("criterion 8", elapsed < 60.0,
            f"arithmetic exact, {checked} domination comparisons hold, {elapsed:.1f}s (limit 60)")
    assert elapsed < 60.0


def test_criterion_9_thread_determinism(tmp_path):
    """A full pipeline rerun with the same seed and a different --threads
    must produce byte-identical CSV output.
    """
    config = CONFIG_DIR / "smooth_torus.json"
    outs = {}
    for threads in (1, 3):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "chaoslab.cli", "run",
             "--config", str(config), "--out", str(out), "--threads", str(threads)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs[threads] = out
    identical = []
    for name in ("entropy.csv", "bounds.csv", "checks.csv", "horizons.csv"):
        same = (outs[1] / name).read_bytes() == (outs[3] / name).read_bytes()
        identical.append(same)
        print(f"  {name}: identical = {same}", flush=True)
    ok = all(identical)
    _report("criterion 9", ok, "four CSV bodies byte-identical across --threads 1 vs 3")
    assert ok
