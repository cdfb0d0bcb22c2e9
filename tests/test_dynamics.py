"""Integrator and mean-field construction tests.

Quantitative checks compare Monte Carlo output against the exact Euler
moment recursions of the discrete chain (not the continuous-time limit),
so tolerances are pure sampling error at |z| < 4.
"""

import math

import numpy as np
import pytest

from chaoslab.core import RngStream, TimeGrid, config_from_dict, sample_initial
from chaoslab.dynamics import (
    BLOCK_REPLICAS,
    PATH_BLOCK,
    BlowupError,
    MeanFieldLaw,
    extract_marginal,
    integrate_block,
    sample_reference_marginals,
    simulate_particle_system,
    solve_mckean_vlasov_picard,
)
from chaoslab.kernels import build_drift
from chaoslab.measure import girsanov_weight


def make_cfg(**over):
    base = {
        "domain": {"kind": "euclidean", "dim": 1},
        "drift": {"name": "linear_pair", "params": {}},
        "n_particles": 8,
        "grid": {"t0": 0.0, "dt": 0.001, "steps": 100},
        "noise": {"kind": "brownian"},
        "initial_law": {"name": "gaussian", "params": {"mean": [0.5], "sigma": 1.0}},
        "seed": 42,
        "replicas": 100,
    }
    base.update(over)
    return config_from_dict(base)


NOISES = ({"kind": "brownian"}, {"kind": "fbm", "hurst": 0.3})


def zscore(samples, exact):
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    return (samples.mean() - exact) / se


class TestIntegrateBlock:
    def run(self, increments, torus=False, grid=None):
        grid = grid or TimeGrid(t0=0.5, dt=0.25, steps=increments.shape[0])
        seen, steps = [], []

        def zero_drift(s, x):
            steps.append(s)
            return np.zeros_like(x)

        def observe(s, x, dw):
            seen.append((s, x.copy(), dw))

        out = integrate_block(
            np.zeros(increments.shape[1:]), grid, torus, zero_drift, lambda s: increments[s], observe
        )
        return out, seen, steps

    def test_zero_drift_returns_cumulative_increments(self):
        incr = np.random.default_rng(0).standard_normal((6, 3, 2, 1))
        out, seen, steps = self.run(incr)
        assert np.array_equal(out, np.cumsum(incr, axis=0)[-1])
        assert [s for s, _, _ in seen] == list(range(7))
        assert seen[0][2] is None and np.array_equal(seen[0][1], np.zeros((3, 2, 1)))
        for s, x, dw in seen[1:]:
            assert np.array_equal(x, np.cumsum(incr, axis=0)[s - 1])
            assert np.array_equal(dw, incr[s - 1])
        assert steps == list(range(6))

    def test_torus_states_wrapped(self):
        incr = np.full((5, 4, 2), 0.3)
        out, seen, _ = self.run(incr, torus=True)
        for s, x, _ in seen:
            expected = 0.3 * s - math.floor(0.3 * s + 0.5)
            assert np.allclose(x, expected, atol=1e-12) and np.all((-0.5 <= x) & (x < 0.5))
        assert np.allclose(out, 0.3 * 5 - 2.0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_planted_nan_reports_step_and_particle(self):
        incr = np.zeros((6, 2, 5, 1))
        incr[3, 1, 2, 0] = np.nan  # drives step 4, replica 1, particle 2
        with pytest.raises(BlowupError, match="step 4, particle 2") as exc:
            self.run(incr)
        assert (exc.value.step, exc.value.particle) == (4, 2)


class TestSimulate:
    def test_restoring_mean_recursion(self):
        # b0-only drift decouples the particles; the Euler chain mean is
        # exactly m0 (1 - rate dt)^S
        cfg = make_cfg(
            drift={"name": "restoring_b0", "params": {"rate": 0.8}},
            n_particles=4,
            grid={"t0": 0.0, "dt": 0.01, "steps": 50},
            initial_law={"name": "gaussian", "params": {"mean": [1.0], "sigma": 0.5}},
            replicas=4000,
        )
        ens = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), (cfg.grid.steps,))
        term = ens.positions_at(50).ravel()
        exact = 1.0 * (1.0 - 0.8 * 0.01) ** 50
        assert abs(zscore(term, exact)) < 4.0

    def test_two_body_sum_recursion(self):
        # n=2 linear interaction: the pair sum satisfies
        # E[S_{s+1}] = (1 + 2 dt) E[S_s]
        cfg = make_cfg(
            n_particles=2,
            grid={"t0": 0.0, "dt": 0.005, "steps": 40},
            initial_law={"name": "gaussian", "params": {"mean": [1.0], "sigma": 1.0}},
            replicas=6000,
            seed=314,
        )
        ens = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), (cfg.grid.steps,))
        s_term = ens.positions_at(40).sum(axis=1)[:, 0]
        exact = 2.0 * (1.0 + 2 * 0.005) ** 40
        assert abs(zscore(s_term, exact)) < 4.0

    def test_uniform_law_invariant_on_torus(self):
        # divergence-free pairwise drift leaves uniform^n invariant, so the
        # first Fourier modes of every coordinate stay centered
        cfg = make_cfg(
            domain={"kind": "torus", "dim": 2},
            drift=None,
            kernel={"name": "smooth_divfree", "params": {"frequency": 1}},
            n_particles=8,
            grid={"t0": 0.0, "dt": 0.005, "steps": 50},
            initial_law={"name": "uniform", "params": {}},
            replicas=2000,
            seed=2718,
        )
        ens = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), (cfg.grid.steps,))
        term = ens.positions_at(50)
        for fn in (np.cos, np.sin):
            # particles within a replica are dependent; reduce per replica
            per_rep = fn(2 * np.pi * term).mean(axis=(1, 2))
            assert abs(zscore(per_rep, 0.0)) < 4.0

    def test_positions_at_unrecorded_step_raises(self):
        cfg = make_cfg(replicas=10, grid={"t0": 0.0, "dt": 0.01, "steps": 20})
        ens = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), (0, 20))
        assert set(ens.snapshots) == {0, 20}
        with pytest.raises(KeyError, match="was not recorded"):
            ens.positions_at(10)

    def test_extract_marginal_shape_and_bounds(self):
        cfg = make_cfg(domain={"kind": "euclidean", "dim": 2},
                       initial_law={"name": "gaussian", "params": {"sigma": 1.0}},
                       replicas=30, grid={"t0": 0.0, "dt": 0.01, "steps": 10})
        ens = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), (cfg.grid.steps,))
        marg = extract_marginal(ens, 3, 10)
        assert marg.shape == (30, 6)
        full = ens.positions_at(10)
        assert np.array_equal(marg, full[:, :3, :].reshape(30, 6))
        for bad in (0, 9):
            with pytest.raises(ValueError):
                extract_marginal(ens, bad, 10)

    def test_snapshots_of_the_first_particles_equal_the_full_prefix(self):
        shape = dict(domain={"kind": "euclidean", "dim": 2}, initial_law={"name": "gaussian", "params": {"sigma": 1.0}},
                     replicas=30, grid={"t0": 0.0, "dt": 0.01, "steps": 10})
        cfg = make_cfg(**shape)
        full = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), (0, 5, 10))
        part = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), (0, 5, 10), particles=3)
        assert set(part.snapshots) == set(full.snapshots) == {0, 5, 10}
        for step, pos in part.snapshots.items():
            assert pos.shape == (30, 3, 2)
            assert np.array_equal(pos, full.snapshots[step][:, :3])
        assert np.array_equal(extract_marginal(part, 3, 5), extract_marginal(full, 3, 5))
        with pytest.raises(ValueError, match="3 particles recorded"):
            extract_marginal(part, 4, 5)
        for bad in (0, 9):
            with pytest.raises(ValueError, match="particles must lie in 1..8"):
                simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), (10,), particles=bad)
        # a step's snapshot does not depend on which other steps are recorded, under either noise
        for noise in NOISES:
            cfg = make_cfg(**shape, noise=noise)
            every = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), range(11))
            for steps in ((0, 5, 10), (3, 7)):
                some = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), steps, particles=3)
                assert tuple(some.snapshots) == steps
                for s in steps:
                    assert np.array_equal(some.snapshots[s], every.snapshots[s][:, :3])

    def test_running_sup_gronwall_envelope(self):
        # |x + y| <= 1 + |x| + |y| with beta = 1, so the discrete Gronwall
        # bound gives max_i sup_s |X_i| <= (M_0 + beta T + W*) e^{2 beta T}
        # pathwise, with W* the worst particle sup of the driving noise.
        # The block is stepped with the drift the particle system uses.
        replicas, steps, dt = 300, 80, 0.0025
        cfg = make_cfg(replicas=replicas, grid={"t0": 0.0, "dt": dt, "steps": steps}, seed=99)
        drift = build_drift(cfg)
        assert drift.b0_state is None  # linear_pair: the pair mean is the whole drift
        gen = np.random.Generator(np.random.Philox(cfg.seed))
        states = sample_initial(cfg.initial_law, cfg.domain, (replicas, 8), gen)
        dws = math.sqrt(dt) * gen.standard_normal((steps, replicas, 8, 1))
        sup_x = np.linalg.norm(states, axis=-1)
        m0 = sup_x.max(axis=1)
        w_cum, sup_w = np.zeros_like(states), np.zeros_like(sup_x)

        def observe(s, x, dw):
            if dw is not None:
                np.add(w_cum, dw, out=w_cum)
                np.maximum(sup_x, np.linalg.norm(x, axis=-1), out=sup_x)
                np.maximum(sup_w, np.linalg.norm(w_cum, axis=-1), out=sup_w)

        integrate_block(states, cfg.grid, False, lambda s, x: drift.pair_mean_generic(x),
                        lambda s: dws[s], observe)
        t_end = dt * steps
        rhs = (m0 + t_end + sup_w.max(axis=1)) * math.exp(2 * t_end)
        assert np.all(sup_x.max(axis=1) <= rhs * (1 + 1e-12))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_blowup_reports_step_and_particle(self):
        cfg = make_cfg(
            drift={"name": "restoring_b0", "params": {"rate": -1e4}},
            n_particles=3,
            grid={"t0": 0.0, "dt": 0.01, "steps": 400},
            replicas=8,
        )
        with pytest.raises(BlowupError, match="non-finite state at step") as exc:
            simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), (cfg.grid.steps,))
        assert exc.value.step > 0
        assert 0 <= exc.value.particle < 3

    def test_biot_savart_default_eps_stays_finite(self):
        # every particle meets itself on the i = j diagonal, where the
        # frozen kernel must be 0, not 0/0
        cfg = config_from_dict(
            {
                "domain": {"kind": "torus", "dim": 2},
                "kernel": {"name": "biot_savart_periodic", "params": {}},
                "n_particles": 3,
                "grid": {"t0": 0.0, "dt": 0.01, "steps": 4},
                "noise": {"kind": "brownian"},
                "initial_law": {"name": "uniform", "params": {}},
                "seed": 11,
                "replicas": 4,
            }
        )
        ens = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), (cfg.grid.steps,))
        assert cfg.eps is None and cfg.effective_eps > 0
        assert np.all(np.isfinite(ens.positions_at(cfg.grid.steps)))

    def test_biot_savart_eps_zero_runs(self):
        # eps = 0 has no frozen ball; the i = j diagonal sits at r = 0,
        # where the kernel is 0 by oddness
        cfg = config_from_dict(
            {
                "domain": {"kind": "torus", "dim": 2},
                "kernel": {"name": "biot_savart_periodic", "params": {}},
                "n_particles": 3,
                "grid": {"t0": 0.0, "dt": 0.01, "steps": 4},
                "noise": {"kind": "brownian"},
                "initial_law": {"name": "uniform", "params": {}},
                "seed": 11,
                "replicas": 4,
                "eps": 0.0,
            }
        )
        ens = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), (cfg.grid.steps,))
        assert cfg.effective_eps == 0.0
        assert np.all(np.isfinite(ens.positions_at(cfg.grid.steps)))

    def test_fractional_driver_shapes_and_determinism(self):
        cfg = make_cfg(
            noise={"kind": "fbm", "hurst": 0.3},
            n_particles=2,
            replicas=16,
            grid={"t0": 0.0, "dt": 0.01, "steps": 8},
        )
        every_step = range(cfg.grid.steps + 1)
        a = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), every_step)
        b = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), every_step)
        assert set(a.snapshots) == set(range(9))
        for step in range(9):
            assert a.positions_at(step).shape == (16, 2, 1)
            assert np.array_equal(a.positions_at(step), b.positions_at(step))

    def test_determinism_and_seed_sensitivity(self):
        cfg = make_cfg(replicas=40, grid={"t0": 0.0, "dt": 0.01, "steps": 10})
        a = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), (cfg.grid.steps,))
        b = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), (cfg.grid.steps,))
        c = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed + 1), (cfg.grid.steps,))
        assert np.array_equal(a.positions_at(10), b.positions_at(10))
        assert not np.array_equal(a.positions_at(10), c.positions_at(10))

    def test_particles_exchangeable(self):
        # identical-in-law coordinates: paired first and second moments of
        # particle 0 and particle 5 agree to sampling error
        cfg = make_cfg(n_particles=6, replicas=4000,
                       grid={"t0": 0.0, "dt": 0.002, "steps": 50}, seed=555)
        ens = simulate_particle_system(cfg, RngStream(root_seed=cfg.seed), (cfg.grid.steps,))
        term = ens.positions_at(50)[:, :, 0]
        for moment in (lambda v: v, np.square):
            diff = moment(term[:, 0]) - moment(term[:, 5])
            assert abs(zscore(diff, 0.0)) < 4.0


class TestMeanFieldLaw:
    def test_picard_residuals_decrease(self):
        # iterate 0 freezes the initial law, which is visibly wrong over
        # T = 0.5; later corrections shrink toward the resampling floor
        cfg = make_cfg(grid={"t0": 0.0, "dt": 0.005, "steps": 100})
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=4000, iters=4)
        assert len(law.residuals) == 3
        assert law.residuals[0] > 2 * law.residuals[1]
        assert all(r > 0 for r in law.residuals)
        assert not law.non_convergent

    def test_terminal_mean_matches_recursion(self):
        # at the fixed point the ensemble mean follows
        # m_{s+1} = (1 + 2 dt) m_s exactly; for linear_pair the stored
        # summary is that ensemble mean. Each path has the Euler variance
        # v_{s+1} = (1 + dt)^2 v_s + dt from v_0 = 1.
        m, dt = 8000, 0.001
        cfg = make_cfg(seed=7)
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=m, iters=4)
        exact = 0.5 * (1.0 + 2 * dt) ** 100
        v = 1.0
        for _ in range(100):
            v = (1.0 + dt) ** 2 * v + dt
        assert abs(law.summaries[100, 0] - exact) / math.sqrt(v / m) < 4.0

    def test_uncoupled_drift_runs_single_iteration(self):
        cfg = make_cfg(drift={"name": "restoring_b0", "params": {"rate": 1.0}})
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=500, iters=5)
        assert law.iters == 1
        assert law.residuals == []
        assert law.summaries is None and law.ens_paths is None
        x = np.linspace(-1, 1, 7)[:, None]
        assert np.array_equal(law.mean_drift_at(3, x), np.zeros_like(x))
        assert np.allclose(law.reference_drift_at(3, x), -x)

    def test_mean_drift_is_state_plus_ensemble_mean(self):
        cfg = make_cfg()
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=1000, iters=2)
        x = np.linspace(-2, 2, 9)[:, None]
        for idx in (0, 50, 100):
            want = x + law.summaries[idx]
            assert np.allclose(law.mean_drift_at(idx, x), want, atol=1e-14)

    def test_generic_drift_retains_ensemble(self):
        cfg = make_cfg(drift={"name": "sign_gated_pair", "params": {}},
                       grid={"t0": 0.0, "dt": 0.01, "steps": 20})
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=500, iters=2)
        assert law.summaries is None
        assert law.ens_paths.shape == (500, 21, 1)
        x = np.array([[0.3], [-0.7]])
        want = law.drift.mean_field_drift(x, law.ens_paths[:, 4, :], None)
        assert np.array_equal(law.mean_drift_at(4, x), want)

    def test_generic_drift_memory_guard(self):
        cfg = make_cfg(drift={"name": "sign_gated_pair", "params": {}},
                       grid={"t0": 0.0, "dt": 0.01, "steps": 99})
        with pytest.raises(MemoryError, match="reduce m"):
            solve_mckean_vlasov_picard(cfg, RngStream(root_seed=1), m=100_000, iters=2)

    def test_iteration_budget_guard(self):
        cfg = make_cfg()
        with pytest.raises(ValueError, match="stream-keying budget"):
            solve_mckean_vlasov_picard(cfg, RngStream(root_seed=1), m=100, iters=100)


class TestReferenceMarginals:
    def test_ou_variance_recursion(self):
        # independent copies under the restoring drift: the Euler variance
        # obeys v_{s+1} = (1 - dt)^2 v_s + dt
        cfg = make_cfg(
            drift={"name": "restoring_b0", "params": {"rate": 1.0}},
            grid={"t0": 0.0, "dt": 0.0125, "steps": 40},
            initial_law={"name": "gaussian", "params": {"mean": [0.0], "sigma": 1.0}},
            seed=4242,
        )
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=200, iters=1)
        count = 8000
        marg = sample_reference_marginals(cfg, law, count, RngStream(root_seed=cfg.seed), (cfg.grid.steps,))
        v = 1.0
        for _ in range(40):
            v = (1.0 - 0.0125) ** 2 * v + 0.0125
        sample_var = marg[40][:, 0].var(ddof=1)
        se = v * math.sqrt(2.0 / (count - 1))
        assert abs(sample_var - v) / se < 4.0

    def test_reference_mean_follows_frozen_summaries(self):
        # given the stored summaries, the reference chain mean is the
        # deterministic recursion x_{s+1} = (1 + dt) x_s + dt summary_s
        cfg = make_cfg(seed=11)
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=4000, iters=3)
        count = 6000
        marg = sample_reference_marginals(cfg, law, count, RngStream(root_seed=cfg.seed), (cfg.grid.steps,))
        x = 0.5
        for s in range(100):
            x = (1.0 + 0.001) * x + 0.001 * float(law.summaries[s, 0])
        assert abs(zscore(marg[100][:, 0], x)) < 4.0

    def test_snapshot_steps_and_determinism(self):
        cfg = make_cfg(replicas=10)
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=300, iters=2)
        a = sample_reference_marginals(cfg, law, 500, RngStream(root_seed=9), (0, 50, 100))
        b = sample_reference_marginals(cfg, law, 500, RngStream(root_seed=9), (0, 50, 100))
        assert set(a) == {0, 50, 100}
        assert all(a[s].shape == (500, 1) for s in a)
        for s in a:
            assert np.array_equal(a[s], b[s])
        # a step's samples do not depend on which other steps are recorded, under either noise
        for noise in NOISES:
            cfg = make_cfg(replicas=10, noise=noise)
            law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=300, iters=2)
            every = sample_reference_marginals(cfg, law, 500, RngStream(root_seed=9), range(101))
            for steps in ((0, 50, 100), (30, 70)):
                some = sample_reference_marginals(cfg, law, 500, RngStream(root_seed=9), steps)
                assert tuple(some) == steps
                for s in steps:
                    assert np.array_equal(some[s], every[s])


@pytest.mark.parametrize("noise", [{"kind": "brownian"}, {"kind": "fbm", "hurst": 0.3}], ids=["brownian", "fbm"])
class TestBlockKeying:
    """A block's rows depend only on its block index, never on how many
    rows follow it: the property that lets blocks run in any order."""

    def cfg(self, noise, replicas):
        return make_cfg(noise=noise, replicas=replicas, grid={"t0": 0.0, "dt": 1.0 / 64, "steps": 16})

    def test_replica_blocks(self, noise):
        short, long = self.cfg(noise, BLOCK_REPLICAS), self.cfg(noise, BLOCK_REPLICAS + 6)
        law = solve_mckean_vlasov_picard(short, RngStream(root_seed=1), m=200, iters=2)
        ens_s, ens_l = (simulate_particle_system(c, RngStream(root_seed=2), (0, c.grid.steps)) for c in (short, long))
        assert set(ens_s.snapshots) == set(ens_l.snapshots)
        for s, pos in ens_s.snapshots.items():
            assert np.array_equal(ens_l.snapshots[s][:BLOCK_REPLICAS], pos)
        w_s, w_l = (girsanov_weight(c, law, RngStream(root_seed=3), range(c.grid.steps + 1)) for c in (short, long))
        assert np.array_equal(w_l.log_z[:BLOCK_REPLICAS], w_s.log_z)
        assert np.array_equal(w_l.energy[:BLOCK_REPLICAS], w_s.energy)

    def test_path_blocks(self, noise):
        cfg = self.cfg(noise, 10)
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=1), m=200, iters=2)
        short, long = (
            sample_reference_marginals(cfg, law, count, RngStream(root_seed=4), (0, cfg.grid.steps))
            for count in (PATH_BLOCK, PATH_BLOCK + 5)
        )
        assert set(short) == set(long)
        for s, x in short.items():
            assert np.array_equal(long[s][:PATH_BLOCK], x)


@pytest.mark.parametrize("step", [-1, 17], ids=["before", "after"])
def test_each_stage_refuses_a_step_off_the_grid(step):
    # an unchecked step would leave np.empty rows in a snapshot or a zero log Z column
    cfg = make_cfg(replicas=10, grid={"t0": 0.0, "dt": 1.0 / 64, "steps": 16})
    law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=1), m=100, iters=1)
    stages = {
        "particles": lambda steps: simulate_particle_system(cfg, RngStream(root_seed=2), steps),
        "references": lambda steps: sample_reference_marginals(cfg, law, 100, RngStream(root_seed=2), steps),
        "weights": lambda steps: girsanov_weight(cfg, law, RngStream(root_seed=2), steps),
    }
    for name, run in stages.items():
        with pytest.raises(ValueError, match=r"steps must lie in 0\.\.16"):
            run((0, step))
