"""Change-of-measure weights, divergence estimators and inequality checks.

The synthetic-shift fixtures have closed-form answers (constant drift
difference c over horizon T gives KL = c^2 T / 2 and Var log Z = c^2 T),
so estimator output is tested against exact numbers at Monte Carlo
tolerances.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chaoslab import measure
from chaoslab.bounds import estimate_beta
from chaoslab.core import RngStream, TimeGrid, config_from_dict
from chaoslab.dynamics import BLOCK_REPLICAS, BlowupError, solve_mckean_vlasov_picard
from chaoslab.experiment import _point_rows, plan_from_dict
from chaoslab.kernels import DriftSpec
from chaoslab.measure import (
    CheckRecord,
    GirsanovWeight,
    concentration_bounds,
    entropy_girsanov,
    entropy_knn,
    girsanov_weight,
    log_weights_from_deltas,
    pinsker_and_subadditivity_check,
    tv_histogram,
)


def make_cfg(**over):
    base = {
        "domain": {"kind": "euclidean", "dim": 1},
        "drift": {"name": "linear_pair", "params": {}},
        "n_particles": 4,
        "grid": {"t0": 0.0, "dt": 1.0 / 64, "steps": 16},
        "noise": {"kind": "brownian"},
        "initial_law": {"name": "gaussian", "params": {"mean": [0.0], "sigma": 0.5}},
        "seed": 52,
        "replicas": 2000,
    }
    base.update(over)
    return config_from_dict(base)


def constant_shift_weight(c=1.0, replicas=20_000, steps=50, dt=0.01, seed=2024):
    """Weight of a constant drift shift c against the driving Brownian
    motion: log Z_T = c W_T - c^2 T / 2 exactly."""
    grid = TimeGrid(t0=0.0, dt=dt, steps=steps)
    gen = np.random.Generator(np.random.Philox(seed))
    dw = math.sqrt(dt) * gen.standard_normal((replicas, steps, 1))
    delta = np.full((replicas, steps, 1), c)
    lz = log_weights_from_deltas(delta, dw, dt)
    return GirsanovWeight(grid=grid, log_z=lz, n=1)


class TestLogWeights:
    def test_anchor_and_shape(self):
        gen = np.random.Generator(np.random.Philox(5))
        delta = gen.standard_normal((7, 12, 3))
        dw = gen.standard_normal((7, 12, 3))
        out = log_weights_from_deltas(delta, dw, 0.25)
        assert out.shape == (7, 13)
        assert np.array_equal(out[:, 0], np.zeros(7))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching shapes"):
            log_weights_from_deltas(np.zeros((2, 3, 1)), np.zeros((2, 4, 1)), 0.1)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 3))
    def test_matches_direct_sum(self, seed, steps, q):
        gen = np.random.Generator(np.random.Philox(seed))
        delta = gen.standard_normal((2, steps, q))
        dw = gen.standard_normal((2, steps, q))
        dt = 0.125
        out = log_weights_from_deltas(delta, dw, dt)
        for r in range(2):
            acc = 0.0
            for s in range(steps):
                acc += float(delta[r, s] @ dw[r, s]) - 0.5 * dt * float(delta[r, s] @ delta[r, s])
                assert math.isclose(out[r, s + 1], acc, rel_tol=1e-12, abs_tol=1e-12)


class TestSyntheticShift:
    def test_entropy_matches_closed_form(self):
        w = constant_shift_weight()
        rep = entropy_girsanov(w, 1)
        assert abs(rep.value - 0.25) < 3 * rep.stderr
        # log Z_T is Gaussian with variance c^2 T
        assert abs(w.log_z[:, -1].var() - 0.5) < 0.02

    def test_control_variate_tightens_stderr(self):
        w = constant_shift_weight()
        rep = entropy_girsanov(w, 1)
        p = rep.params
        # the plug-in coefficient minimizes in-sample variance, so the
        # controlled stderr can never exceed the raw one
        assert p["stderr_full"] <= p["raw_stderr_full"] * (1 + 1e-12)
        assert p["stderr_full"] < 0.5 * p["raw_stderr_full"]
        assert abs(p["raw_h_full"] - 0.25) < 4 * p["raw_stderr_full"]
        assert p["control_lambda"] != 0.0

    def test_weight_martingale_and_initial_value(self):
        w = constant_shift_weight()
        assert np.array_equal(w.weights_at(0), np.ones(w.replicas))
        mean, stderr, z = w.martingale_check()
        assert abs(z) < 4.0
        mean0, stderr0, z0 = w.martingale_check(step=0)
        assert (mean0, stderr0, z0) == (1.0, 0.0, 0.0)


class TestGirsanovWeight:
    def test_mismatched_drift_rejected(self):
        cfg = make_cfg()
        other = make_cfg(drift={"name": "attract_pair", "params": {}})
        law = solve_mckean_vlasov_picard(other, RngStream(root_seed=1), m=300, iters=2)
        with pytest.raises(ValueError, match="different drift"):
            girsanov_weight(cfg, law, RngStream(root_seed=2))

    def test_torus_kernel_weight_is_martingale(self):
        cfg = make_cfg(
            domain={"kind": "torus", "dim": 2},
            drift=None,
            kernel={"name": "smooth_divfree", "params": {"frequency": 1}},
            n_particles=8,
            grid={"t0": 0.0, "dt": 0.01, "steps": 25},
            initial_law={"name": "uniform", "params": {}},
            seed=88,
            replicas=3000,
        )
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=2000, iters=2)
        w = girsanov_weight(cfg, law, RngStream(root_seed=cfg.seed, counter=1))
        _, _, z = w.martingale_check()
        assert abs(z) < 4.0
        assert w.energy.shape == (3000, 8)
        assert (w.energy >= 0).all()
        assert w.quality_flag is None

    def test_biot_savart_weight_is_martingale(self):
        # singular kernel through the generic pair and mean-field paths;
        # radius 1 keeps the lattice sum cheap
        cfg = make_cfg(
            domain={"kind": "torus", "dim": 2},
            drift=None,
            kernel={"name": "biot_savart_periodic", "params": {}},
            truncation_radius=1,
            n_particles=4,
            grid={"t0": 0.0, "dt": 0.01, "steps": 10},
            initial_law={"name": "uniform", "params": {}},
            replicas=2000,
        )
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=200, iters=2)
        w = girsanov_weight(cfg, law, RngStream(root_seed=cfg.seed, counter=1))
        mean, stderr, z = w.martingale_check()
        print(f"Biot-Savart E[Z] = {mean:.4f} +- {stderr:.4f} (z = {z:+.2f})")
        assert abs(z) <= 3.0

    def test_particle_count_override(self):
        # one law serves every swept n: the weights take n and the replica
        # count from the config they are given
        cfg = make_cfg(n_particles=8, replicas=200)
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=1), m=300, iters=2)
        w = girsanov_weight(replace(cfg, n_particles=4, replicas=150), law, RngStream(root_seed=2))
        assert w.n == 4
        assert w.log_z.shape == (150, cfg.grid.steps + 1)
        assert w.energy.shape == (150, 4)

    @pytest.mark.parametrize("hurst,seed", [(0.75, 52), (0.3, 61)])
    def test_fractional_weight_is_martingale(self, hurst, seed):
        cfg = make_cfg(noise={"kind": "fbm", "hurst": hurst}, seed=seed)
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=2000, iters=2)
        w = girsanov_weight(cfg, law, RngStream(root_seed=cfg.seed, counter=1))
        _, _, z = w.martingale_check()
        assert abs(z) < 4.0
        assert w.energy.shape == (2000, 4)
        assert (w.energy >= 0).all()
        assert "Volterra" in w.quality_flag

    def test_determinism(self):
        cfg = make_cfg(replicas=300)
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=1), m=300, iters=2)
        a = girsanov_weight(cfg, law, RngStream(root_seed=3))
        b = girsanov_weight(cfg, law, RngStream(root_seed=3))
        assert np.array_equal(a.log_z, b.log_z)

    def test_generic_mean_field_evaluated_once_per_step(self, monkeypatch):
        # the weight integrand and the reference drift share one mean-field
        # evaluation, the O(m b) ensemble sum for a non-separable drift
        cfg = make_cfg(
            drift={"name": "sign_gated_pair", "params": {}},
            n_particles=2,
            replicas=BLOCK_REPLICAS + 6,
            grid={"t0": 0.0, "dt": 1.0 / 64, "steps": 3},
        )
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=100, iters=1)
        calls = []
        original = DriftSpec.mean_field_drift

        def counted(self, *args, **kwargs):
            calls.append(args[1].shape)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(DriftSpec, "mean_field_drift", counted)
        girsanov_weight(cfg, law, RngStream(root_seed=cfg.seed, counter=1))
        assert calls == [(BLOCK_REPLICAS, 2, 1)] * 3 + [(6, 2, 1)] * 3

    @pytest.mark.parametrize("noise", [{"kind": "brownian"}, {"kind": "fbm", "hurst": 0.3}], ids=["brownian", "fbm"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_log_weight_names_the_replica(self, monkeypatch, noise):
        # delta at step s drives log Z at step s + 1 under either noise; under fBm
        # the inverse Volterra map's FFT spreads a non-finite delta over its series
        cfg = make_cfg(noise=noise, n_particles=2, replicas=BLOCK_REPLICAS + 6,
                       grid={"t0": 0.0, "dt": 1.0 / 64, "steps": 6})
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=100, iters=1)
        pair_mean = law.drift.pair_mean_generic

        def poisoned(t, states, feats=None):
            out = pair_mean(t, states, feats)
            if states.shape[0] == 6 and round(t * 64) >= 3:  # the second replica block, from step 3
                out[4] = np.inf
            return out

        monkeypatch.setattr(law.drift, "pair_mean_generic", poisoned)
        message = f"non-finite log-weight at step 4, replica {BLOCK_REPLICAS + 4}"
        with pytest.raises(BlowupError, match=message) as exc:
            girsanov_weight(cfg, law, RngStream(root_seed=cfg.seed, counter=1))
        assert (exc.value.step, exc.value.replica, exc.value.particle) == (4, BLOCK_REPLICAS + 4, None)

    @pytest.mark.parametrize("noise", [{"kind": "brownian"}, {"kind": "fbm", "hurst": 0.3}], ids=["brownian", "fbm"])
    def test_recorded_subset_equals_the_full_record(self, noise):
        # recording a few steps keeps their values bit for bit
        cfg = make_cfg(noise=noise, replicas=BLOCK_REPLICAS + 6)
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=300, iters=2)
        full = girsanov_weight(cfg, law, RngStream(root_seed=cfg.seed, counter=1))
        sub = girsanov_weight(cfg, law, RngStream(root_seed=cfg.seed, counter=1), snapshot_times=(0.125, 0.0625))
        assert sub.steps == (0, 4, 8, 16)
        assert sub.log_z.shape == (BLOCK_REPLICAS + 6, 4)
        for step in sub.steps:
            assert np.array_equal(sub.log_z_at(step), full.log_z[:, step])
            assert np.array_equal(sub.weights_at(step), full.weights_at(step))
        assert np.array_equal(sub.energy, full.energy)
        assert entropy_girsanov(sub, 2, step=8).value == entropy_girsanov(full, 2, step=8).value
        with pytest.raises(KeyError, match="snapshot_times"):
            sub.weights_at(5)
        with pytest.raises(KeyError, match="snapshot_times"):
            entropy_girsanov(sub, 1, step=5)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_blowup_names_the_lowest_replica_at_its_first_step(self, monkeypatch):
        # replica 3 goes bad at a later step than replica 5; the lowest bad
        # replica is reported, at its first non-finite step, whichever
        # steps are recorded (step 3 is not recorded by the plan below)
        cfg = make_cfg(n_particles=2, replicas=8, grid={"t0": 0.0, "dt": 1.0 / 64, "steps": 4})
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=100, iters=1)
        pair_mean = DriftSpec.pair_mean_generic

        def poisoned(self, t, states, feats=None):
            out = pair_mean(self, t, states, feats)
            step = round(t * 64)  # delta at step s enters log Z at step s + 1
            if step == 2:
                out[3] = np.inf
            if step == 0:
                out[5] = np.nan
            return out

        monkeypatch.setattr(DriftSpec, "pair_mean_generic", poisoned)
        with pytest.raises(BlowupError, match="non-finite log-weight at step 3, replica 3") as exc:
            girsanov_weight(cfg, law, RngStream(root_seed=cfg.seed, counter=1))
        assert (exc.value.step, exc.value.replica) == (3, 3)

        plan = plan_from_dict({
            "base": {
                "domain": {"kind": "euclidean", "dim": 1},
                "drift": {"name": "linear_pair", "params": {}},
                "n_particles": 2,
                "grid": {"t0": 0.0, "dt": 1.0 / 64, "steps": 4},
                "noise": {"kind": "brownian"},
                "initial_law": {"name": "gaussian", "params": {"mean": [0.0], "sigma": 0.5}},
                "seed": 52,
                "replicas": 8,
            },
            "sweep": {"n": [2], "t": [1.0 / 32, 1.0 / 16]},
            "estimators": ["girsanov"],
            "picard": {"m": 100, "iters": 1},
        })
        with pytest.raises(BlowupError, match="non-finite log-weight at step 3, replica 3"):
            _point_rows(plan, 2)

    @pytest.mark.parametrize("snapshot_times", [None, (0.11, 0.25, 0.5)], ids=["every-step", "swept"])
    def test_a_window_of_steps_records_the_bits_of_the_whole_record(self, monkeypatch, snapshot_times):
        # a Brownian block holds its log Z increments _WINDOW steps at a time; the running sum
        # carried into each window is the cumsum's own addition, so no bit moves
        cfg = make_cfg(n_particles=3, replicas=BLOCK_REPLICAS + 6, grid={"t0": 0.0, "dt": 1.0 / 100, "steps": 50})
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=100, iters=1)
        whole = girsanov_weight(cfg, law, RngStream(root_seed=cfg.seed, counter=1), snapshot_times=snapshot_times)
        monkeypatch.setattr(measure, "_WINDOW", 7)
        windowed = girsanov_weight(cfg, law, RngStream(root_seed=cfg.seed, counter=1), snapshot_times=snapshot_times)
        assert windowed.steps == whole.steps
        assert windowed.log_z.tobytes() == whole.log_z.tobytes()
        assert windowed.energy.tobytes() == whole.energy.tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_a_blowup_beyond_the_first_window_names_its_step(self, monkeypatch):
        # [brownian]: delta poisoned from step 9 drives log Z non-finite from step 10, in the second window
        monkeypatch.setattr(measure, "_WINDOW", 4)
        cfg = make_cfg(n_particles=2, replicas=BLOCK_REPLICAS + 6, grid={"t0": 0.0, "dt": 1.0 / 64, "steps": 12})
        law = solve_mckean_vlasov_picard(cfg, RngStream(root_seed=cfg.seed), m=100, iters=1)
        pair_mean = law.drift.pair_mean_generic

        def poisoned(t, states, feats=None):
            out = pair_mean(t, states, feats)
            if states.shape[0] == 6 and round(t * 64) >= 9:  # the second replica block, from step 9
                out[4] = np.inf
            return out

        monkeypatch.setattr(law.drift, "pair_mean_generic", poisoned)
        with pytest.raises(BlowupError, match=f"non-finite log-weight at step 10, replica {BLOCK_REPLICAS + 4}"):
            girsanov_weight(cfg, law, RngStream(root_seed=cfg.seed, counter=1))


class TestEntropyGirsanov:
    def test_marginal_surrogate_is_fraction_of_full(self):
        w = constant_shift_weight(replicas=2000)
        # n is carried by the weight object; fake a 5-particle system
        w.n = 5
        full = entropy_girsanov(w, 5)
        for k in (1, 2, 3):
            rep = entropy_girsanov(w, k)
            assert math.isclose(rep.value, k / 5 * full.params["h_full"], rel_tol=1e-12)
            assert math.isclose(rep.stderr, k / 5 * full.params["stderr_full"], rel_tol=1e-12)
            assert rep.params["surrogate"] == "subadditivity"

    def test_k_out_of_range(self):
        w = constant_shift_weight(replicas=1500)
        for k in (0, 2):
            with pytest.raises(ValueError, match="1 <= k <= n"):
                entropy_girsanov(w, k)

    def test_few_replicas_warns(self):
        w = constant_shift_weight(replicas=500)
        with pytest.warns(UserWarning, match="replicas"):
            entropy_girsanov(w, 1)

    def test_step_and_time_selection(self):
        w = constant_shift_weight(replicas=1200, steps=20, dt=0.05)
        at_step = entropy_girsanov(w, 1, step=10)
        at_time = entropy_girsanov(w, 1, step=w.grid.index_of(0.5))
        assert at_step.value == at_time.value
        assert at_step.t == 0.5
        # the weight starts at Z = 1, where the divergence vanishes
        zero = entropy_girsanov(w, 1, step=0)
        assert zero.value == 0.0
        assert zero.stderr == 0.0

    def test_degenerate_weights_flagged_unreliable(self):
        grid = TimeGrid(t0=0.0, dt=0.1, steps=1)
        lz = np.full((2000, 2), -10.0)
        lz[:, 0] = 0.0
        lz[0, 1] = 10.0  # one replica carries all the mass
        w = GirsanovWeight(grid=grid, log_z=lz, n=2)
        rep = entropy_girsanov(w, 1)
        assert rep.unreliable
        assert rep.params["ess"] < 0.05 * 2000


class TestEntropyKnn:
    def test_same_law_near_zero(self):
        gen = np.random.Generator(np.random.Philox(812))
        p = gen.standard_normal((4000, 1))
        q = gen.standard_normal((4000, 1))
        rep = entropy_knn(p, q)
        assert abs(rep.value) < 0.05

    def test_gaussian_shift_value(self):
        # KL(N(1,1) || N(0,1)) = 1/2
        gen = np.random.Generator(np.random.Philox(813))
        p = 1.0 + gen.standard_normal((4000, 1))
        q = gen.standard_normal((4000, 1))
        rep = entropy_knn(p, q)
        assert abs(rep.value - 0.5) < 0.1

    def test_restricted_uniform_value(self):
        # KL(U(0, 1/2) || U(0, 1)) = log 2
        gen = np.random.Generator(np.random.Philox(814))
        p = 0.5 * gen.random((4000, 1))
        q = gen.random((4000, 1))
        rep = entropy_knn(p, q)
        assert abs(rep.value - math.log(2)) < 0.1

    def test_torus_metric(self):
        gen = np.random.Generator(np.random.Philox(815))
        p = gen.random((3000, 1)) - 0.5
        q = gen.random((3000, 1)) - 0.5
        rep = entropy_knn(p, q, torus=True)
        assert abs(rep.value) < 0.08
        assert rep.params["torus"]

    def test_duplicate_points_jittered(self):
        gen = np.random.Generator(np.random.Philox(816))
        # each point needs more than `neighbors` clones to zero the kNN radius
        p = np.repeat(gen.standard_normal((150, 1)), 6, axis=0)
        q = gen.standard_normal((900, 1))
        rep = entropy_knn(p, q)
        assert rep.params["jittered"]
        assert math.isfinite(rep.value)

    def test_input_validation(self):
        gen = np.random.Generator(np.random.Philox(817))
        small = gen.standard_normal((50, 1))
        big = gen.standard_normal((200, 1))
        with pytest.raises(ValueError, match="100 samples"):
            entropy_knn(small, big)
        with pytest.raises(ValueError, match="matching dimension"):
            entropy_knn(big, gen.standard_normal((200, 2)))
        with pytest.raises(ValueError, match="neighbors"):
            entropy_knn(big, big, neighbors=0)


class TestTvHistogram:
    def test_gaussian_shift_value(self):
        # TV(N(0,1), N(1,1)) = 2 Phi(1/2) - 1
        exact = 0.3829249225480263
        gen = np.random.Generator(np.random.Philox(818))
        p = gen.standard_normal((40000, 1))
        q = 1.0 + gen.standard_normal((40000, 1))
        rep = tv_histogram(p, q, bins_per_dim=64)
        assert abs(rep.value - exact) < 0.02
        assert rep.params["mass_p"] == 1.0
        assert rep.params["mass_q"] == 1.0

    def test_identical_samples_zero(self):
        gen = np.random.Generator(np.random.Philox(819))
        p = gen.standard_normal((500, 2))
        rep = tv_histogram(p, p.copy(), bins_per_dim=8)
        assert rep.value == 0.0

    def test_torus_ranges_fixed(self):
        gen = np.random.Generator(np.random.Philox(820))
        p = gen.random((1000, 2)) - 0.5
        rep = tv_histogram(p, p.copy(), bins_per_dim=8, torus=True)
        assert rep.params["ranges"] == [[-0.5, 0.5], [-0.5, 0.5]]

    def test_dimension_and_bin_guards(self):
        p = np.zeros((100, 5))
        with pytest.raises(ValueError, match="dim > 4"):
            tv_histogram(p, p)
        with pytest.raises(ValueError, match="2 bins"):
            tv_histogram(np.zeros((100, 1)), np.zeros((100, 1)), bins_per_dim=1)


class TestConcentrationBounds:
    def test_closed_forms_exact(self):
        assert concentration_bounds("hoeffding", n=10, eps=0.5, b=1.0) == math.exp(-1.25)
        assert concentration_bounds("moment", q=3, v=0.7) == 2.0 * 6 * 1.4**3
        assert concentration_bounds(
            "drift_integral", p=2, beta=1.5, delta=0.3, n=50
        ) == 2.0 * 1.5**2 * 0.3**2 / 50**2
        assert concentration_bounds(
            "fractional", p=2, beta=1.5, delta=0.3, n=50, hurst=0.75
        ) == 2.0 * 1.5**2 * 0.3 ** (0.5 * 2) / 50**2

    @pytest.mark.parametrize("kind,hurst", [("fractional", 0.3), ("fractional", 0.75), ("drift_integral", None)])
    def test_fitted_beta_round_trips_to_the_measured_moment(self, kind, hurst):
        # estimate_beta solves p! beta_p^p delta^(e p) / n^p = E[Y^p] for
        # each p; the bound at beta_p must give that moment back, so both
        # read the same delta exponent e at every H
        n, delta = 8, 0.25
        y = np.random.Generator(np.random.Philox(823)).exponential(0.3, size=500)
        fit = estimate_beta(y, n=n, delta=delta, hurst=hurst)
        extra = {} if hurst is None else {"hurst": hurst}
        for p, beta in fit.per_p.items():
            bound = concentration_bounds(kind, p=p, beta=beta, delta=delta, n=n, **extra)
            assert bound == pytest.approx(float(np.mean(y**p)), rel=1e-12, abs=0.0)

    def test_hoeffding_dominates_bounded_mean(self):
        # empirical tail of the mean of n uniforms on [-1, 1]
        gen = np.random.Generator(np.random.Philox(821))
        n, eps, trials = 50, 0.3, 20000
        means = (2.0 * gen.random((trials, n)) - 1.0).mean(axis=1)
        emp = float(np.mean(means >= eps))
        assert emp <= concentration_bounds("hoeffding", n=n, eps=eps, b=1.0)

    @pytest.mark.parametrize("q", [2, 3])
    def test_moment_bound_dominates_gaussian(self, q):
        # E[G^{2q}] = (2q-1)!! v^q for G ~ N(0, v)
        v = 0.8
        exact = float(np.prod(np.arange(1, 2 * q, 2))) * v**q
        assert exact <= concentration_bounds("moment", q=q, v=v)
        gen = np.random.Generator(np.random.Philox(822))
        emp = float(np.mean((math.sqrt(v) * gen.standard_normal(200000)) ** (2 * q)))
        assert emp <= concentration_bounds("moment", q=q, v=v)

    def test_overflow_returns_inf_with_warning(self):
        with pytest.warns(UserWarning, match="overflowed"):
            out = concentration_bounds("moment", q=10000, v=1.0)
        assert out == math.inf

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="eps"):
            concentration_bounds("hoeffding", n=10, eps=-1.0, b=1.0)
        with pytest.raises(ValueError, match="integer"):
            concentration_bounds("moment", q=2.5, v=1.0)
        with pytest.raises(ValueError, match="hurst"):
            concentration_bounds("fractional", p=1, beta=1.0, delta=0.5, n=10, hurst=1.5)
        with pytest.raises(ValueError, match="unknown bound"):
            concentration_bounds("bernstein", n=10, eps=0.1, b=1.0)


def _report(kind, value, stderr, k, n, t=0.5, params=None):
    from chaoslab.measure import EntropyReport

    return EntropyReport(kind=kind, value=value, stderr=stderr, k=k, n=n,
                         t=t, params=params or {})


class TestPinskerSubadditivityCheck:
    def make_trio(self, tv_value=0.3):
        h_k = _report("knn", 0.08, 0.005, 1, 4)
        tv = _report("histogram_tv", tv_value, 0.01, 1, 0, t=math.nan)
        full = _report("girsanov", 0.4, 0.01, 4, 4,
                       params={"h_full": 0.4, "stderr_full": 0.01})
        return h_k, tv, full

    def test_margins_match_manual_arithmetic(self):
        h_k, tv, full = self.make_trio()
        rec = pinsker_and_subadditivity_check(h_k, tv, full)
        ceiling = math.sqrt(2 * (0.08 + 3 * 0.005)) + 3 * 0.01
        rhs = 0.25 * 0.4 + 3 * (0.005 + 0.25 * 0.01)
        assert math.isclose(rec.pinsker_margin, ceiling - 0.3, rel_tol=1e-12)
        assert math.isclose(rec.subadditivity_margin, rhs - 0.08, rel_tol=1e-12)
        assert rec.passed
        assert rec.details["k"] == 1 and rec.details["n"] == 4

    def test_violated_pinsker_fails(self):
        h_k, tv, full = self.make_trio(tv_value=0.9)
        rec = pinsker_and_subadditivity_check(h_k, tv, full)
        assert not rec.passed
        assert rec.pinsker_margin < 0

    def test_negative_estimate_clipped(self):
        h_k = _report("knn", -0.02, 0.001, 1, 4)
        tv = _report("histogram_tv", 0.0, 0.001, 1, 0, t=math.nan)
        full = _report("girsanov", 0.4, 0.01, 4, 4,
                       params={"h_full": 0.4, "stderr_full": 0.01})
        rec = pinsker_and_subadditivity_check(h_k, tv, full)
        assert rec.details["pinsker_ceiling"] >= 0.0

    def test_metadata_mismatches_rejected(self):
        h_k, tv, full = self.make_trio()
        bad_tv = _report("histogram_tv", 0.3, 0.01, 2, 4)
        with pytest.raises(ValueError, match="k/n metadata"):
            pinsker_and_subadditivity_check(h_k, bad_tv, full)
        bad_full = _report("girsanov", 0.4, 0.01, 3, 4)
        with pytest.raises(ValueError, match="full-system"):
            pinsker_and_subadditivity_check(h_k, tv, bad_full)
        late_tv = _report("histogram_tv", 0.3, 0.01, 1, 0, t=0.75)
        with pytest.raises(ValueError, match="time mismatch"):
            pinsker_and_subadditivity_check(h_k, late_tv, full)

