"""Interaction kernels: antisymmetry, divergence, lattice tails, L^p
refinement behavior, and the drift fast paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab.core import ConfigError, DomainSpec, RngStream, config_from_dict
from chaoslab.kernels import (
    DriftSpec,
    biot_savart_free,
    biot_savart_periodic,
    build_drift,
    divergence_fd,
    grid_lp_norm,
    smooth_divfree_kernel,
    validate_linear_growth,
)

RNG = np.random.default_rng(20260819)


def torus_probes(count, min_dist=0.05, seed=0):
    gen = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        cand = gen.uniform(-0.5, 0.5, size=(4 * count, 2))
        keep = np.max(np.abs(cand), axis=1) >= min_dist
        pts.extend(cand[keep])
    return np.array(pts[:count])


class TestBiotSavartFree:
    def test_perpendicular(self):
        x = RNG.normal(size=(100, 2))
        k = biot_savart_free(x)
        assert np.max(np.abs(np.sum(x * k, axis=-1))) < 1e-14

    def test_magnitude(self):
        x = RNG.normal(size=(50, 2))
        k = biot_savart_free(x)
        r = np.linalg.norm(x, axis=-1)
        assert np.allclose(np.linalg.norm(k, axis=-1), 1.0 / (2.0 * math.pi * r))

    def test_antisymmetric_exact(self):
        x = RNG.normal(size=(200, 2))
        assert np.array_equal(biot_savart_free(x), -biot_savart_free(-x))

    def test_eps_regularization_caps_near_origin(self):
        x = np.array([[1e-9, 0.0]])
        assert np.linalg.norm(biot_savart_free(x)) > 1e7
        with pytest.raises(ValueError, match="eps-ball"):
            biot_savart_free(x, eps=0.01)
        k_eps = biot_savart_free(x, eps=0.01, freeze_inside=True)
        assert np.linalg.norm(k_eps) <= 1.0 / (2.0 * math.pi * 0.01) + 1e-9


class TestBiotSavartPeriodic:
    def test_antisymmetric_exact(self):
        x = torus_probes(100, min_dist=0.02, seed=3)
        k1 = biot_savart_periodic(x, truncation_radius=8)
        k2 = biot_savart_periodic(-x, truncation_radius=8)
        assert np.array_equal(k1, -k2)

    def test_divergence_small(self):
        x = torus_probes(100, min_dist=0.1, seed=4)
        div = divergence_fd(lambda y: biot_savart_periodic(y, truncation_radius=8), x)
        assert np.max(np.abs(div)) < 1e-3

    def test_lattice_tail_decay(self):
        # the shell sum converges: going from radius 8 to 16 moves the
        # field far less than the radius-4 to radius-8 refinement
        x = torus_probes(20, min_dist=0.1, seed=5)
        k4 = biot_savart_periodic(x, truncation_radius=4)
        k8 = biot_savart_periodic(x, truncation_radius=8)
        k16 = biot_savart_periodic(x, truncation_radius=16)
        in_d = np.max(np.linalg.norm(k8 - k4, axis=-1))
        out_d = np.max(np.linalg.norm(k16 - k8, axis=-1))
        assert out_d < in_d
        assert out_d < 1e-3

    def test_periodicity(self):
        x = torus_probes(20, min_dist=0.1, seed=6)
        shift = np.array([1.0, -2.0])
        assert np.allclose(
            biot_savart_periodic(x, truncation_radius=8),
            biot_savart_periodic(x + shift, truncation_radius=8),
            atol=1e-10,
        )


class TestBiotSavartAtCoincidentPoints:
    @pytest.mark.parametrize("kernel", [biot_savart_free, biot_savart_periodic])
    def test_zero_displacement_gives_zero(self, kernel):
        # r = 0 freezes to the zero vector, where the odd kernel is 0; the
        # other rows keep their bits
        x = np.array([[0.0, 0.0], [0.2, -0.1], [0.003, 0.004], [0.0, 0.0]])
        out = kernel(x, eps=0.01, freeze_inside=True)
        assert np.array_equal(out[[0, 3]], np.zeros((2, 2)))
        for i in (1, 2):
            assert np.array_equal(out[i], kernel(x[i : i + 1], eps=0.01, freeze_inside=True)[0])

    def test_coincident_particles_pair_mean_is_finite(self):
        drift = build_drift(torus_kernel_cfg("biot_savart_periodic"))
        states = np.array([[[0.1, 0.2], [0.1, 0.2], [-0.3, 0.4]]])
        out = drift.pair_mean_generic(0.0, states)
        assert np.all(np.isfinite(out))
        # particles 0 and 1 coincide, so each sees only particle 2
        assert np.array_equal(out[0, 0], out[0, 1])


class TestSmoothDivfree:
    def test_antisymmetric_exact(self):
        x = RNG.uniform(-0.5, 0.5, size=(100, 2))
        assert np.array_equal(smooth_divfree_kernel(x), -smooth_divfree_kernel(-x))

    def test_divergence_zero(self):
        x = RNG.uniform(-0.5, 0.5, size=(100, 2))
        div = divergence_fd(smooth_divfree_kernel, x)
        assert np.max(np.abs(div)) < 1e-8

    def test_bounded(self):
        x = RNG.uniform(-0.5, 0.5, size=(500, 2))
        assert np.all(np.isfinite(smooth_divfree_kernel(x, frequency=2)))


class TestGridLp:
    def test_p_below_two_stabilizes(self):
        norms = [grid_lp_norm(1.5, cells) for cells in (32, 64, 128, 256)]
        assert norms[1] > norms[0]  # still refining toward the integral
        # increments decay geometrically once the singularity resolves
        assert (norms[3] - norms[2]) < 0.6 * (norms[1] - norms[0])

    def test_p_two_blows_up(self):
        norms = [grid_lp_norm(2.0, cells) for cells in (32, 64, 128, 256)]
        sq = np.array(norms) ** 2
        incr = np.diff(sq)
        # squared norm grows linearly in log(cells): no geometric decay
        assert np.all(incr > 0)
        assert np.min(incr) > 0.8 * np.max(incr)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            grid_lp_norm(0.0, 32)


def lin_cfg(drift_name, params=None, dim=1):
    return config_from_dict(
        {
            "domain": {"kind": "euclidean", "dim": dim},
            "n_particles": 4,
            "grid": {"dt": 0.01, "steps": 10},
            "noise": {"kind": "brownian"},
            "initial_law": {"name": "gaussian", "params": {"sigma": 1.0}},
            "seed": 5,
            "replicas": 8,
            "drift": {"name": drift_name, "params": params or {}},
        }
    )


def torus_kernel_cfg(name, params=None):
    return config_from_dict(
        {
            "domain": {"kind": "torus", "dim": 2},
            "n_particles": 6,
            "grid": {"dt": 0.01, "steps": 10},
            "noise": {"kind": "brownian"},
            "initial_law": {"name": "uniform"},
            "seed": 5,
            "replicas": 8,
            "kernel": {"name": name, "params": params or {}},
        }
    )


class TestDriftSpecs:
    @pytest.mark.parametrize("name", ["linear_pair", "attract_pair"])
    def test_pair_mean_fast_path_matches_generic(self, name):
        drift = build_drift(lin_cfg(name))
        states = RNG.normal(size=(7, 5, 1))
        fast = drift.pair_mean(0.3, states)
        generic = drift.pair_mean_generic(0.3, states)
        assert np.allclose(fast, generic, atol=1e-12)

    def test_smooth_kernel_pair_mean_matches_double_loop(self):
        drift = build_drift(torus_kernel_cfg("smooth_divfree", {"frequency": 1}))
        states = RNG.uniform(-0.5, 0.5, size=(3, 4, 2))
        got = drift.pair_mean_generic(0.0, states)
        n = states.shape[1]
        want = np.zeros_like(states)
        for r in range(states.shape[0]):
            for i in range(n):
                acc = np.zeros(2)
                for j in range(n):
                    if j != i:
                        acc += smooth_divfree_kernel(states[r, i] - states[r, j])
                want[r, i] = acc / (n - 1)
        assert np.allclose(got, want, atol=1e-12)

    def test_zero_drift(self):
        drift = build_drift(lin_cfg("zero"))
        states = RNG.normal(size=(2, 4, 1))
        assert np.array_equal(drift.pair_mean_generic(0.0, states), np.zeros_like(states))

    def test_constant_b0(self):
        drift = build_drift(lin_cfg("constant_b0", {"c": [2.5]}))
        x = RNG.normal(size=(6, 1))
        assert np.allclose(drift.b0_state(0.0, x), 2.5)

    def test_unknown_drift_param_rejected(self):
        with pytest.raises(Exception, match="unknown params"):
            build_drift(lin_cfg("constant_b0", {"value": [2.5]}))
        with pytest.raises(Exception, match="unknown params"):
            build_drift(lin_cfg("linear_pair", {"strength": 2.0}))

    def test_unknown_drift_rejected(self):
        with pytest.raises(Exception, match="unknown drift"):
            build_drift(lin_cfg("warp_pair"))

    def test_mean_field_drift_linear_pair(self):
        drift = build_drift(lin_cfg("linear_pair"))
        x = np.array([[1.0], [2.0]])
        summary = np.array([0.5])
        out = drift.mean_field_drift(0.0, x, None, summary)
        assert np.allclose(out, x + 0.5)


def _state_formulas(drift_name, w=2.0 * math.pi):
    """Pair mean, ensemble summary and mean-field drift written directly on
    the states: the reference the feature-based fast paths must match bit
    for bit."""
    if drift_name == "smooth_divfree":

        def pair_mean(states):
            n = states.shape[-2]
            a2, a1 = w * states[..., 1], w * states[..., 0]
            s2, c2, s1, c1 = np.sin(a2), np.cos(a2), np.sin(a1), np.cos(a1)
            C2, S2, C1, S1 = (np.add.reduce(v, axis=-1, keepdims=True) for v in (c2, s2, c1, s1))
            out = np.empty_like(states)
            out[..., 0] = (s2 * C2 - c2 * S2) / (n - 1)
            out[..., 1] = (s1 * C1 - c1 * S1) / (n - 1)
            return out

        def summary(ens):
            a2, a1 = w * ens[..., 1], w * ens[..., 0]
            return np.array([np.mean(np.cos(a2)), np.mean(np.sin(a2)), np.mean(np.cos(a1)), np.mean(np.sin(a1))])

        def mf_drift(x, m):
            a2, a1 = w * x[..., 1], w * x[..., 0]
            out = np.empty_like(x)
            out[..., 0] = np.sin(a2) * m[0] - np.cos(a2) * m[1]
            out[..., 1] = np.sin(a1) * m[2] - np.cos(a1) * m[3]
            return out

        return pair_mean, summary, mf_drift

    def total(states):
        return np.add.reduce(states, axis=-2, keepdims=True)

    if drift_name == "linear_pair":
        return (
            lambda s: s + (total(s) - s) / (s.shape[-2] - 1),
            lambda ens: np.mean(ens, axis=0),
            lambda x, m: x + m,
        )
    return (
        lambda s: (total(s) - s.shape[-2] * s) / (s.shape[-2] - 1),
        lambda ens: np.mean(ens, axis=0),
        lambda x, m: m - x,
    )


class TestFeatureFastPaths:
    @pytest.mark.parametrize("name", ["linear_pair", "attract_pair", "smooth_divfree"])
    def test_equal_to_state_formulas(self, name):
        if name == "smooth_divfree":
            drift = build_drift(torus_kernel_cfg(name, {"frequency": 1}))
            states = RNG.uniform(-0.5, 0.5, size=(5, 6, 2))
            ens = RNG.uniform(-0.5, 0.5, size=(40, 2))
        else:
            drift = build_drift(lin_cfg(name, dim=2))
            states = RNG.normal(size=(5, 6, 2))
            ens = RNG.normal(size=(40, 2))
        pair_mean, summary, mf_drift = _state_formulas(name)
        feats = drift.feature_map(states)
        got_summary = drift.mf_summary(drift.feature_map(ens))
        assert np.array_equal(got_summary, summary(ens))
        assert np.array_equal(drift.pair_mean(0.1, feats), pair_mean(states))
        assert np.array_equal(drift.mf_drift(0.1, feats, got_summary), mf_drift(states, got_summary))
        # the entry points give the same bits with and without features at hand
        assert np.array_equal(drift.pair_mean_generic(0.1, states, feats), pair_mean(states))
        assert np.array_equal(drift.pair_mean_generic(0.1, states), pair_mean(states))
        assert np.array_equal(drift.mean_field_drift(0.1, states, None, got_summary), mf_drift(states, got_summary))


class TestGrowthValidation:
    def test_linear_pair_passes(self):
        drift = build_drift(lin_cfg("linear_pair"))
        paths = RNG.normal(size=(20, 11, 1)).cumsum(axis=1) * 0.3
        times = np.linspace(0.0, 0.1, 11)
        report = validate_linear_growth(drift, paths, times)
        assert report.passed
        assert report.max_ratio <= 1.0 + 1e-12

    def test_constant_drift_passes(self):
        drift = build_drift(lin_cfg("constant_b0", {"c": [3.0]}))
        paths = RNG.normal(size=(10, 11, 1)) * 0.1
        times = np.linspace(0.0, 0.1, 11)
        assert validate_linear_growth(drift, paths, times).passed


class TestKernelRefParsing:
    def test_unknown_kernel(self):
        with pytest.raises(Exception, match="unknown kernel"):
            build_drift(torus_kernel_cfg("vortex_blob"))

    def test_unknown_kernel_param(self):
        with pytest.raises(Exception, match="unknown params"):
            build_drift(torus_kernel_cfg("smooth_divfree", {"wavelength": 2}))

    @pytest.mark.parametrize("bad", [1.5, True, "2"])
    def test_frequency_must_be_integral(self, bad):
        with pytest.raises(ConfigError, match="frequency"):
            build_drift(torus_kernel_cfg("smooth_divfree", {"frequency": bad}))

    def test_integral_float_frequency_accepted(self):
        assert build_drift(torus_kernel_cfg("smooth_divfree", {"frequency": 2.0})).params == {"frequency": 2}


@given(st.integers(min_value=1, max_value=3))
@settings(max_examples=10)
def test_smooth_kernel_frequency_antisymmetry(freq):
    x = np.random.default_rng(freq).uniform(-0.5, 0.5, size=(20, 2))
    a = smooth_divfree_kernel(x, frequency=freq)
    b = smooth_divfree_kernel(-x, frequency=freq)
    assert np.array_equal(a, -b)
