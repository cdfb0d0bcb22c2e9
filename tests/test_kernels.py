"""Interaction kernels: antisymmetry, divergence, lattice tails, L^p
refinement behavior, and the drift fast paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab.core import ConfigError, DomainSpec, RngStream, config_from_dict, wrap_torus
from chaoslab.kernels import (
    _BATCH,
    _CHUNK,
    DriftSpec,
    biot_savart_free,
    biot_savart_periodic,
    build_drift,
    divergence_fd,
    grid_lp_norm,
    kernel_from_ref,
    sin_positive,
    smooth_divfree_kernel,
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


def ewald_periodic_kernel(x, tau=0.02, images=4, modes=30):
    """K_per = (-d2 G, d1 G) for the torus Green function, -Laplace G = delta - 1,
    by the Ewald split at tau: a Gaussian-screened image sum plus the
    heat-damped Fourier series. The default truncation is exact to ~1e-15."""
    r = np.arange(-images, images + 1, dtype=float)
    n = np.stack(np.meshgrid(r, r, indexing="ij"), axis=-1).reshape(-1, 2)
    u = x[:, None, :] - n[None]
    r2 = np.sum(u * u, axis=-1)
    grad = -np.sum(u * (np.exp(-r2 / (4 * tau)) / (2 * np.pi * r2))[..., None], axis=1)
    q = np.arange(-modes, modes + 1, dtype=float)
    k = np.stack(np.meshgrid(q, q, indexing="ij"), axis=-1).reshape(-1, 2)
    k = k[np.any(k != 0, axis=1)]
    k2 = np.sum(k * k, axis=-1)
    weight = np.exp(-4 * np.pi**2 * k2 * tau) / (2 * np.pi * k2)
    grad -= (np.sin(2 * np.pi * x @ k.T) * weight) @ k
    return np.stack([-grad[:, 1], grad[:, 0]], axis=-1)


class TestBiotSavartPeriodic:
    def test_oracle_splits_agree(self):
        x = torus_probes(50, min_dist=0.05, seed=7)
        assert np.max(np.abs(ewald_periodic_kernel(x) - ewald_periodic_kernel(x, 0.01, 5, 40))) < 1e-12

    @pytest.mark.parametrize("radius", [8, 32])
    def test_matches_the_ewald_oracle(self, radius):
        # the truncated square sum converges at rate radius^-2
        x = torus_probes(200, min_dist=0.05, seed=7)
        err = np.max(np.abs(biot_savart_periodic(x, truncation_radius=radius) - ewald_periodic_kernel(x)))
        assert err < 0.05 / radius**2

    @pytest.mark.parametrize("radius", [8, 32])
    def test_continuous_across_the_cell_edge(self, radius):
        # x1 = 0.5 + 1e-9 wraps to the far side of the minimal-image cell
        inside = biot_savart_periodic(np.array([[0.5 - 1e-9, 0.2]]), truncation_radius=radius)
        across = biot_savart_periodic(np.array([[0.5 + 1e-9, 0.2]]), truncation_radius=radius)
        assert np.max(np.abs(inside - across)) < 0.05 / radius**2

    def test_rejects_a_radius_below_one(self):
        with pytest.raises(ValueError, match="truncation_radius"):
            biot_savart_periodic(np.array([[0.2, 0.1]]), truncation_radius=0)

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

    @pytest.mark.parametrize("kernel", [biot_savart_free, biot_savart_periodic])
    def test_eps_zero_freezes_only_the_origin(self, kernel):
        # with eps = 0 only r = 0 freezes (to 0, as in the eps > 0 branch);
        # a direct evaluation there without freeze_inside still raises
        x = np.array([[0.0, 0.0], [0.2, -0.1]])
        out = kernel(x, eps=0.0, freeze_inside=True)
        assert np.array_equal(out[0], np.zeros(2))
        assert np.array_equal(out[1], kernel(x[1:], eps=0.0)[0])
        with pytest.raises(ValueError, match="at 0"):
            kernel(x, eps=0.0)

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
    @pytest.mark.parametrize(
        "name,dim", [("linear_pair", 1), ("linear_pair", 2), ("attract_pair", 1), ("attract_pair", 2), ("smooth_divfree", 2)]
    )
    def test_fast_paths_match_the_pairwise_definition(self, name, dim):
        # the separable rearrangements against pair_state summed directly,
        # with n past numpy's 8-way unrolled summation
        if name == "smooth_divfree":
            drift = build_drift(torus_kernel_cfg(name, {"frequency": 2}))
            states, ens = RNG.uniform(-0.5, 0.5, size=(4, 11, 2)), RNG.uniform(-0.5, 0.5, size=(30, 2))
        else:
            drift = build_drift(lin_cfg(name, dim=dim))
            states, ens = RNG.normal(size=(4, 11, dim)), RNG.normal(size=(30, dim))
        n = states.shape[1]

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())

        vals = drift.pair_state(0.3, states[:, :, None, :], states[:, None, :, :])  # (R, i, j, d)
        off_diagonal = ~np.eye(n, dtype=bool)[:, :, None]
        close(drift.pair_mean(0.3, drift.feature_map(states)), np.sum(vals * off_diagonal, axis=2) / (n - 1))
        summary = drift.mf_summary(drift.feature_map(ens))
        want = np.mean(drift.pair_state(0.3, states[:, :, None, :], ens), axis=2)
        close(drift.mf_drift(0.3, drift.feature_map(states), summary), want)

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

    def test_generic_pair_mean_evaluates_the_pairs_once(self):
        # the i = j diagonal is read out of the n x n tensor, not evaluated
        # a second time
        drift = build_drift(lin_cfg("sign_gated_pair"))
        pair, calls = drift.pair_state, []

        def counted(t, x, y):
            calls.append(np.broadcast_shapes(x.shape, y.shape))
            return pair(t, x, y)

        drift.pair_state = counted
        states = RNG.normal(size=(3, 5, 1))
        got = drift.pair_mean_generic(0.2, states)
        assert calls == [(3, 5, 5, 1)]
        want = np.zeros_like(states)
        for r in range(3):
            for i in range(5):
                want[r, i] = sum(pair(0.2, states[r, i], states[r, j]) for j in range(5) if j != i) / 4
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
        with pytest.raises(Exception, match=r"drift.params: unknown keys \['value'\]"):
            build_drift(lin_cfg("constant_b0", {"value": [2.5]}))
        with pytest.raises(Exception, match=r"drift.params: unknown keys \['strength'\]"):
            build_drift(lin_cfg("linear_pair", {"strength": 2.0}))

    @pytest.mark.parametrize("c,dim", [(-1.5, 2), ([2.0, -1], 2)])
    def test_constant_b0_takes_one_number_or_d_numbers(self, c, dim):
        drift = build_drift(lin_cfg("constant_b0", {"c": c}, dim=dim))
        assert np.array_equal(drift.b0_state(0.0, np.zeros((3, dim))), np.broadcast_to(c, (3, dim)))

    @pytest.mark.parametrize(
        "name,params,message",
        [
            ("restoring_b0", {"rate": "2"}, "drift.params: key 'rate'"),
            ("restoring_b0", {"rate": True}, "drift.params: key 'rate'"),
            ("restoring_b0", {"rate": float("nan")}, "drift.params: key 'rate'"),
            ("constant_b0", {"c": "3"}, "drift.params: key 'c'"),
            ("constant_b0", {"c": [True, 2]}, "drift.params: key 'c'"),
            ("constant_b0", {"c": [1.0, 2.0, 3.0]}, "drift.params: key 'c'"),
            ("constant_b0", {"c": [[1.0], [2.0]]}, "drift.params: key 'c'"),
        ],
    )
    def test_drift_params_fail_closed(self, name, params, message):
        with pytest.raises(ConfigError, match=message):
            build_drift(lin_cfg(name, params, dim=2))

    def test_unknown_drift_rejected(self):
        with pytest.raises(Exception, match="unknown drift"):
            build_drift(lin_cfg("warp_pair"))

    def test_mean_field_drift_linear_pair(self):
        drift = build_drift(lin_cfg("linear_pair"))
        x = np.array([[1.0], [2.0]])
        summary = np.array([0.5])
        out = drift.mean_field_drift(0.0, x, None, summary)
        assert np.allclose(out, x + 0.5)


def _sign_gate_inputs():
    """Arrays on which a sin-free sign test is hardest to get right."""
    k = np.arange(-(10**6), 10**6 + 1, dtype=np.float64)
    for zeros in (k * np.pi, k * (np.pi / 2)):
        yield zeros
        yield np.nextafter(zeros, -np.inf)
        yield np.nextafter(zeros, np.inf)
    yield np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300])
    # |u|/2pi on either side of 1e6, where the gate hands a whole call to
    # np.sin, alone and among ordinary values
    edge = [1e6 * 2.0 * np.pi]
    for _ in range(3):
        edge = [np.nextafter(edge[0], 0.0)] + edge + [np.nextafter(edge[-1], np.inf)]
    edge = np.array(edge + [(1e6 - 1.0) * 2.0 * np.pi])
    yield np.concatenate([edge, -edge])
    gen = np.random.default_rng(20261018)
    ordinary = 3.0 * gen.standard_normal(1000)
    for v in [*edge, *-edge, 1e300, -1e300, np.inf, -np.inf, np.nan]:
        yield np.append(ordinary, v)
    for scale in (3.0, 1e5):
        yield scale * gen.standard_normal(10**6)
    # far above the guard the float error of u/2pi can carry it across a
    # zero of sin
    yield 1e16 * gen.standard_normal(10**4)
    yield gen.standard_normal((3, 5, 5, 1))


class TestSignGate:
    """sign_gated_pair decides sin(u) > 0 without sin away from the zeros of
    sin; the mask and the drift must still equal the sin-based ones bit for
    bit, -0.0 and NaN included."""

    def test_mask_and_pair_match_sin_bit_for_bit(self):
        pair = build_drift(lin_cfg("sign_gated_pair")).pair_state
        with np.errstate(invalid="ignore"):
            for u in _sign_gate_inputs():
                want = np.sin(u) > 0.0
                kept = u.copy()
                got = sin_positive(u)
                assert got.dtype == np.bool_ and got.shape == u.shape
                assert np.array_equal(got, want)
                assert np.array_equal(u.view(np.int64), kept.view(np.int64))
                # u - 0.0 is u bit for bit, -0.0 included
                out = pair(0.0, u, 0.0)
                assert np.array_equal(out.view(np.int64), (u * want).view(np.int64))

    def test_sin_decides_at_the_zeros(self):
        # pi / 2pi rounds to 1/2 exactly while sin(pi) > 0 in float64: only
        # the fallback gets the zeros of sin right
        u = np.array([np.pi, -np.pi, 2.0 * np.pi])
        assert u[0] * (1.0 / (2.0 * np.pi)) == 0.5
        assert sin_positive(u).tolist() == (np.sin(u) > 0.0).tolist() == [True, False, False]


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


def documented_mean_field(drift, t, x, ens):
    """The generic mean field's documented order: chunks of step members,
    each reduced over axis -2 and added to a zero accumulator in member order."""
    step = max(1, _CHUNK // max(1, math.prod(x.shape[:-1])))
    acc = np.zeros_like(x)
    for lo in range(0, ens.shape[0], step):
        acc += np.add.reduce(drift.pair_state(t, x[..., None, :], ens[lo : lo + step]), axis=-2)
    return acc / ens.shape[0]


def documented_pair_mean(drift, t, states):
    """The generic pair mean from the whole n x n tensor in one evaluation."""
    n = states.shape[-2]
    vals = drift.pair_state(t, states[..., :, None, :], states[..., None, :, :])
    diag = np.moveaxis(np.diagonal(vals, axis1=-3, axis2=-2), -1, -2)
    return (np.add.reduce(vals, axis=-2) - diag) / (n - 1)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _generic_drift_and_draw(name):
    """A generic drift and a sampler of (shape) states for it: sign_gated_pair
    on R^1, or biot_savart_free on the 2-D torus, whose eps-ball (0.01 here)
    the draws reach through coincident and near points."""
    gen = np.random.default_rng(15)
    if name == "sign_gated_pair":
        return build_drift(lin_cfg(name)), lambda shape: gen.normal(size=shape + (1,))
    return build_drift(torus_kernel_cfg(name)), lambda shape: gen.uniform(-0.5, 0.5, size=shape + (2,))


class TestGenericBatching:
    """The generic paths evaluate many members or replicas per kernel call and
    keep every sum's order, so their bits equal the documented order."""

    @pytest.mark.parametrize("name", ["sign_gated_pair", "biot_savart_free"])
    @pytest.mark.parametrize(
        "lead,m", [((1024, 8), 200), ((4000,), 200), ((200,), 200), ((203,), 777), ((1024, 4), 33), ((7,), 5000)]
    )
    def test_mean_field_keeps_its_bits(self, name, lead, m):
        drift, draw = _generic_drift_and_draw(name)
        x, ens = draw(lead), draw((m,))
        flat = x.reshape(-1, x.shape[-1])
        k = min(5, m, flat.shape[0])
        ens[:k] = flat[:k]  # zero displacements
        ens[k : 2 * k] = flat[:k] + 0.003  # inside the eps-ball on the torus
        got = drift.mean_field_drift(0.3, x, ens, None)
        assert same_bits(got, documented_mean_field(drift, 0.3, x, ens))

    def test_sign_gate_negative_zeros_keep_their_bits(self):
        # u < 0 gated off gives -0.0; one-member chunks add it as it is
        drift, draw = _generic_drift_and_draw("sign_gated_pair")
        x = -np.abs(draw((1024, 8))) - 0.1
        ens = np.abs(draw((50,)))
        vals = drift.pair_state(0.0, x[..., None, :], ens)
        assert np.any((vals == 0.0) & np.signbit(vals))
        got = drift.mean_field_drift(0.0, x, ens, None)
        assert same_bits(got, documented_mean_field(drift, 0.0, x, ens))
        assert not np.any(np.signbit(got) & (got == 0.0))

    @pytest.mark.parametrize("name", ["sign_gated_pair", "biot_savart_free"])
    @pytest.mark.parametrize("lead,n", [((1024,), 8), ((1024,), 32), ((1024,), 4), ((3, 5), 9), ((), 12), ((257,), 64)])
    def test_pair_mean_keeps_its_bits(self, name, lead, n):
        drift, draw = _generic_drift_and_draw(name)
        states = draw(lead + (n,))
        flat = states.reshape((-1,) + states.shape[-2:])
        flat[0, 1] = flat[0, 0]
        got = drift.pair_mean_generic(0.3, states)
        assert same_bits(got, documented_pair_mean(drift, 0.3, states))

    def test_calls_stay_within_the_budget(self):
        drift, draw = _generic_drift_and_draw("sign_gated_pair")
        pair, sizes = drift.pair_state, []

        def counted(t, x, y):
            sizes.append(math.prod(np.broadcast_shapes(x.shape, y.shape)))
            return pair(t, x, y)

        drift.pair_state = counted
        drift.mean_field_drift(0.0, draw((1024, 8)), draw((200,)), None)
        assert sizes == [_BATCH] * 100
        sizes.clear()
        drift.pair_mean_generic(0.0, draw((1024, 8)))
        assert sizes == [_BATCH] * 4


class TestRigidShift:
    """Torus kernels read the minimal-image displacement, so the drift does
    not depend on where the cell edge lies."""

    @staticmethod
    def configurations(count, n, seed):
        # away from the eps-ball (0.01 here) and from the half-cell images,
        # where the minimal image is ambiguous
        gen = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            x = gen.uniform(-0.5, 0.5, size=(n, 2))
            disp = x[:, None, :] - x[None, :, :]
            disp -= np.floor(disp + 0.5)
            dist = np.linalg.norm(disp, axis=-1) + np.eye(n)
            if dist.min() > 0.05 and np.all(np.abs(np.abs(disp) - 0.5) > 1e-6):
                out.append(x)
        return np.stack(out)

    @pytest.mark.parametrize("name", ["biot_savart_free", "biot_savart_periodic"])
    def test_half_cell_shift_leaves_the_drift_unchanged(self, name):
        drift = build_drift(torus_kernel_cfg(name))

        def shift(x):
            return wrap_torus(x + np.array([0.5, 0.0]))

        def close(got, want):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        states = self.configurations(200, 8, seed=3)
        close(drift.pair_mean_generic(0.0, shift(states)), drift.pair_mean_generic(0.0, states))
        # one particle against a 50-member ensemble
        points = self.configurations(1, 51, seed=4)[0]
        x, ens = points[:1], points[1:]
        close(drift.mean_field_drift(0.0, shift(x), shift(ens), None), drift.mean_field_drift(0.0, x, ens, None))


class TestKernelRefParsing:
    def test_unknown_kernel(self):
        with pytest.raises(Exception, match="unknown kernel"):
            build_drift(torus_kernel_cfg("vortex_blob"))

    def test_unknown_kernel_param(self):
        with pytest.raises(Exception, match=r"kernel.params: unknown keys \['wavelength'\]"):
            build_drift(torus_kernel_cfg("smooth_divfree", {"wavelength": 2}))

    @pytest.mark.parametrize("bad", [1.5, True, "2"])
    def test_frequency_must_be_integral(self, bad):
        with pytest.raises(ConfigError, match="frequency"):
            build_drift(torus_kernel_cfg("smooth_divfree", {"frequency": bad}))

    def test_integral_float_frequency_accepted(self):
        cfg = torus_kernel_cfg("smooth_divfree", {"frequency": 2.0})
        kernel = kernel_from_ref(cfg.kernel, cfg)
        x = np.random.default_rng(2).uniform(-0.5, 0.5, size=(20, 2))
        assert np.array_equal(kernel(x), smooth_divfree_kernel(x, 2))
        assert type(kernel.keywords["frequency"]) is int


@given(st.integers(min_value=1, max_value=3))
@settings(max_examples=10)
def test_smooth_kernel_frequency_antisymmetry(freq):
    x = np.random.default_rng(freq).uniform(-0.5, 0.5, size=(20, 2))
    a = smooth_divfree_kernel(x, frequency=freq)
    b = smooth_divfree_kernel(-x, frequency=freq)
    assert np.array_equal(a, -b)
