"""Fractional Brownian sampling, covariance exactness, and the inverse
Volterra transform."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn
from scipy.stats import kstest

from chaoslab.core import RngStream, TimeGrid
from chaoslab.noise import (
    CHUNK_SERIES,
    _dh_eigenvalues,
    _fbm_cumulative,
    _fgn_cholesky,
    empirical_covariance_table,
    fbm_covariance,
    fgn_autocovariance,
    gl_weights,
    sample_fbm_batch,
    volterra_inverse_apply,
)


class TestCovarianceFunction:
    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.01, max_value=4.0),
        st.floats(min_value=0.01, max_value=4.0),
    )
    def test_symmetry_and_diagonal(self, h, t, s):
        assert math.isclose(fbm_covariance(t, s, h), fbm_covariance(s, t, h), rel_tol=1e-12)
        assert math.isclose(fbm_covariance(t, t, h), t ** (2 * h), rel_tol=1e-12)

    def test_standard_brownian(self):
        assert fbm_covariance(0.3, 0.7, 0.5) == pytest.approx(0.3, rel=1e-14)

    def test_matrix_psd(self):
        ts = np.linspace(0.1, 1.0, 12)
        for h in (0.2, 0.5, 0.8):
            mat = fbm_covariance(ts[:, None], ts[None, :], h)
            eig = np.linalg.eigvalsh(mat)
            assert eig.min() > -1e-12

    def test_fgn_autocovariance_sums_to_covariance(self):
        # sum of increment autocovariances telescopes to R_H(m dt, dt)
        h = 0.3
        rho = fgn_autocovariance(h, np.arange(6))
        lhs = np.sum(rho[:5])  # cov(B_5 - B_0 increments vs first increment)
        rhs = fbm_covariance(5.0, 1.0, h) - fbm_covariance(4.0, 1.0, h)
        # stationarity: cov(B_1, B_5 - B_4) = rho[4]; build the telescoping sum
        assert math.isclose(lhs, fbm_covariance(5.0, 1.0, h), rel_tol=1e-10)
        assert math.isclose(rho[4], rhs, rel_tol=1e-10)


class TestSampling:
    def test_shapes_and_anchor(self):
        # one increment per step; the first is the path's first value, since
        # the path starts at 0
        grid = TimeGrid(t0=0.0, dt=0.1, steps=16)
        incr, w, fallback = sample_fbm_batch(grid, 0.3, 2, 50, RngStream(5))
        assert incr.shape == (50, 16, 2)
        cum, _ = _fbm_cumulative(grid, 0.3, 2, 50, RngStream(5), "circulant", False)
        assert np.array_equal(incr[:, 0, :], cum[:, 0].reshape(50, 2))
        assert w is None
        assert fallback is False

    def test_deterministic(self):
        grid = TimeGrid(t0=0.0, dt=0.1, steps=8)
        a, _, _ = sample_fbm_batch(grid, 0.7, 1, 10, RngStream(9))
        b, _, _ = sample_fbm_batch(grid, 0.7, 1, 10, RngStream(9))
        assert np.array_equal(a, b)

    def test_negative_circulant_eigenvalue_raises(self, monkeypatch):
        # the embedding is nonnegative definite for every H, so there is no
        # Cholesky fallback: a negative eigenvalue is an error
        lam = np.ones(16)
        lam[3] = -1.0
        monkeypatch.setattr("chaoslab.noise._dh_eigenvalues", lambda hurst, n: lam)
        grid = TimeGrid(t0=0.0, dt=0.1, steps=8)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            sample_fbm_batch(grid, 0.3, 1, 10, RngStream(9))

    @pytest.mark.parametrize("hurst", [0.2, 0.5, 0.8])
    def test_circulant_covariance(self, hurst):
        grid = TimeGrid(t0=0.0, dt=0.125, steps=8)
        rows = empirical_covariance_table(
            grid, hurst, 30_000, RngStream(101, counter=int(hurst * 10))
        )
        worst = max(abs((r["emp"] - r["exact"]) / r["stderr"]) for r in rows)
        assert worst < 4.0, f"H={hurst}: worst z = {worst:.2f}"

    def test_cholesky_covariance(self):
        grid = TimeGrid(t0=0.0, dt=0.125, steps=8)
        rows = empirical_covariance_table(
            grid, 0.75, 30_000, RngStream(77), method="cholesky"
        )
        worst = max(abs((r["emp"] - r["exact"]) / r["stderr"]) for r in rows)
        assert worst < 4.0

    def test_driver_coupling(self):
        # the cholesky factorization is causal: the returned driver
        # increments are those of a standard Brownian path, and the inverse
        # Volterra transform of the fBm path recovers them
        grid = TimeGrid(t0=0.0, dt=0.02, steps=32)
        hurst = 0.75
        vals, w, _ = sample_fbm_batch(
            grid, hurst, 1, 4000, RngStream(13), method="cholesky", with_driver=True
        )
        assert w is not None and w.shape == vals.shape
        incr = w[:, :, 0]
        zs = incr.mean(axis=0) / (math.sqrt(grid.dt) / math.sqrt(incr.shape[0]))
        assert np.max(np.abs(zs)) < 4.5
        var_z = (incr.var(axis=0) - grid.dt) / (grid.dt * math.sqrt(2.0 / incr.shape[0]))
        assert np.max(np.abs(var_z)) < 4.5
        # K_H^{-1} applied to the rough fBm path tracks dW/dt only up to a
        # non-vanishing quadrature floor (the integrand has no smoothness),
        # so assert tight correlation rather than a small relative error
        path = np.concatenate([np.zeros((200, 1)), np.cumsum(vals[:200, :, 0], axis=1)], axis=1)
        u = volterra_inverse_apply(path, hurst, grid)
        corr = np.corrcoef((u * grid.dt).ravel(), incr[:200].ravel())[0, 1]
        assert corr > 0.99

    def test_brownian_increment_whiteness(self):
        grid = TimeGrid(t0=0.0, dt=0.01, steps=64)
        vals, _, _ = sample_fbm_batch(grid, 0.5, 1, 2000, RngStream(21))
        incr = vals[:, :, 0] / math.sqrt(grid.dt)
        stat = kstest(incr.ravel(), "norm").pvalue
        assert stat > 0.01
        # lag-1 autocorrelation within MC noise of zero
        a, b = incr[:, :-1].ravel(), incr[:, 1:].ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(a.size)

    def test_rejects_bad_hurst(self):
        grid = TimeGrid(t0=0.0, dt=0.1, steps=4)
        for h in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                sample_fbm_batch(grid, h, 1, 4, RngStream(0))


class TestGlWeights:
    @given(
        st.floats(min_value=-0.49, max_value=0.49),
        st.integers(min_value=2, max_value=40),
    )
    def test_recurrence(self, alpha, n):
        w = gl_weights(alpha, n)
        assert w[0] == 1.0
        for k in range(1, n):
            expect = w[k - 1] * (k - 1.0 - alpha) / k
            assert math.isclose(w[k], expect, rel_tol=1e-12, abs_tol=1e-300)

    def test_half_order_values(self):
        w = gl_weights(0.5, 5)
        assert np.allclose(w, [1.0, -0.5, -0.125, -0.0625, -0.0390625])


class TestVolterraInverse:
    def test_half_is_exact_derivative(self):
        grid = TimeGrid(t0=0.0, dt=0.05, steps=20)
        rng = np.random.default_rng(3)
        h = np.concatenate(
            [np.zeros((4, 1)), np.cumsum(rng.normal(size=(4, 20)), axis=1)], axis=1
        )
        out = volterra_inverse_apply(h, 0.5, grid)
        assert np.array_equal(out, np.diff(h, axis=-1) / grid.dt)

    @pytest.mark.parametrize(
        "hurst,tol", [(0.75, 6e-3), (0.3, 1e-3)]
    )
    def test_matches_closed_form_power_law(self, hurst, tol):
        # K_H^{-1} applied to h(t) = t is C_H s^{1/2 - H} with
        # C_H = Gamma(3/2 - H) / Gamma(2 - 2H)
        grid = TimeGrid(t0=0.0, dt=1.0 / 512, steps=512)
        h = grid.times()[None, :].copy()
        out = volterra_inverse_apply(h, hurst, grid)
        s_mid = (np.arange(grid.steps) + 0.5) * grid.dt
        c_h = gamma_fn(1.5 - hurst) / gamma_fn(2.0 - 2.0 * hurst)
        exact = c_h * s_mid ** (0.5 - hurst)
        # the exact answer has an integrable singularity at s = 0; compare on
        # the interior where the quadrature is not boundary-limited
        sl = slice(8, None)
        rel = np.linalg.norm(out[0, sl] - exact[sl]) / np.linalg.norm(exact[sl])
        assert rel < tol

    def test_requires_zero_start(self):
        grid = TimeGrid(t0=0.0, dt=0.1, steps=4)
        h = np.ones((1, 5))
        with pytest.raises(ValueError, match="h\\(0\\) = 0"):
            volterra_inverse_apply(h, 0.3, grid)

    def test_requires_full_grid(self):
        grid = TimeGrid(t0=0.0, dt=0.1, steps=4)
        with pytest.raises(ValueError, match="full grid"):
            volterra_inverse_apply(np.zeros((1, 3)), 0.3, grid)


# ---------------------------------------------------------------------------
# Chunked kernels against the whole-batch formulas, bit for bit
# ---------------------------------------------------------------------------

# series counts around the chunk boundaries
CHUNK_SIZES = (1, CHUNK_SERIES - 1, CHUNK_SERIES, CHUNK_SERIES + 1, 3 * CHUNK_SERIES + 5)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def whole_batch_fbm(grid, hurst, d, n_paths, rng, method):
    """The zero-anchored fBm path (and driver path) that sample_fbm_batch
    differences, as one whole-batch formula: one spectrum, one ifft."""
    n, dt = grid.steps, grid.dt
    gen = rng.generator()
    batch = n_paths * d
    if method == "circulant":
        rho = fgn_autocovariance(hurst, np.arange(n + 1))
        lam = np.fft.fft(np.concatenate([rho, rho[-2:0:-1]])).real
        z = np.empty((batch, 2 * n), dtype=np.complex128)
        z[:, 0] = gen.standard_normal(batch)
        z[:, n] = gen.standard_normal(batch)
        if n > 1:
            re = gen.standard_normal((batch, n - 1))
            im = gen.standard_normal((batch, n - 1))
            z[:, 1:n] = (re + 1j * im) / math.sqrt(2.0)
            z[:, n + 1 :] = np.conj(z[:, n - 1 : 0 : -1])
        spec = np.sqrt(np.clip(lam, 0.0, None))[None, :] * z
        fgn = math.sqrt(2 * n) * np.fft.ifft(spec, axis=1).real[:, :n]
    else:
        z = gen.standard_normal((batch, n))
        idx = np.arange(n)
        ell = np.linalg.cholesky(fgn_autocovariance(hurst, idx[:, None] - idx[None, :]))
        fgn = z if hurst == 0.5 else z @ ell.T

    def path(incr):
        out = np.zeros((n_paths, n + 1, d))
        out[:, 1:, :] = np.swapaxes(np.cumsum(incr.reshape(n_paths, d, n), axis=2), 1, 2)
        return out

    w = path(math.sqrt(dt) * z) if method == "cholesky" else None
    return path(dt**hurst * fgn), w


def whole_batch_volterra(h, hurst, grid):
    """volterra_inverse_apply as one whole-batch FFT convolution."""
    dt, n = grid.dt, grid.steps
    u = np.diff(h, axis=-1) / dt
    if hurst == 0.5:
        return u
    alpha = hurst - 0.5
    s_mid = (np.arange(n) + 0.5) * dt
    v = s_mid ** (0.5 - hurst) * u
    size = 1
    while size < 2 * n - 1:
        size *= 2
    fv = np.fft.rfft(v, n=size, axis=-1)
    fw = np.fft.rfft(gl_weights(alpha, n), n=size)
    conv = np.fft.irfft(fv * fw, n=size, axis=-1)[..., :n]
    return conv * dt ** (-alpha) * s_mid**alpha


class TestChunkInvariance:
    @pytest.mark.parametrize("steps", [1, 64])
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.75])
    @pytest.mark.parametrize("method", ["circulant", "cholesky"])
    def test_fbm_matches_whole_batch(self, method, hurst, steps):
        grid = TimeGrid(t0=0.0, dt=1.0 / 64, steps=steps)
        driver = method == "cholesky"
        for d in (1, 2):
            for size in CHUNK_SIZES:
                n_paths = -(-size // d)  # d = 2 pairs the series up
                rng = RngStream(31, counter=size)
                incr, dw, fallback = sample_fbm_batch(
                    grid, hurst, d, n_paths, rng, method=method, with_driver=driver
                )
                ref_vals, ref_w = whole_batch_fbm(grid, hurst, d, n_paths, rng, method)
                assert fallback is False
                assert same_bits(incr, np.diff(ref_vals, axis=1)), (d, size)
                if driver:
                    assert same_bits(dw, np.diff(ref_w, axis=1)), (d, size)
                else:
                    assert dw is None

    @pytest.mark.parametrize("steps", [1, 64])
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.75])
    @pytest.mark.parametrize("method", ["circulant", "cholesky"])
    def test_cumulative_path_matches_whole_batch(self, method, hurst, steps):
        # the running path the covariance table (and noise-check) reads
        grid = TimeGrid(t0=0.0, dt=1.0 / 64, steps=steps)
        for d in (1, 2):
            for size in CHUNK_SIZES:
                n_paths = -(-size // d)
                rng = RngStream(31, counter=size)
                cum, w = _fbm_cumulative(grid, hurst, d, n_paths, rng, method, False)
                ref_vals, _ = whole_batch_fbm(grid, hurst, d, n_paths, rng, method)
                path = np.swapaxes(cum.reshape(n_paths, d, steps), 1, 2)
                assert w is None
                assert same_bits(path, ref_vals[:, 1:, :]), (d, size)

    @pytest.mark.parametrize("steps", [1, 64])
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.75])
    def test_volterra_matches_whole_batch(self, hurst, steps):
        grid = TimeGrid(t0=0.0, dt=1.0 / 64, steps=steps)
        gen = np.random.default_rng(7)
        for d in (1, 2):
            for size in CHUNK_SIZES:
                rows = -(-size // d)
                # a running integral shaped (replicas, particles=1, d, steps+1),
                # as the Girsanov weights pass it
                incr = gen.standard_normal((rows, 1, d, steps)) * grid.dt
                h = np.concatenate([np.zeros((rows, 1, d, 1)), np.cumsum(incr, axis=-1)], axis=-1)
                out = volterra_inverse_apply(h, hurst, grid)
                assert same_bits(out, whole_batch_volterra(h, hurst, grid)), (d, size)


class TestReadOnlyCaches:
    def test_circulant_eigenvalues_are_read_only(self):
        lam = _dh_eigenvalues(0.3, 16)
        assert isinstance(lam, np.ndarray) and lam.shape == (32,)
        with pytest.raises(ValueError, match="read-only"):
            lam[0] = 0.0
        assert _dh_eigenvalues(0.3, 16) is lam

    def test_cholesky_factor_is_read_only(self):
        ell = _fgn_cholesky(0.75, 16)
        with pytest.raises(ValueError, match="read-only"):
            ell[0, 0] = 0.0
        assert _fgn_cholesky(0.75, 16) is ell


@settings(max_examples=20)
@given(st.floats(min_value=0.1, max_value=0.9))
def test_covariance_scaling_self_similarity(h):
    # R_H(at, as) = a^{2H} R_H(t, s)
    a, t, s = 2.0, 0.4, 1.1
    lhs = fbm_covariance(a * t, a * s, h)
    rhs = a ** (2 * h) * fbm_covariance(t, s, h)
    assert math.isclose(lhs, rhs, rel_tol=1e-12)
