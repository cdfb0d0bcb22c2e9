"""Brownian / fractional Brownian increment synthesis and the inverse Volterra
transform used by the fractional change of measure.

Fractional Gaussian noise is generated exactly in distribution, either by
circulant embedding of the increment autocovariance (O(N log N), the default)
or by dense Cholesky factorization (O(N^3), kept as an oracle and as the
causal route that also yields the underlying Brownian driver: the lower
triangular factor is a discrete Volterra map, so B^H = L z and W = sqrt(dt) z
are a coupled pair with exact marginal laws).

K_H^{-1} is only needed applied to running integrals of bounded drifts. For
H = 1/2 it is the derivative (forward differences, exact for the piecewise
constant integrands used here). For H != 1/2 it is discretized through the
representation s^{H-1/2} D^{H-1/2}(r^{1/2-H} u(r))(s) with a
Grunwald-Letnikov difference for the fractional derivative/integral; first
order in dt on smooth inputs, degrading near the r = 0 endpoint singularity.

The sampler hands out step increments, (n_paths, steps, d), which is what
the Euler integrator and the Girsanov weights consume. It builds them in
place: the fGn is scaled and cumsummed into the running path, as the
covariance table reads it, and then differenced back row chunk by row
chunk, so the increments are bit for bit np.diff of the zero-anchored path.
Both FFT kernels transform each series on its own, so they run over
CHUNK_SERIES rows at a time: beyond its output and the normals it draws for
the whole batch, a call holds O(CHUNK_SERIES) working memory whatever its
batch, and the chunking never changes a bit of the result.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import RngStream, TimeGrid

# Series per FFT chunk in the circulant sampler and the Volterra inverse.
CHUNK_SERIES = 512


def fbm_covariance(t, s, hurst: float):
    """Covariance R_H(t,s) = (|t|^{2H} + |s|^{2H} - |t-s|^{2H}) / 2."""
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    t = np.asarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if np.any(t < 0) or np.any(s < 0):
        raise ValueError("fbm covariance defined for t, s >= 0")
    h2 = 2.0 * hurst
    out = 0.5 * (np.abs(t) ** h2 + np.abs(s) ** h2 - np.abs(t - s) ** h2)
    return out if out.ndim else float(out)


def fgn_autocovariance(hurst: float, lags) -> np.ndarray:
    """Unit-spacing fractional Gaussian noise autocovariance rho(j)."""
    j = np.abs(np.asarray(lags, dtype=np.float64))
    h2 = 2.0 * hurst
    return 0.5 * ((j + 1.0) ** h2 - 2.0 * j**h2 + np.abs(j - 1.0) ** h2)


@lru_cache(maxsize=64)
def _dh_eigenvalues(hurst: float, n: int) -> np.ndarray:
    """Eigenvalues of the length-2n circulant embedding; shared, read-only."""
    rho = fgn_autocovariance(hurst, np.arange(n + 1))
    circ = np.concatenate([rho, rho[-2:0:-1]])  # length 2n
    lam = np.fft.fft(circ).real.copy()
    lam.flags.writeable = False
    return lam


@lru_cache(maxsize=64)
def _fgn_cholesky(hurst: float, n: int) -> np.ndarray:
    """Lower Cholesky factor of the (n, n) fGn covariance; shared, read-only."""
    idx = np.arange(n)
    sigma = fgn_autocovariance(hurst, idx[:, None] - idx[None, :])
    ell = np.linalg.cholesky(sigma)
    ell.flags.writeable = False
    return ell


def _sample_fgn_circulant(hurst: float, n: int, batch: int, gen: np.random.Generator) -> np.ndarray:
    """Exact unit-spacing fGn, (batch, n).

    The minimal circulant embedding of fGn is nonnegative definite for
    every H (Craigmile, J. Time Ser. Anal. 2003), so a negative eigenvalue
    is an error, not a case to fall back from.

    The normals come in one fixed stream order: the z_0 column, the z_n
    column, the real parts of z_1..z_{n-1}, then their imaginary parts.
    The imaginary parts are drawn one CHUNK_SERIES row chunk at a time, as
    that chunk's spectrum is built and inverted, so they never exist for
    the whole batch at once.
    """
    lam = _dh_eigenvalues(hurst, n)
    if lam.min() < -1e-10 * lam.max():
        raise ValueError(f"circulant embedding of fGn (H = {hurst}, n = {n}) has a negative eigenvalue")
    sqrt_lam = np.sqrt(np.clip(lam, 0.0, None))
    m = 2 * n
    z0 = gen.standard_normal(batch)
    zn = gen.standard_normal(batch)
    if n > 1:
        re = gen.standard_normal((batch, n - 1))
    out = np.empty((batch, n))
    for lo in range(0, batch, CHUNK_SERIES):
        rows = slice(lo, min(lo + CHUNK_SERIES, batch))
        z = np.empty((rows.stop - lo, m), dtype=np.complex128)
        z[:, 0] = z0[rows]
        z[:, n] = zn[rows]
        if n > 1:
            im = gen.standard_normal((rows.stop - lo, n - 1))
            z[:, 1:n] = (re[rows] + 1j * im) / math.sqrt(2.0)
            z[:, n + 1 :] = np.conj(z[:, n - 1 : 0 : -1])
        spec = sqrt_lam[None, :] * z
        out[rows] = math.sqrt(m) * np.fft.ifft(spec, axis=1).real[:, :n]
    return out


def _fbm_cumulative(grid: TimeGrid, hurst: float, d: int, n_paths: int, rng: RngStream, method: str,
                    with_driver: bool):
    """Cumulative fBm values B^H(t_1..t_steps) - B^H(t_0), and the coupled
    driver W when with_driver is set (else None), each as one series per
    (path, coordinate): shape (n_paths * d, steps), path-major.

    Each array is scaled and cumsummed in place, so a series holds the
    running sum of its own increments; sample_fbm_batch differences these
    same sums and empirical_covariance_table reads them as they are.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    if method not in ("circulant", "cholesky"):
        raise ValueError("method must be 'circulant' or 'cholesky'")
    if with_driver and method != "cholesky":
        raise ValueError("the driver-coupled pair requires the cholesky (causal) route")
    n = grid.steps
    dt = grid.dt
    gen = rng.generator()

    shape = (n_paths * d, n)
    if method == "circulant":
        fgn = _sample_fgn_circulant(hurst, n, shape[0], gen)
    else:
        z = gen.standard_normal(shape)
        if hurst != 0.5:
            fgn = z @ _fgn_cholesky(hurst, n).T
        else:  # fGn at H = 1/2 is z itself; the driver keeps its own copy
            fgn = z.copy() if with_driver else z

    fgn *= dt**hurst
    np.cumsum(fgn, axis=1, out=fgn)
    if not with_driver:
        return fgn, None
    z *= math.sqrt(dt)
    np.cumsum(z, axis=1, out=z)
    return fgn, z


def sample_fbm_batch(
    grid: TimeGrid,
    hurst: float,
    d: int,
    n_paths: int,
    rng: RngStream,
    method: str = "circulant",
    with_driver: bool = False,
):
    """Batch of fBm step increments on the grid, each coordinate independent.

    Returns (incr, dw, False): incr is (n_paths, steps, d), the increment
    B^H(t_{s+1}) - B^H(t_s) of each step; dw holds the coupled driver
    Brownian increments of the same shape (only for the cholesky route,
    which is the causal factorization), else None. Both are non-contiguous
    views when d > 1. The circulant route has no Cholesky fallback, so the
    last entry is always False. Draw order is fixed, so results are
    reproducible for a given stream regardless of scheduling.
    """
    out = []
    for cum in _fbm_cumulative(grid, hurst, d, n_paths, rng, method, with_driver):
        if cum is not None:
            # back to steps in place, a row chunk at a time: bit for bit
            # np.diff of the path with its leading 0
            for lo in range(0, cum.shape[0], CHUNK_SERIES):
                chunk = cum[lo : lo + CHUNK_SERIES]
                chunk[:, 1:] = np.diff(chunk, axis=1)
            cum = np.swapaxes(cum.reshape(n_paths, d, grid.steps), 1, 2)
        out.append(cum)
    return out[0], out[1], False


def empirical_covariance_table(
    grid: TimeGrid, hurst: float, n_paths: int, rng: RngStream, method: str = "circulant"
) -> list[dict]:
    """Empirical vs analytic covariance on the grid's interior points.

    One row per (t_i, t_j) pair, i <= j, with the Monte Carlo standard
    error of the empirical entry. Used by the noise-check command and the
    covariance acceptance test.
    """
    x, _ = _fbm_cumulative(grid, hurst, 1, n_paths, rng, method, False)  # (paths, steps); B^H(t0) = 0
    times = grid.times()
    rows = []
    for i in range(grid.steps):
        for j in range(i, grid.steps):
            prod = x[:, i] * x[:, j]
            emp = float(np.mean(prod))
            stderr = float(np.std(prod, ddof=1) / math.sqrt(n_paths))
            exact = float(fbm_covariance(times[i + 1], times[j + 1], hurst))
            t, s = float(times[i + 1]), float(times[j + 1])
            rows.append({"t": t, "s": s, "H": hurst, "emp": emp, "exact": exact, "stderr": stderr})
    return rows


# ---------------------------------------------------------------------------
# Inverse Volterra transform
# ---------------------------------------------------------------------------


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """Grunwald-Letnikov weights of (1-z)^alpha: w_0 = 1,
    w_j = w_{j-1} (j-1-alpha)/j. alpha > 0 differentiates, alpha < 0
    integrates."""
    w = np.empty(n)
    w[0] = 1.0
    if n > 1:
        j = np.arange(1.0, n)
        w[1:] = np.cumprod((j - 1.0 - alpha) / j)
    return w


def volterra_inverse_apply(h: np.ndarray, hurst: float, grid: TimeGrid) -> np.ndarray:
    """Samples of K_H^{-1} h at the left grid points, for h the running
    integral of a piecewise-constant integrand with h(0) = 0.

    For H = 1/2 this is exactly the forward-difference derivative. For
    H != 1/2 the integrand u is recovered by differencing and pushed
    through s^{H-1/2} D^{H-1/2}(r^{1/2-H} u)(s) (fractional integral for
    H < 1/2), s the time since the grid start, with the radial prefactors
    evaluated at the midpoints (j + 1/2) dt to avoid the r = 0 endpoint.
    Consistency is first order in dt for smooth u away from 0; the H = 1/2
    branch is exact. The series along the last
    axis are processed CHUNK_SERIES at a time.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != grid.steps + 1:
        raise ValueError("h must be sampled on the full grid")
    if np.any(h[..., 0] != 0.0):
        raise ValueError("volterra transform requires h(0) = 0")
    fractional = hurst != 0.5
    dt, n = grid.dt, grid.steps
    if fractional:
        alpha = hurst - 0.5
        s_mid = (np.arange(n) + 0.5) * dt
        pre, post, gain = s_mid ** (0.5 - hurst), s_mid**alpha, dt ** (-alpha)
        # causal convolution with the GL weights through a zero-padded FFT
        size = 1
        while size < 2 * n - 1:
            size *= 2
        fw = np.fft.rfft(gl_weights(alpha, n), n=size)
    series = h.reshape(-1, n + 1)
    out = np.empty((series.shape[0], n))
    for lo in range(0, series.shape[0], CHUNK_SERIES):
        rows = slice(lo, lo + CHUNK_SERIES)
        u = np.diff(series[rows], axis=-1) / dt
        if fractional:
            fv = np.fft.rfft(pre * u, n=size, axis=-1)
            u = np.fft.irfft(fv * fw, n=size, axis=-1)[:, :n] * gain * post
        out[rows] = u
    return out.reshape(h.shape[:-1] + (n,))
