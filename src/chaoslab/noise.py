"""Brownian / fractional Brownian path synthesis and the inverse Volterra
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
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import RngStream, TimeGrid


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
def _dh_eigenvalues(hurst: float, n: int) -> tuple:
    rho = fgn_autocovariance(hurst, np.arange(n + 1))
    circ = np.concatenate([rho, rho[-2:0:-1]])  # length 2n
    lam = np.fft.fft(circ).real
    return tuple(lam)


@lru_cache(maxsize=64)
def _fgn_cholesky(hurst: float, n: int) -> np.ndarray:
    idx = np.arange(n)
    sigma = fgn_autocovariance(hurst, idx[:, None] - idx[None, :])
    return np.linalg.cholesky(sigma)


def _sample_fgn_circulant(hurst: float, n: int, batch: int, gen: np.random.Generator) -> np.ndarray | None:
    """Exact unit-spacing fGn, (batch, n); None if the embedding fails."""
    lam = np.asarray(_dh_eigenvalues(hurst, n))
    if lam.min() < -1e-10 * lam.max():
        return None
    lam = np.clip(lam, 0.0, None)
    m = 2 * n
    z = np.empty((batch, m), dtype=np.complex128)
    z[:, 0] = gen.standard_normal(batch)
    z[:, n] = gen.standard_normal(batch)
    if n > 1:
        re = gen.standard_normal((batch, n - 1))
        im = gen.standard_normal((batch, n - 1))
        z[:, 1:n] = (re + 1j * im) / math.sqrt(2.0)
        z[:, n + 1 :] = np.conj(z[:, n - 1 : 0 : -1])
    spec = np.sqrt(lam)[None, :] * z
    return math.sqrt(m) * np.fft.ifft(spec, axis=1).real[:, :n]


def sample_fbm_batch(
    grid: TimeGrid,
    hurst: float,
    d: int,
    n_paths: int,
    rng: RngStream,
    method: str = "circulant",
    with_driver: bool = False,
):
    """Batch of fBm paths on the grid, each coordinate independent.

    Returns (values, w, cholesky_fallback): values is (n_paths, steps+1, d)
    with values[:, 0] = 0; w is the coupled driver Brownian path of the same
    shape (only for the cholesky route, which is the causal factorization),
    else None. Draw order is fixed, so results are reproducible for a given
    stream regardless of scheduling.
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
    fallback = False

    shape = (n_paths * d, n)
    if method == "circulant":
        fgn = _sample_fgn_circulant(hurst, n, shape[0], gen)
        if fgn is None:
            fallback = True
            method = "cholesky"
    if method == "cholesky":
        z = gen.standard_normal(shape)
        if hurst == 0.5:
            fgn = z
        else:
            ell = _fgn_cholesky(hurst, n)
            fgn = z @ ell.T

    incr = dt**hurst * fgn.reshape(n_paths, d, n)
    values = np.zeros((n_paths, n + 1, d))
    np.cumsum(incr, axis=2, out=incr)
    values[:, 1:, :] = np.swapaxes(incr, 1, 2)

    w = None
    if with_driver:
        dw = math.sqrt(dt) * z.reshape(n_paths, d, n)
        w = np.zeros((n_paths, n + 1, d))
        np.cumsum(dw, axis=2, out=dw)
        w[:, 1:, :] = np.swapaxes(dw, 1, 2)
    return values, w, fallback


def empirical_covariance_table(
    grid: TimeGrid, hurst: float, n_paths: int, rng: RngStream, method: str = "circulant"
) -> list[dict]:
    """Empirical vs analytic covariance on the grid's interior points.

    One row per (t_i, t_j) pair, i <= j, with the Monte Carlo standard
    error of the empirical entry. Used by the noise-check command and the
    covariance acceptance test.
    """
    values, _, _ = sample_fbm_batch(grid, hurst, 1, n_paths, rng, method=method)
    times = grid.times()
    x = values[:, 1:, 0]  # (paths, steps); t0 point is identically 0
    rows = []
    for i in range(grid.steps):
        for j in range(i, grid.steps):
            prod = x[:, i] * x[:, j]
            emp = float(np.mean(prod))
            stderr = float(np.std(prod, ddof=1) / math.sqrt(n_paths))
            exact = float(fbm_covariance(times[i + 1], times[j + 1], hurst))
            rows.append({"t": float(times[i + 1]), "s": float(times[j + 1]), "H": hurst, "emp": emp, "exact": exact, "stderr": stderr})
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


def _causal_convolve(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """out[..., i] = sum_{j <= i} w[j] v[..., i-j] via FFT, deterministic."""
    n = v.shape[-1]
    size = 1
    while size < 2 * n - 1:
        size *= 2
    fv = np.fft.rfft(v, n=size, axis=-1)
    fw = np.fft.rfft(w, n=size)
    out = np.fft.irfft(fv * fw, n=size, axis=-1)
    return out[..., :n]


def volterra_inverse_apply(h: np.ndarray, hurst: float, grid: TimeGrid) -> np.ndarray:
    """Samples of K_H^{-1} h at the left grid points, for h the running
    integral of a piecewise-constant integrand with h(0) = 0.

    For H = 1/2 this is exactly the forward-difference derivative. For
    H != 1/2 the integrand u is recovered by differencing and pushed
    through s^{H-1/2} D^{H-1/2}(r^{1/2-H} u)(s) (fractional integral for
    H < 1/2), with the radial prefactors evaluated at interval midpoints to
    avoid the r = 0 endpoint. Consistency is first order in dt for smooth
    u away from 0; the H = 1/2 branch is exact.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != grid.steps + 1:
        raise ValueError("h must be sampled on the full grid")
    if np.any(h[..., 0] != 0.0):
        raise ValueError("volterra transform requires h(0) = 0")
    dt = grid.dt
    u = np.diff(h, axis=-1) / dt
    if hurst == 0.5:
        return u
    if grid.t0 != 0.0:
        raise ValueError("fractional transform is anchored at t0 = 0")
    alpha = hurst - 0.5
    s_mid = (np.arange(grid.steps) + 0.5) * dt
    v = s_mid ** (0.5 - hurst) * u
    w = gl_weights(alpha, grid.steps)
    out = _causal_convolve(v, w) * dt ** (-alpha)
    return out * s_mid**alpha
