"""Chaos diagnostics: change-of-measure weights, entropy and
total-variation estimators, and the concentration-inequality toolkit.

The central construction simulates n independent copies of the
(approximate) mean-field law and tilts them by the exponential martingale
of the drift difference

    delta_b(t, X) = (n-1)^{-1} sum_{j != i} b(t, X^i, X^j) - <b(t, X^i, .), mu_t>.

Because delta_b is evaluated at the current reference state, the tilted
law is exactly the interacting particle law (up to Euler error), so
E_Q[Z log Z] estimates H(P^(n) | mu^{x n}). For Hurst index H != 1/2 the
tilt lives on the underlying Brownian driver: the running drift integral
is pushed through the inverse Volterra transform and integrated against
the retained driver increments. In both cases the integrand at step s
depends only on draws strictly before s, so E[Z] = 1 holds exactly in
distribution, at every step size.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .bounds import _delta_exponent
from .core import RngStream, SimConfig, TimeGrid, sum_last_axis
from .dynamics import BlowupError, MeanFieldLaw, _P_WEIGHT, _P_WEIGHT_FBM, _snapshot_steps, integrate_blocks
from .kernels import build_drift
from .noise import CHUNK_SERIES, sample_fbm_batch, volterra_inverse_apply

__all__ = [
    "GirsanovWeight",
    "EntropyReport",
    "CheckRecord",
    "log_weights_from_deltas",
    "girsanov_weight",
    "entropy_girsanov",
    "entropy_knn",
    "tv_histogram",
    "concentration_bounds",
    "pinsker_and_subadditivity_check",
]

_JITTER_SEED = 12345
_ESS_FLOOR = 0.05
# steps of Brownian log Z increments a Girsanov block holds at a time, so its memory does not grow with the
# grid: every benchmark plan fits one window. At 256 steps (a 2 KiB row stride) each step's column write into
# the window took 7.9 us against 2.2 us at 200 (1024 replicas, 2-CPU x86 host), as the column's rows alias in
# the cache
_WINDOW = 200


@dataclass
class GirsanovWeight:
    """Per-replica log-weights log Z_t at the recorded grid steps: log_z[:, j]
    holds step steps[j]. steps defaults to every step, column j then step j."""

    grid: TimeGrid
    log_z: np.ndarray
    n: int
    quality_flag: str | None = None
    # per-(replica, particle) int_0^T |u|^2 dt, for beta moment fits, of the integrand u the
    # weight integrates against its driver: delta_b under Brownian noise, K_H^{-1} delta_b under fBm
    energy: np.ndarray | None = None  # (replicas, n)
    steps: tuple[int, ...] = ()  # recorded grid steps, ascending

    def __post_init__(self):
        self.steps = self.steps or tuple(range(self.grid.steps + 1))

    @property
    def replicas(self) -> int:
        return self.log_z.shape[0]

    def log_z_at(self, step: int) -> np.ndarray:
        """log Z at one grid step for every replica."""
        if step not in self.steps:
            raise KeyError(f"step {step} was not recorded; request it via snapshot_times")
        return self.log_z[:, self.steps.index(step)]

    def weights_at(self, step: int) -> np.ndarray:
        return np.exp(self.log_z_at(step))

    def martingale_check(self, step: int | None = None) -> tuple[float, float, float]:
        """(mean Z, stderr, z-score of the deviation from 1)."""
        idx = self.grid.steps if step is None else step
        z = self.weights_at(idx)
        mean = float(np.mean(z))
        stderr = float(np.std(z, ddof=1) / math.sqrt(z.size))
        score = 0.0 if stderr == 0 else (mean - 1.0) / stderr
        return mean, stderr, score


@dataclass
class EntropyReport:
    kind: str  # "girsanov" | "knn" | "histogram_tv"
    value: float
    stderr: float
    k: int
    n: int
    t: float
    params: dict = field(default_factory=dict)
    unreliable: bool = False


def log_weights_from_deltas(delta: np.ndarray, dw: np.ndarray, dt: float) -> np.ndarray:
    """Accumulate log Z on the grid from drift-difference and driver
    increments of shape (..., steps, q): left-point Ito sums

        log Z_{s+1} = log Z_s + delta_s . dW_s - |delta_s|^2 dt / 2.
    """
    if delta.shape != dw.shape:
        raise ValueError("delta and dw must have matching shapes")
    incr = np.sum(delta * dw, axis=-1) - 0.5 * dt * np.sum(delta * delta, axis=-1)
    zeros = np.zeros(incr.shape[:-1] + (1,))
    return np.concatenate([zeros, np.cumsum(incr, axis=-1)], axis=-1)


def _record_log_weights(incr: np.ndarray, lo: int, first: int, later: list[int], log_z: np.ndarray) -> None:
    """Record the log-weights of rows lo, lo + 1, ... of log_z from their log Z
    increments incr (replicas, w) of steps first + 1 .. first + w, the first
    column with the running sum to step first already added: the running
    sums at the recorded steps in that span, whose increment indices later
    lists (ascending, one per log_z column from 1). A non-finite running sum
    raises BlowupError naming the lowest such replica at its first
    non-finite step. incr is overwritten with the running sums: no
    block-sized array is made.
    """
    running = np.cumsum(incr, axis=-1, out=incr)
    bad = ~np.isfinite(running)
    rows = np.flatnonzero(bad.any(axis=-1))
    if rows.size:
        raise BlowupError(first + int(np.argmax(bad[rows[0]])) + 1, replica=lo + int(rows[0]))
    a, b = bisect_left(later, first), bisect_left(later, first + running.shape[1])
    log_z[lo : lo + len(incr), 1 + a : 1 + b] = running[:, [s - first for s in later[a:b]]]


def girsanov_weight(config: SimConfig, mean_field: MeanFieldLaw, rng: RngStream,
                    snapshot_times=None) -> GirsanovWeight:
    """Simulate config.replicas replicas of n = config.n_particles
    independent mean-field copies and accumulate the exponential-martingale
    log-weight of the interacting system relative to them.

    The reference copies evolve with drift b0 + <b(t, x, .), mu_t-hat>;
    the weight integrand is the pairwise interaction evaluated on those
    same copies minus the mean-field term (b0 cancels). Each step evaluates
    the mean-field term once, for both uses, and the drift's features once
    for all its fast paths. Fractional noise
    retains the underlying Brownian driver and pushes the running drift
    integral through the inverse Volterra transform first.

    log Z is recorded at the grid steps of snapshot_times, the start and
    the end (as for simulate_particle_system), or at every step when
    snapshot_times is None; the recorded values do not depend on that
    choice. Every step is checked: a non-finite log-weight raises
    BlowupError naming the lowest such replica of its block at its first
    non-finite step (under Brownian noise, the lowest among the replicas of
    the first window of _WINDOW steps that holds one). Under either noise a
    delta_b first non-finite at step s makes log Z non-finite from step s + 1.
    """
    drift = mean_field.drift
    if drift.name != build_drift(config).name:
        raise ValueError("mean_field was built for a different drift")
    n, r_total = config.n_particles, config.replicas
    grid = config.grid
    d = config.domain.dim
    dt = grid.dt
    steps = grid.steps
    fractional = config.noise.fractional
    record = list(range(steps + 1)) if snapshot_times is None else sorted(_snapshot_steps(grid, snapshot_times))
    later = [s - 1 for s in record[1:]]  # recorded steps > 0, as cumsum columns of the step increments

    log_z = np.zeros((r_total, len(record)))
    energy = np.zeros((r_total, n))
    window = min(steps, _WINDOW)
    quality = "fractional weight: inverse Volterra transform carries O(dt) quadrature error" if fractional else None

    def drift_at(blk, s, t, x):
        feats = drift.feature_map(x)
        mf = mean_field.mean_drift_at(s, t, x, feats)
        blk.delta = drift.pair_mean_generic(t, x, feats) - mf
        if fractional:
            blk.history[..., s] = blk.delta
        return mean_field.reference_drift_at(s, t, x, mf)

    def observe(blk, s, x, dw):
        if s == 0:
            blk.history = np.empty((len(x), n, d, steps) if fractional else (len(x), window))
        elif not fractional:
            # left-point Ito sums: delta is from step s - 1, dw drives it
            col = (s - 1) % window
            dd = blk.delta * blk.delta
            blk.history[:, col] = np.sum(blk.delta * dw, axis=(1, 2)) - 0.5 * dt * np.sum(dd, axis=(1, 2))
            energy[blk.rows] += dt * sum_last_axis(dd)
            if col == 0 and s > 1:
                # the last column still holds the running sum to step s - 1: the cumsum's own addition
                blk.history[:, 0] += blk.history[:, -1]
            if col == window - 1 or s == steps:
                _record_log_weights(blk.history[:, : col + 1], blk.rows.start, s - 1 - col, later, log_z)

    def finish(blk):
        # blk.history is the block's drift-difference history (b, n, d, steps) and blk.driver its
        # Brownian driver increments (b, n, steps, d). The running integral of delta_b goes through
        # the inverse Volterra map a chunk of replicas at a time; every sum below is per replica.
        # Nothing here outlives the call, so no view keeps the block's arrays alive while the next
        # block samples its noise.
        b = len(blk.history)
        chunk = max(1, CHUNK_SERIES // (n * d))
        for c_lo in range(0, b, chunk):
            c = slice(c_lo, min(c_lo + chunk, b))
            ds = blk.history[c]
            h = np.concatenate([np.zeros(ds.shape[:-1] + (1,)), np.cumsum(ds * dt, axis=-1)], axis=-1)
            dk = volterra_inverse_apply(h, config.noise.hurst, grid)  # (chunk, n, d, steps)
            dwt = blk.driver[c].transpose(0, 1, 3, 2)  # (chunk, n, d, steps)
            incr = np.sum(dk * dwt, axis=(1, 2)) - 0.5 * dt * np.sum(dk * dk, axis=(1, 2))
            if not np.isfinite(incr).all():
                # K_H^{-1} is causal, but its FFT spreads a non-finite delta over the whole series:
                # a delta first non-finite at step s drives log Z from step s + 1 on, as under Brownian noise
                bad = ~np.isfinite(ds).all(axis=(1, 2))
                rows = bad.any(axis=-1)
                incr[rows] = np.where(np.cumsum(bad[rows], axis=-1) > 0, np.nan, 0.0)
            lo = blk.rows.start + c_lo
            _record_log_weights(incr, lo, 0, later, log_z)
            energy[lo : lo + len(incr)] = dt * np.sum(dk * dk, axis=(2, 3))

    integrate_blocks(
        config, rng, (_P_WEIGHT, _P_WEIGHT_FBM), r_total, n, drift_at, observe, sample_fbm_batch,
        with_driver=fractional, finish=finish if fractional else None,
    )
    return GirsanovWeight(
        grid=grid,
        log_z=log_z,
        n=n,
        quality_flag=quality,
        energy=energy,
        steps=tuple(record),
    )


def entropy_girsanov(weights: GirsanovWeight, k: int, step: int | None = None) -> EntropyReport:
    """Importance-weighted entropy estimate E_Q[Z log Z] with the
    (k/n)-scaled subadditivity surrogate for the k-marginal.

    Z - 1 has exact mean zero (the weight is a martingale by
    construction), so it serves as a control variate: the reported value
    is mean(Z log Z - lambda (Z - 1)) with the plug-in optimal lambda,
    which removes the dominant O(sqrt(H)) noise term and leaves O(H)
    fluctuations. The raw mean is kept in params. The estimator is a
    replica mean, so the jackknife standard error coincides with
    std/sqrt(R) up to the lambda plug-in; the effective sample size
    (sum Z)^2 / sum Z^2 below 5% of replicas flags the report.
    """
    n = weights.n
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if step is None:
        step = weights.grid.steps
    t_val = float(weights.grid.times()[step])
    r = weights.replicas
    if r < 1000:
        warnings.warn(f"only {r} replicas; the estimator is designed for >= 1000", stacklevel=2)
    lz = weights.log_z_at(step)
    z = np.exp(lz)
    y = z * lz
    raw_h = float(np.mean(y))
    raw_stderr = float(np.std(y, ddof=1) / math.sqrt(r))
    ctrl = z - 1.0
    var_c = float(np.var(ctrl))
    lam = float(np.mean((y - y.mean()) * ctrl) / var_c) if var_c > 0 else 0.0
    yc = y - lam * ctrl
    h_full = float(np.mean(yc))
    stderr_full = float(np.std(yc, ddof=1) / math.sqrt(r))
    ess = float(np.sum(z) ** 2 / np.sum(z * z)) if np.any(z > 0) else 0.0
    unreliable = ess < _ESS_FLOOR * r
    mean_z = float(np.mean(z))
    stderr_z = float(np.std(z, ddof=1) / math.sqrt(r))
    frac = k / n
    return EntropyReport(
        kind="girsanov",
        value=frac * h_full,
        stderr=frac * stderr_full,
        k=k,
        n=n,
        t=t_val,
        params={
            "replicas": r,
            "ess": ess,
            "h_full": h_full,
            "stderr_full": stderr_full,
            "raw_h_full": raw_h,
            "raw_stderr_full": raw_stderr,
            "control_lambda": lam,
            "mean_z": mean_z,
            "stderr_z": stderr_z,
            "surrogate": "subadditivity",
            "quality_flag": weights.quality_flag,
        },
        unreliable=unreliable,
    )


def _knn_distances(tree: cKDTree, pts: np.ndarray, k: int, exclude_self: bool) -> np.ndarray:
    kk = k + 1 if exclude_self else k
    dist, _ = tree.query(pts, k=kk, workers=1)
    return dist[:, -1]


def entropy_knn(
    samples_p: np.ndarray,
    samples_q: np.ndarray,
    neighbors: int = 4,
    torus: bool = False,
) -> EntropyReport:
    """k-nearest-neighbor KL divergence estimate D(P || Q) from samples.

    Wang-Kulkarni-Verdu form: (d/N) sum log(nu_k / rho_k) + log(M/(N-1)),
    with rho_k the in-sample and nu_k the cross-sample k-NN distances.
    Torus samples use wrapped distances. Duplicate points are jittered at
    1e-12 scale with a fixed-seed generator and the event is recorded.
    """
    p = np.ascontiguousarray(np.atleast_2d(np.asarray(samples_p, dtype=float)))
    q = np.ascontiguousarray(np.atleast_2d(np.asarray(samples_q, dtype=float)))
    if p.ndim != 2 or q.ndim != 2 or p.shape[1] != q.shape[1]:
        raise ValueError("sample sets must be 2-d with matching dimension")
    n_p, dim = p.shape
    n_q = q.shape[0]
    if min(n_p, n_q) < 100:
        raise ValueError("need at least 100 samples on each side")
    if not 1 <= neighbors < min(n_p, n_q):
        raise ValueError("neighbors out of range")

    jittered = False
    for _ in range(2):
        # torus samples move into the periodic box [0, 1)
        p_t, q_t = (np.mod(p + 0.5, 1.0), np.mod(q + 0.5, 1.0)) if torus else (p, q)
        boxsize = 1.0 if torus else None
        rho = _knn_distances(cKDTree(p_t, boxsize=boxsize), p_t, neighbors, exclude_self=True)
        nu = _knn_distances(cKDTree(q_t, boxsize=boxsize), p_t, neighbors, exclude_self=False)
        if np.all(rho > 0) and np.all(nu > 0):
            break
        gen = np.random.Generator(np.random.Philox(_JITTER_SEED))
        p = p + 1e-12 * gen.standard_normal(p.shape)
        q = q + 1e-12 * gen.standard_normal(q.shape)
        jittered = True
    else:
        raise ValueError("zero nearest-neighbor distances persist after jitter")

    logs = np.log(nu / rho)
    value = float(dim * np.mean(logs) + math.log(n_q / (n_p - 1)))
    stderr = float(dim * np.std(logs, ddof=1) / math.sqrt(n_p))
    return EntropyReport(
        kind="knn",
        value=value,
        stderr=stderr,
        k=1,
        n=0,
        t=math.nan,
        params={
            "neighbors": neighbors,
            "size_p": n_p,
            "size_q": n_q,
            "dim": dim,
            "torus": torus,
            "jittered": jittered,
            "bias_note": "stderr covers MC scatter only, not the kNN bias",
        },
    )


def tv_histogram(
    samples_p: np.ndarray,
    samples_q: np.ndarray,
    bins_per_dim: int = 64,
    torus: bool = False,
) -> EntropyReport:
    """Half-L1 distance between normalized histograms on shared bins.

    Refuses dimension > 4: the histogram partition is hopeless there,
    use entropy_knn with the Pinsker inequality instead.
    """
    p = np.atleast_2d(np.asarray(samples_p, dtype=float))
    q = np.atleast_2d(np.asarray(samples_q, dtype=float))
    if p.ndim != 2 or q.ndim != 2 or p.shape[1] != q.shape[1]:
        raise ValueError("sample sets must be 2-d with matching dimension")
    dim = p.shape[1]
    if dim > 4:
        raise ValueError("histogram TV refuses dim > 4; use entropy_knn plus Pinsker")
    if bins_per_dim < 2:
        raise ValueError("need at least 2 bins per dimension")
    if torus:
        ranges = [(-0.5, 0.5)] * dim
    else:
        lo = np.minimum(p.min(axis=0), q.min(axis=0))
        hi = np.maximum(p.max(axis=0), q.max(axis=0))
        pad = 1e-9 * np.maximum(1.0, np.abs(hi))
        ranges = [(float(a), float(b + c)) for a, b, c in zip(lo, hi, pad)]
    edges = [np.linspace(a, b, bins_per_dim + 1) for a, b in ranges]
    hp, _ = np.histogramdd(p, bins=edges)
    hq, _ = np.histogramdd(q, bins=edges)
    fp = hp / p.shape[0]
    fq = hq / q.shape[0]
    value = 0.5 * float(np.sum(np.abs(fp - fq)))
    var = np.sum(fp * (1 - fp)) / p.shape[0] + np.sum(fq * (1 - fq)) / q.shape[0]
    stderr = 0.5 * math.sqrt(max(var, 0.0))
    return EntropyReport(
        kind="histogram_tv",
        value=value,
        stderr=stderr,
        k=1,
        n=0,
        t=math.nan,
        params={
            "bins_per_dim": bins_per_dim,
            "size_p": p.shape[0],
            "size_q": q.shape[0],
            "dim": dim,
            "ranges": [list(r) for r in ranges],
            "mass_p": float(np.sum(fp)),
            "mass_q": float(np.sum(fq)),
        },
    )


def concentration_bounds(kind: str, **params) -> float:
    """Evaluate one of the closed-form concentration bounds exactly.

    kinds: "hoeffding" (n, eps, b), "moment" (q, v),
    "drift_integral" (p, beta, delta, n), "fractional" (p, beta, delta,
    n, hurst). The last two are p! beta^p delta^(e p) / n^p with the delta
    exponent e of bounds.estimate_beta: 1, or 2 - 2H for H > 1/2. Overflow
    returns +inf with a warning.
    """

    def _pos(name):
        v = float(params[name])
        if v <= 0:
            raise ValueError(f"{name} must be positive")
        return v

    def _int_ge1(name):
        v = params[name]
        if int(v) != v or int(v) < 1:
            raise ValueError(f"{name} must be an integer >= 1")
        return int(v)

    try:
        if kind == "hoeffding":
            n, eps, b = _int_ge1("n"), _pos("eps"), _pos("b")
            return math.exp(-n * eps * eps / (2.0 * b * b))
        if kind == "moment":
            q, v = _int_ge1("q"), _pos("v")
            return 2.0 * math.factorial(q) * (2.0 * v) ** q
        if kind in ("drift_integral", "fractional"):
            p, beta, delta, n = _int_ge1("p"), _pos("beta"), _pos("delta"), _int_ge1("n")
            hurst = None
            if kind == "fractional":
                hurst = float(params["hurst"])
                if not 0.0 < hurst < 1.0:
                    raise ValueError("hurst must lie in (0, 1)")
            return math.factorial(p) * beta**p * delta ** (_delta_exponent(hurst) * p) / n**p
    except OverflowError:
        warnings.warn(f"{kind} bound overflowed to +inf", stacklevel=2)
        return math.inf
    raise ValueError(f"unknown bound kind {kind!r}")


@dataclass(frozen=True)
class CheckRecord:
    passed: bool
    pinsker_margin: float
    subadditivity_margin: float
    details: dict


def pinsker_and_subadditivity_check(
    report_h: EntropyReport,
    report_tv: EntropyReport,
    h_full: EntropyReport,
) -> CheckRecord:
    """Assert TV <= sqrt(2 H_k) and H_k <= (k/n) H_full, with margins.

    Each comparison absorbs 3 standard errors of the quantities involved.
    """
    if (report_h.k, report_h.n) != (report_tv.k, report_tv.n) and report_tv.n != 0:
        raise ValueError("k/n metadata mismatch between entropy and TV reports")
    if h_full.n != report_h.n or h_full.k != h_full.n:
        raise ValueError("h_full must be the full-system report for the same n")
    if not math.isnan(report_tv.t) and abs(report_tv.t - report_h.t) > 1e-9:
        raise ValueError("time mismatch between entropy and TV reports")

    h_k = max(report_h.value, 0.0)
    ceiling = math.sqrt(2.0 * max(h_k + 3.0 * report_h.stderr, 0.0)) + 3.0 * report_tv.stderr
    pinsker_margin = ceiling - report_tv.value

    frac = report_h.k / report_h.n
    slack = 3.0 * (report_h.stderr + frac * h_full.params.get("stderr_full", h_full.stderr))
    sub_rhs = frac * h_full.params.get("h_full", h_full.value) + slack
    subadd_margin = sub_rhs - report_h.value

    passed = pinsker_margin >= 0.0 and subadd_margin >= 0.0
    return CheckRecord(
        passed=passed,
        pinsker_margin=pinsker_margin,
        subadditivity_margin=subadd_margin,
        details={
            "tv": report_tv.value,
            "pinsker_ceiling": ceiling,
            "h_k": report_h.value,
            "subadditivity_rhs": sub_rhs,
            "k": report_h.k,
            "n": report_h.n,
        },
    )
