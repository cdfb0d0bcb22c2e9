"""Closed-form entropy envelopes and short-time horizons.

Everything here is deterministic arithmetic: the k-marginal entropy bound
and its constant, the entropy hierarchy integrated as an equality cascade
(a valid upper envelope by the comparison principle), and the step-size
horizons delta* for the Brownian and fractional regimes, with an empirical
moment fit for the beta parameter the horizons consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BoundEnvelope",
    "HorizonEstimate",
    "BetaFit",
    "theorem_bound",
    "constant_C",
    "hierarchy_ode_solve",
    "short_time_horizon",
    "estimate_beta",
]


@dataclass(frozen=True)
class BoundEnvelope:
    """Per-(k, t) upper bounds on the k-marginal relative entropy."""

    n: int
    times: np.ndarray  # (n_t,)
    values: np.ndarray  # (n, n_t); row i is k = i + 1
    params: dict = field(default_factory=dict)

    def at(self, k: int, t_index: int = -1) -> float:
        if not 1 <= k <= self.n:
            raise ValueError("need 1 <= k <= n")
        return float(self.values[k - 1, t_index])


@dataclass(frozen=True)
class HorizonEstimate:
    regime: str  # "brownian" | "fractional"
    kappa: float
    beta: float
    hurst: float | None
    delta_star: float

    def __post_init__(self):
        if not self.delta_star > 0:
            raise ValueError("delta_star must be positive")


def theorem_bound(C: float, gamma: float, T: float, n: int, k: int) -> float:
    """Closed-form k-marginal entropy envelope at time T.

    2 C k^2 / n^2 + C exp(-2 n (e^{-gamma T} - k/n)_+^2). Valid constants
    require n >= 6 e^{gamma T}; a smaller n is evaluated all the same, without
    a warning, because the expression itself remains evaluable.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    gap = max(math.exp(-gamma * T) - k / n, 0.0)
    return 2.0 * C * k * k / (n * n) + C * math.exp(-2.0 * n * gap * gap)


def constant_C(C0: float, gamma: float, M: float, T: float) -> float:
    """8 (C0 + (1 + gamma) M T) e^{6 gamma T}."""
    if min(C0, gamma, M, T) < 0:
        raise ValueError("constant_C takes nonnegative inputs")
    return 8.0 * (C0 + (1.0 + gamma) * M * T) * math.exp(6.0 * gamma * T)


def hierarchy_ode_solve(
    n: int,
    M: float,
    gamma: float,
    H0: np.ndarray,
    T: float,
    dt: float,
) -> BoundEnvelope:
    """Integrate the entropy hierarchy as an equality system.

    dH^k/dt = k (k-1)^2 / (n-1)^2 M + gamma k (H^{k+1} - H^k) for k < n,
    closed at the top by H^n_t = H^n_0 + n M t / 2. Integrating the
    inequality system as equalities upper-bounds every solution with the
    same data (comparison principle). Explicit Euler; the requested dt is
    refused above the 1/(2 gamma n) stability limit and shrunk slightly so
    an integer number of steps lands exactly on T. At T = 0 every value is H0.
    """
    H0 = np.asarray(H0, dtype=float)
    if H0.shape != (n,):
        raise ValueError(f"H0 must have length n = {n}")
    if np.any(H0 < 0):
        raise ValueError("H0 must be nonnegative")
    if n < 2:
        raise ValueError("hierarchy needs n >= 2")
    if T < 0 or dt <= 0:
        raise ValueError("T must be >= 0 and dt positive")
    if gamma > 0 and dt > 1.0 / (2.0 * gamma * n):
        raise ValueError(
            f"dt = {dt} unstable for explicit Euler; need dt <= 1/(2*gamma*n) = {1.0 / (2.0 * gamma * n):.6g}"
        )
    steps = max(1, math.ceil(T / dt - 1e-12))
    h = T / steps

    ks = np.arange(1, n + 1, dtype=float)
    source = ks * (ks - 1.0) ** 2 / (n - 1.0) ** 2 * M  # zero at k = 1
    values = np.empty((n, steps + 1))
    values[:, 0] = H0
    cur = H0.copy()
    for s in range(steps):
        t_next = (s + 1) * h
        upd = cur + h * source
        upd[:-1] += h * gamma * ks[:-1] * (cur[1:] - cur[:-1])
        # top row is pinned to its closed form, not stepped
        upd[-1] = H0[-1] + 0.5 * n * M * t_next
        cur = upd
        values[:, s + 1] = cur
    times = np.linspace(0.0, T, steps + 1)
    return BoundEnvelope(n=n, times=times, values=values, params={"dt": h, "requested_dt": dt})


def short_time_horizon(
    kappa: float,
    beta: float,
    regime: str = "brownian",
    hurst: float | None = None,
    C: float | None = None,
) -> HorizonEstimate:
    """Largest admissible step delta* for the exponential-moment argument.

    Brownian: delta* = (16 max(kappa^2, 1) beta)^{-1}. Fractional with
    H > 1/2: delta* = (C kappa^2 beta)^{-1/(2-2H)}; the singular branch
    H <= 1/2 falls back to the Brownian-form horizon.
    """
    if kappa <= 0 or beta <= 0:
        raise ValueError("kappa and beta must be positive")
    if regime == "brownian":
        delta = 1.0 / (16.0 * max(kappa * kappa, 1.0) * beta)
        return HorizonEstimate("brownian", kappa, beta, None, delta)
    if regime == "fractional":
        if hurst is None or not 0.0 < hurst < 1.0:
            raise ValueError("fractional regime needs hurst in (0, 1)")
        if hurst <= 0.5:
            delta = 1.0 / (16.0 * max(kappa * kappa, 1.0) * beta)
            return HorizonEstimate("fractional", kappa, beta, hurst, delta)
        if C is None or C <= 0:
            raise ValueError("fractional regime with H > 1/2 needs a positive constant C")
        delta = (C * kappa * kappa * beta) ** (-1.0 / (2.0 - 2.0 * hurst))
        return HorizonEstimate("fractional", kappa, beta, hurst, delta)
    raise ValueError(f"unknown regime {regime!r}")


def _delta_exponent(hurst: float | None) -> float:
    # H > 1/2 improves the step scaling to delta^{2-2H} per unit order;
    # the singular branch H <= 1/2 keeps the Brownian-form delta^1.
    if hurst is not None and hurst > 0.5:
        return 2.0 - 2.0 * hurst
    return 1.0


@dataclass(frozen=True)
class BetaFit:
    """beta fitted so p! beta^p delta^{e p} / n^p dominates the measured
    moments E[Y^p] for p = 1, 2, 3, with e the regime's delta exponent;
    residual is the relative spread of the per-p solutions (0 means one
    beta fits all orders exactly)."""

    beta: float
    per_p: dict[int, float]
    residual: float


def estimate_beta(
    samples: np.ndarray,
    n: int,
    delta: float,
    hurst: float | None = None,
) -> BetaFit:
    """Fit beta from per-particle samples of Y = integral over [0, delta]
    of the squared drift difference (or its Volterra transform in the
    fractional regime).

    For each p in 1, 2, 3, beta_p solves
    E[Y^p] = p! beta_p^p delta^{e p} / n^p with e the regime's delta
    exponent; the reported beta is the max (the smallest constant
    dominating all fitted orders), residual the relative spread.
    """
    y = np.asarray(samples, dtype=float).ravel()
    if y.size < 2:
        raise ValueError("need at least 2 samples")
    if np.any(y < 0):
        raise ValueError("squared-drift integrals must be nonnegative")
    if delta <= 0 or n < 1:
        raise ValueError("delta must be positive, n >= 1")
    e = _delta_exponent(hurst)
    per_p: dict[int, float] = {}
    for p in (1, 2, 3):
        mp = float(np.mean(y**p))
        per_p[p] = (mp / math.factorial(p)) ** (1.0 / p) * n / delta**e
    beta = max(per_p.values())
    lo = min(per_p.values())
    residual = 0.0 if beta == 0 else (beta - lo) / beta
    if beta <= 0:
        beta = np.finfo(float).tiny
    return BetaFit(beta=beta, per_p=per_p, residual=residual)
