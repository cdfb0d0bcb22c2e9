"""Interaction kernels and drifts.

Two families: singular Biot-Savart kernels on R^2 / T^2 (free-space and
periodic lattice sum) and bounded smooth test kernels, plus named drift
built-ins with linear-growth metadata. Drifts are declared by name and
parameter map in the config; no runtime-loaded code.

The periodic lattice sum is truncated to |k|_inf <= R and accumulated in
+k/-k pairs inside complete shells. Pairing makes antisymmetry exact in
floating point: negating the argument negates every pair sum bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from .core import ConfigError, DomainSpec, KernelRef, DriftRef, SimConfig, _as_integral, torus_displacement, wrap_torus

TWO_PI = 2.0 * math.pi

# Evaluation block size for lattice sums over large probe batches.
_CHUNK = 4096


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """Declarative kernel description.

    kind: biot_savart_free | biot_savart_periodic | smooth_divfree
    """

    kind: str
    d: int = 2
    truncation_radius: int = 8
    regularization_eps: float = 0.0
    frequency: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("biot_savart_free", "biot_savart_periodic", "smooth_divfree"):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if self.kind.startswith("biot_savart") and self.d != 2:
            raise ConfigError("biot_savart kernels require d = 2")
        if self.truncation_radius < 1:
            raise ConfigError("truncation_radius must be >= 1")
        if self.regularization_eps < 0:
            raise ConfigError("regularization_eps must be >= 0")
        if self.kind == "smooth_divfree" and self.frequency < 1:
            raise ConfigError("smooth_divfree requires frequency >= 1")

    def __call__(self, x: np.ndarray, freeze_inside: bool = False) -> np.ndarray:
        if self.kind == "biot_savart_free":
            return biot_savart_free(x, eps=self.regularization_eps, freeze_inside=freeze_inside)
        if self.kind == "biot_savart_periodic":
            return biot_savart_periodic(
                x,
                truncation_radius=self.truncation_radius,
                eps=self.regularization_eps,
                freeze_inside=freeze_inside,
            )
        return smooth_divfree_kernel(x, self.frequency)


def _perp_over_r2(u: np.ndarray) -> np.ndarray:
    # u_perp / |u|^2 with u_perp = (u2, -u1); no prefactor. The odd kernel
    # is 0 at u = 0 (reached only through the frozen eps-ball), not 0/0.
    r2 = u[..., 0] * u[..., 0] + u[..., 1] * u[..., 1]
    at_zero = r2 == 0.0
    if at_zero.any():
        r2 = np.where(at_zero, np.inf, r2)
    out = np.empty_like(u)
    out[..., 0] = u[..., 1] / r2
    out[..., 1] = -u[..., 0] / r2
    return out


def _apply_eps(x: np.ndarray, eps: float, freeze_inside: bool) -> np.ndarray:
    """Singularity policy around 0: reject inside the eps-ball, or project
    onto the eps-sphere (freeze) for simulation use. r = 0 freezes to the
    zero vector, where the kernel is 0 by oddness."""
    r = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    if eps == 0.0:
        if np.any(r == 0.0):
            raise ValueError("biot_savart: singular evaluation at a lattice point with eps = 0")
        return x
    inside = r < eps
    if not np.any(inside):
        return x
    if not freeze_inside:
        raise ValueError("biot_savart: evaluation inside the eps-ball (pass freeze_inside for simulation semantics)")
    safe_r = np.where(r == 0.0, 1.0, r)
    projected = np.where(r == 0.0, 0.0, x * (eps / safe_r))
    return np.where(inside, projected, x)


def biot_savart_free(x: np.ndarray, eps: float = 0.0, freeze_inside: bool = False) -> np.ndarray:
    """Free-space Biot-Savart field (1/2pi) x_perp / |x|^2 on R^2."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 2:
        raise ValueError("biot_savart_free expects 2-vectors")
    x = _apply_eps(x, eps, freeze_inside)
    return _perp_over_r2(x) / TWO_PI


@lru_cache(maxsize=None)
def _lattice_pairs(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice offsets with 0 < |k|_inf <= radius as (+k, -k) pair arrays.

    Enumerated shell by shell (|k|_inf = 1, 2, ...), lexicographically
    within a shell; only the lexicographically positive representative of
    each +/- pair is listed in the first array.
    """
    plus = []
    for s in range(1, radius + 1):
        shell = []
        for k1 in range(-s, s + 1):
            for k2 in range(-s, s + 1):
                if max(abs(k1), abs(k2)) != s:
                    continue
                if (k1, k2) > (0, 0):
                    shell.append((k1, k2))
        plus.extend(sorted(shell))
    kp = np.asarray(plus, dtype=np.float64)
    return kp, -kp


def biot_savart_periodic(
    x: np.ndarray,
    truncation_radius: int = 8,
    eps: float = 0.0,
    freeze_inside: bool = False,
) -> np.ndarray:
    """Periodic Biot-Savart kernel on T^2: free term plus the lattice sum
    over images 0 < |k|_inf <= truncation_radius, accumulated in symmetric
    shells. The input is reduced to its minimal image first, so the result
    is a function of the torus point only.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 2:
        raise ValueError("biot_savart_periodic expects 2-vectors")
    if truncation_radius < 0:
        raise ValueError("truncation_radius must be >= 0")
    x = wrap_torus(x)
    x = _apply_eps(x, eps, freeze_inside)

    lead = x.shape[:-1]
    flat = x.reshape(-1, 2)
    out = np.empty_like(flat)
    if truncation_radius == 0:
        out[:] = _perp_over_r2(flat)
        out /= TWO_PI
        return out.reshape(lead + (2,))

    kp, km = _lattice_pairs(truncation_radius)
    for lo in range(0, flat.shape[0], _CHUNK):
        blk = flat[lo : lo + _CHUNK]
        free = _perp_over_r2(blk)
        tp = _perp_over_r2(blk[:, None, :] - kp[None, :, :])
        tm = _perp_over_r2(blk[:, None, :] - km[None, :, :])
        pair_sums = tp + tm
        lattice = np.add.reduce(pair_sums, axis=1)
        out[lo : lo + _CHUNK] = (free + lattice) / TWO_PI
    return out.reshape(lead + (2,))


def smooth_divfree_kernel(x: np.ndarray, frequency: int = 1) -> np.ndarray:
    """Bounded smooth divergence-free torus kernel (sin(2pi m x2), sin(2pi m x1)).

    Mean zero over the torus, exactly divergence-free, sup norm 1 per
    component.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 2:
        raise ValueError("smooth_divfree_kernel expects 2-vectors")
    if frequency < 1:
        raise ValueError("frequency must be >= 1")
    w = TWO_PI * frequency
    out = np.empty_like(x)
    out[..., 0] = np.sin(w * x[..., 1])
    out[..., 1] = np.sin(w * x[..., 0])
    return out


def divergence_fd(kernel: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference divergence estimate of a 2-d vector field."""
    x = np.asarray(x, dtype=np.float64)
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    d1 = (kernel(x + e1)[..., 0] - kernel(x - e1)[..., 0]) / (2 * h)
    d2 = (kernel(x + e2)[..., 1] - kernel(x - e2)[..., 1]) / (2 * h)
    return d1 + d2


def grid_lp_norm(p: float, n_cells: int, truncation_radius: int = 8) -> float:
    """Cell-centered grid quadrature of the L^p(T^2) norm of the periodic
    Biot-Savart kernel. The grid never touches the singularity; for p < 2
    refinement stabilizes, for p = 2 it grows logarithmically (the kernel
    is not square integrable on the torus)."""
    if p <= 0:
        raise ValueError("p must be positive")
    if n_cells < 2:
        raise ValueError("need at least 2 cells per axis")
    idx = (np.arange(n_cells) + 0.5) / n_cells - 0.5
    xx, yy = np.meshgrid(idx, idx, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    vals = biot_savart_periodic(pts, truncation_radius=truncation_radius)
    mags = np.sqrt(vals[:, 0] ** 2 + vals[:, 1] ** 2)
    return float(np.mean(mags**p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Drifts
# ---------------------------------------------------------------------------


@dataclass
class DriftSpec:
    """Drift pair (b0, b) with linear-growth metadata.

    Built-ins are state drifts: the path functionals read the path at the
    current time only, which keeps the integrator O(1) in memory. The
    path-protocol methods (b0_at / pair_at) exist so non-anticipativity
    and growth validation can be exercised on explicit sample paths.

    pair_mean, mf_summary and mf_drift are optional algebraic fast paths
    built from per-particle features: features(x) computes what they read
    from the states (sin and cos of the trigonometric kernel; None means
    the states themselves), so an integrator computes the features once per
    step and hands the same features to every fast path of that step.
    pair_mean(t, f) computes (n-1)^{-1} sum_{j != i} b(t, X^i, X^j) for all
    i without forming the pairwise tensor; mf_summary(f) reduces an
    ensemble to a small summary, and mf_drift(t, f, summary) evaluates the
    drift averaged against that ensemble. All are exact rearrangements of
    the pairwise sums, not approximations.
    """

    name: str
    growth_constant: float
    torus: bool
    params: dict[str, Any] = field(default_factory=dict)
    b0_state: Callable[[float, np.ndarray], np.ndarray] | None = None
    pair_state: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None
    features: Callable[[np.ndarray], Any] | None = None
    pair_mean: Callable[[float, Any], np.ndarray] | None = None
    mf_summary: Callable[[Any], np.ndarray] | None = None
    mf_drift: Callable[[float, Any, np.ndarray], np.ndarray] | None = None

    def feature_map(self, x: np.ndarray) -> Any:
        """Features of the states x that the fast paths read."""
        return x if self.features is None else self.features(x)

    def b0_at(self, times: np.ndarray, paths: np.ndarray, j: int) -> np.ndarray:
        """b0 at grid index j, reading only paths[..., :j+1, :]."""
        if self.b0_state is None:
            return np.zeros_like(paths[..., j, :])
        return self.b0_state(float(times[j]), paths[..., j, :])

    def pair_at(self, times: np.ndarray, xpaths: np.ndarray, ypaths: np.ndarray, j: int) -> np.ndarray:
        """b at grid index j, reading only the paths up to index j."""
        if self.pair_state is None:
            return np.zeros_like(xpaths[..., j, :])
        return self.pair_state(float(times[j]), xpaths[..., j, :], ypaths[..., j, :])

    def pair_mean_generic(self, t: float, states: np.ndarray, feats: Any = None) -> np.ndarray:
        """(n-1)^{-1} sum_{j != i} b(t, X^i, X^j), O(n^2) fallback.

        feats, when given, is feature_map(states) already computed this step.
        """
        if self.pair_state is None:
            return np.zeros_like(states)
        n = states.shape[-2]
        if n < 2:
            raise ValueError("pairwise drift needs n >= 2")
        if self.pair_mean is not None:
            return self.pair_mean(t, self.feature_map(states) if feats is None else feats)
        vals = self.pair_state(t, states[..., :, None, :], states[..., None, :, :])
        # remove the diagonal i = j before averaging
        diag = self.pair_state(t, states, states)
        total = np.add.reduce(vals, axis=-2) - diag
        return total / (n - 1)

    def mean_field_drift(
        self,
        t: float,
        x: np.ndarray,
        ensemble_states: np.ndarray | None,
        summary: np.ndarray | None,
        feats: Any = None,
    ) -> np.ndarray:
        """Drift of x averaged against an ensemble: (1/m) sum_l b(t, x, Y_l).

        feats, when given, is feature_map(x) already computed this step.
        """
        if self.pair_state is None:
            return np.zeros_like(x)
        if self.mf_drift is not None and summary is not None:
            return self.mf_drift(t, self.feature_map(x) if feats is None else feats, summary)
        if ensemble_states is None:
            raise ValueError("generic mean-field drift needs ensemble states")
        m = ensemble_states.shape[0]
        acc = np.zeros_like(x)
        step = max(1, _CHUNK // max(1, int(np.prod(x.shape[:-1]))))
        for lo in range(0, m, step):
            blk = ensemble_states[lo : lo + step]
            vals = self.pair_state(t, x[..., None, :], blk)
            acc += np.add.reduce(vals, axis=-2)
        return acc / m


def running_sup(paths: np.ndarray, j: int) -> np.ndarray:
    """sup_{s <= t_j} |X_s| (Euclidean norm) over the retained grid."""
    seg = paths[..., : j + 1, :]
    return np.max(np.sqrt(np.sum(seg * seg, axis=-1)), axis=-1)


@dataclass(frozen=True)
class GrowthReport:
    max_ratio: float
    passed: bool


def validate_linear_growth(
    drift: DriftSpec,
    sample_paths: np.ndarray,
    times: np.ndarray,
    check_indices: list[int] | None = None,
) -> GrowthReport:
    """Empirical check of |b0(t,x)| + |b(t,x,y)| <= K(1 + ||x||_t + ||y||_t).

    sample_paths: (n_paths, steps+1, d). The ratio is maximized over all
    ordered path pairs and the requested grid indices.
    """
    paths = np.asarray(sample_paths, dtype=np.float64)
    if paths.ndim != 3:
        raise ValueError("sample_paths must be (n_paths, steps+1, d)")
    npaths = paths.shape[0]
    if npaths < 1:
        raise ValueError("need at least one sample path")
    if check_indices is None:
        check_indices = list(range(paths.shape[1]))
    max_ratio = 0.0
    for j in check_indices:
        sup = running_sup(paths, j)  # (n_paths,)
        b0 = drift.b0_at(times, paths, j)
        b0_norm = np.sqrt(np.sum(b0 * b0, axis=-1))
        for a in range(npaths):
            xa = paths[a : a + 1]
            pv = drift.pair_at(times, np.broadcast_to(xa, paths.shape), paths, j)
            pv_norm = np.sqrt(np.sum(pv * pv, axis=-1))
            denom = 1.0 + sup[a] + sup
            ratio = (b0_norm[a] + pv_norm) / denom
            max_ratio = max(max_ratio, float(np.max(ratio)))
    return GrowthReport(max_ratio=max_ratio, passed=max_ratio <= drift.growth_constant + 1e-9)


# ---------------------------------------------------------------------------
# Built-in drift registry
# ---------------------------------------------------------------------------


def _reject_unknown_params(name: str, params: dict, allowed: tuple[str, ...] = ()) -> None:
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"{name}: unknown params {sorted(unknown)}")


def _drift_zero(params: dict, domain: DomainSpec) -> DriftSpec:
    _reject_unknown_params("zero", params)
    return DriftSpec(name="zero", growth_constant=0.0, torus=domain.is_torus, params=dict(params))


def _drift_constant_b0(params: dict, domain: DomainSpec) -> DriftSpec:
    _reject_unknown_params("constant_b0", params, ("c",))
    c = np.asarray(params.get("c", 1.0), dtype=np.float64)
    c = np.broadcast_to(np.atleast_1d(c), (domain.dim,)).copy()

    def b0(t: float, x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(c, x.shape).copy()

    return DriftSpec(
        name="constant_b0",
        growth_constant=float(np.linalg.norm(c)),
        torus=domain.is_torus,
        params={"c": c.tolist()},
        b0_state=b0,
    )


def _drift_restoring_b0(params: dict, domain: DomainSpec) -> DriftSpec:
    _reject_unknown_params("restoring_b0", params, ("rate",))
    rate = float(params.get("rate", 1.0))

    def b0(t: float, x: np.ndarray) -> np.ndarray:
        return -rate * x

    return DriftSpec(
        name="restoring_b0",
        growth_constant=rate,
        torus=domain.is_torus,
        params={"rate": rate},
        b0_state=b0,
    )


def _drift_linear_pair(params: dict, domain: DomainSpec) -> DriftSpec:
    _reject_unknown_params("linear_pair", params)
    if domain.is_torus:
        raise ConfigError("linear_pair drift lives on R^d")

    def pair(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x + y

    # The features are the states themselves.
    def pair_mean(t: float, states: np.ndarray) -> np.ndarray:
        # sum_{j != i}(x_i + x_j) = (n-1) x_i + (S - x_i)
        n = states.shape[-2]
        total = np.add.reduce(states, axis=-2, keepdims=True)
        return states + (total - states) / (n - 1)

    def mf_summary(states: np.ndarray) -> np.ndarray:
        return np.mean(states, axis=0)

    def mf_drift(t: float, x: np.ndarray, summary: np.ndarray) -> np.ndarray:
        return x + summary

    return DriftSpec(
        name="linear_pair",
        growth_constant=1.0,
        torus=False,
        params=dict(params),
        pair_state=pair,
        pair_mean=pair_mean,
        mf_summary=mf_summary,
        mf_drift=mf_drift,
    )


def _drift_attract_pair(params: dict, domain: DomainSpec) -> DriftSpec:
    _reject_unknown_params("attract_pair", params)
    if domain.is_torus:
        raise ConfigError("attract_pair drift lives on R^d")

    def pair(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y - x

    # The features are the states themselves.
    def pair_mean(t: float, states: np.ndarray) -> np.ndarray:
        n = states.shape[-2]
        total = np.add.reduce(states, axis=-2, keepdims=True)
        return (total - n * states) / (n - 1)

    def mf_summary(states: np.ndarray) -> np.ndarray:
        return np.mean(states, axis=0)

    def mf_drift(t: float, x: np.ndarray, summary: np.ndarray) -> np.ndarray:
        return summary - x

    return DriftSpec(
        name="attract_pair",
        growth_constant=1.0,
        torus=False,
        params=dict(params),
        pair_state=pair,
        pair_mean=pair_mean,
        mf_summary=mf_summary,
        mf_drift=mf_drift,
    )


def _drift_sign_gated_pair(params: dict, domain: DomainSpec) -> DriftSpec:
    # h(u) = u 1{sin u > 0}: satisfies the linear growth condition with
    # K = 1 but is discontinuous in the pair displacement.
    _reject_unknown_params("sign_gated_pair", params)
    if domain.is_torus or domain.dim != 1:
        raise ConfigError("sign_gated_pair drift lives on R^1")

    def pair(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = x - y
        return u * (np.sin(u) > 0.0)

    return DriftSpec(
        name="sign_gated_pair",
        growth_constant=1.0,
        torus=False,
        params=dict(params),
        pair_state=pair,
    )


def _drift_from_kernel(spec: KernelSpec) -> DriftSpec:
    if spec.kind == "smooth_divfree":
        w = TWO_PI * spec.frequency

        def pair(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
            return smooth_divfree_kernel(torus_displacement(x, y), spec.frequency)

        def features(x: np.ndarray) -> tuple[np.ndarray, ...]:
            a2 = w * x[..., 1]
            a1 = w * x[..., 0]
            return np.sin(a2), np.cos(a2), np.sin(a1), np.cos(a1)

        def pair_mean(t: float, feats: tuple[np.ndarray, ...]) -> np.ndarray:
            # sum_{j != i} sin(w (a_i - a_j)) = sin(a_i) C - cos(a_i) S with
            # C = sum cos(a_j), S = sum sin(a_j); the i = j term vanishes.
            s2, c2, s1, c1 = feats
            n = s2.shape[-1]
            C2 = np.add.reduce(c2, axis=-1, keepdims=True)
            S2 = np.add.reduce(s2, axis=-1, keepdims=True)
            C1 = np.add.reduce(c1, axis=-1, keepdims=True)
            S1 = np.add.reduce(s1, axis=-1, keepdims=True)
            out = np.empty(s2.shape + (2,))
            out[..., 0] = (s2 * C2 - c2 * S2) / (n - 1)
            out[..., 1] = (s1 * C1 - c1 * S1) / (n - 1)
            return out

        def mf_summary(feats: tuple[np.ndarray, ...]) -> np.ndarray:
            s2, c2, s1, c1 = feats
            return np.array([np.mean(c2), np.mean(s2), np.mean(c1), np.mean(s1)])

        def mf_drift(t: float, feats: tuple[np.ndarray, ...], summary: np.ndarray) -> np.ndarray:
            c2m, s2m, c1m, s1m = summary
            s2, c2, s1, c1 = feats
            out = np.empty(s2.shape + (2,))
            out[..., 0] = s2 * c2m - c2 * s2m
            out[..., 1] = s1 * c1m - c1 * s1m
            return out

        return DriftSpec(
            name="kernel:smooth_divfree",
            growth_constant=math.sqrt(2.0),
            torus=True,
            params={"frequency": spec.frequency},
            pair_state=pair,
            features=features,
            pair_mean=pair_mean,
            mf_summary=mf_summary,
            mf_drift=mf_drift,
        )

    # Singular kernels: generic O(n^2) pairwise path with frozen-ball
    # regularization. The growth constant reflects the eps cap.
    eps = spec.regularization_eps

    def pair_bs(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        disp = torus_displacement(x, y) if spec.kind == "biot_savart_periodic" else x - y
        return spec(disp, freeze_inside=True)

    cap = math.inf if eps == 0.0 else 1.0 / (TWO_PI * eps) + 2.0 * spec.truncation_radius
    return DriftSpec(
        name=f"kernel:{spec.kind}",
        growth_constant=cap,
        torus=spec.kind == "biot_savart_periodic",
        params={"truncation_radius": spec.truncation_radius, "eps": eps},
        pair_state=pair_bs,
    )


_DRIFT_BUILTINS: dict[str, Callable[[dict, DomainSpec], DriftSpec]] = {
    "zero": _drift_zero,
    "constant_b0": _drift_constant_b0,
    "restoring_b0": _drift_restoring_b0,
    "linear_pair": _drift_linear_pair,
    "attract_pair": _drift_attract_pair,
    "sign_gated_pair": _drift_sign_gated_pair,
}


def kernel_from_ref(ref: KernelRef, config: SimConfig) -> KernelSpec:
    params = dict(ref.params)
    if ref.name == "smooth_divfree":
        freq = _as_integral(params.pop("frequency", 1), "smooth_divfree: param 'frequency'")
        if params:
            raise ConfigError(f"smooth_divfree: unknown params {sorted(params)}")
        return KernelSpec(kind="smooth_divfree", d=config.domain.dim, frequency=freq)
    if ref.name in ("biot_savart_free", "biot_savart_periodic"):
        if params:
            raise ConfigError(f"{ref.name}: unknown params {sorted(params)}")
        return KernelSpec(
            kind=ref.name,
            d=config.domain.dim,
            truncation_radius=config.truncation_radius,
            regularization_eps=config.effective_eps,
        )
    raise ConfigError(f"unknown kernel {ref.name!r}")


def build_drift(config: SimConfig) -> DriftSpec:
    """Resolve the config's kernel-or-drift declaration to a DriftSpec."""
    if config.kernel is not None:
        if not config.domain.is_torus:
            raise ConfigError("kernel interactions are defined on the torus")
        return _drift_from_kernel(kernel_from_ref(config.kernel, config))
    assert config.drift is not None
    factory = _DRIFT_BUILTINS.get(config.drift.name)
    if factory is None:
        raise ConfigError(f"unknown drift {config.drift.name!r}; built-ins: {sorted(_DRIFT_BUILTINS)}")
    return factory(config.drift.params, config.domain)
