"""Interaction kernels and drifts.

Two families: singular Biot-Savart kernels on R^2 / T^2 (free-space and
periodic lattice sum) and bounded smooth test kernels, plus named drift
built-ins. Kernels and drifts are declared by name and parameter map in the
config and looked up in one table per family (KERNELS, DRIFTS) by
build_drift and kernel_from_ref through core.resolve_builtin. No runtime-loaded code.

The periodic lattice sum is truncated to |k|_inf <= R and accumulated in
+k/-k pairs inside complete shells. Pairing makes antisymmetry exact in
floating point: negating the argument negates every pair sum bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from operator import add
from typing import Any, Callable

import numpy as np

from .core import ConfigError, DomainSpec, InteractionRef, SimConfig, _pop_key, resolve_builtin
from .core import sum_last_axis, torus_displacement, wrap_torus

TWO_PI = 2.0 * math.pi

# Evaluation block size for lattice sums over large probe batches, and the
# member chunk of the generic mean field (it fixes that sum's order).
_CHUNK = 4096
# Values per pair_state call on the generic paths (see DriftSpec).
_BATCH = 4 * _CHUNK


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


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
    """Singularity policy around 0: reject inside the eps-ball (at r = 0 when
    eps = 0), or project onto the eps-sphere (freeze) for simulation use.
    r = 0 freezes to the zero vector, where the kernel is 0 by oddness."""
    r = np.sqrt(sum_last_axis(x * x))[..., None]
    inside = (r < eps) | (r == 0.0)
    if not np.any(inside):
        return x
    if not freeze_inside:
        raise ValueError(
            "biot_savart: evaluation inside the eps-ball or at 0 (pass freeze_inside for simulation semantics)"
        )
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
    shells, minus x_perp / 2. The input is reduced to its minimal image
    first, so the result is a function of the torus point only.

    Summed over squares, the images tend to K_per(x) + x_perp / 2 with
    x_perp = (x2, -x1), not to K_per: in complex form the square sum of
    1/(z - w) is the Weierstrass zeta of the square lattice, for which
    zeta(z + 1) = zeta(z) + pi. Subtracting x_perp / 2 leaves an error of
    order truncation_radius^-2 and keeps the field continuous across the
    cell edge; the kernel stays exactly odd.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 2:
        raise ValueError("biot_savart_periodic expects 2-vectors")
    if truncation_radius < 1:
        raise ValueError("truncation_radius must be >= 1")
    x = wrap_torus(x)
    x = _apply_eps(x, eps, freeze_inside)

    lead = x.shape[:-1]
    flat = x.reshape(-1, 2)
    out = np.empty_like(flat)
    kp, km = _lattice_pairs(truncation_radius)
    for lo in range(0, flat.shape[0], _CHUNK):
        blk = flat[lo : lo + _CHUNK]
        free = _perp_over_r2(blk)
        tp = _perp_over_r2(blk[:, None, :] - kp[None, :, :])
        tm = _perp_over_r2(blk[:, None, :] - km[None, :, :])
        pair_sums = tp + tm
        lattice = np.add.reduce(pair_sums, axis=1)
        field = (free + lattice) / TWO_PI
        field[:, 0] -= 0.5 * blk[:, 1]
        field[:, 1] += 0.5 * blk[:, 0]
        out[lo : lo + _CHUNK] = field
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
    """Drift pair (b0, b): b0_state(t, x) and pair_state(t, x, y).

    Built-ins are state drifts: they read the states at the current time
    only, which keeps the integrator O(1) in memory.

    pair_mean, mf_summary and mf_drift are optional O(n) fast paths that
    _separable derives from one declaration, features(x): for each block of
    output columns, b(x, y) = own(x) + sum_r a_r(x) g_r(y). An integrator
    computes the features once per step and hands them to every fast path
    of that step. pair_mean(t, f) computes (n-1)^{-1} sum_{j != i}
    b(t, X^i, X^j) for all i without forming the pairwise tensor;
    mf_summary(f) reduces an ensemble to the means of its g_r, and
    mf_drift(t, f, summary) evaluates the drift averaged against that
    ensemble. All are exact rearrangements of the pairwise sums, not
    approximations.

    Without them, pair_mean_generic and mean_field_drift evaluate pair_state
    on batches of about _BATCH = 16,384 values (128 KiB of float64), many
    replicas or ensemble members per call; batches of 65,536 values were
    slower than one call per member, as each call faulted its 512 KiB
    temporaries in afresh. The batch size never moves a bit: the mean field
    adds the members in fixed chunks of _CHUNK / |lead| in member order.
    """

    name: str
    b0_state: Callable[[float, np.ndarray], np.ndarray] | None = None
    pair_state: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None
    features: Callable[[np.ndarray], Any] | None = None
    pair_mean: Callable[[float, Any], np.ndarray] | None = None
    mf_summary: Callable[[Any], np.ndarray] | None = None
    mf_drift: Callable[[float, Any, np.ndarray], np.ndarray] | None = None

    def feature_map(self, x: np.ndarray) -> Any:
        """Features of the states x that the fast paths read (x itself for a
        drift without fast paths)."""
        return x if self.features is None else self.features(x)

    def pair_mean_generic(self, t: float, states: np.ndarray, feats: Any = None) -> np.ndarray:
        """(n-1)^{-1} sum_{j != i} b(t, X^i, X^j), O(n^2) fallback.

        feats, when given, is feature_map(states) already computed this step.
        The pair tensor is evaluated for about _BATCH / (n^2 d) replicas at a
        time; each (replica, i) row's sum over j does not depend on how many
        replicas share the call.
        """
        if self.pair_state is None:
            return np.zeros_like(states)
        n, d = states.shape[-2:]
        if n < 2:
            raise ValueError("pairwise drift needs n >= 2")
        if self.pair_mean is not None:
            return self.pair_mean(t, self.feature_map(states) if feats is None else feats)
        flat = states.reshape((-1, n, d))
        out = np.empty_like(flat)
        rows = max(1, _BATCH // (n * n * d))
        for lo in range(0, flat.shape[0], rows):
            blk = flat[lo : lo + rows]
            vals = self.pair_state(t, blk[:, :, None, :], blk[:, None, :, :])
            # remove the diagonal i = j before averaging; np.diagonal puts it last
            diag = np.moveaxis(np.diagonal(vals, axis1=-3, axis2=-2), -1, -2)
            out[lo : lo + rows] = (np.add.reduce(vals, axis=-2) - diag) / (n - 1)
        return out.reshape(states.shape)

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
        The generic path sums the members in chunks of step = _CHUNK / |lead|
        (lead = x.shape[:-1]), each chunk reduced on its own and added to a
        zero accumulator in member order; step alone sets the bits. One
        pair_state call evaluates as many whole chunks as fit _BATCH values,
        with the chunks leading.
        """
        if self.pair_state is None:
            return np.zeros_like(x)
        if self.mf_drift is not None and summary is not None:
            return self.mf_drift(t, self.feature_map(x) if feats is None else feats, summary)
        if ensemble_states is None:
            raise ValueError("generic mean-field drift needs ensemble states")
        m, d = ensemble_states.shape
        lead = x.shape[:-1]
        size = max(1, math.prod(lead))
        acc = np.zeros_like(x)
        step = max(1, _CHUNK // size)
        per_call = step * max(1, _BATCH // (step * size * d))
        x_lead = x[None, ..., None, :]  # (1, lead..., 1, d)
        full = m - m % step
        # whole chunks per_call members at a time, then the partial last chunk
        calls = [(lo, min(lo + per_call, full), step) for lo in range(0, full, per_call)]
        if full < m:
            calls.append((full, m, m - full))
        for lo, hi, width in calls:
            blk = ensemble_states[lo:hi].reshape((-1,) + (1,) * len(lead) + (width, d))
            vals = self.pair_state(t, x_lead, blk)  # (chunks, lead..., width, d)
            for chunk in vals:
                # A one-member reduce is 0.0 + v, which turns -0.0 into +0.0;
                # adding v itself gives the same bits, because acc starts at
                # +0.0 and a round-to-nearest sum from +0.0 never reaches
                # -0.0, while acc + (-0.0) == acc + (+0.0) for acc != -0.0.
                # sign_gated_pair returns -0.0 wherever u < 0 is gated off.
                acc += chunk[..., 0, :] if width == 1 else np.add.reduce(chunk, axis=-2)
        return acc / m


# ---------------------------------------------------------------------------
# Built-in drifts and kernels: one table each, read by core.resolve_builtin
# ---------------------------------------------------------------------------


def _drift_constant_b0(params: dict, domain: DomainSpec) -> DriftSpec:
    c = _pop_key(params, "c", list[float] if isinstance(params.get("c"), list) else float, 1.0, "drift.params")
    if not isinstance(c, list):
        c = [c] * domain.dim
    elif len(c) != domain.dim:
        raise ConfigError(f"drift.params: key 'c': expected one number or a list of {domain.dim}, got {c!r}")
    c = np.array(c)

    def b0(t: float, x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(c, x.shape).copy()

    return DriftSpec(name="constant_b0", b0_state=b0)


def _drift_restoring_b0(params: dict, domain: DomainSpec) -> DriftSpec:
    rate = _pop_key(params, "rate", float, 1.0, "drift.params")

    def b0(t: float, x: np.ndarray) -> np.ndarray:
        return -rate * x

    return DriftSpec(name="restoring_b0", b0_state=b0)


# A separable drift declares b(x, y) = own(x) + sum_r a_r(x) g_r(y) for each
# block of output columns: features(x) returns ((own, ((a_1, g_1), ...)), ...),
# own None when absent. Every array has shape (..., particles, block width)
# and is reduced on its own; stacking blocks into one wider array would change
# numpy's summation order for n >= 9. The only factor that is not an array is
# the constant 1, kept as the Python float 1.0: it sums to n exactly, adds
# nothing to the summary and is never multiplied out (1.0 * v is v). Sums of
# terms start from the first term, as a start at 0 would turn -0.0 into +0.0.


def _times(a: Any, b: Any) -> Any:
    """a * b, where a factor that is not an array is the constant 1."""
    if not isinstance(a, np.ndarray):
        return b
    return a if not isinstance(b, np.ndarray) else a * b


def _times_particle_sum(a: Any, g: Any, n: int) -> Any:
    """a(x_i) sum_j g(x_j); the constant 1 sums to n."""
    return _times(a, np.add.reduce(g, axis=-2, keepdims=True)) if isinstance(g, np.ndarray) else a * n


def _columns(blocks: list[np.ndarray]) -> np.ndarray:
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-1)


def _separable_pair_mean(t: float, feats: tuple) -> np.ndarray:
    """(n-1)^{-1} sum_{j != i} b(X^i, X^j): the full sum over j minus the
    i = j term, which is exactly 0.0 when the a_r g_r cancel."""
    blocks = []
    for own, terms in feats:
        n = next(g for _, g in terms if isinstance(g, np.ndarray)).shape[-2]
        full = reduce(add, [_times_particle_sum(a, g, n) for a, g in terms])
        part = full - reduce(add, [_times(a, g) for a, g in terms])
        # in place on the fresh difference: fewer block-sized temporaries
        part /= n - 1
        if own is not None:
            part += own
        blocks.append(part)
    return _columns(blocks)


def _separable_summary(feats: tuple) -> np.ndarray:
    """Ensemble means of the array features g_r, in declaration order; the
    ensemble axis is the first."""
    return np.concatenate([np.mean(g, axis=0) for _, terms in feats for _, g in terms if isinstance(g, np.ndarray)])


def _separable_mf_drift(t: float, feats: tuple, summary: np.ndarray) -> np.ndarray:
    """own(x) + sum_r a_r(x) <g_r, mu>, the means read from summary."""
    blocks, k = [], 0
    for own, terms in feats:
        parts = [] if own is None else [own]
        for a, g in terms:
            if isinstance(g, np.ndarray):
                width = g.shape[-1]
                g, k = summary[k : k + width], k + width
            parts.append(_times(a, g))
        blocks.append(reduce(add, parts))
    return _columns(blocks)


def _separable(name: str, pair: Callable, features: Callable[[np.ndarray], tuple]) -> DriftSpec:
    """DriftSpec whose fast paths all derive from one feature declaration."""
    return DriftSpec(
        name=name,
        pair_state=pair,
        features=features,
        pair_mean=_separable_pair_mean,
        mf_summary=_separable_summary,
        mf_drift=_separable_mf_drift,
    )


def _drift_linear_pair(params: dict, domain: DomainSpec) -> DriftSpec:
    def pair(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x + y

    return _separable("linear_pair", pair, lambda x: ((x, ((1.0, x),)),))


def _drift_attract_pair(params: dict, domain: DomainSpec) -> DriftSpec:
    def pair(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y - x

    return _separable("attract_pair", pair, lambda x: ((None, ((1.0, x), (-x, 1.0))),))


# Phase bounds of sin_positive: below |h| = 1e6 the float error of
# h = u/2pi is under 4e-10, well inside the 1e-9 margin.
_INV_TWO_PI = 1.0 / TWO_PI
_PHASE_MAX = 1e6
_PHASE_MARGIN = 1e-9


def sin_positive(u: np.ndarray) -> np.ndarray:
    """np.sin(u) > 0.0, the same bool array, evaluating sin only near its zeros.

    With h = u/2pi and d = h - rint(h) in [-1/2, 1/2], sin u > 0 exactly
    when 0 < d < 1/2. An entry with |d| more than 1e-9 from 0 and from 1/2
    takes the sign of d; the others, and every entry of a call with a
    non-finite value or with |h| >= 1e6, are decided by np.sin.
    """
    h = u * _INV_TWO_PI
    # NaN fails both comparisons, inf the bound
    if not (h.max(initial=-np.inf) < _PHASE_MAX and h.min(initial=np.inf) > -_PHASE_MAX):
        return np.sin(u) > 0.0
    d = np.subtract(h, np.rint(h), out=h)
    mask = d > 0.0
    # ||d| - 1/4| is 1/4 at the zeros of sin and 0 halfway between them
    np.abs(d, out=d)
    d -= 0.25
    np.abs(d, out=d)
    edge = d > 0.25 - _PHASE_MARGIN
    if edge.any():
        mask[edge] = np.sin(u[edge]) > 0.0
    return mask


def _drift_sign_gated_pair(params: dict, domain: DomainSpec) -> DriftSpec:
    # h(u) = u 1{sin u > 0}: satisfies the linear growth condition with
    # K = 1 but is discontinuous in the pair displacement.

    def pair(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = x - y
        return u * sin_positive(u)

    return DriftSpec(name="sign_gated_pair", pair_state=pair)


DRIFTS = {
    "zero": (None, lambda params, domain: DriftSpec(name="zero")),
    "constant_b0": (None, _drift_constant_b0),
    "restoring_b0": (None, _drift_restoring_b0),
    "linear_pair": ("R^d", _drift_linear_pair),
    "attract_pair": ("R^d", _drift_attract_pair),
    "sign_gated_pair": ("R^1", _drift_sign_gated_pair),
}


# Kernel factories return (the kernel with its parameters bound, its pair
# drift b(x, y) = K(x - y) on the minimal image).
def _kernel_smooth_divfree(params: dict, domain: DomainSpec, config: SimConfig) -> tuple[Callable, DriftSpec]:
    frequency = _pop_key(params, "frequency", int, 1, "kernel.params")
    if frequency < 1:
        raise ConfigError("smooth_divfree requires frequency >= 1")
    kernel = partial(smooth_divfree_kernel, frequency=frequency)
    w = TWO_PI * frequency

    def pair(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return kernel(torus_displacement(x, y))

    def column(wu: np.ndarray) -> tuple:
        # sin(wu_i - wu_j) = sin(wu_i) cos(wu_j) - cos(wu_i) sin(wu_j)
        s, c = np.sin(wu), np.cos(wu)
        return None, ((s, c), (-c, s))

    return kernel, _separable("kernel:smooth_divfree", pair, lambda x: (column(w * x[..., 1:]), column(w * x[..., :1])))


def _singular(name: str, function: Callable[..., np.ndarray], *fields: str) -> Callable:
    """Factory of a singular kernel: the function with eps and the named
    config fields bound, and its pair drift, the generic O(n^2) pairwise
    path with frozen-ball regularization."""

    def factory(params: dict, domain: DomainSpec, config: SimConfig) -> tuple[Callable, DriftSpec]:
        kernel = partial(function, eps=config.effective_eps, **{f: getattr(config, f) for f in fields})

        def pair(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
            return kernel(torus_displacement(x, y), freeze_inside=True)

        return kernel, DriftSpec(name=f"kernel:{name}", pair_state=pair)

    return factory


KERNELS = {
    "smooth_divfree": ("T^2", _kernel_smooth_divfree),
    "biot_savart_free": ("T^2", _singular("biot_savart_free", biot_savart_free)),
    "biot_savart_periodic": ("T^2", _singular("biot_savart_periodic", biot_savart_periodic, "truncation_radius")),
}


def kernel_from_ref(ref: InteractionRef, config: SimConfig) -> Callable[..., np.ndarray]:
    """The kernel the config names, as its function with the parameters
    bound: K(x), and K(x, freeze_inside=True) for the singular kernels."""
    return resolve_builtin("kernel", KERNELS, ref, config.domain, config)[0][0]


def build_drift(config: SimConfig) -> DriftSpec:
    """Resolve the config's kernel-or-drift declaration to a new DriftSpec."""
    if config.kernel is not None:
        return resolve_builtin("kernel", KERNELS, config.kernel, config.domain, config)[0][1]
    return resolve_builtin("drift", DRIFTS, config.drift, config.domain)[0]
