"""Shared primitives: torus geometry, time grids, random streams, configuration.

The flat torus is represented as [-1/2, 1/2)^d with unit period. Random
streams are value-keyed (seed, replica, particle, counter), so parallel
scheduling can never change results. Experiment configuration is a single
JSON document parsed fail-closed: unknown keys are errors, never ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def sum_last_axis(a: np.ndarray) -> np.ndarray:
    """np.add.reduce(a, axis=-1), the same bits, without the reduction's
    per-call cost on a short last axis.

    Below 8 terms numpy adds in order from the identity 0.0, which turns a
    lone -0.0 into +0.0; from 8 terms on it sums pairwise, so there this
    calls the reduction (as it does for an empty axis).
    """
    if not 0 < a.shape[-1] < 8:
        return np.add.reduce(a, axis=-1)
    out = 0.0 + a[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k]
    return out


# ---------------------------------------------------------------------------
# Torus geometry
# ---------------------------------------------------------------------------


def wrap_torus(x: np.ndarray) -> np.ndarray:
    """Map coordinates into the fundamental domain [-1/2, 1/2)^d.

    Ties at +1/2 map to -1/2; wrapping an already wrapped array is the
    identity bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("wrap_torus: non-finite coordinates")
    return x - np.floor(x + 0.5)


def wrap_torus_unchecked(x: np.ndarray) -> np.ndarray:
    # Hot-path variant: integrators do their own blow-up detection.
    return x - np.floor(x + 0.5)


def torus_displacement(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimal-image representative of x - y, componentwise in [-1/2, 1/2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError("torus_displacement: dimension mismatch")
    return wrap_torus(x - y)


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RngStream:
    """Key for one logical random stream.

    Streams are realized as Philox generators seeded through SeedSequence
    spawn keys, so identical keys reproduce identical draws on any machine
    and thread count, and distinct keys give statistically independent
    sequences. The spawn key is (replica, counter) when particle is None
    and (replica, particle, counter) otherwise; the arity difference keeps
    the two families independent.

    Convention: callers distinguish top-level streams by counter (and may
    leave particle None); the integrators overwrite replica with the block
    index and claim fixed purpose ids in the particle slot, preserving the
    caller's counter, so library-internal keys never collide across
    purposes or callers.
    """

    root_seed: int
    replica: int = 0
    particle: int | None = None
    counter: int = 0

    def __post_init__(self) -> None:
        if self.root_seed < 0 or self.replica < 0 or self.counter < 0:
            raise ValueError("stream key components must be non-negative")
        if self.particle is not None and self.particle < 0:
            raise ValueError("stream key components must be non-negative")

    def _spawn_key(self) -> tuple[int, ...]:
        # Arity separates replica-level from particle-level streams.
        if self.particle is None:
            return (self.replica, self.counter)
        return (self.replica, self.particle, self.counter)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=self.root_seed, spawn_key=self._spawn_key())
        return np.random.Generator(np.random.Philox(ss))

    def for_replica(self, replica: int) -> "RngStream":
        return RngStream(self.root_seed, replica, self.particle, self.counter)

    def for_particle(self, particle: int) -> "RngStream":
        return RngStream(self.root_seed, self.replica, particle, self.counter)


# ---------------------------------------------------------------------------
# Time grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    dt: float
    steps: int

    def __post_init__(self) -> None:
        if not (self.t0 >= 0.0 and math.isfinite(self.t0)):
            raise ConfigError("TimeGrid: t0 must be finite and >= 0")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError("TimeGrid: dt must be finite and > 0")
        if self.steps < 1:
            raise ConfigError("TimeGrid: steps must be >= 1")
        # terminal cannot convert an int steps of 2**1023 or more to float
        if self.steps >= 2**1023 or not math.isfinite(self.terminal):
            raise ConfigError("TimeGrid: t0 + steps*dt must be finite")

    @property
    def terminal(self) -> float:
        return self.t0 + self.steps * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps + 1)

    def index_of(self, t: float) -> int:
        """Grid index nearest to t; warns rather than interpolating."""
        idx = int(round((t - self.t0) / self.dt))
        idx = min(max(idx, 0), self.steps)
        if abs(self.t0 + idx * self.dt - t) > 1e-9 * max(1.0, abs(t)):
            import warnings

            warnings.warn(f"time {t} is off-grid; using nearest grid point {self.t0 + idx * self.dt}")
        return idx

    def check_horizon(self, horizon: float) -> None:
        if abs(self.terminal - horizon) > 1e-12 * max(1.0, abs(horizon)):
            raise ConfigError(
                f"TimeGrid horizon mismatch: t0 + steps*dt = {self.terminal!r} "
                f"but configured horizon is {horizon!r}"
            )


# ---------------------------------------------------------------------------
# Configuration model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainSpec:
    kind: str  # "torus" | "euclidean"
    dim: int

    def __post_init__(self) -> None:
        if self.kind not in ("torus", "euclidean"):
            raise ConfigError(f"unknown domain kind {self.kind!r}")
        if self.kind == "torus" and self.dim not in (1, 2, 3):
            raise ConfigError("torus domain supports d in {1, 2, 3}")
        if self.dim < 1:
            raise ConfigError("domain dimension must be >= 1")

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"


@dataclass(frozen=True)
class NoiseSpec:
    kind: str  # "brownian" | "fbm"
    hurst: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("brownian", "fbm"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if self.kind == "fbm" and not (0.0 < self.hurst < 1.0):
            raise ConfigError("fbm requires hurst in (0, 1)")
        if self.kind == "brownian" and self.hurst != 0.5:
            raise ConfigError(f"brownian noise has hurst 0.5, got {self.hurst!r}; use kind 'fbm' for another index")

    @property
    def fractional(self) -> bool:
        """True when the noise is not Brownian motion (fBm with H != 1/2)."""
        return self.hurst != 0.5


@dataclass(frozen=True)
class InteractionRef:
    """A kernel or drift declaration: a built-in's name and its parameters,
    resolved and checked by kernels.build_drift."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class InitialLaw:
    name: str  # "uniform" (torus) | "gaussian" | "uniform_ball" (euclidean)
    params: dict[str, Any] = field(default_factory=dict)

    _ALLOWED_PARAMS = {
        "uniform": (),
        "gaussian": ("mean", "sigma"),
        "uniform_ball": ("radius",),
    }

    def __post_init__(self) -> None:
        if self.name not in self._ALLOWED_PARAMS:
            raise ConfigError(f"unknown initial law {self.name!r}")
        unknown = set(self.params) - set(self._ALLOWED_PARAMS[self.name])
        if unknown:
            raise ConfigError(f"{self.name}: unknown params {sorted(unknown)}")
        for key in ("sigma", "radius"):
            if key in self.params and _as_real(self.params[key], f"initial_law.params: key {key!r}") < 0:
                raise ConfigError(f"initial_law.params: key {key!r} must be >= 0, got {self.params[key]!r}")
        mean = self.params.get("mean", [])
        if not isinstance(mean, list):
            raise ConfigError(f"initial_law.params: key 'mean' expects a list of numbers, got {mean!r}")
        for v in mean:
            _as_real(v, "initial_law.params: key 'mean'")


@dataclass(frozen=True)
class SimConfig:
    domain: DomainSpec
    n_particles: int
    grid: TimeGrid
    noise: NoiseSpec
    initial_law: InitialLaw
    seed: int
    replicas: int
    kernel: InteractionRef | None = None
    drift: InteractionRef | None = None
    eps: float | None = None  # kernel regularization radius; None -> sqrt(dt)/10
    truncation_radius: int = 8

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ConfigError("n_particles must be >= 2")
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must fit in 64 bits")
        if self.kernel is None and self.drift is None:
            raise ConfigError("config must name a kernel or a drift")
        if self.kernel is not None and self.drift is not None:
            raise ConfigError("config must name a kernel or a drift, not both")
        if self.eps is not None and self.eps < 0:
            raise ConfigError("eps must be >= 0")
        if self.truncation_radius < 1:
            raise ConfigError("truncation_radius must be >= 1")
        if self.kernel is not None and self.domain.dim != 2:
            raise ConfigError("kernels are 2-D: a kernel config requires d = 2")
        if self.initial_law.name == "uniform" and not self.domain.is_torus:
            raise ConfigError("uniform initial law lives on the torus")
        if self.initial_law.name in ("gaussian", "uniform_ball") and self.domain.is_torus:
            raise ConfigError(f"initial law {self.initial_law.name!r} lives on R^d")
        if len(self.initial_law.params.get("mean", [0.0] * self.domain.dim)) != self.domain.dim:
            raise ConfigError(f"initial_law.params: key 'mean' needs one entry per dimension (d = {self.domain.dim})")

    @property
    def effective_eps(self) -> float:
        """Regularization radius actually used; surfaced in every report."""
        if self.eps is not None:
            return self.eps
        return math.sqrt(self.grid.dt) / 10.0


_MISSING = object()


def _pop_key(d: dict, key: str, types: type | tuple | None, default: Any = _MISSING, where: str = "config") -> Any:
    """Pop one typed key from a mutable mapping, failing closed.

    Callers pop every key they understand and then reject whatever is
    left, so unknown keys surface as errors instead of silent defaults.
    """
    if key not in d:
        if default is _MISSING:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    v = d.pop(key)
    if types is not None:
        allowed = types if isinstance(types, tuple) else (types,)
        if isinstance(v, bool) and bool not in allowed:
            raise ConfigError(f"{where}: key {key!r} must not be a boolean")
        if not isinstance(v, types):
            names = "/".join(t.__name__ for t in allowed)
            raise ConfigError(f"{where}: key {key!r} expects {names}, got {type(v).__name__}")
    return v


def _pop_object(d: dict, key: str, where: str, default: Any = _MISSING) -> Any:
    """Pop a nested JSON object as a copy the caller may pop from in turn.
    With a None default, an explicit null counts as absent."""
    v = _pop_key(d, key, (dict, type(None)) if default is None else dict, default, where)
    return v if v is None or v is default else dict(v)


def _reject_unknown(d: dict, where: str) -> None:
    if d:
        raise ConfigError(f"{where}: unknown keys {sorted(d)}")


def _as_integral(v: Any, where: str) -> int:
    """An integer-valued number (5 or 5.0) as int; fractional, non-finite,
    boolean and non-numeric values are errors, never truncated."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or (isinstance(v, float) and not v.is_integer()):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    return int(v)


def _as_real(v: Any, where: str) -> float:
    """A finite number as float; booleans, strings and values that are not
    finite in float64 are errors, never coerced."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite number, got {v!r}")
    return x


def config_from_dict(raw: dict[str, Any]) -> SimConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    top = dict(raw)

    dom = _pop_object(top, "domain", "config")
    domain = DomainSpec(kind=_pop_key(dom, "kind", str, where="domain"), dim=_pop_key(dom, "dim", int, where="domain"))
    _reject_unknown(dom, "domain")

    g = _pop_object(top, "grid", "config")
    grid = TimeGrid(
        t0=_as_real(_pop_key(g, "t0", None, 0.0, "grid"), "grid: key 't0'"),
        dt=_as_real(_pop_key(g, "dt", None, where="grid"), "grid: key 'dt'"),
        steps=_pop_key(g, "steps", int, where="grid"),
    )
    horizon = _pop_key(g, "horizon", None, None, "grid")
    _reject_unknown(g, "grid")
    if horizon is not None:
        grid.check_horizon(_as_real(horizon, "grid: key 'horizon'"))

    nz = _pop_object(top, "noise", "config")
    noise = NoiseSpec(
        kind=_pop_key(nz, "kind", str, where="noise"),
        hurst=_as_real(_pop_key(nz, "hurst", None, 0.5, "noise"), "noise: key 'hurst'"),
    )
    _reject_unknown(nz, "noise")

    il = _pop_object(top, "initial_law", "config")
    initial_law = InitialLaw(name=_pop_key(il, "name", str, where="initial_law"),
                             params=_pop_object(il, "params", "initial_law", default={}))
    _reject_unknown(il, "initial_law")

    refs = {}
    for key in ("kernel", "drift"):
        ref = _pop_object(top, key, "config", default=None)
        if ref is not None:
            refs[key] = InteractionRef(
                name=_pop_key(ref, "name", str, where=key), params=_pop_object(ref, "params", key, default={})
            )
            _reject_unknown(ref, key)

    eps = _pop_key(top, "eps", None, None)
    config = SimConfig(
        domain=domain,
        n_particles=_pop_key(top, "n_particles", int),
        grid=grid,
        noise=noise,
        initial_law=initial_law,
        seed=_pop_key(top, "seed", int),
        replicas=_pop_key(top, "replicas", int),
        kernel=refs.get("kernel"),
        drift=refs.get("drift"),
        eps=None if eps is None else _as_real(eps, "config: key 'eps'"),
        truncation_radius=_pop_key(top, "truncation_radius", int, 8),
    )
    _reject_unknown(top, "config")
    return config


def load_json(path: str | Path) -> dict:
    """Read one JSON object from a file; a missing file, invalid JSON or a
    document that is not an object is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


def sample_initial(law: InitialLaw, domain: DomainSpec, size: tuple[int, ...], gen: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. initial positions with shape size + (d,)."""
    d = domain.dim
    shape = tuple(size) + (d,)
    if law.name == "uniform":
        return gen.uniform(-0.5, 0.5, size=shape)
    if law.name == "gaussian":
        sigma = float(law.params.get("sigma", 1.0))
        mean = np.asarray(law.params.get("mean", np.zeros(d)), dtype=np.float64)
        if mean.shape != (d,):
            raise ConfigError(f"gaussian mean must have {d} components")
        return mean + sigma * gen.standard_normal(shape)
    if law.name == "uniform_ball":
        radius = float(law.params.get("radius", 1.0))
        # Rejection-free: direction times radius scaled by U^{1/d}.
        z = gen.standard_normal(shape)
        norms = np.linalg.norm(z, axis=-1, keepdims=True)
        norms[norms == 0] = 1.0
        u = gen.uniform(size=tuple(size) + (1,)) ** (1.0 / d)
        return radius * u * z / norms
    raise ConfigError(f"unknown initial law {law.name!r}")
