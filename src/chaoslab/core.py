"""Shared primitives: torus geometry, time grids, random streams, configuration.

The flat torus is represented as [-1/2, 1/2)^d with unit period. Random
streams are value-keyed (seed, replica, particle, counter), so parallel
scheduling can never change results. Experiment configuration is a single
JSON document parsed fail-closed: unknown keys are errors, never ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, get_args

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
        """The grid step at time t, the one conversion of a time to a step: a
        t more than 1e-9 from every grid point raises ConfigError."""
        # nearest grid point by arithmetic: the grid may be too long to list
        pos = (t - self.t0) / self.dt
        idx = min(max(round(pos), 0), self.steps) if math.isfinite(pos) else 0
        if not abs(self.t0 + self.dt * idx - t) <= 1e-9:
            raise ConfigError(f"time {t} is not a grid point")
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


BLOCK_REPLICAS = 1024  # replicas per block of the particle system (dynamics.integrate_blocks)
# Generic (non-separable) mean-field drifts keep the whole Picard ensemble in memory: refuse huge requests
MAX_ENSEMBLE_ELEMENTS = 8_000_000
# above this Euclidean dim no stage holds one block of the smallest system (n = 2)
MAX_EUCLIDEAN_DIM = MAX_ENSEMBLE_ELEMENTS // (2 * BLOCK_REPLICAS)


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
        if self.dim > MAX_EUCLIDEAN_DIM:
            raise ConfigError(f"domain: key 'dim' = {self.dim} exceeds {MAX_EUCLIDEAN_DIM}, above which one block"
                              f" of the smallest system (n = 2) holds more than {MAX_ENSEMBLE_ELEMENTS} values")

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
    """A built-in's name and its parameters: resolved and checked by
    resolve_builtin against the table of its family. SimConfig keeps the
    params as the built-in's factory read them."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a null param is absent, so configs that run the same bytes compare equal
        object.__setattr__(self, "params", {k: v for k, v in self.params.items() if v is not None})


@dataclass(frozen=True)
class InitialLaw(InteractionRef):
    """The initial law a config names, one of INITIAL_LAWS."""


class _Params(dict):
    """A copy of a built-in's params for its factory to pop from: _pop_key
    keeps each value it pops here in read, as it read it."""

    def __init__(self, params: dict):
        super().__init__(params)
        self.read: dict[str, Any] = {}


def resolve_builtin(family: str, table: dict, ref: InteractionRef, domain: DomainSpec, *args: Any) -> tuple:
    """What the built-in ref names builds on domain, and ref with its params
    as the factory read them: the one check of a name, a domain and unknown
    params, for each family's table (INITIAL_LAWS, kernels.DRIFTS,
    kernels.KERNELS). A table maps a name to (the domain it lives on, "T^d"
    or "R^d" or with a fixed d such as "T^2", or None for any; a factory).
    factory(params, domain, *args) pops the params it reads and returns what
    the family builds; any param left is unknown. An int param given as 1.0
    reads 1, a real given as 1 reads 1.0, and an absent param stays absent."""
    if ref.name not in table:
        raise ConfigError(f"unknown {family} {ref.name!r}; built-ins: {sorted(table)}")
    lives_on, factory = table[ref.name]
    if lives_on is not None:
        kind, dim = lives_on.split("^")
        if (kind == "T") != domain.is_torus or dim not in ("d", str(domain.dim)):
            raise ConfigError(f"{ref.name} {family} lives on {lives_on}")
    params = _Params(ref.params)
    built = factory(params, domain, *args)
    _reject_unknown(params, f"{family}.params")
    return built, replace(ref, params=params.read)


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
        from .kernels import DRIFTS, KERNELS  # kernels imports this module

        # each built-in keeps its params as read, so configs that run the same bytes write the same manifest
        for family, table, args in (("initial_law", INITIAL_LAWS, ()), ("kernel", KERNELS, (self,)),
                                    ("drift", DRIFTS, ())):
            if getattr(self, family) is not None:
                ref = resolve_builtin(family, table, getattr(self, family), self.domain, *args)[1]
                object.__setattr__(self, family, ref)

    @property
    def effective_eps(self) -> float:
        """Regularization radius actually used; surfaced in every report."""
        if self.eps is not None:
            return self.eps
        return math.sqrt(self.grid.dt) / 10.0


_MISSING = object()


def _pop_key(d: dict, key: str, kind: type | None, default: Any = _MISSING, where: str = "config") -> Any:
    """Pop one JSON value from a mutable mapping, failing closed: the one
    reader of every config, plan and command value.

    Kind int applies _as_integral, float applies _as_real, list[int] and
    list[float] apply them to each item of a list, and str, list and dict
    check that JSON type (a dict comes back as a copy the caller may pop from
    in turn); None accepts any value. An explicit null counts as absent.
    Callers pop every key they understand and then pass the rest to
    _reject_unknown, so unknown keys surface as errors. A value popped from a
    built-in's params is kept as read (see resolve_builtin).
    """
    v = d.pop(key, None)
    if v is None:
        if default is _MISSING:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    what = f"{where}: key {key!r}"
    items = get_args(kind)  # (int,) for list[int]
    if items:
        kind = list
    if kind in _READERS:
        value = _READERS[kind](v, what)
    elif kind is not None and not isinstance(v, kind):
        raise ConfigError(f"{what} expects {kind.__name__}, got {type(v).__name__}")
    else:
        value = dict(v) if kind is dict else v
    if items:
        value = [_READERS[items[0]](item, what) for item in value]
    if isinstance(d, _Params):
        d.read[key] = value
    return value


def _reject_unknown(d: dict, where: str) -> None:
    """The one unknown-key check: every key its reader left in d is an error."""
    if d:
        raise ConfigError(f"{where}: unknown keys {sorted(d)}")


def _as_integral(v: Any, where: str) -> int:
    """An integer-valued number (5 or 5.0) as int; fractional, non-finite,
    boolean and non-numeric values are errors, never truncated. A float at or
    above 2**53 is an error too: the JSON reader may already have rounded it,
    while an integer literal arrives exact."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or (isinstance(v, float) and not v.is_integer()):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    if isinstance(v, float) and abs(v) >= 2**53:
        raise ConfigError(f"{where}: a float at or above 2**53 may have been rounded, got {v!r}; write an integer")
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


_READERS = {int: _as_integral, float: _as_real}  # _pop_key's numeric kinds


def config_from_dict(raw: dict[str, Any]) -> SimConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    top = dict(raw)

    dom = _pop_key(top, "domain", dict)
    domain = DomainSpec(kind=_pop_key(dom, "kind", str, where="domain"), dim=_pop_key(dom, "dim", int, where="domain"))
    _reject_unknown(dom, "domain")

    g = _pop_key(top, "grid", dict)
    grid = TimeGrid(
        t0=_pop_key(g, "t0", float, 0.0, "grid"),
        dt=_pop_key(g, "dt", float, where="grid"),
        steps=_pop_key(g, "steps", int, where="grid"),
    )
    horizon = _pop_key(g, "horizon", float, None, "grid")
    _reject_unknown(g, "grid")
    if horizon is not None:
        grid.check_horizon(horizon)

    nz = _pop_key(top, "noise", dict)
    noise = NoiseSpec(
        kind=_pop_key(nz, "kind", str, where="noise"),
        hurst=_pop_key(nz, "hurst", float, 0.5, "noise"),
    )
    _reject_unknown(nz, "noise")

    refs = {}  # the built-ins the config names: {"name": ..., "params": {...}} each
    for key, cls in (("initial_law", InitialLaw), ("kernel", InteractionRef), ("drift", InteractionRef)):
        ref = _pop_key(top, key, dict, _MISSING if key == "initial_law" else None)
        if ref is not None:
            refs[key] = cls(name=_pop_key(ref, "name", str, where=key), params=_pop_key(ref, "params", dict, {}, key))
            _reject_unknown(ref, key)

    config = SimConfig(
        domain=domain,
        n_particles=_pop_key(top, "n_particles", int),
        grid=grid,
        noise=noise,
        initial_law=refs["initial_law"],
        seed=_pop_key(top, "seed", int),
        replicas=_pop_key(top, "replicas", int),
        kernel=refs.get("kernel"),
        drift=refs.get("drift"),
        eps=_pop_key(top, "eps", float, None),
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


def _width(params: dict, key: str) -> float:
    """The law's nonnegative width param (sigma or radius), default 1."""
    width = _pop_key(params, key, float, 1.0, "initial_law.params")
    if width < 0:
        raise ConfigError(f"initial_law.params: key {key!r} must be >= 0, got {width!r}")
    return width


# Initial-law factories return draw(size, gen), positions of shape size + (d,).
def _uniform(params: dict, domain: DomainSpec) -> Callable:
    return lambda size, gen: gen.uniform(-0.5, 0.5, size=tuple(size) + (domain.dim,))


def _gaussian(params: dict, domain: DomainSpec) -> Callable:
    d = domain.dim
    sigma = _width(params, "sigma")
    mean = np.array(_pop_key(params, "mean", list[float], [0.0] * d, "initial_law.params"))
    if mean.shape != (d,):
        raise ConfigError(f"initial_law.params: key 'mean' needs one entry per dimension (d = {d})")
    return lambda size, gen: mean + sigma * gen.standard_normal(tuple(size) + (d,))


def _uniform_ball(params: dict, domain: DomainSpec) -> Callable:
    d = domain.dim
    radius = _width(params, "radius")

    def draw(size: tuple[int, ...], gen: np.random.Generator) -> np.ndarray:
        # Rejection-free: direction times radius scaled by U^{1/d}.
        z = gen.standard_normal(tuple(size) + (d,))
        norms = np.linalg.norm(z, axis=-1, keepdims=True)
        norms[norms == 0] = 1.0
        u = gen.uniform(size=tuple(size) + (1,)) ** (1.0 / d)
        return radius * u * z / norms

    return draw


INITIAL_LAWS = {"uniform": ("T^d", _uniform), "gaussian": ("R^d", _gaussian),
                "uniform_ball": ("R^d", _uniform_ball)}


def sample_initial(law: InitialLaw, domain: DomainSpec, size: tuple[int, ...], gen: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. initial positions with shape size + (d,)."""
    return resolve_builtin("initial_law", INITIAL_LAWS, law, domain)[0](size, gen)
