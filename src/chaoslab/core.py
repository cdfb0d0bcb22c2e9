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

    def substream(self, counter: int) -> "RngStream":
        return RngStream(self.root_seed, self.replica, self.particle, counter)

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


@dataclass(frozen=True)
class KernelRef:
    name: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class DriftRef:
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


@dataclass(frozen=True)
class SimConfig:
    domain: DomainSpec
    n_particles: int
    grid: TimeGrid
    noise: NoiseSpec
    initial_law: InitialLaw
    seed: int
    replicas: int
    kernel: KernelRef | None = None
    drift: DriftRef | None = None
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
        if self.kernel is not None and self.kernel.name.startswith("biot_savart") and self.domain.dim != 2:
            raise ConfigError("biot_savart kernels require d = 2")
        if self.initial_law.name == "uniform" and not self.domain.is_torus:
            raise ConfigError("uniform initial law lives on the torus")
        if self.initial_law.name in ("gaussian", "uniform_ball") and self.domain.is_torus:
            raise ConfigError(f"initial law {self.initial_law.name!r} lives on R^d")

    @property
    def effective_eps(self) -> float:
        """Regularization radius actually used; surfaced in every report."""
        if self.eps is not None:
            return self.eps
        return math.sqrt(self.grid.dt) / 10.0


def _take(d: dict, where: str, required: dict[str, type | tuple], optional: dict[str, Any]) -> dict:
    """Fail-closed key extraction: unknown keys are configuration errors."""
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")
    out = dict(d)
    for k, default in optional.items():
        out.setdefault(k, default)
    return out


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


def _as_int(v: Any, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    return v


def _as_integral(v: Any, where: str) -> int:
    """An integer-valued number (5 or 5.0) as int; fractional, non-finite,
    boolean and non-numeric values are errors, never truncated."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or (isinstance(v, float) and not v.is_integer()):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    return int(v)


def _as_real(v: Any, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    return float(v)


def config_from_dict(raw: dict[str, Any]) -> SimConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    top = _take(
        raw,
        "config",
        required={
            "domain": dict,
            "n_particles": int,
            "grid": dict,
            "noise": dict,
            "initial_law": dict,
            "seed": int,
            "replicas": int,
        },
        optional={"kernel": None, "drift": None, "eps": None, "truncation_radius": 8},
    )

    dom = _take(top["domain"], "domain", required={"kind": str, "dim": int}, optional={})
    domain = DomainSpec(kind=dom["kind"], dim=_as_int(dom["dim"], "domain.dim"))

    g = _take(
        top["grid"],
        "grid",
        required={"dt": float, "steps": int},
        optional={"t0": 0.0, "horizon": None},
    )
    grid = TimeGrid(t0=_as_real(g["t0"], "grid.t0"), dt=_as_real(g["dt"], "grid.dt"), steps=_as_int(g["steps"], "grid.steps"))
    if g["horizon"] is not None:
        grid.check_horizon(_as_real(g["horizon"], "grid.horizon"))

    nz = _take(top["noise"], "noise", required={"kind": str}, optional={"hurst": 0.5})
    noise = NoiseSpec(kind=nz["kind"], hurst=_as_real(nz["hurst"], "noise.hurst"))

    il = _take(top["initial_law"], "initial_law", required={"name": str}, optional={"params": {}})
    if not isinstance(il["params"], dict):
        raise ConfigError("initial_law.params must be an object")
    initial_law = InitialLaw(name=il["name"], params=il["params"])

    kernel = None
    if top["kernel"] is not None:
        kz = _take(top["kernel"], "kernel", required={"name": str}, optional={"params": {}})
        if not isinstance(kz["params"], dict):
            raise ConfigError("kernel.params must be an object")
        kernel = KernelRef(name=kz["name"], params=kz["params"])

    drift = None
    if top["drift"] is not None:
        dz = _take(top["drift"], "drift", required={"name": str}, optional={"params": {}})
        if not isinstance(dz["params"], dict):
            raise ConfigError("drift.params must be an object")
        drift = DriftRef(name=dz["name"], params=dz["params"])

    eps = None if top["eps"] is None else _as_real(top["eps"], "eps")

    return SimConfig(
        domain=domain,
        n_particles=_as_int(top["n_particles"], "n_particles"),
        grid=grid,
        noise=noise,
        initial_law=initial_law,
        seed=_as_int(top["seed"], "seed"),
        replicas=_as_int(top["replicas"], "replicas"),
        kernel=kernel,
        drift=drift,
        eps=eps,
        truncation_radius=_as_int(top["truncation_radius"], "truncation_radius"),
    )


def load_config(path: str | Path) -> SimConfig:
    """Read a SimConfig from a JSON file, rejecting unknown keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}")
    return config_from_dict(raw)


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
