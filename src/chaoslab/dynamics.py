"""Euler-Maruyama integration of the n-particle system and Picard
construction of the approximate mean-field reference law.

Every path family (the particle system, the Picard iterates, the
reference copies and the change-of-measure copies in measure.py) walks its
rows in blocks through one function, integrate_blocks, and steps each
block with one integrator, integrate_block. A block holds BLOCK_REPLICAS
replicas or PATH_BLOCK single paths, a size that is part of the sampling
scheme and never adapted at runtime. Block j draws only from the stream
keyed by j, so its rows do not depend on how many rows follow, on memory
layout, scheduling or thread count. What a stage carries from one step to
the next lives on the Block it is handed, and a block's noise is freed
before the stage's finish step runs and before the next block draws.

Interacting drifts go through DriftSpec.pair_mean_generic and
DriftSpec.mean_field_drift. A separable drift declares one form,
b(x, y) = own(x) + sum_r a_r(x) g_r(y), through its per-particle features
(DriftSpec.feature_map), and its pair mean, ensemble summary and mean-field
drift are exact O(n) rearrangements derived from them; everything else
takes the O(n^2) path. A loop that needs more than one fast path per step
computes the features once per step and passes them to each.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .core import BLOCK_REPLICAS, MAX_ENSEMBLE_ELEMENTS, RngStream, SimConfig, TimeGrid, sample_initial
from .core import wrap_torus_unchecked
from .kernels import DriftSpec, build_drift
from .noise import sample_fbm_batch

PATH_BLOCK = 4096

# Internal stream keying: every consumer of randomness gets a dedicated id
# in the particle slot, with the caller's counter preserved, so keys are
# (block, purpose, caller_counter). Distinct purposes or distinct caller
# counters can never collide, and the arity-3 spawn key keeps internals
# independent of any generator made directly from a caller-level stream.
_P_SIM = 0
_P_SIM_FBM = 1
_P_REF = 2
_P_REF_FBM = 3
_P_PICARD_INIT = 4
_P_WEIGHT = 8
_P_WEIGHT_FBM = 9
_P_PICARD_BASE = 100  # + iterate index
_P_PICARD_FBM_BASE = 200  # + iterate index
# iterates 1..MAX_PICARD_ITERS keep their purposes below the next base
MAX_PICARD_ITERS = _P_PICARD_FBM_BASE - _P_PICARD_BASE - 1


class BlowupError(RuntimeError):
    """Simulation produced a non-finite value: the state of a particle, or
    the log-weight of a replica (then particle is None)."""

    def __init__(self, step: int, particle: int | None = None, replica: int | None = None):
        if replica is None:
            super().__init__(f"non-finite state at step {step}, particle {particle}")
        else:
            super().__init__(f"non-finite log-weight at step {step}, replica {replica}")
        self.step = step
        self.particle = particle
        self.replica = replica


@dataclass
class ParticleEnsemble:
    grid: TimeGrid
    n: int
    replicas: int
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)  # step -> (R, recorded particles, d)

    def positions_at(self, step: int) -> np.ndarray:
        if step in self.snapshots:
            return self.snapshots[step]
        raise KeyError(f"step {step} was not recorded; request it via steps")


def extract_marginal(ensemble: ParticleEnsemble, k: int, step: int) -> np.ndarray:
    """Positions of the first k particles at a grid step, one row per replica.

    Shape (replicas, k*d); exchangeability makes the choice of the first k
    representative. k may not exceed the particles the snapshot recorded.
    """
    if not 1 <= k <= ensemble.n:
        raise ValueError("need 1 <= k <= n")
    pos = ensemble.positions_at(step)
    r, recorded = pos.shape[:2]
    if k > recorded:
        raise ValueError(f"k = {k} exceeds the {recorded} particles recorded; request them via particles")
    return pos[:, :k, :].reshape(r, -1).copy()


def _recorded_steps(grid: TimeGrid, steps) -> tuple[int, ...]:
    """The grid steps a stage records: steps sorted, each once. A step
    outside 0..grid.steps raises ValueError."""
    out = tuple(sorted({operator.index(s) for s in steps}))
    if out and not 0 <= out[0] <= out[-1] <= grid.steps:
        raise ValueError(f"steps must lie in 0..{grid.steps}, got {list(out)}")
    return out


def integrate_block(states: np.ndarray, grid: TimeGrid, torus: bool, drift_at, increment, observe) -> np.ndarray:
    """Euler-Maruyama steps X_{s+1} = X_s + dt drift_at(s, X_s) + increment(s)
    for one block of paths; returns the terminal states.

    Torus states are wrapped after every step, and a non-finite state raises
    BlowupError with its (step, particle). observe(s, states, dw) sees the
    states at every step s = 0..steps (dw is None at s = 0).
    """
    dt = grid.dt
    observe(0, states, None)
    for s in range(grid.steps):
        total = drift_at(s, states)
        dw = increment(s)
        states = states + dt * total + dw
        if torus:
            states = wrap_torus_unchecked(states)
        if not np.all(np.isfinite(states)):
            # states are (..., particle, d): report the first bad particle
            raise BlowupError(s + 1, int(np.argwhere(~np.isfinite(states))[0][-2]))
        observe(s + 1, states, dw)
    return states


@dataclass
class Block:
    """One block of a walk, handed to its stage's callbacks: its rows in the
    stage's output, its driver increments (when the walk draws them, else
    None) and what the stage carries from one step to the next."""

    rows: slice
    driver: np.ndarray | None = None
    feats: np.ndarray | None = None  # Picard: features of the current states
    delta: np.ndarray | None = None  # weights: interaction minus mean field at this step
    history: np.ndarray | None = None  # weights: delta at every step under fBm, else each step's log Z increment


def integrate_blocks(config: SimConfig, rng: RngStream, purposes: tuple[int, int], total: int,
                     particles: int | None, drift_at, observe, sample_fbm, *, initial: np.ndarray | None = None,
                     with_driver: bool = False, finish=None) -> None:
    """Integrate total rows through integrate_block, block by block.

    A row is one replica of `particles` particles (blocks of BLOCK_REPLICAS)
    or, when particles is None, one path (blocks of PATH_BLOCK). purposes
    names block j's generator and fBm stream in the particle slot of rng's
    stream for replica j. The generator draws the initial states (unless
    initial is given; the block's rows are copied) and then, under Brownian
    noise, one increment per step, in step order. Fractional increments are
    pre-drawn with sample_fbm, by circulant embedding, or by the causal
    Cholesky route when with_driver asks for the coupled driver increments
    (blk.driver); each caller passes the sample_fbm_batch its own module
    imports, so patching that name reaches its draws.

    drift_at(blk, s, x) and observe(blk, s, x, dw) are integrate_block's
    callbacks with the block first. finish(blk), when given, runs after the
    block's last step, once the block's noise is freed.
    """
    grid, d, torus = config.grid, config.domain.dim, config.domain.is_torus
    per_block = BLOCK_REPLICAS if particles is not None else PATH_BLOCK
    sqrt_dt = math.sqrt(grid.dt)
    for j, lo in enumerate(range(0, total, per_block)):
        blk = Block(slice(lo, min(lo + per_block, total)))
        size = (blk.rows.stop - lo,) if particles is None else (blk.rows.stop - lo, particles)
        stream = rng.for_replica(j)
        gen = stream.for_particle(purposes[0]).generator()
        if initial is None:
            states = sample_initial(config.initial_law, config.domain, size, gen)
            if torus:
                states = wrap_torus_unchecked(states)
        else:
            states = initial[blk.rows].copy()
        if config.noise.fractional:
            incr, driver, _ = sample_fbm(
                grid, config.noise.hurst, d, math.prod(size), stream.for_particle(purposes[1]),
                method="cholesky" if with_driver else "circulant", with_driver=with_driver,
            )
            incr = incr.reshape(size + (grid.steps, d))
            if with_driver:
                blk.driver = driver.reshape(incr.shape)
            increment = lambda s: incr[..., s, :]
        else:
            increment = lambda s: sqrt_dt * gen.standard_normal(size + (d,))
        integrate_block(states, grid, torus, partial(drift_at, blk), increment, partial(observe, blk))
        incr = driver = increment = None  # the block's noise never meets finish or the next block's
        if finish is not None:
            finish(blk)


def simulate_particle_system(config: SimConfig, rng: RngStream, steps,
                             particles: int | None = None) -> ParticleEnsemble:
    """Integrate the interacting n-particle system over all replicas and
    record the positions at the grid steps given, and only there.

    Each snapshot holds the first `particles` particles of every replica
    (all n when None); the paths do not depend on how many are kept.

    Initial positions are i.i.d. from the configured initial law. The drift
    is b0 plus the (n-1)^{-1}-normalized pairwise interaction; torus states
    are wrapped every step. Non-finite states abort with the offending
    (step, particle).
    """
    drift = build_drift(config)
    grid = config.grid
    n, d = config.n_particles, config.domain.dim
    r_total = config.replicas
    kept = n if particles is None else particles
    if not 1 <= kept <= n:
        raise ValueError(f"particles must lie in 1..{n}, got {particles}")

    ens = ParticleEnsemble(grid=grid, n=n, replicas=r_total)
    for s in _recorded_steps(grid, steps):
        ens.snapshots[s] = np.empty((r_total, kept, d))

    def drift_at(blk, s, x):
        total = drift.pair_mean_generic(x)
        if drift.b0_state is not None:
            total = total + drift.b0_state(x)
        return total

    def observe(blk, s, x, dw):
        if s in ens.snapshots:
            ens.snapshots[s][blk.rows] = x[:, :kept]

    integrate_blocks(config, rng, (_P_SIM, _P_SIM_FBM), r_total, n, drift_at, observe, sample_fbm_batch)
    return ens


# ---------------------------------------------------------------------------
# Mean-field reference law
# ---------------------------------------------------------------------------


@dataclass
class MeanFieldLaw:
    """Ensemble approximation of the McKean-Vlasov law.

    The drift of a fresh independent copy is b0 + mean_drift_at; the mean
    field enters either through small per-step summaries (separable
    built-ins, exact rearrangement) or through the retained ensemble states
    (generic drifts). The Picard iterates, the reference copies and the
    change-of-measure copies all evaluate b0 + <b, mu> through this class.
    """

    grid: TimeGrid
    config: SimConfig  # the config the law was solved for
    drift: DriftSpec
    m: int
    iters: int
    residuals: list[float]
    non_convergent: bool
    summaries: np.ndarray | None  # (steps+1, q)
    ens_paths: np.ndarray | None  # (m, steps+1, d)

    def check_config(self, config: SimConfig) -> None:
        """Refuse a config that differs from the law's in more than the fields the Picard solve does not read."""
        unread = {key: getattr(self.config, key) for key in ("n_particles", "replicas", "seed")}
        if replace(config, **unread) != self.config:
            raise ValueError("mean_field was solved for a different drift, domain, grid, noise or initial law")

    def mean_drift_at(self, idx: int, x: np.ndarray, feats=None) -> np.ndarray:
        """<b(x, .), mu_t-hat> at grid step idx: the interaction averaged over the ensemble.

        feats, when given, is drift.feature_map(x) already computed this step.
        """
        members = None if self.ens_paths is None else self.ens_paths[:, idx, :]
        summary = None if self.summaries is None else self.summaries[idx]
        return self.drift.mean_field_drift(x, members, summary, feats)

    def reference_drift_at(self, idx: int, x: np.ndarray, mean: np.ndarray | None = None) -> np.ndarray:
        """Drift of a fresh independent copy: b0 + <b(x, .), mu_t-hat>.

        mean, when given, is mean_drift_at(idx, x) already computed this
        step; a caller that needs both evaluates the mean field only once.
        """
        total = self.mean_drift_at(idx, x) if mean is None else mean
        if self.drift.b0_state is not None:
            total = total + self.drift.b0_state(x)
        return total


def _w1_marginal(a: np.ndarray, b: np.ndarray) -> float:
    """Max over coordinates of the 1-d Wasserstein-1 distance between
    equally sized samples (sorted-difference formula)."""
    out = 0.0
    for c in range(a.shape[-1]):
        out = max(out, float(np.mean(np.abs(np.sort(a[:, c]) - np.sort(b[:, c])))))
    return out


def ensemble_too_large(drift: DriftSpec, m: int, steps: int, d: int) -> bool:
    """Whether a Picard solve of m members would keep more than
    MAX_ENSEMBLE_ELEMENTS path values: only a generic (non-separable)
    mean field keeps the whole ensemble, (m, steps + 1, d)."""
    generic = drift.pair_state is not None and drift.mf_summary is None
    return generic and m * (steps + 1) * d > MAX_ENSEMBLE_ELEMENTS


def solve_mckean_vlasov_picard(
    config: SimConfig,
    rng: RngStream,
    m: int,
    iters: int,
) -> MeanFieldLaw:
    """Picard iteration over empirical laws.

    Each iterate is held as a MeanFieldLaw. Iterate j drives m fresh
    independent paths with the drift of a fresh copy under iterate j-1
    (reference_drift_at); iterate 0 is the initial law held constant in
    time. The residual between successive iterates is the max-over-
    coordinates W1 distance of terminal marginals; an increase flags
    non-convergence. The returned law keeps only what its mean field
    reads: per-step summaries for separable drifts, the whole ensemble of
    paths for generic ones.
    """
    drift = build_drift(config)
    grid = config.grid
    d = config.domain.dim
    torus = config.domain.is_torus
    coupled = drift.pair_state is not None
    separable = coupled and drift.mf_summary is not None
    keep_paths = coupled and not separable
    if ensemble_too_large(drift, m, grid.steps, d):
        raise MemoryError("generic mean-field drift retains the full ensemble; reduce m or steps")

    # The same initial draws seed every iterate, so only the interaction
    # estimate changes between them.
    gen0 = rng.for_particle(_P_PICARD_INIT).generator()
    init_states = sample_initial(config.initial_law, config.domain, (m,), gen0)
    if torus:
        init_states = wrap_torus_unchecked(init_states)

    effective_iters = max(1, iters) if coupled else 1
    if effective_iters > MAX_PICARD_ITERS:
        raise ValueError("iteration count exceeds the stream-keying budget")

    residuals: list[float] = []
    law = MeanFieldLaw(
        grid=grid, config=config, drift=drift, m=m, iters=0, residuals=residuals, non_convergent=False,
        summaries=np.tile(drift.mf_summary(drift.feature_map(init_states)), (grid.steps + 1, 1)) if separable else None,
        ens_paths=np.broadcast_to(init_states[:, None, :], (m, grid.steps + 1, d)) if keep_paths else None,
    )

    def drift_at(blk, s, x):
        return law.reference_drift_at(s, x, law.mean_drift_at(s, x, blk.feats))

    def observe(blk, s, x, dw):
        if keep_paths:
            cur_paths[blk.rows, s, :] = x
        if separable:
            # shared by the end-of-step summary and the next step's drift
            blk.feats = drift.feature_map(x)
            summary_acc[s] += len(x) * drift.mf_summary(blk.feats)
        if s == grid.steps:
            terminal[blk.rows] = x

    prev_terminal: np.ndarray | None = None
    for it in range(1, effective_iters + 1):
        cur_paths = np.empty((m, grid.steps + 1, d)) if keep_paths else None
        # mf_summary values are means of per-particle features, so the full
        # ensemble summary is the size-weighted average of block summaries.
        summary_acc = np.zeros_like(law.summaries) if separable else None
        terminal = np.empty((m, d))
        integrate_blocks(
            config, rng, (_P_PICARD_BASE + it, _P_PICARD_FBM_BASE + it), m, None, drift_at, observe,
            sample_fbm_batch, initial=init_states,
        )

        if prev_terminal is not None:
            residuals.append(_w1_marginal(prev_terminal, terminal))
        prev_terminal = terminal
        law = MeanFieldLaw(
            grid=grid, config=config, drift=drift, m=m, iters=it, residuals=residuals,
            non_convergent=len(residuals) >= 2 and residuals[-1] > residuals[-2],
            summaries=summary_acc / m if separable else None, ens_paths=cur_paths,
        )
    return law


def sample_reference_marginals(
    config: SimConfig,
    mean_field: MeanFieldLaw,
    count: int,
    rng: RngStream,
    steps,
) -> dict[int, np.ndarray]:
    """Marginal samples of a fresh independent copy driven by the frozen
    mean-field drift, recorded at the grid steps given, and only there.

    These are the comparison samples for nonparametric divergence
    estimates: the same law the change-of-measure reference uses.
    """
    mean_field.check_config(config)
    out = {s: np.empty((count, config.domain.dim)) for s in _recorded_steps(config.grid, steps)}

    def observe(blk, s, x, dw):
        if s in out:
            out[s][blk.rows] = x

    integrate_blocks(
        config, rng, (_P_REF, _P_REF_FBM), count, None,
        lambda blk, s, x: mean_field.reference_drift_at(s, x), observe, sample_fbm_batch,
    )
    return out
