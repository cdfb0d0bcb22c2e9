"""Sweep orchestration: plans, the chaos-rate pipeline, rate fits, and
CSV/manifest emission.

A plan sweeps the particle count n (the expensive axis); each sweep point
solves the mean-field law once, reuses it for every (k, t) requested, and
emits entropy, bound, horizon and consistency-check rows. Points run in a
worker pool but derive all randomness from value-based stream keys and are
assembled in plan order, so output is identical for any thread count.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from operator import itemgetter

import numpy as np
import scipy

from . import __version__
from .bounds import constant_C, estimate_beta, hierarchy_ode_solve, short_time_horizon, theorem_bound
from .core import MAX_ENSEMBLE_ELEMENTS, ConfigError, RngStream, SimConfig, config_from_dict, load_json
from .core import _pop_key, _reject_unknown
from .dynamics import (
    MAX_PICARD_ITERS,
    BlowupError,
    ensemble_too_large,
    extract_marginal,
    sample_reference_marginals,
    simulate_particle_system,
    solve_mckean_vlasov_picard,
)
from .kernels import build_drift
from .measure import (
    entropy_girsanov,
    entropy_knn,
    girsanov_weight,
    pinsker_and_subadditivity_check,
    tv_histogram,
)

# universal constant of the fractional-horizon bound; the proof does not
# pin a value, this matches the worked arithmetic examples
_HORIZON_C = 16.0

# run's tables, each written as <name>.csv: its columns and its row order
TABLES = {
    "entropy": (("t", "n", "k", "estimator", "value", "stderr", "ess", "eps", "dt", "seed"),
                ("t", "n", "k", "estimator")),
    "bounds": (("n", "k", "t", "closed_form", "cascade", "C", "gamma", "M"), ("n", "k", "t")),
    "horizons": (("n", "regime", "kappa", "beta", "hurst", "delta_star", "fit_residual"), ("n",)),
    "checks": (("n", "k", "t", "check", "passed", "margin", "value", "threshold"), ("n", "k", "t", "check")),
}


def table_row(name: str, *values) -> dict:
    """One row of table name, keyed by its columns; a value too few or too many raises."""
    return dict(zip(TABLES[name][0], values, strict=True))


# run's estimators: name -> (the stage it reads, and its k-marginal report at a grid step
# from that stage's output, or None where it writes no row: TV above 4 dimensions)
ESTIMATORS = {
    "girsanov": ("weights", lambda plan, weights, k, step: entropy_girsanov(weights, k=k, step=step)),
    "knn": ("samples", lambda plan, samples, k, step: entropy_knn(
        *samples[k, step], neighbors=plan.knn_neighbors, torus=plan.base.domain.is_torus)),
    "histogram_tv": ("samples", lambda plan, samples, k, step: None if k * plan.base.domain.dim > 4 else tv_histogram(
        *samples[k, step], bins_per_dim=plan.tv_bins, torus=plan.base.domain.is_torus)),
}


@dataclass(frozen=True)
class ExperimentPlan:
    """A validated sweep plan; build it with plan_from_dict, which sets
    every default, and write it with plan_as_dict."""

    base: SimConfig
    sweep_n: tuple[int, ...]
    sweep_k: tuple[int, ...]
    sweep_t: tuple[float, ...]
    estimators: tuple[str, ...]
    picard_m: int
    picard_iters: int
    knn_neighbors: int
    knn_samples: int
    tv_bins: int
    bound_c0: float
    bound_gamma: float
    bound_m: float
    kappa: float
    label: str
    sweep_steps: tuple[int, ...] = field(init=False)  # the grid steps of sweep_t, in its order

    def __post_init__(self):
        drift = build_drift(self.base)  # for the Picard guard below
        for est in self.estimators:
            if est not in ESTIMATORS:
                raise ConfigError(f"unknown estimator {est!r}; valid: {tuple(ESTIMATORS)}")
        # a plan without a sweep point or an estimator would write empty tables
        axes = dict(sweep_n=self.sweep_n, sweep_t=self.sweep_t, sweep_k=self.sweep_k, estimators=self.estimators)
        for axis, values in axes.items():
            if not values:
                raise ConfigError(f"{axis} must not be empty")
            if len(set(values)) != len(values):
                raise ConfigError(f"{axis} lists a value twice: {list(values)}")
        grid = self.base.grid
        steps = []
        for t in self.sweep_t:
            try:
                steps.append(grid.index_of(t))
            except ConfigError as exc:
                raise ConfigError(f"sweep {exc}") from None
        if len(set(steps)) != len(steps):
            raise ConfigError(f"sweep_t lists a grid step twice: {list(self.sweep_t)}")
        object.__setattr__(self, "sweep_steps", tuple(steps))
        elapsed = grid.dt * max(steps)
        for n in self.sweep_n:
            if n < 2:
                raise ConfigError("swept n must be >= 2")
            # bound_rows' cascade to the last swept time, which a point builds after its particle stages
            if cascade_size(n, self.bound_gamma, grid.dt, elapsed) > MAX_ENSEMBLE_ELEMENTS:
                raise ConfigError(f"swept n = {n} needs a bounds cascade of more than {MAX_ENSEMBLE_ELEMENTS} values")
        kmax = min(self.sweep_n)
        for k in self.sweep_k:
            if k < 1:
                raise ConfigError("swept k must be >= 1")
            if k > kmax:
                raise ConfigError(f"swept k = {k} exceeds the smallest swept n = {kmax}")
        if self.picard_m < 100:
            raise ConfigError("picard_m must be >= 100")
        if self.picard_iters < 1:
            raise ConfigError("picard_iters must be >= 1")
        if self.picard_iters > MAX_PICARD_ITERS:
            raise ConfigError(f"picard_iters must be <= {MAX_PICARD_ITERS}, the stream-keying budget")
        # the Picard solve's own memory guard, moved ahead of every point
        if ensemble_too_large(drift, self.picard_m, self.base.grid.steps, self.base.domain.dim):
            raise ConfigError(
                f"picard m = {self.picard_m}: a generic mean-field drift keeps m * (steps + 1) * d"
                f" > {MAX_ENSEMBLE_ELEMENTS} ensemble values; reduce m or steps"
            )
        # the kNN estimator needs 100 reference samples and fewer neighbors
        # than samples; a histogram needs two bins per dimension
        if self.knn_samples < 100:
            raise ConfigError("knn samples must be >= 100")
        if not 1 <= self.knn_neighbors < self.knn_samples:
            raise ConfigError("knn neighbors must be >= 1 and below knn samples")
        # its particle side is the replicas simulated ensembles, one row each
        knn_replicas = max(100, self.knn_neighbors + 1)
        if "knn" in self.estimators and self.base.replicas < knn_replicas:
            raise ConfigError(f"the knn estimator needs replicas >= {knn_replicas}, got {self.base.replicas}")
        if self.tv_bins < 2:
            raise ConfigError("tv bins must be >= 2")


# a plan's sections of constants, each key -> (the ExperimentPlan field it sets, its kind, its default):
# plan_from_dict reads them and plan_as_dict writes them
PLAN_SECTIONS = {
    "picard": {"m": ("picard_m", int, 10_000), "iters": ("picard_iters", int, 3)},
    "knn": {"neighbors": ("knn_neighbors", int, 4), "samples": ("knn_samples", int, 10_000)},
    "tv": {"bins": ("tv_bins", int, 32)},
    "bounds": {"C0": ("bound_c0", float, 0.05), "gamma": ("bound_gamma", float, 1.0), "M": ("bound_m", float, 1.0),
               "kappa": ("kappa", float, 1.0)},
}


def plan_from_dict(data: dict) -> ExperimentPlan:
    """Fail-closed plan parsing: unknown keys are errors, types checked,
    and every default of a plan is set here or in PLAN_SECTIONS."""
    if not isinstance(data, dict):
        raise ConfigError("plan must be a JSON object")
    work = dict(data)
    base = config_from_dict(_pop_key(work, "base", dict, where="plan"))
    sweep = _pop_key(work, "sweep", dict, where="plan")
    sweep_n = tuple(_pop_key(sweep, "n", list[int], where="sweep"))
    sweep_k = tuple(_pop_key(sweep, "k", list[int], [1], "sweep"))
    sweep_t = tuple(_pop_key(sweep, "t", list[float], [base.grid.terminal], "sweep"))
    _reject_unknown(sweep, "sweep")
    estimators = tuple(str(v) for v in _pop_key(work, "estimators", list, list(ESTIMATORS), "plan"))
    constants = {}
    for section, keys in PLAN_SECTIONS.items():
        node = _pop_key(work, section, dict, {}, "plan")
        for key, (name, kind, default) in keys.items():
            constants[name] = _pop_key(node, key, kind, default, section)
        _reject_unknown(node, section)
    label = _pop_key(work, "label", str, "run", "plan")
    _reject_unknown(work, "plan")
    return ExperimentPlan(base=base, sweep_n=sweep_n, sweep_k=sweep_k, sweep_t=sweep_t, estimators=estimators,
                          label=label, **constants)


def plan_as_dict(plan: ExperimentPlan) -> dict:
    """The plan as plan_from_dict reads it back, to an equal plan, with every default filled in."""
    return {
        "base": asdict(plan.base),
        "sweep": {"n": list(plan.sweep_n), "k": list(plan.sweep_k), "t": list(plan.sweep_t)},
        "estimators": list(plan.estimators),
        **{section: {key: getattr(plan, name) for key, (name, _, _) in keys.items()}
           for section, keys in PLAN_SECTIONS.items()},
        "label": plan.label,
    }


def as_plan_data(data: dict) -> dict:
    """Plan data as given, or a bare simulation config (no "sweep") as the
    plan that sweeps its own n_particles alone (k = 1 at the terminal time)
    with plan_from_dict's defaults. plan_from_dict reads the base before the
    sweep, so a bad n_particles is reported as the config's."""
    if "sweep" in data:
        return data
    return {"base": data, "sweep": {"n": [data.get("n_particles")]}}


def load_plan(path: str) -> ExperimentPlan:
    """The plan `chaoslab run` runs for the file at path."""
    return plan_from_dict(as_plan_data(load_json(path)))


@dataclass
class RunResult:
    tables: dict[str, list[dict]] = field(default_factory=lambda: {name: [] for name in TABLES})
    manifest: dict = field(default_factory=dict)
    errors: list[dict] = field(default_factory=list)
    any_unreliable: bool = False  # the ESS guard, which no row records


def _point_rows(plan: ExperimentPlan, n: int) -> dict:
    """All rows for one sweep point. Randomness is keyed by (seed, n), so
    the result is independent of scheduling."""
    cfg = replace(plan.base, n_particles=n)
    rng = RngStream(cfg.seed, counter=n)
    grid = cfg.grid
    steps = plan.sweep_steps
    times = grid.times()

    mf = solve_mckean_vlasov_picard(cfg, rng, m=plan.picard_m, iters=plan.picard_iters)
    out = {
        **{name: [] for name in TABLES},
        "unreliable": False,
        "point": {"picard_residuals": [float(r) for r in mf.residuals], "picard_non_convergent": mf.non_convergent},
    }
    # after Picard, each stage a listed estimator reads runs once, in this order,
    # so the first BlowupError of a point does not depend on the estimators' order
    reads = {ESTIMATORS[name][0] for name in plan.estimators}
    gw = girsanov_weight(cfg, mf, rng, steps) if "weights" in reads else None
    if gw is not None:
        # before the particle system: the frees of estimate_beta's (replicas, n) temporaries raise glibc's
        # mmap and trim thresholds, which keeps the simulation's step temporaries from faulting in anew.
        # On smooth_torus at n = 32, simulate_particle_system took 399-812 minor faults in 5 runs in this
        # order and 7,249-280,530 in 5 runs after it (2 CPUs, glibc malloc); at n = 8 and 16 the counts
        # vary from run to run in either order (49-25,059 and 484-7,761)
        regime = "fractional" if cfg.noise.fractional else "brownian"
        hurst = cfg.noise.hurst if cfg.noise.fractional else None
        bf = estimate_beta(gw.energy, n=n, delta=grid.dt * grid.steps, hurst=hurst)
        hz = short_time_horizon(plan.kappa, bf.beta, regime=regime, hurst=hurst, C=_HORIZON_C)
        hurst_cell = "" if hurst is None else hurst
        row = table_row("horizons", n, regime, plan.kappa, bf.beta, hurst_cell, hz.delta_star, bf.residual)
        out["horizons"].append(row)

    samples = {}  # (k, step) -> the k-marginal samples of the particle system and of the reference law
    if "samples" in reads:
        max_k, count = max(plan.sweep_k), plan.knn_samples
        ens = simulate_particle_system(cfg, rng, steps, particles=max_k)
        refs = sample_reference_marginals(cfg, mf, count * max_k, rng, steps)
        for step in steps:
            for k in plan.sweep_k:
                samples[k, step] = extract_marginal(ens, k, step), refs[step][: count * k].reshape(count, -1)
    stages = {"weights": gw, "samples": samples}

    reports = {}  # (estimator, k, step) -> its report, or None where it writes no row
    for step in steps:
        t = float(times[step])
        for name in plan.estimators:
            stage, make_report = ESTIMATORS[name]
            for k in plan.sweep_k:
                rep = reports[name, k, step] = make_report(plan, stages[stage], k, step)
                if rep is not None:
                    out["unreliable"] |= rep.unreliable
                    out["entropy"].append(table_row("entropy", t, n, k, name, rep.value, rep.stderr,
                                                    rep.params.get("ess", ""), cfg.effective_eps, grid.dt, cfg.seed))
        if gw is None:
            continue
        mean_z, _, z = gw.martingale_check(step)
        out["checks"].append(table_row("checks", n, n, t, "martingale", abs(z) <= 3.0, 3.0 - abs(z), mean_z, 1.0))
        full = reports.get(("girsanov", n, step)) or entropy_girsanov(gw, k=n, step=step)
        for k in plan.sweep_k:
            # Pinsker and subadditivity need ~10+ samples per TV bin: sparse
            # histograms inflate TV by binning noise (the TV row remains)
            tv = reports.get(("histogram_tv", k, step))
            if tv is None or plan.tv_bins ** (k * cfg.domain.dim) * 10 > min(cfg.replicas, plan.knn_samples):
                continue
            knn = reports.get(("knn", k, step))
            rec = pinsker_and_subadditivity_check(knn or reports["girsanov", k, step], tv, full, k, n)
            pin, sub, d = rec.pinsker_margin, rec.subadditivity_margin, rec.details
            out["checks"].append(table_row("checks", n, k, t, "pinsker", pin >= 0, pin, d["tv"], d["pinsker_ceiling"]))
            if knn is not None:  # the Girsanov surrogate is (k/n) H_full itself: its subadditivity cannot fail
                out["checks"].append(table_row("checks", n, k, t, "subadditivity", sub >= 0, sub, d["h_k"],
                                               d["subadditivity_rhs"]))

    # closed-form and cascade envelopes on the same (k, t) lattice, at the time elapsed since the grid start
    elapsed = [grid.dt * step for step in steps]
    out["bounds"] = bound_rows(n, plan.sweep_k, elapsed, plan.bound_c0, plan.bound_gamma, plan.bound_m, grid.dt,
                               grid.t0)
    return out


def cascade_dt(n: int, gamma: float, dt: float) -> float:
    """The cascade's Euler step in bound_rows: dt clamped to the 1/(2 gamma n) stability limit."""
    return dt if gamma <= 0 else min(dt, 1.0 / (2.0 * gamma * n))


def cascade_size(n: int, gamma: float, dt: float, t_final: float) -> int:
    """Values bound_rows' cascade holds for n to t_final: n (steps + 1), its steps of cascade_dt(n, gamma, dt)
    rounded as hierarchy_ode_solve rounds them, and counted no higher than MAX_ENSEMBLE_ELEMENTS."""
    step = cascade_dt(n, gamma, dt)
    ratio = t_final / step if step > 0 else math.inf  # a huge gamma n underflows the step to 0
    steps = max(1, math.ceil(min(ratio, MAX_ENSEMBLE_ELEMENTS) - 1e-12))
    return n * (steps + 1)


def bound_rows(n: int, ks, times, c0: float, gamma: float, m_const: float, dt: float,
               t0: float = 0.0) -> list[dict]:
    """Closed-form and cascade envelope rows for one n on the (k, t) lattice,
    t the times elapsed since the start t0, which labels the rows t0 + t.

    The cascade starts from H^k_0 = c0 k^2 / n^2 and runs to max(times) with
    step dt, clamped to the 1/(2 gamma n) stability limit; each row reads it
    at the cascade time nearest t. Needs 1 <= k <= n for every k.
    """
    h0 = np.array([c0 * k * k / (n * n) for k in range(1, n + 1)])
    cascade = hierarchy_ode_solve(n, m_const, gamma, h0, max(times), cascade_dt(n, gamma, dt))
    rows = []
    for t in times:
        c_t = constant_C(c0, gamma, m_const, t)
        ci = int(np.argmin(np.abs(cascade.times - t)))
        for k in ks:
            closed = theorem_bound(c_t, gamma, t, n, k)
            rows.append(table_row("bounds", n, k, t0 + t, closed, cascade.at(k, ci), c_t, gamma, m_const))
    return rows


def run_experiment(plan: ExperimentPlan, threads: int = 1) -> RunResult:
    """Execute every sweep point, assemble rows in plan order.

    A failing point is recorded (with its exception) and the remaining
    points still run; nothing is written to disk here, see write_result.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    result = RunResult()

    def _safe(n: int):
        try:
            return n, _point_rows(plan, n), None
        except Exception as exc:  # noqa: BLE001 - per-point isolation is the contract
            kind = (
                "blowup"
                if isinstance(exc, BlowupError)
                else "config"
                if isinstance(exc, ConfigError)
                else "runtime"
            )
            return n, None, {"n": n, "kind": kind, "error": repr(exc), "trace": traceback.format_exc(limit=5)}

    if threads == 1 or len(plan.sweep_n) <= 1:
        outcomes = [_safe(n) for n in plan.sweep_n]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_safe, plan.sweep_n))

    # outcomes are in plan order whatever the thread count
    points = {}
    for n, rows, err in outcomes:
        if err is not None:
            result.errors.append(err)
            continue
        for name in TABLES:
            result.tables[name].extend(rows[name])
        result.any_unreliable |= rows["unreliable"]
        points[str(n)] = rows["point"]
    for name, (_, order) in TABLES.items():
        result.tables[name].sort(key=itemgetter(*order))

    result.manifest = {
        "plan": plan_as_dict(plan),
        "points": points,
        "errors": result.errors,
        "row_counts": {name: len(rows) for name, rows in result.tables.items()},
    }
    return result


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    # np.float64 subclasses float but reprs as np.float64(...); coerce first
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def _open_output(path: str):
    """Open an output file for writing, creating its directory first."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def _write_csv(path: str, rows: list[dict], columns: list[str]) -> None:
    with _open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c, "")) for c in columns])


def write_outputs(out_dir: str, command: str, tables: dict, manifest: dict) -> dict[str, str]:
    """Write each table, file name -> (rows, columns), as a CSV in out_dir,
    then manifest.json last: the manifest under the header every manifest
    carries, the command, the chaoslab version and the environment that made
    the bytes (the fBm bytes depend on numpy's FFT). Returns the written
    paths by file name."""
    paths = {name: os.path.join(out_dir, name) for name in (*tables, "manifest.json")}
    for name, (rows, columns) in tables.items():
        _write_csv(paths[name], rows, columns)
    header = {
        "command": command,
        "version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
        },
    }
    with _open_output(paths["manifest.json"]) as fh:
        json.dump({**manifest, **header}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def write_result(result: RunResult, out_dir: str) -> dict[str, str]:
    """Write each of run's tables as <name>.csv, then manifest.json."""
    tables = {f"{name}.csv": (rows, TABLES[name][0]) for name, rows in result.tables.items()}
    return write_outputs(out_dir, "run", tables, result.manifest)


@dataclass(frozen=True)
class RateFit:
    """OLS power-law fit on (log x, log H)."""

    slope: float
    intercept: float
    r_squared: float
    residuals: np.ndarray
    axis: str
    n_points: int
    n_excluded: int
    no_trend: bool = False


def fit_rate(points, axis: str = "n") -> RateFit:
    """Least-squares slope of log H against log x.

    Points with H <= 0 (or non-finite entries) are excluded and counted;
    at least 3 usable points are required. A constant H yields slope 0
    with r_squared 0 and the no_trend flag set.
    """
    pts = [(float(x), float(h)) for x, h in points]
    usable = [(x, h) for x, h in pts if h > 0 and math.isfinite(h) and x > 0 and math.isfinite(x)]
    excluded = len(pts) - len(usable)
    if len(usable) < 3:
        raise ValueError(f"need >= 3 usable points, have {len(usable)} ({excluded} excluded)")
    lx = np.log([x for x, _ in usable])
    lh = np.log([h for _, h in usable])
    design = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(design, lh, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    fitted = design @ coef
    resid = lh - fitted
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((lh - lh.mean()) ** 2))
    if ss_tot == 0.0:
        return RateFit(0.0, float(lh[0]), 0.0, resid, axis, len(usable), excluded, no_trend=True)
    r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateFit(slope, intercept, r2, resid, axis, len(usable), excluded)
