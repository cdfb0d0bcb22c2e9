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
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

from . import __version__
from .bounds import constant_C, estimate_beta, hierarchy_ode_solve, short_time_horizon, theorem_bound
from .core import ConfigError, RngStream, SimConfig, config_from_dict, load_json
from .core import _as_integral, _as_real, _pop_key, _pop_object
from .dynamics import (
    MAX_ENSEMBLE_ELEMENTS,
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

_ESTIMATORS = ("girsanov", "knn", "histogram_tv")
# universal constant of the fractional-horizon bound; the proof does not
# pin a value, this matches the worked arithmetic examples
_HORIZON_C = 16.0


@dataclass(frozen=True)
class ExperimentPlan:
    """A validated sweep plan; build it with plan_from_dict, which holds
    every default."""

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

    def __post_init__(self):
        # every sweep point resolves the same kernel or drift: check it once here
        drift = build_drift(self.base)
        for est in self.estimators:
            if est not in _ESTIMATORS:
                raise ConfigError(f"unknown estimator {est!r}; valid: {_ESTIMATORS}")
        # a plan without a sweep point would run nothing and write empty tables
        for axis, values in (("n", self.sweep_n), ("t", self.sweep_t), ("k", self.sweep_k)):
            if not values:
                raise ConfigError(f"sweep_{axis} must not be empty")
        for axis, values in (("n", self.sweep_n), ("k", self.sweep_k), ("t", self.sweep_t)):
            if len(set(values)) != len(values):
                raise ConfigError(f"sweep_{axis} lists a value twice: {list(values)}")
        for n in self.sweep_n:
            if n < 2:
                raise ConfigError("swept n must be >= 2")
        kmax = min(self.sweep_n)
        for k in self.sweep_k:
            if k < 1:
                raise ConfigError("swept k must be >= 1")
            if k > kmax:
                raise ConfigError(f"swept k = {k} exceeds the smallest swept n = {kmax}")
        grid = self.base.grid
        for t in self.sweep_t:
            # nearest grid point by arithmetic: the grid may be too long to list
            idx = np.clip(np.rint((t - grid.t0) / grid.dt), 0, grid.steps)
            if abs(grid.t0 + grid.dt * idx - t) > 1e-9:
                raise ConfigError(f"sweep time {t} is not a grid point")
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


def plan_from_dict(data: dict) -> ExperimentPlan:
    """Fail-closed plan parsing: unknown keys are errors, types checked."""
    if not isinstance(data, dict):
        raise ConfigError("plan must be a JSON object")
    work = dict(data)
    base = config_from_dict(_pop_key(work, "base", dict, where="plan"))
    sweep = _pop_object(work, "sweep", "plan")
    sweep_n = tuple(_as_integral(v, "sweep: key 'n'") for v in _pop_key(sweep, "n", list, where="sweep"))
    sweep_k = tuple(_as_integral(v, "sweep: key 'k'") for v in _pop_key(sweep, "k", list, [1], "sweep"))
    sweep_t = tuple(_as_real(v, "sweep: key 't'") for v in _pop_key(sweep, "t", list, [base.grid.terminal], "sweep"))
    if sweep:
        raise ConfigError(f"unknown sweep keys: {sorted(sweep)}")
    estimators = tuple(str(v) for v in _pop_key(work, "estimators", list, ["girsanov"], "plan"))
    picard = _pop_object(work, "picard", "plan", default={})
    picard_m = _as_integral(_pop_key(picard, "m", None, 10_000), "picard: key 'm'")
    picard_iters = _as_integral(_pop_key(picard, "iters", None, 3), "picard: key 'iters'")
    if picard:
        raise ConfigError(f"unknown picard keys: {sorted(picard)}")
    knn = _pop_object(work, "knn", "plan", default={})
    knn_neighbors = _as_integral(_pop_key(knn, "neighbors", None, 4), "knn: key 'neighbors'")
    knn_samples = _as_integral(_pop_key(knn, "samples", None, 10_000), "knn: key 'samples'")
    if knn:
        raise ConfigError(f"unknown knn keys: {sorted(knn)}")
    tv = _pop_object(work, "tv", "plan", default={})
    tv_bins = _as_integral(_pop_key(tv, "bins", None, 32), "tv: key 'bins'")
    if tv:
        raise ConfigError(f"unknown tv keys: {sorted(tv)}")
    bounds = _pop_object(work, "bounds", "plan", default={})
    bound_c0 = _as_real(_pop_key(bounds, "C0", None, 0.05), "bounds: key 'C0'")
    bound_gamma = _as_real(_pop_key(bounds, "gamma", None, 1.0), "bounds: key 'gamma'")
    bound_m = _as_real(_pop_key(bounds, "M", None, 1.0), "bounds: key 'M'")
    kappa = _as_real(_pop_key(bounds, "kappa", None, 1.0), "bounds: key 'kappa'")
    if bounds:
        raise ConfigError(f"unknown bounds keys: {sorted(bounds)}")
    label = _pop_key(work, "label", str, "run", "plan")
    if work:
        raise ConfigError(f"unknown plan keys: {sorted(work)}")
    return ExperimentPlan(
        base=base,
        sweep_n=sweep_n,
        sweep_k=sweep_k,
        sweep_t=sweep_t,
        estimators=estimators,
        picard_m=picard_m,
        picard_iters=picard_iters,
        knn_neighbors=knn_neighbors,
        knn_samples=knn_samples,
        tv_bins=tv_bins,
        bound_c0=bound_c0,
        bound_gamma=bound_gamma,
        bound_m=bound_m,
        kappa=kappa,
        label=label,
    )


def load_plan(path: str) -> ExperimentPlan:
    return plan_from_dict(load_json(path))


@dataclass
class RunResult:
    entropy_rows: list[dict] = field(default_factory=list)
    bound_rows: list[dict] = field(default_factory=list)
    horizon_rows: list[dict] = field(default_factory=list)
    check_rows: list[dict] = field(default_factory=list)
    manifest: dict = field(default_factory=dict)
    errors: list[dict] = field(default_factory=list)
    any_unreliable: bool = False  # the ESS guard, which no row records


def _point_rows(plan: ExperimentPlan, n: int) -> dict:
    """All rows for one sweep point. Randomness is keyed by (seed, n), so
    the result is independent of scheduling."""
    cfg = replace(plan.base, n_particles=n)
    rng = RngStream(cfg.seed, counter=n)
    grid = cfg.grid
    ks = [k for k in plan.sweep_k if k <= n]
    t_steps = [grid.index_of(t) for t in plan.sweep_t]
    times = grid.times()

    out = {
        "entropy": [],
        "bounds": [],
        "horizons": [],
        "checks": [],
        "unreliable": False,
        "provenance": {
            "n": n,
            "seed": cfg.seed,
            "dt": grid.dt,
            "eps": cfg.effective_eps,
            "replicas": cfg.replicas,
            "picard_m": plan.picard_m,
            "picard_iters": plan.picard_iters,
            "knn_neighbors": plan.knn_neighbors,
            "knn_samples": plan.knn_samples,
            "tv_bins": plan.tv_bins,
        },
    }

    mf = solve_mckean_vlasov_picard(cfg, rng, m=plan.picard_m, iters=plan.picard_iters)
    out["provenance"]["picard_residuals"] = [float(r) for r in mf.residuals]
    out["provenance"]["picard_non_convergent"] = mf.non_convergent

    # rows are keyed by the columns their CSV is written with
    def entropy_row(t, k, estimator, value, stderr, ess):
        values = (t, n, k, estimator, value, stderr, ess, cfg.effective_eps, grid.dt, cfg.seed)
        out["entropy"].append(dict(zip(ENTROPY_COLUMNS, values)))

    def check_row(k, t, check, passed, margin, value, threshold):
        out["checks"].append(dict(zip(CHECK_COLUMNS, (n, k, t, check, passed, margin, value, threshold))))

    gw = None
    full_reports = {}
    if "girsanov" in plan.estimators:
        gw = girsanov_weight(cfg, mf, rng, snapshot_times=plan.sweep_t)
        for step in t_steps:
            t = float(times[step])
            mean_z, se_z, z_score = gw.martingale_check(step)
            check_row(n, t, "martingale", abs(z_score) <= 3.0, 3.0 - abs(z_score), mean_z, 1.0)
            full = entropy_girsanov(gw, k=n, step=step)
            full_reports[step] = full
            if full.unreliable:
                out["unreliable"] = True
            for k in ks:
                rep = entropy_girsanov(gw, k=k, step=step)
                entropy_row(t, k, "girsanov", rep.value, rep.stderr, rep.params["ess"])

        regime = "fractional" if cfg.noise.kind == "fbm" else "brownian"
        energy = gw.volterra_energy if gw.volterra_energy is not None else gw.drift_energy
        hurst = cfg.noise.hurst if cfg.noise.kind == "fbm" else None
        bf = estimate_beta(energy, n=n, delta=grid.terminal - grid.t0, hurst=hurst)
        hz = short_time_horizon(plan.kappa, bf.beta, regime=regime, hurst=hurst, C=_HORIZON_C)
        out["horizons"].append(
            {
                "n": n,
                "regime": regime,
                "kappa": plan.kappa,
                "beta": bf.beta,
                "hurst": "" if hurst is None else hurst,
                "delta_star": hz.delta_star,
                "fit_residual": bf.residual,
            }
        )

    if "knn" in plan.estimators or "histogram_tv" in plan.estimators:
        max_k = max(ks)
        ens = simulate_particle_system(cfg, rng, snapshot_times=plan.sweep_t, particles=max_k)
        refs = sample_reference_marginals(
            cfg, mf, plan.knn_samples * max_k, rng, snapshot_times=plan.sweep_t
        )
        torus = cfg.domain.is_torus
        d = cfg.domain.dim
        for step in t_steps:
            t = float(times[step])
            full = full_reports.get(step)
            for k in ks:
                p_samp = extract_marginal(ens, k, t)
                q_samp = refs[step][: plan.knn_samples * k].reshape(plan.knn_samples, k * d)
                rep_h = None
                if "knn" in plan.estimators:
                    rep_h = entropy_knn(p_samp, q_samp, neighbors=plan.knn_neighbors, torus=torus)
                    rep_h.k, rep_h.n, rep_h.t = k, n, t
                    entropy_row(t, k, "knn", rep_h.value, rep_h.stderr, "")
                if "histogram_tv" not in plan.estimators or k * d > 4:
                    continue
                rep_tv = tv_histogram(p_samp, q_samp, bins_per_dim=plan.tv_bins, torus=torus)
                rep_tv.k, rep_tv.n, rep_tv.t = k, n, t
                entropy_row(t, k, "histogram_tv", rep_tv.value, rep_tv.stderr, "")
                # consistency: Pinsker + subadditivity need the full-system
                # Girsanov report too. Sparse histograms (many bins per
                # sample) inflate TV by pure binning noise; the ceiling
                # comparison is only meaningful with ~10+ samples per bin,
                # so skip the check there (the TV row remains)
                if full is None or plan.tv_bins ** (k * d) * 10 > min(cfg.replicas, plan.knn_samples):
                    continue
                if rep_h is None:
                    rep_h = entropy_girsanov(gw, k=k, step=step)
                rec = pinsker_and_subadditivity_check(rep_h, rep_tv, full)
                pinsker, sub = rec.pinsker_margin, rec.subadditivity_margin
                check_row(k, t, "pinsker", pinsker >= 0, pinsker, rec.details["tv"], rec.details["pinsker_ceiling"])
                check_row(k, t, "subadditivity", sub >= 0, sub, rec.details["h_k"], rec.details["subadditivity_rhs"])

    # closed-form and cascade envelopes on the same (k, t) lattice
    out["bounds"] = bound_rows(n, ks, plan.sweep_t, plan.bound_c0, plan.bound_gamma, plan.bound_m, grid.dt)
    return out


def bound_rows(n: int, ks, times, c0: float, gamma: float, m_const: float, dt: float) -> list[dict]:
    """Closed-form and cascade envelope rows for one n on the (k, t) lattice.

    The cascade starts from H^k_0 = c0 k^2 / n^2 and runs to max(times) with
    step dt, clamped to the 1/(2 gamma n) stability limit; each row reads it
    at the cascade time nearest t. Needs 1 <= k <= n for every k.
    """
    h0 = np.array([c0 * k * k / (n * n) for k in range(1, n + 1)])
    casc_dt = dt if gamma <= 0 else min(dt, 1.0 / (2.0 * gamma * n))
    cascade = hierarchy_ode_solve(n, m_const, gamma, h0, max(times), casc_dt)
    rows = []
    for t in times:
        c_t = constant_C(c0, gamma, m_const, t)
        ci = int(np.argmin(np.abs(cascade.times - t)))
        for k in ks:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                closed = theorem_bound(c_t, gamma, t, n, k)
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "t": t,
                    "closed_form": closed,
                    "cascade": cascade.at(k, ci),
                    "C": c_t,
                    "gamma": gamma,
                    "M": m_const,
                }
            )
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
    provenance = {}
    for n, rows, err in outcomes:
        if err is not None:
            result.errors.append(err)
            continue
        result.entropy_rows.extend(rows["entropy"])
        result.bound_rows.extend(rows["bounds"])
        result.horizon_rows.extend(rows["horizons"])
        result.check_rows.extend(rows["checks"])
        result.any_unreliable |= rows["unreliable"]
        provenance[str(n)] = rows["provenance"]

    result.entropy_rows.sort(key=lambda r: (r["t"], r["n"], r["k"], r["estimator"]))
    result.bound_rows.sort(key=lambda r: (r["n"], r["k"], r["t"]))
    result.check_rows.sort(key=lambda r: (r["n"], r["k"], r["t"], r["check"]))
    result.horizon_rows.sort(key=lambda r: r["n"])

    result.manifest = {
        "label": plan.label,
        "version": __version__,
        "seed": plan.base.seed,
        "sweep": {"n": list(plan.sweep_n), "k": list(plan.sweep_k), "t": list(plan.sweep_t)},
        "estimators": list(plan.estimators),
        "bounds": {
            "C0": plan.bound_c0,
            "gamma": plan.bound_gamma,
            "M": plan.bound_m,
            "kappa": plan.kappa,
        },
        "grid": {"t0": plan.base.grid.t0, "dt": plan.base.grid.dt, "steps": plan.base.grid.steps},
        "noise": {"kind": plan.base.noise.kind, "hurst": plan.base.noise.hurst},
        # the fBm bytes depend on numpy's FFT, so record what made them
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
        },
        "points": provenance,
        "errors": result.errors,
        "row_counts": {
            "entropy": len(result.entropy_rows),
            "bounds": len(result.bound_rows),
            "horizons": len(result.horizon_rows),
            "checks": len(result.check_rows),
        },
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


def _write_json(path: str, payload: dict) -> None:
    with _open_output(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_outputs(out_dir: str, tables: dict, manifest: dict) -> dict[str, str]:
    """Write each table, file name -> (rows, columns), as a CSV in out_dir,
    then manifest.json last; returns the written paths by file name."""
    paths = {name: os.path.join(out_dir, name) for name in (*tables, "manifest.json")}
    for name, (rows, columns) in tables.items():
        _write_csv(paths[name], rows, columns)
    _write_json(paths["manifest.json"], manifest)
    return paths


ENTROPY_COLUMNS = ["t", "n", "k", "estimator", "value", "stderr", "ess", "eps", "dt", "seed"]
CHECK_COLUMNS = ["n", "k", "t", "check", "passed", "margin", "value", "threshold"]
BOUNDS_COLUMNS = ["n", "k", "t", "closed_form", "cascade", "C", "gamma", "M"]


def write_result(result: RunResult, out_dir: str) -> dict[str, str]:
    """Write entropy/bounds/horizons/checks CSVs and manifest.json."""
    tables = {
        "entropy.csv": (result.entropy_rows, ENTROPY_COLUMNS),
        "bounds.csv": (result.bound_rows, BOUNDS_COLUMNS),
        "horizons.csv": (result.horizon_rows, ["n", "regime", "kappa", "beta", "hurst", "delta_star", "fit_residual"]),
        "checks.csv": (result.check_rows, CHECK_COLUMNS),
    }
    return write_outputs(out_dir, tables, result.manifest)


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
