"""Command-line front end.

Subcommands: simulate, entropy, bounds, noise-check, kernel-probe,
rate-fit, run. Every subcommand takes --config <path> plus the shared
--seed/--out/--threads flags; outputs are plain CSV files and a JSON
manifest in the --out directory.

Exit codes: 0 success, 2 config error, 3 simulation blow-up,
4 estimator unreliable (effective-sample-size guard), 5 consistency-check
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bounds import short_time_horizon
from .core import ConfigError, RngStream, config_from_dict, load_json, _as_integral, _as_real, _pop_key
from .dynamics import BlowupError, simulate_particle_system
from .experiment import (
    ExperimentPlan,
    _write_csv,
    bound_rows,
    fit_rate,
    plan_from_dict,
    run_experiment,
    write_result,
)
from .kernels import divergence_fd, grid_lp_norm, kernel_from_ref
from .noise import empirical_covariance_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_UNRELIABLE = 4
EXIT_CONSISTENCY = 5


def _default_threads() -> int:
    raw = os.environ.get("CHAOSLAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _write_manifest(out_dir: str, payload: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_simulate(args) -> int:
    cfg = config_from_dict(load_json(args.config))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    ens = simulate_particle_system(cfg, RngStream(cfg.seed))
    times = cfg.grid.times()
    rows = []
    for step in sorted(ens.snapshots):
        pos = ens.snapshots[step]
        t = float(times[step])
        for r in range(pos.shape[0]):
            for i in range(pos.shape[1]):
                row = {"t": t, "replica": r, "particle": i}
                for c in range(pos.shape[2]):
                    row[f"x{c}"] = float(pos[r, i, c])
                rows.append(row)
    cols = ["t", "replica", "particle"] + [f"x{c}" for c in range(cfg.domain.dim)]
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "positions.csv"), rows, cols)
    _write_manifest(
        args.out,
        {
            "command": "simulate",
            "version": __version__,
            "seed": cfg.seed,
            "n": cfg.n_particles,
            "replicas": cfg.replicas,
            "dt": cfg.grid.dt,
            "steps": cfg.grid.steps,
            "eps": cfg.effective_eps,
            "noise": {"kind": cfg.noise.kind, "hurst": cfg.noise.hurst},
        },
    )
    print(f"wrote {len(rows)} position rows to {args.out}/positions.csv")
    return EXIT_OK


def _plan_from_config(data: dict, estimators: tuple[str, ...]) -> ExperimentPlan:
    """Accept either a full plan (has "sweep") or a bare simulation config,
    which becomes a single-point plan at the terminal time.

    The subcommand's estimator set applies unless the plan names its own.
    """
    if "sweep" in data:
        explicit = "estimators" in data
        plan = plan_from_dict(data)
        return plan if explicit else replace(plan, estimators=estimators)
    cfg = config_from_dict(data)
    return ExperimentPlan(
        base=cfg,
        sweep_n=(cfg.n_particles,),
        sweep_k=(1,),
        sweep_t=(cfg.grid.terminal,),
        estimators=estimators,
    )


def _finish_run(result, out_dir: str) -> int:
    write_result(result, out_dir)
    for err in result.errors:
        print(f"point n={err['n']} failed ({err['kind']}): {err['error']}", file=sys.stderr)
    checks_failed = [r for r in result.check_rows if not r["passed"]]
    for row in checks_failed:
        print(
            f"check failed: {row['check']} at n={row['n']} k={row['k']} t={row['t']} margin={row['margin']:.4g}",
            file=sys.stderr,
        )
    print(
        f"rows: entropy={len(result.entropy_rows)} bounds={len(result.bound_rows)} "
        f"checks={len(result.check_rows)} horizons={len(result.horizon_rows)} -> {out_dir}"
    )
    if result.any_blowup:
        return EXIT_BLOWUP
    if result.any_check_failed or checks_failed:
        return EXIT_CONSISTENCY
    if result.any_unreliable:
        return EXIT_UNRELIABLE
    if result.errors:
        return EXIT_CONFIG
    return EXIT_OK


def _cmd_entropy(args) -> int:
    plan = _plan_from_config(load_json(args.config), estimators=("girsanov", "knn"))
    if args.seed is not None:
        plan = replace(plan, base=replace(plan.base, seed=args.seed))
    result = run_experiment(plan, threads=args.threads)
    return _finish_run(result, args.out)


def _cmd_run(args) -> int:
    plan = _plan_from_config(load_json(args.config), estimators=("girsanov", "knn", "histogram_tv"))
    if args.seed is not None:
        plan = replace(plan, base=replace(plan.base, seed=args.seed))
    result = run_experiment(plan, threads=args.threads)
    return _finish_run(result, args.out)


def _cmd_bounds(args) -> int:
    data = load_json(args.config)
    c0 = _as_real(_pop_key(data, "C0", None), "bounds config: key 'C0'")
    gamma = _as_real(_pop_key(data, "gamma", None), "bounds config: key 'gamma'")
    m_const = _as_real(_pop_key(data, "M", None), "bounds config: key 'M'")
    t_final = _as_real(_pop_key(data, "T", None), "bounds config: key 'T'")
    ns = [_as_integral(v, "bounds config: key 'n'") for v in _pop_key(data, "n", list)]
    ks_req = _pop_key(data, "k", list, default=None)
    if ks_req is not None:
        ks_req = [_as_integral(v, "bounds config: key 'k'") for v in ks_req]
    dt = _as_real(_pop_key(data, "dt", None, default=1e-3), "bounds config: key 'dt'")
    horizons = _pop_key(data, "horizons", list, default=[])
    if data:
        raise ConfigError(f"unknown bounds config keys: {sorted(data)}")

    rows = []
    for n in ns:
        ks = ks_req if ks_req is not None else list(range(1, n + 1))
        for k in ks:
            if k > n:
                raise ConfigError(f"k = {k} exceeds n = {n}")
        rows += bound_rows(n, ks, [t_final], c0, gamma, m_const, dt)
    horizon_rows = []
    for item in horizons:
        spec = dict(item)
        kappa = float(_pop_key(spec, "kappa", (int, float)))
        beta = float(_pop_key(spec, "beta", (int, float)))
        regime = str(_pop_key(spec, "regime", str, default="brownian"))
        hurst = _pop_key(spec, "hurst", (int, float), default=None)
        c_h = _pop_key(spec, "C", (int, float), default=16.0)
        if spec:
            raise ConfigError(f"unknown horizon keys: {sorted(spec)}")
        hz = short_time_horizon(
            kappa, beta, regime=regime, hurst=None if hurst is None else float(hurst), C=float(c_h)
        )
        horizon_rows.append(
            {
                "kappa": kappa,
                "beta": beta,
                "hurst": "" if hurst is None else float(hurst),
                "regime": regime,
                "delta_star": hz.delta_star,
            }
        )
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "bounds.csv"),
        rows,
        ["n", "k", "t", "closed_form", "cascade", "C", "gamma", "M"],
    )
    _write_csv(
        os.path.join(args.out, "horizons.csv"),
        horizon_rows,
        ["kappa", "beta", "hurst", "regime", "delta_star"],
    )
    _write_manifest(
        args.out,
        {
            "command": "bounds",
            "version": __version__,
            "C0": c0,
            "gamma": gamma,
            "M": m_const,
            "T": t_final,
            "n": ns,
        },
    )
    print(f"wrote {len(rows)} bound rows, {len(horizon_rows)} horizon rows to {args.out}")
    return EXIT_OK


def _cmd_noise_check(args) -> int:
    cfg = config_from_dict(load_json(args.config))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if cfg.noise.kind != "fbm":
        hurst = 0.5
    else:
        hurst = cfg.noise.hurst
    rng = RngStream(cfg.seed, counter=1)
    table = empirical_covariance_table(cfg.grid, hurst, cfg.replicas, rng)
    rows = []
    for r in table:
        z = 0.0 if r["stderr"] == 0 else (r["emp"] - r["exact"]) / r["stderr"]
        rows.append(
            {
                "t": r["t"],
                "s": r["s"],
                "hurst": r["H"],
                "empirical": r["emp"],
                "exact": r["exact"],
                "stderr": r["stderr"],
                "z": z,
            }
        )
    worst = max(abs(r["z"]) for r in rows)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "noise_covariance.csv"),
        rows,
        ["t", "s", "hurst", "empirical", "exact", "stderr", "z"],
    )
    _write_manifest(
        args.out,
        {
            "command": "noise-check",
            "version": __version__,
            "seed": cfg.seed,
            "hurst": hurst,
            "paths": cfg.replicas,
            "worst_z": worst,
            "threshold": 4.0,
        },
    )
    print(f"covariance table: {len(rows)} entries, worst |z| = {worst:.3f} (threshold 4)")
    return EXIT_OK if worst <= 4.0 else EXIT_CONSISTENCY


def _cmd_kernel_probe(args) -> int:
    cfg = config_from_dict(load_json(args.config))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if cfg.kernel is None:
        raise ConfigError("kernel-probe needs a config with a kernel")
    kern = kernel_from_ref(cfg.kernel, cfg)
    gen = RngStream(cfg.seed, counter=2).generator()
    d = cfg.domain.dim
    candidates = gen.uniform(-0.5, 0.5, size=(1000, d))
    if kern.kind in ("biot_savart_free", "biot_savart_periodic"):
        # keep probes off the singularity so the divergence stencil is valid
        r = np.linalg.norm(candidates, axis=1)
        candidates = candidates[r >= 0.1]
    probes = candidates[:100]
    if probes.shape[0] < 100:
        raise ConfigError("could not draw 100 admissible probe points")
    vals = kern(probes)
    div = divergence_fd(kern, probes)
    anti = kern(-probes)
    anti_exact = bool(np.array_equal(vals, -anti))
    max_div = float(np.max(np.abs(div)))
    rows = []
    for i in range(probes.shape[0]):
        row = {}
        for c in range(d):
            row[f"x{c}"] = float(probes[i, c])
        for c in range(vals.shape[1]):
            row[f"K{c}"] = float(vals[i, c])
        row["divergence"] = float(div[i])
        rows.append(row)
    cols = [f"x{c}" for c in range(d)] + [f"K{c}" for c in range(vals.shape[1])] + ["divergence"]
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "kernel_probe.csv"), rows, cols)
    lp_rows = []
    if kern.kind == "biot_savart_periodic":
        for p in (1.5, 2.0):
            for cells in (32, 64, 128, 256):
                lp_rows.append(
                    {
                        "p": p,
                        "cells_per_axis": cells,
                        "lp_norm": grid_lp_norm(p, cells, truncation_radius=kern.truncation_radius),
                    }
                )
        _write_csv(os.path.join(args.out, "kernel_lp.csv"), lp_rows, ["p", "cells_per_axis", "lp_norm"])
    _write_manifest(
        args.out,
        {
            "command": "kernel-probe",
            "version": __version__,
            "kernel": kern.kind,
            "probes": probes.shape[0],
            "antisymmetry_exact": anti_exact,
            "max_abs_divergence": max_div,
        },
    )
    print(f"kernel {kern.kind}: antisymmetry_exact={anti_exact}, max |div| = {max_div:.2e}")
    return EXIT_OK if anti_exact and max_div < 1e-3 else EXIT_CONSISTENCY


def _cmd_rate_fit(args) -> int:
    data = load_json(args.config)
    input_path = str(_pop_key(data, "input", str))
    axis = str(_pop_key(data, "axis", str, default="n"))
    filt = _pop_key(data, "filter", dict, default={})
    estimator = str(_pop_key(filt, "estimator", str, default="girsanov"))
    k_filter = _pop_key(filt, "k", (int, float), default=None)
    t_filter = _pop_key(filt, "t", (int, float), default=None)
    n_filter = _pop_key(filt, "n", (int, float), default=None)
    if filt:
        raise ConfigError(f"unknown filter keys: {sorted(filt)}")
    if k_filter is not None:
        k_filter = _as_integral(k_filter, "rate-fit filter: key 'k'")
    if n_filter is not None:
        n_filter = _as_integral(n_filter, "rate-fit filter: key 'n'")
    if data:
        raise ConfigError(f"unknown rate-fit keys: {sorted(data)}")
    if axis not in ("n", "k"):
        raise ConfigError("axis must be 'n' or 'k'")
    try:
        with open(input_path, encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except FileNotFoundError as exc:
        raise ConfigError(f"input CSV not found: {input_path}") from exc
    pts = []
    for row in rows:
        if row["estimator"] != estimator:
            continue
        if k_filter is not None and int(row["k"]) != k_filter:
            continue
        if t_filter is not None and abs(float(row["t"]) - float(t_filter)) > 1e-9:
            continue
        if n_filter is not None and int(row["n"]) != n_filter:
            continue
        pts.append((float(row[axis]), float(row["value"])))
    try:
        fit = fit_rate(pts, axis=axis)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    payload = {
        "command": "rate-fit",
        "version": __version__,
        "input": input_path,
        "axis": axis,
        "estimator": estimator,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
        "n_excluded": fit.n_excluded,
        "no_trend": fit.no_trend,
        "residuals": [float(r) for r in fit.residuals],
    }
    with open(os.path.join(args.out, "rate_fit.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"slope = {fit.slope:.4f}, intercept = {fit.intercept:.4f}, R^2 = {fit.r_squared:.4f} "
        f"({fit.n_points} points, {fit.n_excluded} excluded)"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoslab",
        description="Interacting-particle chaos experiments: simulation, entropy estimation, bounds.",
    )
    parser.add_argument("--version", action="version", version=f"chaoslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": ("integrate the particle system, write position snapshots", _cmd_simulate),
        "entropy": ("estimate relative entropy along the sweep", _cmd_entropy),
        "bounds": ("evaluate closed-form and cascade bounds", _cmd_bounds),
        "noise-check": ("verify fractional noise covariance empirically", _cmd_noise_check),
        "kernel-probe": ("sample kernel values, divergence, and L^p growth", _cmd_kernel_probe),
        "rate-fit": ("fit a power law to an entropy CSV", _cmd_rate_fit),
        "run": ("full pipeline: simulate, estimate, bound, check", _cmd_run),
    }
    for name, (help_text, func) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="chaoslab_out", help="output directory")
        p.add_argument(
            "--threads",
            type=int,
            default=_default_threads(),
            help="worker threads (default: CHAOSLAB_THREADS or 1)",
        )
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("error: --seed must be a u64", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowupError as exc:
        print(f"simulation blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
