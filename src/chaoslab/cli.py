"""Command-line front end.

Subcommands: simulate, bounds, noise-check, kernel-probe, rate-fit, run.
Every subcommand takes --config <path> and --out <dir>, and only the flags
it reads besides: --seed overrides the config seed on the four that draw
random numbers (simulate, noise-check, kernel-probe, run), and --threads
sets run's worker count. Outputs are plain CSV files and manifest.json in
the --out directory. Each manifest is headed by the command, the version and
the environment, and holds the command's input as read (run's plan with
every default filled in, the others' config), then what the command found.
run takes a plan or a bare simulation config (parsed as a
one-point plan) and runs every estimator unless the plan names its own
("estimators": ["girsanov", "knn"] is the entropy-only pipeline);
simulate, noise-check and kernel-probe read a plan's base, or a bare
config.

Exit codes: 0 success, 2 config error, 3 simulation blow-up,
4 estimator unreliable (effective-sample-size guard), 5 consistency-check
failure. run reads its status from what it wrote: a point error of kind
blowup gives 3, a check row with passed false gives 5, the ESS guard gives 4
and any other point error gives 2, in that order.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .bounds import short_time_horizon
from .core import MAX_ENSEMBLE_ELEMENTS, ConfigError, RngStream, SimConfig, config_from_dict, load_json
from .core import _pop_key, _reject_unknown
from .dynamics import BlowupError, simulate_particle_system
from .experiment import (
    _HORIZON_C,
    TABLES,
    as_plan_data,
    bound_rows,
    cascade_size,
    fit_rate,
    plan_from_dict,
    run_experiment,
    write_outputs,
    write_result,
)
from .kernels import divergence_fd, grid_lp_norm, kernel_from_ref
from .noise import empirical_covariance_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_UNRELIABLE = 4
EXIT_CONSISTENCY = 5


def _seeded_config(args) -> SimConfig:
    """The --config simulation config (data with "sweep" is a plan, parsed
    fail-closed, and its base is the config), with --seed applied."""
    data = load_json(args.config)
    cfg = plan_from_dict(data).base if "sweep" in data else config_from_dict(data)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _cmd_simulate(args) -> int:
    cfg = _seeded_config(args)
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
    write_outputs(
        args.out,
        "simulate",
        {"positions.csv": (rows, cols)},
        {"config": asdict(cfg), "eps": cfg.effective_eps},
    )
    print(f"wrote {len(rows)} position rows to {args.out}/positions.csv")
    return EXIT_OK


def _finish_run(result, out_dir: str) -> int:
    write_result(result, out_dir)
    for err in result.errors:
        print(f"point n={err['n']} failed ({err['kind']}): {err['error']}", file=sys.stderr)
    checks_failed = [r for r in result.tables["checks"] if not r["passed"]]
    for row in checks_failed:
        print(
            f"check failed: {row['check']} at n={row['n']} k={row['k']} t={row['t']} margin={row['margin']:.4g}",
            file=sys.stderr,
        )
    counts = " ".join(f"{name}={len(rows)}" for name, rows in result.tables.items())
    print(f"rows: {counts} -> {out_dir}")
    if any(err["kind"] == "blowup" for err in result.errors):
        return EXIT_BLOWUP
    if checks_failed:
        return EXIT_CONSISTENCY
    if result.any_unreliable:
        return EXIT_UNRELIABLE
    if result.errors:
        return EXIT_CONFIG
    return EXIT_OK


def _cmd_run(args) -> int:
    plan = plan_from_dict(as_plan_data(load_json(args.config)))
    if args.seed is not None:
        plan = replace(plan, base=replace(plan.base, seed=args.seed))
    result = run_experiment(plan, threads=args.threads)
    return _finish_run(result, args.out)


def _horizon_spec(item, where: str) -> dict:
    """One horizons entry of a bounds config as read: short_time_horizon's arguments."""
    if not isinstance(item, dict):
        raise ConfigError(f"{where} expects an object, got {item!r}")
    spec = dict(item)
    read = {
        "kappa": _pop_key(spec, "kappa", float, where=where),
        "beta": _pop_key(spec, "beta", float, where=where),
        "regime": _pop_key(spec, "regime", str, "brownian", where),
        "hurst": _pop_key(spec, "hurst", float, None, where),
        "C": _pop_key(spec, "C", float, _HORIZON_C, where),
    }
    _reject_unknown(spec, where)
    return read


def _cmd_bounds(args) -> int:
    data = load_json(args.config)
    where = "bounds config"
    c0 = _pop_key(data, "C0", float, where=where)
    gamma = _pop_key(data, "gamma", float, where=where)
    m_const = _pop_key(data, "M", float, where=where)
    t_final = _pop_key(data, "T", float, where=where)
    ns = _pop_key(data, "n", list[int], where=where)
    ks_req = _pop_key(data, "k", list[int], None, where)
    dt = _pop_key(data, "dt", float, 1e-3, where)
    horizons = _pop_key(data, "horizons", list, [], where)
    _reject_unknown(data, where)
    horizons = [_horizon_spec(item, f"{where}: horizons[{i}]") for i, item in enumerate(horizons)]
    if t_final <= 0 or dt <= 0:
        raise ConfigError(f"{where}: keys 'T' and 'dt' must be > 0")
    for n in ns:
        # refused before anything sized by n is built: the cascade holds n (steps + 1) values, steps >= 1
        if not 2 <= n <= MAX_ENSEMBLE_ELEMENTS // 2:
            raise ConfigError(f"{where}: key 'n' = {n} must be in [2, {MAX_ENSEMBLE_ELEMENTS // 2}]")
        if cascade_size(n, gamma, dt, t_final) > MAX_ENSEMBLE_ELEMENTS:
            raise ConfigError(f"{where}: key 'n' = {n} needs a cascade of more than {MAX_ENSEMBLE_ELEMENTS} values")
        if any(k > n for k in ks_req or ()):
            raise ConfigError(f"k = {max(ks_req)} exceeds n = {n}")

    rows = []
    for n in ns:
        rows += bound_rows(n, range(1, n + 1) if ks_req is None else ks_req, [t_final], c0, gamma, m_const, dt)
    horizon_rows = []
    for spec in horizons:
        hz = short_time_horizon(**spec)
        hurst = "" if spec["hurst"] is None else spec["hurst"]
        horizon_rows.append({**spec, "hurst": hurst, "delta_star": hz.delta_star})
    write_outputs(
        args.out,
        "bounds",
        {
            "bounds.csv": (rows, TABLES["bounds"][0]),
            "horizons.csv": (horizon_rows, ["kappa", "beta", "hurst", "regime", "delta_star"]),
        },
        {"config": {"C0": c0, "gamma": gamma, "M": m_const, "T": t_final, "n": ns, "k": ks_req, "dt": dt,
                    "horizons": horizons}},
    )
    print(f"wrote {len(rows)} bound rows, {len(horizon_rows)} horizon rows to {args.out}")
    return EXIT_OK


def _cmd_noise_check(args) -> int:
    cfg = _seeded_config(args)
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
    write_outputs(
        args.out,
        "noise-check",
        {"noise_covariance.csv": (rows, ["t", "s", "hurst", "empirical", "exact", "stderr", "z"])},
        {"config": asdict(cfg), "worst_z": worst, "threshold": 4.0},
    )
    print(f"covariance table: {len(rows)} entries, worst |z| = {worst:.3f} (threshold 4)")
    return EXIT_OK if worst <= 4.0 else EXIT_CONSISTENCY


def _cmd_kernel_probe(args) -> int:
    cfg = _seeded_config(args)
    if cfg.kernel is None:
        raise ConfigError("kernel-probe needs a config with a kernel")
    kern = kernel_from_ref(cfg.kernel, cfg)
    gen = RngStream(cfg.seed, counter=2).generator()
    d = cfg.domain.dim
    candidates = gen.uniform(-0.5, 0.5, size=(1000, d))
    kind = cfg.kernel.name
    if kind in ("biot_savart_free", "biot_savart_periodic"):
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
    tables = {"kernel_probe.csv": (rows, cols)}
    if kind == "biot_savart_periodic":
        lp_rows = [
            {"p": p, "cells_per_axis": c, "lp_norm": grid_lp_norm(p, c, truncation_radius=cfg.truncation_radius)}
            for p in (1.5, 2.0)
            for c in (32, 64, 128, 256)
        ]
        tables["kernel_lp.csv"] = (lp_rows, ["p", "cells_per_axis", "lp_norm"])
    write_outputs(
        args.out,
        "kernel-probe",
        tables,
        {"config": asdict(cfg), "probes": probes.shape[0], "antisymmetry_exact": anti_exact,
         "max_abs_divergence": max_div},
    )
    print(f"kernel {kind}: antisymmetry_exact={anti_exact}, max |div| = {max_div:.2e}")
    return EXIT_OK if anti_exact and max_div < 1e-3 else EXIT_CONSISTENCY


def _cmd_rate_fit(args) -> int:
    data = load_json(args.config)
    input_path = _pop_key(data, "input", str, where="rate-fit config")
    axis = _pop_key(data, "axis", str, "n", "rate-fit config")
    filt = _pop_key(data, "filter", dict, {}, "rate-fit config")
    wanted = {"estimator": _pop_key(filt, "estimator", str, "girsanov", "rate-fit filter")}
    for key, kind in (("k", int), ("t", float), ("n", int)):
        wanted[key] = _pop_key(filt, key, kind, None, "rate-fit filter")
    _reject_unknown(filt, "rate-fit filter")
    _reject_unknown(data, "rate-fit config")
    estimator = wanted["estimator"]
    filters = {key: v for key, v in wanted.items() if key != "estimator" and v is not None}  # column -> value
    if axis not in ("n", "k"):
        raise ConfigError("axis must be 'n' or 'k'")
    try:
        with open(input_path, encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except FileNotFoundError as exc:
        raise ConfigError(f"input CSV not found: {input_path}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"input CSV unreadable: {input_path}: {exc}") from exc
    missing = [c for c in ("estimator", "value", axis, *filters) if c not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"input CSV {input_path} lacks column(s) {missing}")
    pts = []
    for i, row in enumerate(rows, start=1):
        try:
            if row["estimator"] != estimator:
                continue
            if "k" in filters and int(row["k"]) != filters["k"]:
                continue
            if "t" in filters and abs(float(row["t"]) - filters["t"]) > 1e-9:
                continue
            if "n" in filters and int(row["n"]) != filters["n"]:
                continue
            pts.append((float(row[axis]), float(row["value"])))
        except (TypeError, ValueError) as exc:  # a short row reads None
            raise ConfigError(f"input CSV {input_path}: data row {i}: {exc}") from exc
    try:
        fit = fit_rate(pts, axis=axis)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "config": {"input": input_path, "axis": axis, "filter": wanted},
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
        "n_excluded": fit.n_excluded,
        "no_trend": fit.no_trend,
        "residuals": [float(r) for r in fit.residuals],
    }
    write_outputs(args.out, "rate-fit", {}, payload)
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
    # name -> (help, handler, takes --seed, takes --threads)
    specs = {
        "simulate": ("integrate the particle system, write position snapshots", _cmd_simulate, True, False),
        "bounds": ("evaluate closed-form and cascade bounds", _cmd_bounds, False, False),
        "noise-check": ("verify fractional noise covariance empirically", _cmd_noise_check, True, False),
        "kernel-probe": ("sample kernel values, divergence, and L^p growth", _cmd_kernel_probe, True, False),
        "rate-fit": ("fit a power law to an entropy CSV", _cmd_rate_fit, False, False),
        "run": ("full pipeline: simulate, estimate, bound, check", _cmd_run, True, True),
    }
    for name, (help_text, func, seeded, threaded) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default="chaoslab_out", help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if threaded:
            p.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None and not 0 <= args.seed < 2**64:
        print("error: --seed must be a u64", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except BlowupError as exc:
        print(f"simulation blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except ValueError as exc:  # ConfigError among them
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
