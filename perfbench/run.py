#!/usr/bin/env python3
"""chaoslab benchmark: full `chaoslab run` sweeps, timed from outside.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload is one or more plans run through ``chaoslab.cli.main(["run",
...])`` in a fresh process (perfbench/child.py), with the seed substituted
into every plan. The program is the ``src/`` tree of the checkout that holds
this directory; nothing is installed.

--trace 0 reports the end-to-end metrics. Set-up (interpreter start,
``import chaoslab.cli``, plan parsing and validation) is timed as a whole
process, once to warm the bytecode cache and then SETUP_REPEATS times. Then
runs at --threads 1 repeat while the next one still fits in --seconds (at
least one run).

--trace 1 reports the per-layer metrics: one untraced run at --threads 1,
one at --threads 2, and two traced runs at --threads 1 (see
perfbench/tracing.py). The exact counts must agree between the two traced
runs, and the particle-step count must equal the one derived from the plan.

Correctness gate, on every invocation: every run writes the same
entropy/bounds/checks/horizons CSVs byte for byte as the first run (repeats
at --threads 1, and in a traced invocation the --threads 2 run and the
traced runs), and at the default seed their sha256 must equal
perfbench/pins.json when the Python, numpy and scipy versions and the CPU
count equal the pinned ones; otherwise the mismatch is reported as an
environment change. An operation is one sweep point of the workload's
plans; every run repeats the same points, so the count does not depend on
how many runs fit in --seconds. A point fails if, in any run, it records an
error, one of its checks.csv rows fails, or its run fails the gate.
``ops_failed_frac`` is ``failed / attempted`` in the last line.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. ``--pin`` rewrites the workload's pins from this run (default seed
only). Exit status 2 means the checkout has no program or inputs to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
TRACED_RUNS = 2
DEADLINE_S = 170.0

# Why each workload is here, and the layer it loads, is recorded in
# BENCHMARK.json. The shipped configs are read from the checkout; the
# generic-path config belongs to the benchmark because no shipped config
# reaches the O(n^2) pair path or the O(m b) ensemble mean field.
WORKLOADS = {
    "torus_sweep": ["scripts/configs/smooth_torus.json"],
    "linear_sweep": ["scripts/configs/linear_growth.json"],
    "fractional_pair": ["scripts/configs/fractional_h030.json", "scripts/configs/fractional_h075.json"],
    "generic_pair": ["perfbench/configs/generic_pair.json"],
}

END_TO_END = {
    "wall_s": "s",
    "particle_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    name: ("s" if name.endswith("_s") else "fraction" if name.endswith("_frac") else "count")
    for name in [
        "kernels.pair_mean.calls",
        "kernels.pair_mean.busy_s",
        "kernels.mf_drift.calls",
        "kernels.mf_drift.busy_s",
        "kernels.generic.pair_evals",
        "kernels.generic.busy_s",
        "dynamics.picard.busy_s",
        "dynamics.simulate.busy_s",
        "dynamics.reference.busy_s",
        "dynamics.particle_steps",
        "measure.girsanov.busy_s",
        "measure.girsanov.self_s",
        "measure.girsanov.ess_frac",
        "measure.knn.calls",
        "measure.knn.busy_s",
        "measure.knn.jittered",
        "measure.tv.busy_s",
        "noise.fbm.calls",
        "noise.fbm.busy_s",
        "noise.fbm.normals",
        "noise.fbm.cholesky_fallbacks",
        "noise.volterra.busy_s",
        "bounds.busy_s",
        "experiment.point_max_s",
        "experiment.write_s",
        "experiment.threads2_wall_s",
        "experiment.points",
        "core.rng.streams",
        "trace.overhead_frac",
        "trace.uncovered_frac",
    ]
    + [f"{layer}.self_s" for layer in tracing.LAYERS]
}

CSV_NAMES = ("entropy.csv", "bounds.csv", "checks.csv", "horizons.csv")
# `chaoslab run` uses every estimator unless the plan names its own
ESTIMATORS = ("girsanov", "knn", "histogram_tv")


class BenchError(RuntimeError):
    """The harness could not measure (missing program, crashed child)."""


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class Plan:
    """One workload config with the seed substituted, written for the child."""

    def __init__(self, source: Path, seed: int, plans_dir: Path):
        try:
            data = json.loads(source.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise BenchError(f"cannot read workload config {source}: {exc}") from exc
        data["base"]["seed"] = seed
        self.stem = source.stem
        self.path = plans_dir / source.name
        self.path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        self.points = list(data["sweep"]["n"])
        self.particle_steps = _plan_particle_steps(data)


def _plan_particle_steps(data: dict) -> int:
    """Particle-steps integrated by `chaoslab run` on this plan: Picard,
    weights, simulate and reference, as the pipeline schedules them. Every
    workload drift is interacting, so Picard runs all its iterates."""
    base = data["base"]
    steps, replicas = base["grid"]["steps"], base["replicas"]
    sweep = data["sweep"]
    estimators = data.get("estimators", ESTIMATORS)
    picard = data.get("picard", {})
    m, iters = picard.get("m", 10_000), picard.get("iters", 3)
    samples = data.get("knn", {}).get("samples", 10_000)
    total = 0
    for n in sweep["n"]:
        total += m * iters * steps
        if "girsanov" in estimators:
            total += replicas * n * steps
        if "knn" in estimators or "histogram_tv" in estimators:
            max_k = max(k for k in sweep.get("k", [1]) if k <= n)
            total += replicas * n * steps + samples * max_k * steps
    return total


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


class Runner:
    """Starts children with the checkout's src/ on the path, under a deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        # bytecode is written, as an installed package has it, so that the
        # warm-up set-up fills the cache whatever the caller's environment
        dropped = ("PYTHONPATH", "CHAOSLAB_THREADS", "PYTHONDONTWRITEBYTECODE")
        self.env = {k: v for k, v in os.environ.items() if k not in dropped}
        self.env["PYTHONPATH"] = str(SRC)
        self._seq = 0

    def spawn(self, args: list[str]) -> tuple[float, float]:
        """Run child.py with args; (wall seconds, peak RSS in MB)."""
        self._seq += 1
        log_path = self.work / f"child{self._seq}.log"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next run")
        cmd = [sys.executable, str(HERE / "child.py"), args[0], str(SRC), *args[1:]]
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"child {args[0]} exited with {proc.returncode}:\n{tail}")
        return wall, usage.ru_maxrss / 1024.0

    def run(self, mode: str, threads: int, plans: list[Plan]) -> dict:
        """One pipeline process over every plan; its result and outputs."""
        self._seq += 1
        out_root = self.work / f"run{self._seq}"
        result_path = self.work / f"run{self._seq}.json"
        _, rss = self.spawn(
            [mode, str(result_path), str(threads), str(out_root), *(str(p.path) for p in plans)]
        )
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result.update(wall=sum(result["walls"]), rss=rss, out=out_root, threads=threads, mode=mode)
        return result


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def _csvs(out_dir: Path) -> dict[str, bytes]:
    out = {}
    for name in CSV_NAMES:
        path = out_dir / name
        out[name] = path.read_bytes() if path.is_file() else b""
    return out


def _sha(csvs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in csvs.items()}


def _failed_points(out_dir: Path, code: int, points: list[int]) -> set[int]:
    """Sweep points of one config run that recorded an error or a failing
    check row; every point when the run exited nonzero without saying why."""
    failed: set[int] = set()
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        failed |= {int(err["n"]) for err in manifest.get("errors", [])}
        checks = (out_dir / "checks.csv").read_text(encoding="utf-8").splitlines()
    except (OSError, json.JSONDecodeError):
        return set(points)
    header = checks[0].split(",") if checks else []
    if "passed" not in header or "n" not in header:
        return set(points)
    for line in checks[1:]:
        row = dict(zip(header, line.split(",")))
        if row["passed"] != "true":
            failed.add(int(row["n"]))
    if code != 0 and not failed:
        return set(points)
    return failed


class Gate:
    """Compares every run's CSVs with the first run's and with the pins."""

    def __init__(self, workload: str, seed: int, plans: list[Plan], check_pins: bool = True):
        self.workload = workload
        self.seed = seed
        self.plans = plans
        self.check_pins = check_pins
        self.runs: list[dict] = []
        self.notes: list[str] = []
        self.correct = True

    def add(self, run: dict) -> None:
        self.runs.append(run)

    def evaluate(self) -> tuple[int, int]:
        """(attempted, failed) sweep points, a point failing if it fails in
        any run; sets correct and notes."""
        reference = {p.stem: _csvs(self.runs[0]["out"] / p.stem) for p in self.plans}
        bad_config: set[str] = set()
        for p in self.plans:
            if not all(reference[p.stem].values()):
                self.fail(f"{p.stem}: the first run wrote no complete CSV set")
                bad_config.add(p.stem)
        pin_bad = self._check_pins(reference) if self.check_pins else set()
        failed: set[tuple[str, int]] = set()
        for run in self.runs:
            for p, code in zip(self.plans, run["codes"]):
                out_dir = run["out"] / p.stem
                if _csvs(out_dir) != reference[p.stem]:
                    self.fail(f"{p.stem}: CSVs at --threads {run['threads']} ({run['mode']}) differ from the first run")
                    bad = set(p.points)
                elif p.stem in bad_config or p.stem in pin_bad:
                    bad = set(p.points)
                else:
                    bad = _failed_points(out_dir, code, p.points)
                failed |= {(p.stem, n) for n in bad}
        return sum(len(p.points) for p in self.plans), len(failed)

    def _check_pins(self, reference: dict) -> set[str]:
        if self.seed != DEFAULT_SEED:
            self.notes.append(f"seed {self.seed} is not the default {DEFAULT_SEED}: sha256 pins not applied")
            return set()
        pins = _load_pins()
        env = self.runs[0]["env"]
        pinned = pins.get("workloads", {}).get(self.workload)
        if pinned is None:
            self.fail(f"no sha256 pins for {self.workload} in {PINS.name}")
            return {p.stem for p in self.plans}
        if env != pins.get("environment"):
            self.notes.append(f"environment change: pins made on {pins.get('environment')}, this run on {env}")
        bad = set()
        for p in self.plans:
            got = _sha(reference[p.stem])
            if got == pinned.get(p.stem):
                continue
            if env == pins.get("environment"):
                self.fail(f"{p.stem}: CSV sha256 differ from the pins")
                bad.add(p.stem)
            else:
                self.notes.append(f"{p.stem}: CSV sha256 differ from the pins under a different environment")
        if not bad and env == pins.get("environment"):
            self.notes.append("CSV sha256 match the pins")
        return bad

    def fail(self, message: str) -> None:
        self.correct = False
        self.notes.append("FAIL " + message)


def _load_pins() -> dict:
    try:
        return json.loads(PINS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def write_pins(workload: str, gate: Gate) -> None:
    pins = _load_pins()
    pins["environment"] = gate.runs[0]["env"]
    pins["seed"] = DEFAULT_SEED
    pins.setdefault("workloads", {})[workload] = {
        p.stem: _sha(_csvs(gate.runs[0]["out"] / p.stem)) for p in gate.plans
    }
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure_end_to_end(runner: Runner, gate: Gate, plans: list[Plan], seconds: float) -> dict:
    plan_paths = [str(p.path) for p in plans]
    start = time.perf_counter()
    runner.spawn(["setup", *plan_paths])  # fills the bytecode cache
    setup = [runner.spawn(["setup", *plan_paths])[0] for _ in range(SETUP_REPEATS)]
    runs = []
    while True:
        run_start = time.perf_counter()
        runs.append(runner.run("run", 1, plans))
        now = time.perf_counter()
        if now - start + (now - run_start) > seconds:
            break
    for run in runs:
        gate.add(run)
    gate.notes.append(f"medians of {len(runs)} run(s) at --threads 1 and {len(setup)} set-ups")
    wall = statistics.median(r["wall"] for r in runs)
    return {
        "wall_s": wall,
        "particle_steps_per_s": sum(p.particle_steps for p in plans) / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["rss"] for r in runs),
    }


def measure_layers(runner: Runner, gate: Gate, plans: list[Plan]) -> dict:
    untraced = {threads: runner.run("run", threads, plans) for threads in (1, 2)}
    traced = [runner.run("trace", 1, plans) for _ in range(TRACED_RUNS)]
    for run in [*untraced.values(), *traced]:
        gate.add(run)
    for key in tracing.EXACT_COUNTS:
        values = [r["counts"].get(key, 0) for r in traced]
        if len(set(values)) != 1:
            gate.fail(f"{key} does not repeat across traced runs: {values}")
    plan_steps = sum(p.particle_steps for p in plans)
    traced_steps = traced[0]["counts"].get("dynamics.particle_steps", 0)
    if traced_steps != plan_steps:
        gate.fail(f"traced particle steps {traced_steps} differ from the plan's {plan_steps}")

    summaries = [tracing.summarize(r["spans"], r["counts"], r["wall"], untraced[1]["wall"]) for r in traced]
    metrics = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    metrics["experiment.threads2_wall_s"] = untraced[2]["wall"]
    wall = statistics.median(r["wall"] for r in traced)
    shares = sorted(((metrics[f"{layer}.self_s"] / wall, layer) for layer in tracing.LAYERS), reverse=True)
    gate.notes.append("layer self-time shares: " + ", ".join(f"{layer} {share:.1%}" for share, layer in shares))
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, pin: bool) -> dict:
    missing = [path for path in ["src/chaoslab/__init__.py", *WORKLOADS[workload]] if not (ROOT / path).is_file()]
    if missing:
        raise BenchError(f"nothing to run: missing {', '.join(missing)} under {ROOT}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        plans_dir = work / "plans"
        plans_dir.mkdir()
        plans = [Plan(ROOT / src, seed, plans_dir) for src in WORKLOADS[workload]]
        runner = Runner(work, time.monotonic() + DEADLINE_S)
        gate = Gate(workload, seed, plans, check_pins=not pin)
        if trace:
            metrics = measure_layers(runner, gate, plans)
        else:
            metrics = measure_end_to_end(runner, gate, plans, seconds)
        attempted, failed = gate.evaluate()
        if pin and gate.correct:
            write_pins(workload, gate)
            gate.notes.append(f"pins for {workload} written to {PINS.name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "correct": gate.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "notes": gate.notes,
    }


def report(res: dict) -> None:
    print(f"== {res['workload']} (seed {res['seed']})")
    for name, m in res["metrics"].items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'ops_failed_frac':<30} {frac:>16.6g} ({res['failed']}/{res['attempted']} sweep points)")
    for note in res["notes"]:
        print(f"  {note}")
    print(f"  correct: {res['correct']}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0, help="time budget of one measurement")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="rewrite this workload's sha256 pins (default seed)")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be a u64")
    if args.pin and args.seed != DEFAULT_SEED:
        ap.error(f"pins are made at the default seed {DEFAULT_SEED}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [measure(name, args.seed, args.seconds, bool(args.trace), args.pin) for name in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for res in results:
        report(res)
    if args.workload == "all":
        metrics = {res["workload"]: res["metrics"] for res in results}
    else:
        metrics = results[0]["metrics"]
    summary = {
        "correct": all(res["correct"] for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": metrics,
    }
    print(json.dumps(summary, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
