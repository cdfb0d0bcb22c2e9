"""Layer spans for the traced benchmark run, recorded from outside chaoslab.

The tracer wraps the calls that cross a module boundary: the names
``chaoslab.experiment`` and ``chaoslab.cli`` import, the ``DriftSpec`` and
``MeanFieldLaw`` methods, the drift callables ``build_drift`` hands to the
integrators, and ``sample_fbm_batch`` / ``volterra_inverse_apply`` as
imported by ``dynamics`` and ``measure``. Each call becomes a span
``[name, start, end, parent]`` kept in memory; the first component of the
name is the layer (the chaoslab module). Counts that must repeat exactly
(pair evaluations, particle steps, normals drawn, RNG streams) are taken
from call shapes and return values, never from timing.

``summarize`` turns spans and counts into the per-layer metrics. It does
not import chaoslab, so the parent process and the smoke test use it
without the program.
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
import time
from collections import defaultdict

LAYERS = ("core", "kernels", "noise", "dynamics", "measure", "bounds", "experiment", "cli")

# Counts compared between two traced runs of the same seed; they must agree
# bit for bit, so a change to any of them is a change in work, not noise.
EXACT_COUNTS = (
    "kernels.generic.pair_evals",
    "dynamics.particle_steps",
    "noise.fbm.normals",
    "core.rng.streams",
)


class Tracer:
    """In-memory span and counter store shared by every wrapper.

    Spans are kept column-wise in lists of strings, floats and ints, which
    the garbage collector does not track, so tens of thousands of spans add
    no collection work to the traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def spans(self) -> list[list]:
        return [list(span) for span in zip(self.names, self.starts, self.ends, self.parents)]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, after=None):
        """Wrap fn in a span. name is a string, or a function of the bound
        arguments returning the span name (None records no span). after
        receives (counts, bound arguments, result) once the call returns."""
        params = inspect.signature(fn).parameters
        names = list(params)
        defaults = {k: p.default for k, p in params.items() if p.default is not inspect.Parameter.empty}
        bind = callable(name) or after is not None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # cheaper than Signature.bind, which costs more than some kernels
            bound = {**defaults, **dict(zip(names, args)), **kwargs} if bind else None
            label = name(bound) if callable(name) else name
            if label is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            with tracer._lock:
                idx = len(tracer.names)
                tracer.names.append(label)
                tracer.starts.append(0.0)
                tracer.ends.append(0.0)
                tracer.parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.starts[idx] = start
                tracer.ends[idx] = end
            if after is not None:
                with tracer._lock:
                    after(tracer.counts, bound, result)
            return result

        return traced

    def count(self, key: str, fn):
        """Wrap fn so that every call adds one to counts[key]; no span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------


def _prod(shape) -> int:
    return math.prod(int(v) for v in shape)


def _pair_mean_name(a):
    return "kernels.pair_mean" if a["self"].pair_mean is not None else "kernels.generic"


def _pair_mean_after(counts, a, result):
    drift, states = a["self"], a["states"]
    if drift.pair_mean is None and drift.pair_state is not None:
        # the generic path evaluates the full n x n block plus the diagonal
        n = states.shape[-2]
        counts["kernels.generic.pair_evals"] += _prod(states.shape[:-2]) * (n * n + n)


def _generic_mf(a) -> bool:
    drift = a["self"]
    fast = drift.mf_drift is not None and a["summary"] is not None
    return drift.pair_state is not None and not fast


def _mean_field_name(a):
    # the summary fast path calls the drift's mf_drift, which has its own span
    return "kernels.generic" if _generic_mf(a) else None


def _mean_field_after(counts, a, result):
    if _generic_mf(a):
        counts["kernels.generic.pair_evals"] += _prod(a["x"].shape[:-1]) * a["ensemble_states"].shape[0]


def _steps_picard(counts, a, law):
    counts["dynamics.particle_steps"] += law.m * law.iters * law.grid.steps


def _steps_simulate(counts, a, ens):
    counts["dynamics.particle_steps"] += ens.replicas * ens.n * ens.grid.steps


def _steps_reference(counts, a, out):
    counts["dynamics.particle_steps"] += a["count"] * a["mean_field"].grid.steps


def _steps_weights(counts, a, gw):
    counts["dynamics.particle_steps"] += gw.replicas * gw.n * gw.grid.steps


def _fbm_after(counts, a, result):
    fell_back = result[2]
    counts["noise.fbm.calls"] += 1
    counts["noise.fbm.cholesky_fallbacks"] += int(fell_back)
    per_series = a["grid"].steps
    if a["method"] == "circulant" and not fell_back:
        per_series *= 2  # circulant embedding draws 2n normals per series
    counts["noise.fbm.normals"] += a["n_paths"] * a["d"] * per_series


def _ess_after(counts, a, rep):
    frac = rep.params["ess"] / rep.params["replicas"]
    key = "measure.girsanov.ess_frac"
    counts[key] = min(counts.get(key, math.inf), frac)


def _knn_after(counts, a, rep):
    counts["measure.knn.jittered"] += int(bool(rep.params["jittered"]))


def install(tracer: Tracer) -> None:
    """Patch chaoslab's module-boundary names in this process."""
    from chaoslab import cli, dynamics, experiment, measure
    from chaoslab.core import RngStream
    from chaoslab.dynamics import MeanFieldLaw
    from chaoslab.kernels import DriftSpec

    w = tracer.wrap

    cli._cmd_run = w(cli._cmd_run, "cli.run")
    cli.plan_from_dict = w(cli.plan_from_dict, "experiment.plan")
    cli.run_experiment = w(cli.run_experiment, "experiment.run")
    cli.write_result = w(cli.write_result, "experiment.write")
    experiment._point_rows = w(experiment._point_rows, "experiment.point")

    experiment.config_from_dict = w(experiment.config_from_dict, "core.config")
    for fn in ("constant_C", "estimate_beta", "hierarchy_ode_solve", "short_time_horizon", "theorem_bound"):
        setattr(experiment, fn, w(getattr(experiment, fn), f"bounds.{fn}"))
    experiment.solve_mckean_vlasov_picard = w(
        experiment.solve_mckean_vlasov_picard, "dynamics.picard", _steps_picard
    )
    experiment.simulate_particle_system = w(
        experiment.simulate_particle_system, "dynamics.simulate", _steps_simulate
    )
    experiment.sample_reference_marginals = w(
        experiment.sample_reference_marginals, "dynamics.reference", _steps_reference
    )
    experiment.extract_marginal = w(experiment.extract_marginal, "dynamics.extract_marginal")
    experiment.girsanov_weight = w(experiment.girsanov_weight, "measure.girsanov", _steps_weights)
    experiment.entropy_girsanov = w(experiment.entropy_girsanov, "measure.entropy_girsanov", _ess_after)
    experiment.entropy_knn = w(experiment.entropy_knn, "measure.knn", _knn_after)
    experiment.tv_histogram = w(experiment.tv_histogram, "measure.tv")
    experiment.pinsker_and_subadditivity_check = w(experiment.pinsker_and_subadditivity_check, "measure.checks")

    DriftSpec.pair_mean_generic = w(DriftSpec.pair_mean_generic, _pair_mean_name, _pair_mean_after)
    DriftSpec.mean_field_drift = w(DriftSpec.mean_field_drift, _mean_field_name, _mean_field_after)
    MeanFieldLaw.mean_drift_at = w(MeanFieldLaw.mean_drift_at, "dynamics.mean_drift_at")
    MeanFieldLaw.reference_drift_at = w(MeanFieldLaw.reference_drift_at, "dynamics.reference_drift_at")

    build_drift = dynamics.build_drift

    def traced_build_drift(config):
        # the integrators call the drift's summary callables directly
        drift = build_drift(config)
        if drift.mf_drift is not None:
            drift.mf_drift = w(drift.mf_drift, "kernels.mf_drift")
        if drift.mf_summary is not None:
            drift.mf_summary = w(drift.mf_summary, "kernels.mf_summary")
        return drift

    dynamics.build_drift = traced_build_drift

    for mod in (dynamics, measure):
        mod.sample_fbm_batch = w(mod.sample_fbm_batch, "noise.fbm", _fbm_after)
    measure.volterra_inverse_apply = w(measure.volterra_inverse_apply, "noise.volterra")

    RngStream.generator = tracer.count("core.rng.streams", RngStream.generator)


# ---------------------------------------------------------------------------
# Turning spans into metrics
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - union_length(children[i]) for i, (name, start, end, parent) in enumerate(spans)]


def summarize(spans, counts: dict, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (spans over all its configs)."""
    selfs = self_times(spans)
    by_name: dict[str, list] = defaultdict(list)
    by_layer: dict[str, list] = defaultdict(list)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for (name, start, end, parent), own in zip(spans, selfs):
        layer = name.split(".", 1)[0]
        by_name[name].append((start, end))
        by_layer[layer].append((start, end))
        self_by_name[name] += own
        self_by_layer[layer] += own

    def busy(name: str) -> float:
        return union_length(by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    points = by_name.get("experiment.point", ())
    covered = union_length([(s, e) for _, s, e, p in spans if p < 0])
    m = {
        "kernels.pair_mean.calls": calls("kernels.pair_mean"),
        "kernels.pair_mean.busy_s": busy("kernels.pair_mean"),
        "kernels.mf_drift.calls": calls("kernels.mf_drift"),
        "kernels.mf_drift.busy_s": busy("kernels.mf_drift"),
        "kernels.generic.pair_evals": counts.get("kernels.generic.pair_evals", 0),
        "kernels.generic.busy_s": busy("kernels.generic"),
        "dynamics.picard.busy_s": busy("dynamics.picard"),
        "dynamics.simulate.busy_s": busy("dynamics.simulate"),
        "dynamics.reference.busy_s": busy("dynamics.reference"),
        "dynamics.particle_steps": counts.get("dynamics.particle_steps", 0),
        "measure.girsanov.busy_s": busy("measure.girsanov"),
        "measure.girsanov.self_s": self_by_name["measure.girsanov"],
        "measure.girsanov.ess_frac": counts.get("measure.girsanov.ess_frac", math.nan),
        "measure.knn.calls": calls("measure.knn"),
        "measure.knn.busy_s": busy("measure.knn"),
        "measure.knn.jittered": counts.get("measure.knn.jittered", 0),
        "measure.tv.busy_s": busy("measure.tv"),
        "noise.fbm.calls": counts.get("noise.fbm.calls", 0),
        "noise.fbm.busy_s": busy("noise.fbm"),
        "noise.fbm.normals": counts.get("noise.fbm.normals", 0),
        "noise.fbm.cholesky_fallbacks": counts.get("noise.fbm.cholesky_fallbacks", 0),
        "noise.volterra.busy_s": busy("noise.volterra"),
        "bounds.busy_s": union_length(by_layer.get("bounds", ())),
        "experiment.point_max_s": max((e - s for s, e in points), default=0.0),
        "experiment.write_s": busy("experiment.write"),
        "experiment.points": len(points),
        "core.rng.streams": counts.get("core.rng.streams", 0),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.uncovered_frac": 1.0 - covered / traced_wall,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    return m
