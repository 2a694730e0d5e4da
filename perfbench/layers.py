"""Per-layer tracing done from outside the program.

A :class:`Probe` replaces the public functions of each layer, as the
pipeline looks them up, with wrappers that time every call and keep a span
(name, start, end, parent) in memory.  Nothing under ``src/`` is changed:
the wrappers are installed on entry and the originals restored on exit.
Device evaluations are far too many for one span each, so ``devices.ekv``
is aggregated into a call count and a time, charged to whichever span is
open when it runs.

After a traced repetition, :func:`layer_metrics` turns the spans, the
counts taken from returned arrays and the counters the program exports
(``repro.obs`` metrics, ``EnsembleResult.timings``, ``ScenarioRun``) into
the benchmark's per-layer metrics; :func:`self_time_table` gives each
layer's self time, including the time of each ensemble phase that no
wrapped layer accounts for; :func:`chrome_trace` writes the spans in the
Chrome ``trace_event`` format.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager

import numpy as np

from perfbench import procs

#: Layer name -> the (module, attribute) bindings the pipeline calls it
#: through.  ``Class.method`` patches the class attribute.
BINDINGS = {
    "spice.transient": (("repro.core.ensemble", "simulate_transient"),),
    "devices.ekv": (("repro.spice.elements", "drain_current_derivatives"),),
    "sram.classify": (("repro.sram.detectors", "classify_operations"),),
    "sram.snm": (("repro.sram.margins", "static_noise_margin"),),
    "traps.sample": (("repro.traps.profiling", "TrapProfiler.sample"),),
    "engine.cache": (("repro.core.engine",
                      "PropensityTableCache.population"),),
    "traps.tables": (("repro.traps.propensity", "population_propensity"),
                     ("repro.core.ensemble", "population_propensity")),
    "markov.batch": (("repro.core.ensemble", "simulate_traps_batch"),),
    "rtn.synthesis": (("repro.core.ensemble", "number_filled"),
                      ("repro.core.ensemble", "rtn_current_samples")),
    "scenario.run": (("repro.core.ensemble", "run_scenario"),
                     ("repro.core.scenario", "run_scenario")),
}

#: The aggregated (span-less) layer.
AGGREGATED = "devices.ekv"

#: ``EnsembleRunner`` phases, as exported in ``EnsembleResult.timings`` and
#: as ``ensemble.<phase>`` spans of the ``repro.obs`` tracer.
ENSEMBLE_PHASES = ("clean_pass", "sampling", "kernels", "verification",
                   "margins")

ROOT = "bench.rep"
#: Self-time row: the ensemble phases' time outside every wrapped layer.
UNATTRIBUTED = "ensemble.unattributed"

# Span record fields (a list per span keeps recording cheap).
NAME, START, END, PARENT, AGG, ARGS = range(6)

clock = time.monotonic  # the timebase of repro.obs.clock.monotonic


def _resolve(module_name: str, attribute: str):
    """(owner, attribute name, current value) of one binding."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


class Probe:
    """Wraps the named layers for one traced repetition."""

    def __init__(self, layers, run_id: int = 0) -> None:
        self.layers = tuple(layers)
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.scenario_runs: list = []
        self._saved: list = []

    # -- recording -----------------------------------------------------
    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name: str, **args) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock(), None, parent, 0.0, args])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][END] = clock()
        self.stack.pop()

    @contextmanager
    def root(self):
        """The span of the timed pipeline call."""
        index = self._open(ROOT, run=self.run_id)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, layer: str, attribute: str, fn):
        probe = self
        observe = _OBSERVERS.get(attribute.split(".")[-1])
        if layer == AGGREGATED:
            def aggregated(*args, **kwargs):
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - started
                    probe.counts["devices.ekv_calls"] = \
                        probe.counts.get("devices.ekv_calls", 0) + 1
                    probe.spans[probe.stack[-1]][AGG] += elapsed
            return aggregated

        def wrapper(*args, **kwargs):
            before = _engine_totals() if layer == "scenario.run" else None
            index = probe._open(layer)
            try:
                result = fn(*args, **kwargs)
                if before is not None:
                    probe.add("stray", procs.reap_children())
            finally:
                probe._close(index)
            if observe is not None:
                observe(probe, result, index, before)
            return result
        return wrapper

    # -- install / restore ---------------------------------------------
    def __enter__(self) -> "Probe":
        for layer in self.layers:
            for module_name, attribute in BINDINGS[layer]:
                owner, name, original = _resolve(module_name, attribute)
                self._saved.append((owner, name, original))
                fn = getattr(owner, name)
                setattr(owner, name, self._wrap(layer, attribute, fn))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# Counts taken from the values the wrapped functions return.

def _engine_totals() -> tuple:
    """(engine queue wait so far, CPU seconds of reaped workers)."""
    from repro import obs

    return (obs.metrics().histogram("jobs.queue_wait_s").total,
            procs.children_cpu_seconds())


def _on_sample(probe, traps, index, before) -> None:
    probe.add("traps.count", len(traps))


def _on_tables(probe, batch, index, before) -> None:
    probe.add("traps.table_bytes", int(batch.times.nbytes
                                       + batch.capture.nbytes
                                       + batch.emission.nbytes))


def _on_batch(probe, result, index, before) -> None:
    _, stats = result
    probe.add("markov.candidates", stats.total_candidates)
    probe.add("markov.accepted", stats.total_accepted)


def _on_current(probe, current, index, before) -> None:
    current = np.asarray(current)
    probe.add("rtn.samples", int(current.size))
    probe.add("rtn.nonfinite", int(current.size
                                   - np.count_nonzero(np.isfinite(current))))


def _on_transient(probe, waveform, index, before) -> None:
    bad = sum(int(np.size(waveform[name])
                  - np.count_nonzero(np.isfinite(waveform[name])))
              for name in waveform.signals)
    probe.add("spice.nonfinite", bad)


def _on_scenario(probe, run, index, before) -> None:
    """Keep the run and its busy time: the summed job times on the serial
    backend, the CPU time of the reaped workers on a pool, whose per-job
    times start at submission and so include queueing."""
    queue_wait, worker_cpu = (now - then for now, then
                              in zip(_engine_totals(), before))
    if run.backend == "serial":
        busy = sum(result.elapsed for result in run.results)
    else:
        busy = worker_cpu
    probe.scenario_runs.append((run, busy))
    probe.spans[index][ARGS].update(scenario=run.scenario,
                                    queue_wait_s=queue_wait)


_OBSERVERS = {
    "sample": _on_sample,
    "population_propensity": _on_tables,
    "simulate_traps_batch": _on_batch,
    "rtn_current_samples": _on_current,
    "simulate_transient": _on_transient,
    "run_scenario": _on_scenario,
}


# ----------------------------------------------------------------------
# Attribution.

def attach_phases(probe: Probe, tracer) -> None:
    """Insert the ``ensemble.<phase>`` spans of the ``repro.obs`` tracer
    into the probe's tree, under the root, and move every top-level layer
    span that falls inside a phase under that phase."""
    if not probe.spans:
        return
    root = 0
    phases = []
    for record in tracer.records:
        name = record.name
        if record.duration is None or not name.startswith("ensemble.") \
                or name.split(".", 1)[1] not in ENSEMBLE_PHASES:
            continue
        start = tracer.epoch + record.start
        probe.spans.append([name, start, start + record.duration, root,
                            0.0, {"run": probe.run_id}])
        phases.append(len(probe.spans) - 1)
    slack = 1e-6
    for span in probe.spans:
        if span[PARENT] != root or span[NAME].startswith("ensemble."):
            continue
        for phase in phases:
            if probe.spans[phase][START] - slack <= span[START] \
                    and span[END] <= probe.spans[phase][END] + slack:
                span[PARENT] = phase
                break


def self_times(probe: Probe) -> list:
    """Per-span self time: duration minus child spans and aggregated time."""
    child = [0.0] * len(probe.spans)
    for span in probe.spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] - span[AGG]
            for i, span in enumerate(probe.spans)]


def self_time_table(probe: Probe) -> dict:
    """Layer -> {calls, total_s, self_s}, with ``devices.ekv`` and the
    ``ensemble.unattributed`` remainder of the ensemble phases."""
    table: dict = {}
    for span, own in zip(probe.spans, self_times(probe)):
        row = table.setdefault(span[NAME],
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
    ekv = sum(span[AGG] for span in probe.spans)
    if probe.counts.get("devices.ekv_calls"):
        table[AGGREGATED] = {"calls": probe.counts["devices.ekv_calls"],
                             "total_s": ekv, "self_s": ekv}
    phases = [table[f"ensemble.{phase}"] for phase in ENSEMBLE_PHASES
              if f"ensemble.{phase}" in table]
    if phases:
        unattributed = sum(row["self_s"] for row in phases)
        table[UNATTRIBUTED] = {"calls": len(phases), "total_s": unattributed,
                               "self_s": unattributed}
    return table


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(probe: Probe, check, snapshot: dict) -> dict:
    """The per-layer metrics of one traced repetition.

    ``check`` is the repetition's :class:`~perfbench.workloads.Check`
    (phase timings, cache counters, worker count); ``snapshot`` the
    ``repro.obs`` metrics snapshot taken at its end.
    """
    table = self_time_table(probe)
    counts = probe.counts
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})

    def total(layer: str) -> float:
        return table.get(layer, {}).get("total_s", 0.0)

    def calls(layer: str) -> int:
        return table.get(layer, {}).get("calls", 0)

    metrics = {}
    transient_s = total("spice.transient")
    steps = counters.get("transient.steps", 0.0)
    metrics.update({
        "spice.transient_s": transient_s,
        "spice.transient_calls": calls("spice.transient"),
        "spice.steps": steps,
        "spice.steps_per_s": _ratio(steps, transient_s),
        "spice.newton_solves": counters.get("newton.solves", 0.0),
        "spice.newton_iters_mean":
            histograms.get("newton.iterations", {}).get("mean", 0.0),
        "spice.halvings": counters.get("transient.halvings", 0.0),
        "spice.recoveries": counters.get("newton.recoveries", 0.0),
        "devices.ekv_calls": counts.get("devices.ekv_calls", 0),
        "devices.ekv_s": total(AGGREGATED),
        "sram.classify_s": total("sram.classify"),
        "sram.snm_s": total("sram.snm"),
        "traps.sample_s": total("traps.sample"),
        "traps.count": counts.get("traps.count", 0),
        "traps.tables_s": total("traps.tables"),
        "traps.table_bytes": counts.get("traps.table_bytes", 0),
        "engine.cache_hits": check.cache.get("hits", 0),
        "engine.cache_misses": check.cache.get("misses", 0),
    })
    batch_s = total("markov.batch")
    candidates = counts.get("markov.candidates", 0)
    accepted = counts.get("markov.accepted", 0)
    metrics.update({
        "markov.batch_s": batch_s,
        "markov.candidates": candidates,
        "markov.accepted": accepted,
        "markov.acceptance": _ratio(accepted, candidates),
        "markov.candidates_per_s": _ratio(candidates, batch_s),
        "rtn.synthesis_s": total("rtn.synthesis"),
        "rtn.samples": counts.get("rtn.samples", 0),
    })
    for phase in ENSEMBLE_PHASES:
        metrics[f"ensemble.{phase}_s"] = check.timings.get(phase, 0.0)
    metrics["ensemble.unattributed_s"] = total(UNATTRIBUTED)

    execute = sum(run.timings["execute"] for run, _ in probe.scenario_runs)
    busy = {}
    for run, seconds in probe.scenario_runs:
        busy[run.scenario] = busy.get(run.scenario, 0.0) + seconds
    job_busy = sum(busy.values())
    queue = histograms.get("jobs.queue_wait_s", {}).get("total", 0.0)
    metrics.update({
        "scenario.execute_s": execute,
        "engine.jobs": sum(run.n_jobs for run, _ in probe.scenario_runs),
        "engine.job_busy_s": job_busy,
        "engine.overhead_s": check.workers * execute - job_busy,
        "engine.queue_wait_s": queue,
        "engine.retries": sum(result.attempts - 1
                              for run, _ in probe.scenario_runs
                              for result in run.results),
        "engine.requeues": counters.get("jobs.requeues", 0.0),
        "engine.respawns": counters.get("jobs.pool_respawns", 0.0),
        "cosim.ring_s": busy.get("oscillators.ring", 0.0),
        "dram.trial_s": busy.get("dram.retention", 0.0),
    })
    return metrics


def chrome_trace(probes: list) -> dict:
    """The spans of every traced repetition as a Chrome ``trace_event``
    document; ``args`` carry the span id, its parent's id and the run id."""
    starts = [probe.spans[0][START] for probe in probes if probe.spans]
    origin = min(starts) if starts else 0.0
    events = []
    pid = os.getpid()
    for probe in probes:
        for index, span in enumerate(probe.spans):
            parent = span[PARENT]
            args = dict(span[ARGS])
            args.update(id=f"{probe.run_id}.{index}", run=probe.run_id,
                        parent=f"{probe.run_id}.{parent}" if parent >= 0
                        else None)
            if span[AGG]:
                args["devices.ekv_s"] = span[AGG]
            events.append({
                "name": span[NAME], "cat": span[NAME].split(".")[0],
                "ph": "X", "ts": round((span[START] - origin) * 1e6, 3),
                "dur": round((span[END] - span[START]) * 1e6, 3),
                "pid": pid, "tid": probe.run_id, "args": args})
    events.sort(key=lambda event: event["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"producer": "perfbench"}}
