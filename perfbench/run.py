"""The repository benchmark: one command, named workloads, checked outputs.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload ensemble_verify --seed 1 \
        --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics (see ``perfbench/layers.py``) plus the tracing overhead,
prints a self-time table and writes the traced spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed; a checkout without ``src/repro``
exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, procs  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

WORKLOAD_NAMES = ("ensemble_verify", "ensemble_screen", "scenario_fanout")
#: Child processes started to time set-up; their median is ``setup_s``.
SETUP_PROBES = 3

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "jobs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "completed_share": "ratio",
}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "spice.transient_s": "s", "spice.transient_calls": "count",
    "spice.steps": "count", "spice.steps_per_s": "1/s",
    "spice.newton_solves": "count", "spice.newton_iters_mean": "count",
    "spice.halvings": "count", "spice.recoveries": "count",
    "devices.ekv_calls": "count", "devices.ekv_s": "s",
    "sram.classify_s": "s", "sram.snm_s": "s",
    "traps.sample_s": "s", "traps.count": "count", "traps.tables_s": "s",
    "traps.table_bytes": "B",
    "engine.cache_hits": "count", "engine.cache_misses": "count",
    "markov.batch_s": "s", "markov.candidates": "count",
    "markov.accepted": "count", "markov.acceptance": "ratio",
    "markov.candidates_per_s": "1/s",
    "rtn.synthesis_s": "s", "rtn.samples": "count",
    "ensemble.clean_pass_s": "s", "ensemble.sampling_s": "s",
    "ensemble.kernels_s": "s", "ensemble.verification_s": "s",
    "ensemble.margins_s": "s", "ensemble.unattributed_s": "s",
    "scenario.execute_s": "s", "engine.jobs": "count",
    "engine.job_busy_s": "s", "engine.overhead_s": "s",
    "engine.queue_wait_s": "s", "engine.retries": "count",
    "engine.requeues": "count", "engine.respawns": "count",
    "cosim.ring_s": "s", "dram.trial_s": "s",
    "obs.tracing_overhead": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from starting a fresh interpreter until it has imported the
    pipeline and built the workload's inputs, once per probe."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.monotonic() - started
            probe.stdout.read()
            code = probe.wait(procs.CHILD_TIMEOUT)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples


# ----------------------------------------------------------------------
# Repetitions.

@dataclass
class Rep:
    """One measured repetition."""

    wall_s: float
    cpu_s: float
    check: object
    stray: int
    probe: object = None
    layer_values: dict = field(default_factory=dict)


def run_rep(workload, inputs, traced: bool, run_id: int = 0) -> Rep:
    """Prepare, time the pipeline call, reap workers, check the outputs."""
    workload.prepare(inputs)
    if not traced:
        cpu0, t0 = procs.cpu_seconds(), time.monotonic()
        raw = workload.call(inputs)
        wall = time.monotonic() - t0
        stray = procs.reap_children()
        cpu = procs.cpu_seconds() - cpu0
        return Rep(wall, cpu, workload.check(inputs, raw), stray)

    from repro import obs

    probe = layers.Probe(workload.targets, run_id=run_id)
    with obs.enable_tracing() as tracer:
        with probe:
            cpu0, t0 = procs.cpu_seconds(), time.monotonic()
            with probe.root():
                raw = workload.call(inputs)
            wall = time.monotonic() - t0
        stray = procs.reap_children()
        cpu = procs.cpu_seconds() - cpu0
        snapshot = obs.metrics().snapshot()
    layers.attach_phases(probe, tracer)
    check = workload.check(inputs, raw)
    counters = snapshot["counters"]
    check.counts.update(newton_solves=int(counters.get("newton.solves", 0)),
                        transient_steps=int(counters.get("transient.steps",
                                                         0)))
    nonfinite = probe.counts.get("rtn.nonfinite", 0) \
        + probe.counts.get("spice.nonfinite", 0)
    if nonfinite:
        check.problems.append(f"{nonfinite} non-finite RTN or SPICE samples")
    return Rep(wall, cpu, check, stray + probe.counts.get("stray", 0),
               probe=probe,
               layer_values=layers.layer_metrics(probe, check, snapshot))


def measure(workload, inputs, seconds: float, trace: bool) -> tuple:
    """Repeat until the next repetition would overrun ``seconds``.

    With ``trace``, untraced and traced repetitions alternate, and at least
    one of each runs.  Returns ``(untraced reps, traced reps)``.
    """
    untraced, traced = [], []
    started = time.monotonic()
    while True:
        turn = trace and len(traced) < len(untraced)
        reps = traced if turn else untraced
        reps.append(run_rep(workload, inputs, turn, run_id=len(reps)))
        if trace and not traced:
            continue
        typical = statistics.median(r.wall_s for r in untraced + traced)
        if time.monotonic() - started + typical > seconds:
            return untraced, traced


def end_to_end(untraced: list, setup: list) -> dict:
    """The end-to-end metrics from the untraced repetitions.

    Times are means over the run's repetitions and rates are totals over
    the run.  Every repetition of a run has the same inputs, so they differ
    only by the host's speed, which drifts smoothly over tens of seconds on
    a shared machine; over the handful of repetitions that fit in a run the
    mean spreads less from run to run than the median does.
    """
    attempted = sum(r.check.attempted for r in untraced)
    failed = sum(r.check.failed for r in untraced)
    wall = sum(r.wall_s for r in untraced)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall / len(untraced),
        "cells_per_s": attempted / wall,
        "jobs_per_s": attempted / wall,
        "cpu_s": sum(r.cpu_s for r in untraced) / len(untraced),
        "peak_rss_mb": procs.peak_rss_mb(),
        "completed_share": (attempted - failed) / attempted,
    }


def per_layer(untraced: list, traced: list) -> dict:
    """The per-layer metrics: medians over the traced repetitions."""
    metrics = {name: statistics.median(r.layer_values[name] for r in traced)
               for name in PER_LAYER if name != "obs.tracing_overhead"}
    metrics["obs.tracing_overhead"] = (
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in untraced) - 1.0)
    return metrics


def problems_of(reps: list) -> list:
    """Every failed check, plus outputs that differ between repetitions of
    the same inputs."""
    problems = [p for r in reps for p in r.check.problems]
    digests = {r.check.counts.get("digest") for r in reps}
    if len(digests) > 1:
        problems.append(f"repetitions disagree: digests {sorted(digests)}")
    return problems


def print_table(title: str, rows: list) -> None:
    print(title)
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


def report(workload, inputs, seconds: float, trace: bool, setup: list,
           seed: int) -> tuple:
    """Run the repetitions and build the result object; returns it with
    the exit code."""
    untraced, traced = measure(workload, inputs, seconds, trace)
    reps = untraced + traced
    problems = problems_of(reps)
    attempted = sum(r.check.attempted for r in reps)
    failed = sum(r.check.failed for r in reps)

    counts = dict(reps[0].check.counts)
    if traced:
        counts.update(traced[0].check.counts)
    print(f"{workload.name} seed {seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced repetitions")
    print("exact counts: " + json.dumps(counts, sort_keys=True))
    print("wall per repetition [s]: untraced "
          + " ".join(f"{r.wall_s:.3f}" for r in untraced)
          + (" / traced " + " ".join(f"{r.wall_s:.3f}" for r in traced)
             if traced else ""))
    stray = sum(r.stray for r in reps)
    if stray:
        print(f"stray worker processes stopped by the benchmark: {stray}")

    if trace:
        from repro.obs import validate_chrome_trace

        metrics, units = per_layer(untraced, traced), PER_LAYER
        table = layers.self_time_table(traced[-1].probe)
        print_table("self time per layer (last traced repetition)",
                    [[f"{name:<24}", f"{row['calls']:>8}",
                      f"{row['total_s']:10.4f} s", f"{row['self_s']:10.4f} s"]
                     for name, row in sorted(table.items())])
        document = layers.chrome_trace([r.probe for r in traced])
        document["otherData"].update(workload=workload.name, seed=seed,
                                     self_time=table)
        trace_problems = validate_chrome_trace(document)
        problems.extend(f"trace: {p}" for p in trace_problems)
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{workload.name}-seed{seed}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        print(f"trace written to {path.relative_to(ROOT)}")
    else:
        metrics, units = end_to_end(untraced, setup), END_TO_END
        failed_share = sum(r.check.failed for r in untraced) \
            / sum(r.check.attempted for r in untraced)
        print(f"failed_share: {failed_share} ratio "
              f"(reported as completed_share = 1 - failed_share)")
    print_table("metrics", [[f"{name:<26}", repr(value), units[name]]
                            for name, value in metrics.items()])
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.build(args.seed)
        print("ready", flush=True)
        return 0
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    inputs = workload.build(args.seed)
    result, code = report(workload, inputs, args.seconds, bool(args.trace),
                          setup, args.seed)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
