"""The benchmark's workloads: inputs made from the seed, the pipeline call, and
the output checks.

Each workload splits one repetition into three steps so that ``run.py`` owns
all timing:

- ``prepare`` resets state a fresh ``repro`` process would not have (the
  process-wide propensity-table cache);
- ``call`` is the timed pipeline call;
- ``check`` validates the outputs, counts attempted and failed cells or jobs,
  and reduces the outputs to exact counts plus a digest, so a speed-only
  change can be shown to leave the simulation bit-identical.

The program only ever sees the configs built here; the seed never reaches it
except through them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

# ensemble_verify: Fig.-8 pattern at x30, every cell through injected SPICE.
VERIFY_CELLS = 2
# ensemble_screen: sized so peak RSS stays near 1 GB (about 10 MB per cell
# of propensity tables and traces), well under a shared 8 GB machine.
SCREEN_CELLS = 96
RTN_SCALE = 30.0
# scenario_fanout: four trap-coupled ring co-simulations (a few heavy jobs)
# next to many millisecond DRAM retention trials (dispatch-bound); sized so
# the two parts take comparable wall time on 2 cores.
RING_STAGES = (3, 5, 7, 9)
RING_T_STOP = 1.0e-9
RING_DT = 3e-12
RING_RTN_SCALE = 150.0
DRAM_TRIALS = 1000

#: Job statuses that count as a failed cell or job.
FAILED_STATUSES = ("failed", "timeout")


def derive_seed(seed: int, *tags) -> int:
    """A 63-bit seed for one input stream, derived from the workload seed.

    BLAKE2b over the root seed and tags: independent of the program's own
    seeding helpers, so a change to those cannot silently change the inputs.
    """
    digest = hashlib.blake2b(repr((int(seed),) + tags).encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def digest_of(items) -> str:
    """Short BLAKE2b digest of a JSON-serialisable verdict list."""
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=12).hexdigest()


@dataclass
class Check:
    """The checked outcome of one repetition."""

    attempted: int
    failed: int
    problems: list
    counts: dict
    timings: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    workers: int = 1


@dataclass(frozen=True)
class Workload:
    """One named workload; ``targets`` name the layers the trace wraps."""

    name: str
    build: Callable
    prepare: Callable
    call: Callable
    check: Callable
    targets: tuple


# ----------------------------------------------------------------------
# Ensemble workloads (EnsembleRunner, serial backend).

@dataclass(frozen=True)
class EnsembleInputs:
    config: object
    rng_seed: int
    verify: bool


def ensemble_inputs(seed: int, name: str, n_cells: int,
                    verify: bool) -> EnsembleInputs:
    """The EnsembleConfig of an ensemble workload.

    ``verify`` forces every cell through injected SPICE
    (``screen_threshold=0``, ``max_verified_cells=n_cells``) so that a
    change to the screen cannot change the SPICE work; otherwise no cell
    is verified and SPICE runs only the clean pass.
    """
    from repro.core.ensemble import EnsembleConfig
    from repro.core.experiments import fig8_pattern
    from repro.sram.cell import SramCellSpec

    if verify:
        screen = dict(screen_threshold=0.0, max_verified_cells=n_cells)
    else:
        screen = dict(max_verified_cells=0)
    config = EnsembleConfig(n_cells=n_cells, spec=SramCellSpec(),
                            pattern=fig8_pattern(), rtn_scale=RTN_SCALE,
                            backend="serial", **screen)
    return EnsembleInputs(config=config,
                          rng_seed=derive_seed(seed, name, "rng"),
                          verify=verify)


def _clear_table_cache(inputs) -> None:
    from repro.core.engine import propensity_cache

    propensity_cache().clear()


def _run_ensemble(inputs: EnsembleInputs):
    import numpy as np
    from repro.core.ensemble import EnsembleRunner

    return EnsembleRunner(inputs.config).run(
        np.random.default_rng(inputs.rng_seed))


def check_ensemble(inputs: EnsembleInputs, result) -> Check:
    """Every cell ok/recovered, every requested cell verified, finite
    screen metrics (a NaN trace turns its cell ``failed``), a clean nominal
    pass, and a cold propensity-table cache."""
    from repro.core.engine import propensity_cache

    config = inputs.config
    cache = propensity_cache().info()
    problems = []
    outcomes = result.outcomes
    if len(outcomes) != config.n_cells:
        problems.append(f"{len(outcomes)} outcomes for {config.n_cells} cells")
    failed = [o.index for o in outcomes if o.status in FAILED_STATUSES]
    unusable = [o.index for o in outcomes
                if o.status not in ("ok", "recovered")]
    if unusable:
        problems.append(f"cells not ok/recovered: {unusable}")
    expected = config.n_cells if inputs.verify else 0
    if result.verified_cells != expected:
        problems.append(f"{result.verified_cells} cells verified, "
                        f"{expected} requested")
    if not all(math.isfinite(o.screen_metric) for o in outcomes):
        problems.append("non-finite screen metric (NaN trace)")
    if result.clean_failures:
        problems.append(f"{result.clean_failures} failing operations in "
                        f"the clean nominal pass")
    if result.total_traps <= 0:
        problems.append("no traps sampled")
    if cache["hits"] != 0:
        problems.append(f"propensity cache served {cache['hits']} hits in a "
                        f"cold run")
    verdicts = [[o.index, o.status, bool(o.verified), int(o.rtn_failures),
                 list(o.error_slots), int(o.trap_count), int(o.transitions),
                 float(o.screen_metric).hex()] for o in outcomes]
    counts = {
        "cells": len(outcomes),
        "traps": result.total_traps,
        "candidates": sum(int(s.n_candidates)
                          for s in result.kernel_stats.values()),
        "accepted": sum(int(s.n_accepted)
                        for s in result.kernel_stats.values()),
        "transitions": sum(int(o.transitions) for o in outcomes),
        "verified": result.verified_cells,
        "failing": result.failing_cells,
        "digest": digest_of(verdicts),
    }
    return Check(attempted=len(outcomes), failed=len(failed),
                 problems=problems, counts=counts,
                 timings=dict(result.timings), cache=cache, workers=1)


# ----------------------------------------------------------------------
# Scenario fan-out (ring co-simulation + DRAM retention scan).

@dataclass(frozen=True)
class FanoutInputs:
    ring: object
    ring_seed: int
    dram: object
    dram_seed: int
    workers: int


def fanout_inputs(seed: int) -> FanoutInputs:
    """Ring sweep with one seeded trap attached, plus a DRAM VRT scan."""
    from repro.devices.technology import TECH_90NM
    from repro.dram.cell import (RetentionScanConfig, default_vrt_cell,
                                 vrt_levels)
    from repro.oscillators.sweeps import RingPeriodSweepConfig
    from repro.traps.band import crossing_energy
    from repro.traps.trap import Trap

    # Trap depth 0.33-0.37 nm: dwell times of a few ns, so the trap can
    # flip inside the ring window (see tests/oscillators/test_ring.py).
    name = "scenario_fanout"
    unit = derive_seed(seed, name, "trap") / 2.0 ** 63
    depth = 0.33e-9 + 0.04e-9 * unit
    trap = Trap(y_tr=depth, e_tr=crossing_energy(0.5, depth, TECH_90NM))
    ring = RingPeriodSweepConfig(stage_counts=RING_STAGES, trap=trap,
                                 t_stop=RING_T_STOP, dt=RING_DT,
                                 rtn_scale=RING_RTN_SCALE)
    spec, dram_trap = default_vrt_cell()
    slow, _ = vrt_levels(spec)
    dram = RetentionScanConfig(spec=spec, trap=dram_trap,
                               n_trials=DRAM_TRIALS, t_max=3.0 * slow)
    return FanoutInputs(ring=ring, ring_seed=derive_seed(seed, name, "ring"),
                        dram=dram, dram_seed=derive_seed(seed, name, "dram"),
                        workers=os.cpu_count() or 1)


def _run_fanout(inputs: FanoutInputs):
    """Both scenarios on the default backend with ``workers`` processes.

    A scenario whose reducer rejects failed jobs raises
    :class:`~repro.errors.SimulationError`; that is an output, not a crash
    of the benchmark, so it is returned for :func:`check_fanout`.
    """
    from repro.core import scenario
    from repro.errors import SimulationError

    runs = {}
    for key, name, config, seed in (
            ("ring", "oscillators.ring", inputs.ring, inputs.ring_seed),
            ("dram", "dram.retention", inputs.dram, inputs.dram_seed)):
        try:
            runs[key] = scenario.run_scenario(name, config, seed=seed,
                                              workers=inputs.workers)
        except SimulationError as exc:
            runs[key] = exc
    return runs


def check_fanout(inputs: FanoutInputs, runs: dict) -> Check:
    """Both scenario runs complete, ring periods finite and positive,
    retention times positive and never NaN (``inf`` means the cell held
    its value for the whole window)."""
    import numpy as np

    expected = {"ring": len(inputs.ring.stage_counts),
                "dram": inputs.dram.n_trials}
    problems, failed, verdicts = [], 0, []
    for key in ("ring", "dram"):
        run = runs[key]
        if isinstance(run, Exception):
            problems.append(f"{key} scenario raised: {run}")
            failed += expected[key]
            continue
        failed += sum(1 for r in run.results if r.status in FAILED_STATUSES)
        if not run.complete:
            problems.append(f"{key} scenario incomplete: {run.counts}")
        if run.n_jobs != expected[key]:
            problems.append(f"{key}: {run.n_jobs} jobs, {expected[key]} "
                            f"planned")
        verdicts.append([key, [r.status for r in run.results]])
    ring, dram = runs["ring"], runs["dram"]
    counts = {"jobs": sum(expected.values())}
    if not isinstance(ring, Exception):
        periods = [np.asarray(p.periods, dtype=float) for p in ring.value]
        if not all(p.size and np.all(np.isfinite(p)) and np.all(p > 0)
                   for p in periods):
            problems.append("ring periods missing or not finite")
        counts["ring_periods"] = int(sum(p.size for p in periods))
        verdicts.append([[p.n_stages, [float(x).hex() for x in p.periods],
                          float(p.period_when_filled).hex(),
                          float(p.period_when_empty).hex()]
                         for p in ring.value])
    if not isinstance(dram, Exception):
        times = np.asarray(dram.value, dtype=float)
        if np.any(np.isnan(times)) or np.any(times <= 0):
            problems.append("retention times NaN or non-positive")
        counts["retention_finite"] = int(np.isfinite(times).sum())
        verdicts.append([float(x).hex() for x in times])
    counts["digest"] = digest_of(verdicts)
    return Check(attempted=sum(expected.values()), failed=failed,
                 problems=problems, counts=counts, workers=inputs.workers)


def _nothing(inputs) -> None:
    pass


# Layers the traced run wraps (see perfbench/layers.py), per workload.
ENSEMBLE_TARGETS = (
    "spice.transient", "devices.ekv", "sram.classify", "sram.snm",
    "traps.sample", "engine.cache", "traps.tables", "markov.batch",
    "rtn.synthesis", "scenario.run",
)
# The fan-out runs its jobs in worker processes, where a wrapper installed
# in this process cannot record; only the dispatching call is wrapped.
FANOUT_TARGETS = ("scenario.run",)

WORKLOADS = {
    "ensemble_verify": Workload(
        name="ensemble_verify",
        build=lambda seed: ensemble_inputs(seed, "ensemble_verify",
                                           VERIFY_CELLS, verify=True),
        prepare=_clear_table_cache, call=_run_ensemble,
        check=check_ensemble, targets=ENSEMBLE_TARGETS),
    "ensemble_screen": Workload(
        name="ensemble_screen",
        build=lambda seed: ensemble_inputs(seed, "ensemble_screen",
                                           SCREEN_CELLS, verify=False),
        prepare=_clear_table_cache, call=_run_ensemble,
        check=check_ensemble, targets=ENSEMBLE_TARGETS),
    "scenario_fanout": Workload(
        name="scenario_fanout", build=fanout_inputs,
        prepare=_nothing, call=_run_fanout, check=check_fanout,
        targets=FANOUT_TARGETS),
}
