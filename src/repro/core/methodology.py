"""The paper's Fig. 8 methodology, end to end.

The flowchart:

1. Simulate the SRAM cell on a test pattern *without* RTN (SPICE) —
   yields the time-varying biases.
2. Run SAMURAI per transistor under those biases (needs trap profiles,
   here statistically sampled).
3. Model each ``I_RTN`` trace as a drain-source current source and
   re-simulate the same pattern (SPICE).
4. Classify each operation: write errors / slowdown => the cell is
   compromised at this supply; otherwise repeat with a new pattern or
   conclude robustness.

The paper scales the generated traces by a factor (30 in its Fig. 8
illustration) to make the rare-event failure visible; ``rtn_scale``
exposes that knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError
from ..rtn.current import RtnAmplitudeModel, VanDerZielModel
from ..rtn.trace import RTNTrace
from ..spice.transient import TransientOptions, simulate_transient
from ..sram.biases import extract_biases
from ..sram.cell import SramCell, SramCellSpec, build_sram_cell
from ..sram.detectors import (
    DetectorThresholds,
    OpOutcome,
    classify_operations,
    count_outcomes,
)
from ..sram.injection import attach_rtn_sources, detach_rtn_sources
from ..sram.patterns import TestPattern, build_pattern_waveforms
from ..traps.profiling import TrapProfiler
from .samurai import Samurai


@dataclass(frozen=True)
class MethodologyConfig:
    """Knobs of one methodology run.

    Attributes
    ----------
    rtn_scale:
        Multiplier on every generated trace (paper Fig. 8(e) uses 30).
    dt:
        Transient step [s]; ``None`` uses the pattern's suggestion.
    record_every:
        Output thinning for the transient engine.
    amplitude_model:
        RTN amplitude model (default paper Eq. 3).
    thresholds:
        Failure-classification thresholds.
    clip_to_nominal:
        Clamp each injected trace's magnitude to the transistor's
        nominal (clean-pass) current.  RTN *reduces* conduction, so the
        opposing source can at most null the channel current; without
        the clamp, large acceleration factors can push storage nodes
        beyond the rails (our substitute devices carry no clamping
        junction diodes).
    """

    rtn_scale: float = 1.0
    dt: float | None = None
    record_every: int = 1
    amplitude_model: RtnAmplitudeModel = field(default_factory=VanDerZielModel)
    thresholds: DetectorThresholds = field(default_factory=DetectorThresholds)
    clip_to_nominal: bool = True


@dataclass
class MethodologyResult:
    """Everything one Fig.-8 run produces.

    Attributes
    ----------
    cell:
        The simulated cell (with RTN sources removed again).
    pattern:
        The executed pattern.
    clean_waveform:
        The no-RTN transient (Fig. 8 plot (a)).
    rtn_waveform:
        The with-RTN transient (Fig. 8 plot (e)).
    biases:
        Transistor name -> extracted bias record.
    rtn:
        Transistor name -> :class:`DeviceRtnResult` (plots (b)-(d)).
    clean_results, rtn_results:
        Per-operation verdicts for the two passes.
    """

    cell: SramCell
    pattern: TestPattern
    clean_waveform: object
    rtn_waveform: object
    biases: dict
    rtn: dict
    clean_results: list
    rtn_results: list

    @property
    def clean_counts(self) -> dict:
        return count_outcomes(self.clean_results)

    @property
    def rtn_counts(self) -> dict:
        return count_outcomes(self.rtn_results)

    @property
    def cell_compromised(self) -> bool:
        """Paper's verdict: any write error or slowdown under RTN."""
        return any(result.outcome is not OpOutcome.OK
                   for result in self.rtn_results)

    def failed_slots(self) -> list[int]:
        """Indices of the pattern slots that erred under RTN."""
        return [result.index for result in self.rtn_results
                if result.outcome is OpOutcome.ERROR]


def injected_traces(rtn: dict, biases: dict,
                    config: MethodologyConfig) -> dict:
    """The current sources step 3 injects, transistor name -> trace.

    Each device's SAMURAI trace (``rtn``: name -> ``DeviceRtnResult``)
    is scaled by ``config.rtn_scale`` and, with ``clip_to_nominal``,
    clamped to the magnitude of its clean-pass current from ``biases``.
    """
    traces = {}
    for name, result in rtn.items():
        trace = result.trace.scaled(config.rtn_scale)
        if config.clip_to_nominal:
            limit = np.abs(biases[name].i_d)
            clipped = np.clip(trace.current, -limit, limit)
            trace = RTNTrace(times=trace.times, current=clipped,
                             label=trace.label)
        traces[name] = trace
    return traces


def run_methodology(pattern: TestPattern, rng: np.random.Generator,
                    spec: SramCellSpec | None = None,
                    profiler: TrapProfiler | None = None,
                    trap_populations: dict | None = None,
                    config: MethodologyConfig | None = None
                    ) -> MethodologyResult:
    """Execute the full Fig.-8 flow on a fresh cell.

    Parameters
    ----------
    pattern:
        The read/write test pattern.
    rng:
        NumPy random generator (trap sampling + kernels).
    spec:
        Cell geometry/supply; defaults to the 90 nm cell.
    profiler:
        Statistical trap profiler; defaults to the cell technology's
        standard profiler.  Ignored when ``trap_populations`` is given.
    trap_populations:
        Explicit transistor name -> trap list (for controlled
        experiments).
    config:
        Run knobs.
    """
    spec = spec or SramCellSpec()
    config = config or MethodologyConfig()
    if config.rtn_scale < 0.0:
        raise SimulationError("rtn_scale must be non-negative")

    cell = build_sram_cell(spec)
    waves = build_pattern_waveforms(pattern, cell.vdd)
    cell.set_stimuli(waves.wl, waves.bl, waves.blb)
    dt = config.dt if config.dt is not None else waves.suggested_dt
    options = TransientOptions(record_every=config.record_every)
    initial = cell.initial_voltages(pattern.initial_bit)

    # Step 1: clean pass.
    clean_waveform = simulate_transient(cell.circuit, waves.duration, dt,
                                        initial_voltages=initial,
                                        options=options)
    clean_results = classify_operations(clean_waveform, waves.schedule,
                                        cell.vdd,
                                        thresholds=config.thresholds)

    # Step 2: SAMURAI under the extracted biases.
    biases = extract_biases(cell, clean_waveform)
    if trap_populations is not None:
        engine = Samurai(cell=cell, trap_populations=trap_populations,
                         amplitude_model=config.amplitude_model)
    else:
        engine = Samurai.with_sampled_traps(
            cell, profiler or TrapProfiler(spec.technology), rng,
            amplitude_model=config.amplitude_model)
    rtn = engine.generate(biases, rng)

    # Step 3: inject and re-simulate.
    attach_rtn_sources(cell, injected_traces(rtn, biases, config),
                       scale=1.0)
    try:
        rtn_waveform = simulate_transient(cell.circuit, waves.duration, dt,
                                          initial_voltages=initial,
                                          options=options)
    finally:
        detach_rtn_sources(cell)

    # Step 4: verdicts.
    rtn_results = classify_operations(rtn_waveform, waves.schedule,
                                      cell.vdd,
                                      thresholds=config.thresholds)
    return MethodologyResult(
        cell=cell, pattern=pattern,
        clean_waveform=clean_waveform, rtn_waveform=rtn_waveform,
        biases=biases, rtn=rtn,
        clean_results=clean_results, rtn_results=rtn_results)
