"""Bi-directionally coupled RTN/circuit co-simulation of the 6T cell.

The paper's methodology is one-way: the circuit biases are frozen by a
clean pass before any RTN is generated.  Its conclusions note that "in
reality ... both RTN and the circuit states evolve together" (future-work
#1).  :func:`run_coupled` runs a test pattern on the cell with that loop
closed: the traps of each transistor follow its live bias and their
occupancy feeds back as an opposing current every step.

This module is an adapter.  It installs the pattern stimuli, turns the
per-transistor trap lists into :class:`repro.cosim.TrapAttachment`
entries and hands them to the single trap-coupled loop in
:mod:`repro.cosim.engine`; then it classifies the operations of the
resulting waveform.  Initial trap states are drawn at 0 V, the
pre-stimulus bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cosim.engine import TrapAttachment, _co_simulate
from ..errors import SimulationError
from ..rtn.current import RtnAmplitudeModel
from ..sram.cell import SramCell
from ..sram.detectors import DetectorThresholds, classify_operations
from ..sram.patterns import TestPattern, build_pattern_waveforms


@dataclass
class CoupledResult:
    """Output of a coupled co-simulation run.

    Attributes
    ----------
    waveform:
        The transient (RTN acting throughout).
    occupancies:
        Transistor name -> list of per-trap :class:`OccupancyTrace`.
    op_results:
        Per-operation verdicts.
    """

    waveform: object
    occupancies: dict
    op_results: list


def run_coupled(cell: SramCell, pattern: TestPattern,
                trap_populations: dict, rng: np.random.Generator,
                rtn_scale: float = 1.0,
                amplitude_model: RtnAmplitudeModel | None = None,
                dt: float | None = None,
                thresholds: DetectorThresholds | None = None,
                record_every: int = 1) -> CoupledResult:
    """Co-simulate a cell and its traps through a test pattern.

    Parameters
    ----------
    cell:
        A freshly built cell (held sources are attached to it and
        removed again afterwards).
    pattern:
        The stimulus pattern.
    trap_populations:
        Transistor name -> trap list.  An empty list yields an empty
        occupancy list for that transistor.
    rng:
        NumPy random generator (initial states + trap evolution).
    rtn_scale:
        Acceleration factor on the fed-back current.
    amplitude_model:
        RTN amplitude model (default paper Eq. 3).
    dt:
        Transient step [s]; also the trap-update interval.  Defaults to
        the pattern's suggested step.
    """
    if rtn_scale < 0.0:
        raise SimulationError("rtn_scale must be non-negative")
    unknown = set(trap_populations) - set(cell.transistors)
    if unknown:
        raise SimulationError(f"unknown transistors: {unknown}")

    waves = build_pattern_waveforms(pattern, cell.vdd)
    cell.set_stimuli(waves.wl, waves.bl, waves.blb)
    attachments = [TrapAttachment(name, tuple(traps), rtn_scale)
                   for name, traps in trap_populations.items() if traps]
    result = _co_simulate(
        cell.circuit, attachments, waves.duration,
        dt if dt is not None else waves.suggested_dt, rng,
        initial_voltages=cell.initial_voltages(pattern.initial_bit),
        model=amplitude_model, record_every=record_every)

    occupancies = {name: result.occupancies.get(name, [])
                   for name in trap_populations}
    op_results = classify_operations(result.waveform, waves.schedule,
                                     cell.vdd, thresholds=thresholds
                                     or DetectorThresholds())
    return CoupledResult(waveform=result.waveform, occupancies=occupancies,
                         op_results=op_results)
