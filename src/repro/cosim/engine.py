"""The trap-coupled transient loop: RTN and the circuit evolve together.

The paper's methodology is one-way: a clean SPICE pass fixes the
biases, SAMURAI generates RTN against them, and a second SPICE pass
consumes the frozen traces.  Its conclusions ask for the two to
"evolve together" instead (future-work #1).  This module is the one
implementation of that scheme.  Before every transient step it:

1. reads the live node voltages and computes each host MOSFET's drive
   (``v_g - min(v_d, v_s)`` for an NMOS) and channel current;
2. advances every trap *exactly* over the step under rates frozen at
   that drive (a first-order splitting of the continuous modulation,
   exact as dt -> 0);
3. sets the host's held opposing current source to
   ``sign(i_d) * amplitude * N_filled * rtn_scale``, clipped at
   ``|i_d|``.

:func:`run_trap_coupled` runs the loop on any circuit.  The SRAM
(:func:`repro.core.coupled.run_coupled`) and ring
(:func:`repro.oscillators.ring.run_ring_with_rtn`) co-simulators are
adapters: they build :class:`TrapAttachment` lists for their circuit and
call the same loop.  The only per-caller input is the bias at which the
initial trap states are drawn: 0 V for a generic host and the SRAM,
``vdd/2`` for a free-running ring stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..devices.ekv import drain_current
from ..errors import SimulationError
from ..markov.occupancy import OccupancyTrace
from ..rtn.current import RtnAmplitudeModel, VanDerZielModel
from ..spice.circuit import Circuit
from ..spice.elements import CurrentSource, Mosfet
from ..spice.transient import TransientOptions, simulate_transient
from ..traps.propensity import (
    equilibrium_occupancy_population,
    rates_for_population,
)


@dataclass(frozen=True)
class TrapAttachment:
    """One MOSFET's trap population in a co-simulation.

    Attributes
    ----------
    mosfet_name:
        Name of the host :class:`repro.spice.elements.Mosfet` in the
        circuit.
    traps:
        The population (non-empty).
    rtn_scale:
        Acceleration factor for this attachment.
    """

    mosfet_name: str
    traps: tuple
    rtn_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.traps:
            raise SimulationError(
                f"attachment for {self.mosfet_name!r} has no traps")
        if self.rtn_scale < 0.0:
            raise SimulationError("rtn_scale must be non-negative")
        object.__setattr__(self, "traps", tuple(self.traps))


@dataclass
class TrapCoupledResult:
    """Co-simulation output.

    Attributes
    ----------
    waveform:
        The transient result.
    occupancies:
        Mosfet name -> per-trap :class:`OccupancyTrace` list.
    """

    waveform: object
    occupancies: dict = field(default_factory=dict)

    def total_transitions(self) -> int:
        return sum(trace.n_transitions
                   for traces in self.occupancies.values()
                   for trace in traces)


class _HeldValue:
    """A stimulus whose value the co-simulation loop sets per step."""

    def __init__(self) -> None:
        self.value = 0.0

    def __call__(self, t):
        return self.value


class _LivePopulation:
    """Trap states, flip log and held source value for one attachment."""

    def __init__(self, attachment: TrapAttachment, mosfet: Mosfet,
                 initial_bias: float, rng: np.random.Generator) -> None:
        self.attachment = attachment
        self.mosfet = mosfet
        self.traps = list(attachment.traps)
        self.held = _HeldValue()
        occupancies = equilibrium_occupancy_population(
            initial_bias, self.traps, mosfet.params.technology)
        self.states = [int(rng.random() < p) for p in occupancies]
        self.flips: list[list] = [[] for _ in self.traps]

    def advance(self, t: float, dt: float, v_drive: float,
                rng: np.random.Generator) -> int:
        """Evolve every trap exactly over ``[t, t + dt]`` at rates frozen
        at ``v_drive``; return the number filled at the end."""
        lam_c, lam_e = rates_for_population(
            v_drive, self.traps, self.mosfet.params.technology)
        n_filled = 0
        end = t + dt
        for index in range(len(self.states)):
            rates = (float(lam_c[index]), float(lam_e[index]))
            state = self.states[index]
            current = t
            while True:
                rate_out = rates[state]
                if rate_out <= 0.0:
                    break
                current += rng.exponential(1.0 / rate_out)
                if current >= end:
                    break
                self.flips[index].append(current)
                state = 1 - state
            self.states[index] = state
            n_filled += state
        return n_filled

    def build_occupancies(self, t_stop: float) -> list:
        traces = []
        for index, flips in enumerate(self.flips):
            flip_array = np.asarray(flips, dtype=float)
            initial = (self.states[index] + len(flips)) % 2
            traces.append(OccupancyTrace.from_transitions(
                0.0, t_stop, int(initial),
                flip_array[flip_array < t_stop]))
        return traces


def run_trap_coupled(circuit: Circuit, attachments: list,
                     t_stop: float, dt: float,
                     rng: np.random.Generator,
                     initial_voltages: dict | None = None,
                     model: RtnAmplitudeModel | None = None,
                     record_every: int = 1) -> TrapCoupledResult:
    """Run a transient with live-coupled traps on arbitrary MOSFETs.

    Parameters
    ----------
    circuit:
        Any circuit; held sources named ``Irtn_cosim_<mosfet>`` are
        attached for the run and removed afterwards.
    attachments:
        :class:`TrapAttachment` list (one per host MOSFET).
    t_stop, dt:
        Window and step [s]; ``dt`` is also the trap-update interval.
    rng:
        NumPy random generator.
    initial_voltages:
        UIC node voltages.
    model:
        RTN amplitude model (default paper Eq. 3).
    """
    if not attachments:
        raise SimulationError("need at least one attachment")
    return _co_simulate(circuit, attachments, t_stop, dt, rng,
                        initial_voltages=initial_voltages, model=model,
                        record_every=record_every)


def _co_simulate(circuit: Circuit, attachments: list, t_stop: float,
                 dt: float, rng: np.random.Generator, *,
                 initial_voltages: dict | None = None,
                 model: RtnAmplitudeModel | None = None,
                 record_every: int = 1,
                 initial_bias: float = 0.0) -> TrapCoupledResult:
    """The loop behind :func:`run_trap_coupled` and its adapters.

    Unlike the public entry it accepts an empty attachment list (a plain
    transient), and it draws the initial trap states at ``initial_bias``.
    Every attachment is validated and every population built before the
    circuit is touched, so a failed setup leaves no held source behind.
    """
    names = [a.mosfet_name for a in attachments]
    if len(set(names)) != len(names):
        raise SimulationError("duplicate attachment for one MOSFET")
    amplitude_model = model or VanDerZielModel()

    live: list[_LivePopulation] = []
    for attachment in attachments:
        mosfet = circuit.element(attachment.mosfet_name)
        if not isinstance(mosfet, Mosfet):
            raise SimulationError(
                f"{attachment.mosfet_name!r} is not a MOSFET")
        live.append(_LivePopulation(attachment, mosfet, initial_bias, rng))

    def volt(x: np.ndarray, index: int) -> float:
        return 0.0 if index < 0 else float(x[index])

    def pre_step(t: float, x: np.ndarray) -> None:
        for population in live:
            mosfet = population.mosfet
            d, g, s, b = mosfet.nodes
            v_d, v_g, v_s, v_b = (volt(x, d), volt(x, g), volt(x, s),
                                  volt(x, b))
            params = mosfet.params
            if params.is_nmos:
                v_drive = v_g - min(v_d, v_s)
            else:
                v_drive = max(v_d, v_s) - v_g
            i_d = float(drain_current(params, v_g, v_d, v_s, v_b))
            n_filled = population.advance(t, dt, v_drive, rng)
            amplitude = float(np.asarray(amplitude_model.amplitude(
                params, v_drive, abs(i_d))))
            # RTN can at most null the channel current (the same clip
            # the one-way methodology applies to its traces).
            magnitude = min(amplitude * n_filled
                            * population.attachment.rtn_scale, abs(i_d))
            population.held.value = np.sign(i_d) * magnitude

    def node_name(index: int) -> str:
        return "0" if index < 0 else circuit.node_names[index]

    created = []
    try:
        for population in live:
            drain, __, source, __ = population.mosfet.nodes
            element_name = f"Irtn_cosim_{population.attachment.mosfet_name}"
            # Current source oriented source -> drain (opposing convention).
            CurrentSource(element_name, circuit, node_name(source),
                          node_name(drain), population.held)
            created.append(element_name)
        waveform = simulate_transient(
            circuit, t_stop, dt, initial_voltages=initial_voltages,
            options=TransientOptions(record_every=record_every,
                                     pre_step=pre_step))
    finally:
        for name in created:
            circuit.remove(name)

    occupancies = {population.attachment.mosfet_name:
                   population.build_occupancies(t_stop)
                   for population in live}
    return TrapCoupledResult(waveform=waveform, occupancies=occupancies)
