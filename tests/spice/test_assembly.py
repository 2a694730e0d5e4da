"""The compiled MNA assembly against the per-element reference stamps.

Every analysis assembles through :class:`CompiledCircuit`; the
per-element :meth:`Element.stamp` methods are the reference.  At seeded
random iterates both builds must give the same Newton system.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cosim.engine import _HeldValue
from repro.devices.technology import TECH_90NM
from repro.errors import NetlistError
from repro.oscillators.ring import build_ring_oscillator
from repro.rtn.trace import RTNTrace
from repro.spice.assembly import GMIN_FLOOR, CompiledCircuit
from repro.spice.circuit import Circuit
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Element,
    IntegrationCoeff,
    Resistor,
    VoltageSource,
)
from repro.spice.mna import Stamper
from repro.spice.sources import DC, PULSE
from repro.spice.transient import simulate_transient
from repro.sram.cell import build_sram_cell
from repro.sram.injection import attach_rtn_sources
from repro.sram.patterns import build_pattern_waveforms, write_pattern

pytestmark = pytest.mark.tier1

COEFFS = [None, IntegrationCoeff("be", 3e-11), IntegrationCoeff("trap", 3e-11)]


def reference(circuit: Circuit, x, t, coeff, history, gmin=GMIN_FLOOR,
              source_scale=1.0):
    """The per-element build: gmin, then every element's own stamp.

    Mirrors the engines' reference order: unscaled transient sources are
    stamped in netlist order, DC solves and scaled sources apart.
    """
    n = circuit.assign_branches()
    stamper, sources = Stamper(n), Stamper(n)
    for node in range(circuit.n_nodes):
        stamper.add_matrix(node, node, gmin)
    split = coeff is None or source_scale != 1.0
    for element in circuit.elements:
        is_source = isinstance(element, (VoltageSource, CurrentSource))
        target = sources if split and is_source else stamper
        element.stamp(target, x, t, coeff, history)
    return (stamper.matrix + sources.matrix,
            stamper.rhs + source_scale * sources.rhs)


def histories(circuit: Circuit, compiled: CompiledCircuit, rng, coeff):
    """Matching reference/compiled capacitor histories one step in."""
    x0, x1 = rng.uniform(-0.2, 1.2, (2, compiled.n))
    history: dict = {}
    for element in circuit.elements:
        element.init_history(x0, history)
    state = compiled.capacitor_state(x0)
    if coeff is not None:
        for element in circuit.elements:
            element.update_history(x1, coeff, history)
        state = compiled.advance(state, x1, coeff)
    return history, state


def rc_circuit() -> Circuit:
    c = Circuit("rc")
    VoltageSource("V1", c, "in", "0", PULSE(0.0, 1.0, 1e-10, 1e-11, 1e-11,
                                           5e-10))
    Resistor("R1", c, "in", "out", 1e3)
    Capacitor("C1", c, "out", "0", 1e-12)
    CurrentSource("I1", c, "0", "out", DC(1e-5))
    return c


def injected_cell() -> Circuit:
    """The 6T cell driven by a write pattern, x30 RTN on every device."""
    cell = build_sram_cell()
    waves = build_pattern_waveforms(write_pattern([1, 0]), cell.vdd)
    cell.set_stimuli(waves.wl, waves.bl, waves.blb)
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, waves.duration, 500)
    traces = {name: RTNTrace(times=times,
                             current=1e-7 * rng.integers(0, 3, times.size))
              for name in cell.transistors}
    attach_rtn_sources(cell, traces, scale=30.0)
    return cell.circuit


def ring_circuit() -> Circuit:
    return build_ring_oscillator(TECH_90NM, n_stages=5).circuit


CIRCUITS = {"rc": rc_circuit, "injected_6t": injected_cell,
            "ring5": ring_circuit}


def worst_relative(compiled_system, reference_system) -> tuple:
    (a, z), (a_ref, z_ref) = compiled_system, reference_system
    return (float(np.max(np.abs(a - a_ref)) / np.max(np.abs(a_ref))),
            float(np.max(np.abs(z - z_ref)) / max(np.max(np.abs(z_ref)),
                                                  1e-300)))


@pytest.mark.parametrize("source_scale", [1.0, 0.5])
@pytest.mark.parametrize("coeff", COEFFS, ids=["dc", "be", "trap"])
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_matches_per_element_reference(name, coeff, source_scale):
    circuit = CIRCUITS[name]()
    compiled = CompiledCircuit(circuit)
    rng = np.random.default_rng(2011)
    history, state = histories(circuit, compiled, rng, coeff)
    for t in (0.0, 1.3e-9, 4.7e-9):
        assemble = compiled.assembler(t, coeff, state,
                                      source_scale=source_scale)
        for x in rng.uniform(-0.2, 1.2, (3, compiled.n)):
            compiled_system = assemble(x)
            reference_system = reference(circuit, x, t, coeff, history,
                                         source_scale=source_scale)
            assert max(worst_relative(compiled_system,
                                      reference_system)) <= 1e-14
            # The stamps are summed in the reference's order, so the
            # two builds agree to the bit.
            for ours, theirs in zip(compiled_system, reference_system):
                np.testing.assert_array_equal(ours, theirs)


def test_gmin_level_matches_reference():
    circuit = injected_cell()
    compiled = CompiledCircuit(circuit)
    x = np.random.default_rng(3).uniform(0.0, 1.0, compiled.n)
    for gmin in (1e-3, 1e-7):
        system = compiled.assembler(0.0, gmin=gmin)(x)
        assert max(worst_relative(system, reference(
            circuit, x, 0.0, None, {}, gmin=gmin))) <= 1e-14


def test_held_source_is_read_at_every_step():
    """A stimulus mutated between steps (the co-simulation's held
    sources) is seen by the next assembler of the same compilation."""
    circuit = ring_circuit()
    held = _HeldValue()
    CurrentSource("Irtn_cosim_MN2", circuit, "n3", "n2", held)
    compiled = CompiledCircuit(circuit)
    coeff = IntegrationCoeff("trap", 2e-12)
    rng = np.random.default_rng(11)
    history, state = histories(circuit, compiled, rng, coeff)
    x = rng.uniform(0.0, 1.0, compiled.n)
    rhs = []
    for value in (0.0, 3e-6, -1e-6):
        held.value = value
        system = compiled.assembler(1e-10, coeff, state)(x)
        assert max(worst_relative(system, reference(
            circuit, x, 1e-10, coeff, history))) <= 1e-14
        rhs.append(system[1])
    assert not np.array_equal(rhs[0], rhs[1])


def test_advance_matches_update_history():
    circuit = ring_circuit()
    compiled = CompiledCircuit(circuit)
    rng = np.random.default_rng(5)
    for method in ("be", "trap"):
        coeff = IntegrationCoeff(method, 1e-12)
        history, state = histories(circuit, compiled, rng, coeff)
        capacitors = [e for e in circuit.elements
                      if isinstance(e, Capacitor)]
        v_prev, i_prev = state
        assert np.array_equal(v_prev, [history[c.name][0]
                                       for c in capacitors])
        assert np.array_equal(i_prev, [history[c.name][1]
                                       for c in capacitors])


def test_unknown_element_type_is_rejected():
    class Inductor(Element):
        pass

    circuit = rc_circuit()
    circuit.add(Inductor("L1", (0, 1)))
    with pytest.raises(NetlistError, match="L1"):
        CompiledCircuit(circuit)


def test_sources_are_evaluated_once_per_step():
    """Stimuli are read when a step's assembler is built, not at every
    Newton iteration of the step."""
    ring = build_ring_oscillator(TECH_90NM, n_stages=3)
    times = []

    def supply(t):
        times.append(t)
        return ring.vdd

    ring.circuit.element("VDD").stimulus = supply
    wave = simulate_transient(ring.circuit, 2e-10, 2e-12,
                              initial_voltages=ring.initial_voltages())
    assert times == list(wave.times[1:])
