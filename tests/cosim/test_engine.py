"""Tests for the circuit-agnostic trap-coupled engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cosim import TrapAttachment, run_trap_coupled
from repro.devices.mosfet import MosfetParams
from repro.devices.technology import TECH_90NM
from repro.errors import ModelError, SimulationError
from repro.spice.circuit import Circuit
from repro.spice.elements import Capacitor, Mosfet, Resistor, VoltageSource
from repro.spice.sources import DC
from repro.traps.band import crossing_energy
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1


def fast_trap(v_cross: float = 0.5, y: float = 0.2e-9) -> Trap:
    return Trap(y_tr=y, e_tr=crossing_energy(v_cross, y, TECH_90NM))


def common_source_amp() -> Circuit:
    """A resistor-loaded common-source stage biased mid-swing."""
    circuit = Circuit("cs-amp")
    VoltageSource("VDD", circuit, "vdd", "0", DC(1.0))
    VoltageSource("VG", circuit, "g", "0", DC(0.55))
    Resistor("RL", circuit, "vdd", "d", 8e3)
    Mosfet("M1", circuit, "d", "g", "0", "0",
           MosfetParams.nominal(TECH_90NM, "n"))
    Capacitor("CL", circuit, "d", "0", 50e-15)
    return circuit


class TestValidation:
    def test_attachment_needs_traps(self):
        with pytest.raises(SimulationError):
            TrapAttachment("M1", traps=())

    def test_attachment_scale(self):
        with pytest.raises(SimulationError):
            TrapAttachment("M1", traps=(fast_trap(),), rtn_scale=-1.0)

    def test_needs_attachments(self, rng):
        with pytest.raises(SimulationError):
            run_trap_coupled(common_source_amp(), [], 1e-8, 1e-11, rng)

    def test_duplicate_attachment(self, rng):
        atts = [TrapAttachment("M1", (fast_trap(),)),
                TrapAttachment("M1", (fast_trap(),))]
        with pytest.raises(SimulationError):
            run_trap_coupled(common_source_amp(), atts, 1e-8, 1e-11, rng)

    def test_non_mosfet_target(self, rng):
        atts = [TrapAttachment("RL", (fast_trap(),))]
        with pytest.raises(SimulationError):
            run_trap_coupled(common_source_amp(), atts, 1e-8, 1e-11, rng)

    @pytest.mark.parametrize("attachments, error", [
        ([TrapAttachment("M1", (fast_trap(),)),
          TrapAttachment("RL", (fast_trap(),))], SimulationError),
        ([TrapAttachment("M1", (fast_trap(), Trap(y_tr=1e-6, e_tr=1.0)))],
         ModelError),
    ], ids=["second-not-a-mosfet", "trap-deeper-than-oxide"])
    def test_failed_setup_leaves_no_source(self, rng, attachments, error):
        """Setup validates everything before touching the circuit, so a
        failed call leaves the netlist as it was and a retry works."""
        circuit = common_source_amp()
        before = [e.name for e in circuit.elements]
        with pytest.raises(error):
            run_trap_coupled(circuit, attachments, 1e-9, 1e-11, rng)
        assert [e.name for e in circuit.elements] == before
        result = run_trap_coupled(
            circuit, [TrapAttachment("M1", (fast_trap(),))], 1e-9, 1e-11,
            rng, initial_voltages={"vdd": 1.0, "d": 0.6}, record_every=4)
        assert len(result.occupancies["M1"]) == 1
        assert [e.name for e in circuit.elements] == before

    def test_sources_removed(self, rng):
        circuit = common_source_amp()
        before = len(circuit.elements)
        run_trap_coupled(circuit,
                         [TrapAttachment("M1", (fast_trap(),))],
                         5e-9, 1e-11, rng,
                         initial_voltages={"vdd": 1.0, "d": 0.6},
                         record_every=4)
        assert len(circuit.elements) == before


class TestAmplifierRtn:
    def test_output_carries_telegraph(self, rng):
        """A big accelerated trap in the amplifying device makes the
        output voltage two-level — RTN amplified by the stage gain."""
        circuit = common_source_amp()
        atts = [TrapAttachment("M1", (fast_trap(0.5),), rtn_scale=300.0)]
        result = run_trap_coupled(
            circuit, atts, 4e-8, 2e-11, rng,
            initial_voltages={"vdd": 1.0, "d": 0.6}, record_every=2)
        traces = result.occupancies["M1"]
        assert len(traces) == 1
        assert traces[0].n_transitions >= 2
        # Output dwells at two distinguishable levels after settling.
        wf = result.waveform
        settled = wf.times > 5e-9
        v_out = wf["d"][settled]
        filled = traces[0].sample(wf.times[settled]).astype(bool)
        if filled.any() and (~filled).any():
            v_filled = v_out[filled].mean()
            v_empty = v_out[~filled].mean()
            # Less channel current while filled -> output rises.
            assert v_filled > v_empty + 0.001

    def test_zero_scale_leaves_circuit_untouched(self, rng_factory):
        from repro.spice.transient import TransientOptions, simulate_transient
        circuit_a = common_source_amp()
        atts = [TrapAttachment("M1", (fast_trap(),), rtn_scale=0.0)]
        coupled = run_trap_coupled(
            circuit_a, atts, 5e-9, 1e-11, rng_factory(1),
            initial_voltages={"vdd": 1.0, "d": 0.6}, record_every=2)
        circuit_b = common_source_amp()
        plain = simulate_transient(
            circuit_b, 5e-9, 1e-11,
            initial_voltages={"vdd": 1.0, "d": 0.6},
            options=TransientOptions(record_every=2))
        assert np.allclose(coupled.waveform["d"], plain["d"], atol=1e-9)

    def test_total_transitions_helper(self, rng):
        circuit = common_source_amp()
        atts = [TrapAttachment("M1", (fast_trap(), fast_trap(0.45)))]
        result = run_trap_coupled(
            circuit, atts, 2e-8, 2e-11, rng,
            initial_voltages={"vdd": 1.0, "d": 0.6}, record_every=4)
        assert result.total_transitions() == sum(
            t.n_transitions for t in result.occupancies["M1"])
