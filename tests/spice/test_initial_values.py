"""Initial node values name existing nodes; unknown names are rejected.

Resolving a name must not register it: a typo used to create a floating
node and, because branch indices were already assigned, wrote its value
into the first branch current instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.spice.adaptive import simulate_transient_adaptive
from repro.spice.circuit import Circuit
from repro.spice.dcop import dc_operating_point
from repro.spice.elements import Capacitor, Resistor, VoltageSource
from repro.spice.sources import DC
from repro.spice.transient import simulate_transient

pytestmark = pytest.mark.tier1


def rc_circuit() -> Circuit:
    c = Circuit("rc")
    VoltageSource("V1", c, "in", "0", DC(1.0))
    Resistor("R1", c, "in", "out", 1e3)
    Capacitor("C1", c, "out", "0", 1e-9)
    return c


ANALYSES = {
    "transient": lambda c, values: simulate_transient(
        c, 1e-6, 1e-8, initial_voltages=values),
    "adaptive": lambda c, values: simulate_transient_adaptive(
        c, 1e-6, 1e-8, initial_voltages=values),
    "dcop": lambda c, values: dc_operating_point(c, initial_guess=values),
}


@pytest.mark.parametrize("analysis", sorted(ANALYSES))
class TestInitialValueNames:
    def test_unknown_name_is_rejected(self, analysis):
        c = rc_circuit()
        with pytest.raises(SimulationError, match="'ot'"):
            ANALYSES[analysis](c, {"out": 0.5, "ot": 0.7})

    def test_rejection_registers_no_node(self, analysis):
        c = rc_circuit()
        with pytest.raises(SimulationError):
            ANALYSES[analysis](c, {"ot": 0.7})
        assert not c.has_node("ot")
        assert c.node_names == ["in", "out"]
        # A later analysis sees the circuit unchanged.
        wave = simulate_transient(c, 1e-7, 1e-8)
        assert sorted(wave.signals) == ["i(V1)", "in", "out"]

    def test_ground_name_is_a_no_op(self, analysis):
        with_ground = ANALYSES[analysis](rc_circuit(),
                                         {"out": 0.5, "0": 0.3, "gnd": 0.2})
        without = ANALYSES[analysis](rc_circuit(), {"out": 0.5})
        if analysis == "dcop":
            assert np.array_equal(with_ground.x, without.x)
        else:
            assert np.array_equal(with_ground.times, without.times)
            for name in without.signals:
                assert np.array_equal(with_ground[name], without[name])


def test_unknown_name_no_longer_lands_on_a_branch_current():
    """The symptom: ``i(V1)`` started at the misspelt node's 0.7."""
    c = rc_circuit()
    with pytest.raises(SimulationError):
        simulate_transient(c, 1e-6, 1e-8, initial_voltages={"ot": 0.7})
    wave = simulate_transient(c, 1e-6, 1e-8, initial_voltages={"out": 0.0})
    assert wave["i(V1)"][0] == 0.0
