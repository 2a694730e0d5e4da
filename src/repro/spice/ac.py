"""AC small-signal analysis.

Linearises the circuit at a DC operating point and solves the complex
MNA system over frequency.  Independent sources keep their DC role in
the operating point; for the AC stimulus, any voltage/current source can
be designated as *the* AC input with unit (or given) magnitude, and
every node voltage phasor is returned.

This rounds out the SPICE substrate (SpiceOPUS, which the paper used,
has the same analysis) and lets the library compute transfer functions
— e.g. the lowpass filtering an SRAM cell applies to an injected RTN
current.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from .assembly import GMIN_FLOOR
from .circuit import Circuit
from .dcop import DcSolution, dc_operating_point
from .elements import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    VoltageSource,
)
from .mna import Stamper


@dataclass(frozen=True)
class AcResult:
    """AC sweep output.

    Attributes
    ----------
    frequencies:
        Sweep frequencies [Hz].
    phasors:
        Node name -> complex voltage phasor array over the sweep.
    operating_point:
        The DC solution the circuit was linearised at.
    """

    frequencies: np.ndarray
    phasors: dict
    operating_point: DcSolution

    def magnitude(self, node: str) -> np.ndarray:
        return np.abs(self.phasors[node])

    def magnitude_db(self, node: str) -> np.ndarray:
        mag = self.magnitude(node)
        return 20.0 * np.log10(np.maximum(mag, 1e-300))

    def phase_deg(self, node: str) -> np.ndarray:
        return np.degrees(np.angle(self.phasors[node]))

    def corner_frequency(self, node: str) -> float | None:
        """First -3 dB frequency relative to the lowest-frequency gain."""
        mag = self.magnitude(node)
        reference = mag[0]
        below = np.flatnonzero(mag < reference / np.sqrt(2.0))
        if below.size == 0:
            return None
        i = below[0]
        if i == 0:
            return float(self.frequencies[0])
        # log-interpolate the crossing
        f_lo, f_hi = self.frequencies[i - 1], self.frequencies[i]
        m_lo, m_hi = mag[i - 1], mag[i]
        target = reference / np.sqrt(2.0)
        fraction = (np.log(m_lo / target)) / np.log(m_lo / m_hi)
        return float(f_lo * (f_hi / f_lo) ** fraction)


def _stamp_ac(circuit: Circuit, n: int, omega: float, x_op: np.ndarray,
              ac_source: str, ac_magnitude: float) -> Stamper:
    stamper = Stamper(n)
    stamper.matrix = stamper.matrix.astype(complex)
    stamper.rhs = stamper.rhs.astype(complex)
    for node in range(circuit.n_nodes):
        stamper.add_matrix(node, node, GMIN_FLOOR)
    for element in circuit.elements:
        if isinstance(element, Resistor):
            stamper.add_conductance(element.nodes[0], element.nodes[1],
                                    1.0 / element.resistance)
        elif isinstance(element, Capacitor):
            stamper.add_conductance(element.nodes[0], element.nodes[1],
                                    1j * omega * element.capacitance)
        elif isinstance(element, Mosfet):
            d, g, s, b = element.nodes
            from ..devices.ekv import drain_current_derivatives
            v_d, v_g, v_s, v_b = element.terminal_voltages(x_op)
            __, di_dg, di_dd, di_ds, di_db = drain_current_derivatives(
                element.params, v_g, v_d, v_s, v_b)
            for col, value in ((g, di_dg), (d, di_dd), (s, di_ds),
                               (b, di_db)):
                stamper.add_matrix(d, col, float(value))
                stamper.add_matrix(s, col, -float(value))
        elif isinstance(element, VoltageSource):
            plus, minus = element.nodes
            k = element.branch_index
            stamper.add_matrix(plus, k, 1.0)
            stamper.add_matrix(minus, k, -1.0)
            stamper.add_matrix(k, plus, 1.0)
            stamper.add_matrix(k, minus, -1.0)
            if element.name == ac_source:
                stamper.add_rhs(k, ac_magnitude)
        elif isinstance(element, CurrentSource):
            if element.name == ac_source:
                stamper.add_current_injection(element.nodes[0],
                                              element.nodes[1],
                                              ac_magnitude)
        else:
            raise AnalysisError(
                f"AC analysis cannot handle {type(element).__name__}")
    return stamper


def ac_analysis(circuit: Circuit, ac_source: str,
                frequencies: np.ndarray, ac_magnitude: float = 1.0,
                operating_point: DcSolution | None = None) -> AcResult:
    """Small-signal sweep with ``ac_source`` as the unit AC stimulus.

    Parameters
    ----------
    circuit:
        The circuit; MOSFETs are linearised at the operating point.
    ac_source:
        Name of the V or I source carrying the AC stimulus.
    frequencies:
        Positive sweep frequencies [Hz].
    ac_magnitude:
        Stimulus phasor magnitude (1.0 gives transfer functions
        directly).
    operating_point:
        A precomputed DC solution; computed here when omitted.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    if frequencies.ndim != 1 or frequencies.size == 0:
        raise AnalysisError("frequencies must be a non-empty 1-D array")
    if np.any(frequencies <= 0.0):
        raise AnalysisError("frequencies must be positive")
    circuit.element(ac_source)  # raises NetlistError when absent
    n = circuit.assign_branches()
    op = operating_point or dc_operating_point(circuit)
    phasors = {name: np.empty(frequencies.size, dtype=complex)
               for name in circuit.node_names}
    for index, frequency in enumerate(frequencies):
        omega = 2.0 * np.pi * frequency
        stamper = _stamp_ac(circuit, n, omega, op.x, ac_source,
                            ac_magnitude)
        solution = np.linalg.solve(stamper.matrix, stamper.rhs)
        for name in circuit.node_names:
            phasors[name][index] = solution[circuit.node(name)]
    return AcResult(frequencies=frequencies, phasors=phasors,
                    operating_point=op)
