"""Compiled MNA assembly: one vectorised Newton system per analysis.

The transient, adaptive and DC analyses compile their circuit once per
analysis into stamp index arrays, then assemble every Newton iterate
with a handful of numpy calls instead of a Python loop over elements:

- gmin, resistor conductances and the voltage-source incidence are
  constants of the compilation;
- capacitor companions use the per-capacitor conductance ``C/dt`` (BE)
  or ``2C/dt`` (trap); the companion history ``(v_prev, i_prev)`` is a
  pair of arrays;
- independent sources are evaluated once per (sub)step, when the
  step's assembler is built, not once per Newton iteration;
- every MOSFET is evaluated in one
  :func:`~repro.devices.ekv.terminal_derivatives` call;
- stamps land through precomputed flat indices with one
  ``np.bincount``, ground being a spare last slot that is sliced off.

Sign conventions are those of :mod:`repro.spice.mna`.  The per-element
:meth:`~repro.spice.elements.Element.stamp` methods stay as the
reference this module is tested against (and as the AC stamper).
"""

from __future__ import annotations

import numpy as np

from ..devices.ekv import device_constants, terminal_derivatives
from ..errors import NetlistError, SimulationError
from .circuit import GROUND_NAMES, Circuit
from .elements import (
    Capacitor,
    CurrentSource,
    IntegrationCoeff,
    Mosfet,
    Resistor,
    VoltageSource,
)
from .mna import GROUND
from .waveform import Waveform

#: Permanent conductance to ground on every node [S].
GMIN_FLOOR = 1e-12


#: Stamp kinds, for the analyses that leave some out of one program.
_FIXED, _SOURCE, _CAPACITOR, _MOSFET = range(4)


class CompiledCircuit:
    """A circuit's stamp layout, compiled once for one analysis.

    Every stamp of every element becomes a ``(target, slot, sign)``
    triple: the flat index it adds to (matrix entries first, then the
    RHS), and the position and sign of its value in a per-iterate value
    vector.  The triples are kept in the order the per-element reference
    stamps them (gmin first, then the elements in netlist order), and
    ``np.bincount`` adds in array order, so every entry accumulates the
    same terms in the same order as the reference
    :class:`~repro.spice.mna.Stamper` build: the two agree bit for bit.

    The element list is read at construction: elements added or
    removed afterwards are not seen, but source stimuli are looked up
    again every time an assembler is built, so a stimulus swapped or
    mutated between steps (the co-simulation's held sources) takes
    effect at the next step.

    Attributes
    ----------
    n:
        Number of unknowns (node voltages, then branch currents).
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.n = n = circuit.assign_branches()
        self._size = size = n + 1  # slot n stands in for ground
        self._rhs0 = rhs0 = size * size  # flat offset of the RHS
        n_nodes = circuit.n_nodes

        def slot(index: int) -> int:
            return n if index == GROUND else index

        groups: dict = {Resistor: [], Capacitor: [], Mosfet: [],
                        VoltageSource: [], CurrentSource: []}
        for element in circuit.elements:
            if type(element) not in groups:
                raise NetlistError(
                    f"{element.name}: no compiled stamp for "
                    f"{type(element).__name__}")
            groups[type(element)].append(element)
        resistors, capacitors, mosfets = (groups[Resistor],
                                          groups[Capacitor], groups[Mosfet])
        sources = groups[VoltageSource] + groups[CurrentSource]
        index_of = {id(e): k for group in (resistors, capacitors, mosfets,
                                           sources)
                    for k, e in enumerate(group)}
        n_cap, n_mos = len(capacitors), len(mosfets)

        # The value vector: [gmin per node | 1, 1/R per resistor
        # | C/dt-type conductance and companion current per capacitor
        # | stimulus per source || dI/dv_g, _d, _s, _b and I(x0) - J x0
        # per MOSFET].  Everything before || is fixed per solve.
        self._constants = np.array(
            [1.0] + [1.0 / r.resistance for r in resistors])
        one = n_nodes
        geq = one + self._constants.size
        ieq = geq + n_cap
        source = ieq + n_cap
        jacobian = source + len(sources)
        equivalent = jacobian + 4 * n_mos

        stamps = []  # (target, slot, sign, kind) in reference order

        def matrix(row, col, position, sign, kind) -> None:
            stamps.append((row * size + col, position, sign, kind))

        def rhs(row, position, sign, kind) -> None:
            stamps.append((rhs0 + row, position, sign, kind))

        def conductance(a, b, position, kind) -> None:
            for row, col, sign in ((a, a, 1), (b, b, 1), (a, b, -1),
                                   (b, a, -1)):
                matrix(row, col, position, sign, kind)

        for node in range(n_nodes):
            matrix(node, node, node, 1, _FIXED)
        for element in circuit.elements:
            k = index_of[id(element)]
            if isinstance(element, Resistor):
                conductance(*map(slot, element.nodes), one + 1 + k, _FIXED)
            elif isinstance(element, Capacitor):
                a, b = map(slot, element.nodes)
                conductance(a, b, geq + k, _CAPACITOR)
                rhs(a, ieq + k, -1, _CAPACITOR)
                rhs(b, ieq + k, 1, _CAPACITOR)
            elif isinstance(element, VoltageSource):
                plus, minus = map(slot, element.nodes)
                branch = element.branch_index
                for row, col, sign in ((plus, branch, 1), (minus, branch, -1),
                                       (branch, plus, 1), (branch, minus, -1)):
                    matrix(row, col, one, sign, _SOURCE)
                rhs(branch, source + k, 1, _SOURCE)
            elif isinstance(element, CurrentSource):
                node_from, node_to = map(slot, element.nodes)
                rhs(node_from, source + k, -1, _SOURCE)
                rhs(node_to, source + k, 1, _SOURCE)
            else:  # Mosfet: Jacobian column by column, then I(x0) - J x0
                d, g, s, b = map(slot, element.nodes)
                for column, node in enumerate((g, d, s, b)):
                    matrix(d, node, jacobian + column * n_mos + k, 1, _MOSFET)
                    matrix(s, node, jacobian + column * n_mos + k, -1,
                           _MOSFET)
                rhs(d, equivalent + k, -1, _MOSFET)
                rhs(s, equivalent + k, 1, _MOSFET)

        self._stamps = np.array(stamps, dtype=np.intp).reshape(-1, 4)
        self._programs: dict = {}
        self._sources = sources
        self._n_nodes = n_nodes
        self._cap_a = np.array([slot(c.nodes[0]) for c in capacitors],
                               dtype=np.intp)
        self._cap_b = np.array([slot(c.nodes[1]) for c in capacitors],
                               dtype=np.intp)
        self._cap_c = np.array([c.capacitance for c in capacitors])
        # Terminal slots (d, g, s, b) by row, and the device constants.
        self._mos_nodes = np.array([[slot(node) for node in m.nodes]
                                    for m in mosfets],
                                   dtype=np.intp).reshape(-1, 4).T
        self._mos_constants = tuple(np.array(column) for column in zip(
            *(device_constants(m.params) for m in mosfets)))

    def _program(self, *kinds: int) -> tuple:
        """``(targets, slots, signs)`` of the stamps of the given kinds,
        in reference order."""
        if kinds not in self._programs:
            kept = self._stamps[np.isin(self._stamps[:, 3], kinds)]
            self._programs[kinds] = (kept[:, 0], kept[:, 1],
                                     kept[:, 2].astype(float))
        return self._programs[kinds]

    # ------------------------------------------------------------------
    # Unknown vector and capacitor history
    # ------------------------------------------------------------------
    def unknowns(self, voltages: dict | None) -> np.ndarray:
        """The unknown vector with the named node voltages set.

        Ground names are accepted and ignored; a name the circuit does
        not know raises :class:`~repro.errors.SimulationError`.
        """
        voltages = voltages or {}
        unknown = [name for name in voltages
                   if not self.circuit.has_node(name)]
        if unknown:
            raise SimulationError(
                f"no node named {', '.join(map(repr, unknown))} in "
                f"{self.circuit.summary()}")
        x = np.zeros(self.n)
        for name, value in voltages.items():
            if name not in GROUND_NAMES:
                x[self.circuit.node(name)] = value
        return x

    def waveform(self, times: list, solutions: list) -> Waveform:
        """Package solution vectors as node-voltage and branch-current
        signals."""
        data = np.asarray(solutions)
        signals = {name: data[:, index]
                   for index, name in enumerate(self.circuit.node_names)}
        for element in self._sources:
            if element.num_branches:
                signals[f"i({element.name})"] = data[:, element.branch_index]
        return Waveform(np.asarray(times), signals)

    def _extended(self, x: np.ndarray) -> np.ndarray:
        return np.append(x, 0.0)

    def capacitor_state(self, x: np.ndarray) -> tuple:
        """Companion history ``(v_prev, i_prev)`` at a UIC start ``x``."""
        xe = self._extended(x)
        return xe[self._cap_a] - xe[self._cap_b], np.zeros(self._cap_c.size)

    def advance(self, state: tuple, x: np.ndarray,
                coeff: IntegrationCoeff) -> tuple:
        """Companion history after a step that converged to ``x``."""
        v_prev, i_prev = state
        xe = self._extended(x)
        v_new = xe[self._cap_a] - xe[self._cap_b]
        if coeff.method == "be":
            i_new = self._cap_c / coeff.dt * (v_new - v_prev)
        else:
            i_new = 2.0 * self._cap_c / coeff.dt * (v_new - v_prev) - i_prev
        return v_new, i_new

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def assembler(self, t: float, coeff: IntegrationCoeff | None = None,
                  state: tuple | None = None, gmin: float = GMIN_FLOOR,
                  source_scale: float = 1.0):
        """Return the Newton callback ``x -> (A, z)`` for one solve.

        Parameters
        ----------
        t:
            Time at which the sources are evaluated.
        coeff:
            Integration context, or ``None`` for DC (capacitors open).
        state:
            Capacitor history from :meth:`capacitor_state` /
            :meth:`advance`; required when ``coeff`` is given.
        gmin:
            Conductance from every node to ground [S].
        source_scale:
            Homotopy factor on every independent source.  Sources only
            write the RHS, so scaling their RHS ramps the stimuli
            without touching the nonlinear-device stamps.  Scaled
            sources (and every DC solve) are assembled apart from the
            other elements and added last.
        """
        size, n, rhs0 = self._size, self.n, self._rhs0
        geq = ieq = np.zeros(self._cap_c.size)
        if coeff is not None:
            v_prev, i_prev = state
            if coeff.method == "be":
                geq = self._cap_c / coeff.dt
                ieq = -geq * v_prev
            else:
                geq = 2.0 * self._cap_c / coeff.dt
                ieq = -geq * v_prev - i_prev
        stimuli = [float(source.stimulus(t)) for source in self._sources]
        fixed = np.concatenate((np.full(self._n_nodes, gmin),
                                self._constants, geq, ieq, stimuli))

        # DC solves and scaled sources sum the sources apart, added last.
        split = coeff is None or source_scale != 1.0
        kinds = (_FIXED, _MOSFET) + (() if coeff is None else (_CAPACITOR,))
        if split:
            s_target, s_slot, s_sign = self._program(_SOURCE)
            sources = np.bincount(s_target, fixed[s_slot] * s_sign,
                                  rhs0 + size)
            sources[rhs0:] *= source_scale
        else:
            kinds += (_SOURCE,)
        target, slots, signs = self._program(*kinds)

        nodes, constants = self._mos_nodes, self._mos_constants
        has_mosfets = nodes.shape[1] > 0
        extended = np.zeros(size)  # the unknowns, then ground at 0 V

        def assemble(x: np.ndarray):
            values = fixed
            if has_mosfets:
                extended[:n] = x
                voltages = extended[nodes]
                v_d, v_g, v_s, v_b = voltages
                i, dg, dd, ds, db = terminal_derivatives(*constants, voltages)
                # I(x0) - J x0, in the reference's term order.
                equivalent = i - dg * v_g - dd * v_d - ds * v_s - db * v_b
                values = np.concatenate((fixed, dg, dd, ds, db, equivalent))
            out = np.bincount(target, values[slots] * signs, rhs0 + size)
            if split:
                out += sources
            return out[:rhs0].reshape(size, size)[:n, :n], out[rhs0:rhs0 + n]

        return assemble
