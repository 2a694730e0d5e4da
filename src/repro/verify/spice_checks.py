"""SPICE-level oracles: conservation laws and cell physics.

The circuit simulator underneath the paper's methodology has its own
mechanically checkable invariants, independent of any stochastic law:

- a converged operating point satisfies KCL — re-assembling the MNA
  system at the solution must leave a ~zero residual;
- a transient cannot create charge — the charge delivered by a current
  source into a capacitor equals ``C * delta V``;
- linear circuits have closed forms — an RC discharge must follow its
  exponential;
- the 6T cell is bistable at hold bias — the DC solve must find two
  distinct stable states (the physical substrate of paper Fig. 8's
  write-error analysis);
- a converged time step is fine enough — halving ``dt`` must change
  neither a read/write verdict nor the settled cell state, for both
  backward-Euler and trapezoidal integration.

These checks guard the *deterministic* half of the pipeline, so a
kernel refactor that accidentally bends the circuit layer (rather than
the stochastic layer) is caught by tier-1 without any statistics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConvergenceError
from ..spice.circuit import Circuit
from ..spice.assembly import GMIN_FLOOR, CompiledCircuit
from ..spice.dcop import dc_operating_point
from ..spice.elements import Capacitor, CurrentSource, Resistor
from ..spice.sources import DC
from ..spice.transient import TransientOptions, simulate_transient
from .result import CheckResult

if TYPE_CHECKING:
    from ..core.methodology import MethodologyConfig

__all__ = [
    "check_dcop_kcl",
    "check_sram_bistability",
    "check_transient_charge_conservation",
    "check_transient_dt_refinement",
    "check_transient_rc_analytic",
]


def check_dcop_kcl(circuit: Circuit, t: float = 0.0,
                   initial_guess: dict | None = None,
                   tol: float = 1e-6) -> CheckResult:
    """KCL residual of a DC operating point.

    Solves the operating point, re-assembles the Newton system at the
    solution through the same compiled assembler the solver uses, and
    reports the worst-case residual ``|A(x) x - b(x)|`` (amps on node
    rows, volts on branch rows).  A converged fixed point must satisfy
    it to solver tolerance.
    """
    solution = dc_operating_point(circuit, t=t, initial_guess=initial_guess)
    compiled = CompiledCircuit(circuit)
    matrix, rhs = compiled.assembler(t)(solution.x)
    residual = float(np.max(np.abs(matrix @ solution.x - rhs)))
    return CheckResult.from_bound(
        "spice.dcop_kcl_residual", residual, tol,
        detail=f"{circuit.summary()}, {compiled.n} unknowns")


def check_sram_bistability(spec=None, min_separation: float = 0.8,
                           rail_tol: float = 0.15) -> CheckResult:
    """DC-op bistability of the 6T cell at hold bias.

    Solves the cell's operating point from both nodesets (Q high and Q
    low).  A healthy cell yields two distinct solutions with Q and QB
    near complementary rails; a cell whose device models or solver
    regressed collapses both solves onto one state.

    ``min_separation`` and ``rail_tol`` are fractions of the supply.
    """
    from ..sram.cell import SramCellSpec, build_sram_cell

    spec = spec or SramCellSpec()
    vdd = spec.supply
    solutions = []
    for bit in (1, 0):
        cell = build_sram_cell(spec)
        q = vdd if bit else 0.0
        try:
            sol = dc_operating_point(
                cell.circuit,
                initial_guess={"q": q, "qb": vdd - q, "vdd": vdd})
        except ConvergenceError as exc:
            return CheckResult.from_bound(
                "spice.sram_bistability", float("inf"), min_separation,
                detail=f"DC solve failed for bit={bit}: {exc}")
        solutions.append((sol["q"], sol["qb"]))

    (q_hi, qb_hi), (q_lo, qb_lo) = solutions
    separation = abs(q_hi - q_lo) / vdd
    worst_rail = max(abs(q_hi - vdd), abs(qb_hi), abs(q_lo),
                     abs(qb_lo - vdd)) / vdd
    passed = separation >= min_separation and worst_rail <= rail_tol
    return CheckResult(
        name="spice.sram_bistability", passed=passed,
        statistic=separation, threshold=min_separation, kind="exact",
        detail=(f"Q {q_lo:.3f}/{q_hi:.3f} V, rail error "
                f"{worst_rail * 100:.1f}% of Vdd"),
        extras={"q_high": q_hi, "q_low": q_lo, "qb_high": qb_hi,
                "qb_low": qb_lo, "worst_rail_fraction": worst_rail})


def check_transient_charge_conservation(current: float = 1e-6,
                                        capacitance: float = 1e-12,
                                        t_stop: float = 1e-6,
                                        steps: int = 200,
                                        tol: float = 1e-4) -> CheckResult:
    """Charge conservation: ``C * dV`` equals the injected charge.

    Drives a lone capacitor with a DC current source through a full
    transient and compares the accumulated capacitor charge against
    ``I * t_stop``.  The only legitimate loss is the ``GMIN_FLOOR``
    leak, orders of magnitude below ``tol``; any integrator bug that
    creates or destroys charge shows up directly.
    """
    circuit = Circuit(title="charge-conservation probe")
    CurrentSource("IIN", circuit, "0", "top", DC(current))
    Capacitor("CL", circuit, "top", "0", capacitance)
    wave = simulate_transient(circuit, t_stop, t_stop / steps)
    v = wave["top"]
    delivered = current * t_stop
    stored = capacitance * (v[-1] - v[0])
    # First-order bound on the sanctioned gmin leak (subtracted so the
    # check tests the integrator, not the floor conductance).
    leak = GMIN_FLOOR * float(
        np.sum(np.diff(wave.times) * (v[1:] + v[:-1]) / 2.0))
    error = abs(stored + leak - delivered) / delivered
    return CheckResult.from_bound(
        "spice.charge_conservation", error, tol,
        detail=(f"I={current:g}A into C={capacitance:g}F for "
                f"{t_stop:g}s ({steps} steps)"),
        stored=stored, delivered=delivered, gmin_leak=leak)


def check_transient_rc_analytic(resistance: float = 1e3,
                                capacitance: float = 1e-9,
                                v_initial: float = 1.0,
                                time_constants: float = 3.0,
                                steps_per_tau: int = 100,
                                tol: float = 2e-3) -> CheckResult:
    """RC discharge vs the closed form ``V0 * exp(-t/RC)``.

    A pure source-free RC has an exact solution; the trapezoidal
    integrator must track it to its O(dt^2) accuracy.  ``tol`` bounds
    the worst absolute error as a fraction of ``V0`` and includes
    headroom for the backward-Euler start-up steps.
    """
    tau = resistance * capacitance
    circuit = Circuit(title="RC analytic probe")
    Resistor("R1", circuit, "top", "0", resistance)
    Capacitor("CL", circuit, "top", "0", capacitance)
    t_stop = time_constants * tau
    wave = simulate_transient(circuit, t_stop, tau / steps_per_tau,
                              initial_voltages={"top": v_initial})
    expected = v_initial * np.exp(-wave.times / tau)
    error = float(np.max(np.abs(wave["top"] - expected))) / abs(v_initial)
    return CheckResult.from_bound(
        "spice.rc_analytic", error, tol,
        detail=(f"tau={tau:g}s, {time_constants:g} tau window, "
                f"{steps_per_tau} steps/tau"))


def check_transient_dt_refinement(spec, pattern, config: MethodologyConfig,
                                  traces: dict | None = None,
                                  tol: float = 1e-3) -> CheckResult:
    """Step-size convergence of an SRAM pattern run: ``dt`` vs ``dt/2``.

    Runs the cell ``spec`` through ``pattern`` (optionally with RTN
    ``traces`` injected as PWL current sources, transistor name ->
    :class:`~repro.rtn.trace.RTNTrace`) the way
    :func:`~repro.core.methodology.run_methodology` does under
    ``config`` — its step (default: the pattern's suggested step), its
    ``record_every`` thinning and its detector thresholds — once with
    backward-Euler and once with trapezoidal integration, each at
    ``dt`` and at ``dt/2``.  Halving the step must leave every
    :func:`~repro.sram.detectors.classify_operations` verdict unchanged
    and move the final ``q``/``qb`` by at most ``tol`` volts; a verdict
    that flips with the step size is a discretisation artefact, not a
    circuit failure.  The statistic is the worst final-state move.
    """
    from ..sram.cell import build_sram_cell
    from ..sram.detectors import classify_operations
    from ..sram.injection import attach_rtn_sources
    from ..sram.patterns import build_pattern_waveforms

    def run(method: str, step: float) -> tuple:
        cell = build_sram_cell(spec)
        waves = build_pattern_waveforms(pattern, cell.vdd)
        cell.set_stimuli(waves.wl, waves.bl, waves.blb)
        if traces:
            attach_rtn_sources(cell, traces)
        wave = simulate_transient(
            cell.circuit, waves.duration, step,
            initial_voltages=cell.initial_voltages(pattern.initial_bit),
            options=TransientOptions(method=method,
                                     record_every=config.record_every))
        verdicts = [r.outcome.value for r in classify_operations(
            wave, waves.schedule, cell.vdd, thresholds=config.thresholds)]
        return verdicts, np.array([wave.final("q"), wave.final("qb")])

    dt = config.dt
    if dt is None:
        dt = build_pattern_waveforms(pattern, spec.supply).suggested_dt
    moves, flips = {}, {}
    for method in ("be", "trap"):
        coarse_verdicts, coarse_state = run(method, dt)
        fine_verdicts, fine_state = run(method, dt / 2.0)
        moves[method] = float(np.max(np.abs(fine_state - coarse_state)))
        flips[method] = [index for index, (a, b) in enumerate(
            zip(coarse_verdicts, fine_verdicts)) if a != b]
    worst = max(moves.values())
    n_flips = sum(len(f) for f in flips.values())
    return CheckResult(
        name="spice.dt_refinement",
        passed=bool(n_flips == 0 and worst <= tol),
        statistic=worst, threshold=tol, kind="bound",
        detail=(f"dt={dt:g}s vs dt/2, record_every={config.record_every}, "
                f"{len(pattern.operations)} ops, "
                f"{len(traces or {})} RTN sources: final-state move "
                f"BE {moves['be']:.2g} V, trap {moves['trap']:.2g} V; "
                f"verdict flips {n_flips}"),
        extras={"move_be": moves["be"], "move_trap": moves["trap"],
                "flips_be": flips["be"], "flips_trap": flips["trap"]})
