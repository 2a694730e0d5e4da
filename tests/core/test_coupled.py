"""Tests for the bi-directionally coupled co-simulation (extension E1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coupled import run_coupled
from repro.cosim import TrapAttachment, run_trap_coupled
from repro.devices.technology import TECH_90NM
from repro.errors import SimulationError
from repro.sram.cell import SramCellSpec, build_sram_cell
from repro.sram.patterns import build_pattern_waveforms, write_pattern
from repro.traps.band import crossing_energy
from repro.traps.trap import Trap

pytestmark = pytest.mark.tier1


def fast_trap(v_cross: float) -> Trap:
    """A trap fast enough to toggle inside a nanosecond-scale run."""
    y = 0.18e-9  # propensity sum ~1.7e9 Hz
    return Trap(y_tr=y, e_tr=crossing_energy(v_cross, y, TECH_90NM))


SHORT = write_pattern([1, 0], cycle=4e-9, wl_delay=1e-9, wl_width=2e-9)


class TestInterface:
    def test_rejects_unknown_transistor(self, rng):
        cell = build_sram_cell()
        with pytest.raises(SimulationError):
            run_coupled(cell, SHORT, {"M9": [fast_trap(0.5)]}, rng)

    def test_rejects_negative_scale(self, rng):
        cell = build_sram_cell()
        with pytest.raises(SimulationError):
            run_coupled(cell, SHORT, {}, rng, rtn_scale=-1.0)

    def test_sources_removed_after_run(self, rng):
        cell = build_sram_cell()
        before = len(cell.circuit.elements)
        run_coupled(cell, SHORT, {"M1": [fast_trap(0.5)]}, rng,
                    record_every=4)
        # The held source is removed; the stimuli remain installed.
        assert len(cell.circuit.elements) == before

    def test_empty_population_matches_pattern(self, rng):
        cell = build_sram_cell()
        result = run_coupled(cell, SHORT, {}, rng, record_every=4)
        assert [r.outcome.value for r in result.op_results] == ["ok", "ok"]
        assert result.occupancies == {}

    def test_matches_trap_coupled_engine(self, rng_factory):
        """run_coupled is an adapter: the generic engine on the same
        cell, stimuli and seed reproduces it bit for bit, and a
        transistor with an empty trap list gets an empty list back."""
        populations = {"M1": [fast_trap(0.5)], "M4": [],
                       "M3": [fast_trap(0.45), fast_trap(0.6)],
                       "M5": [fast_trap(0.5)]}
        cell_a = build_sram_cell()
        adapted = run_coupled(cell_a, SHORT, populations, rng_factory(2),
                              rtn_scale=30.0, record_every=2)
        cell_b = build_sram_cell()
        waves = build_pattern_waveforms(SHORT, cell_b.vdd)
        cell_b.set_stimuli(waves.wl, waves.bl, waves.blb)
        direct = run_trap_coupled(
            cell_b.circuit,
            [TrapAttachment(name, tuple(traps), 30.0)
             for name, traps in populations.items() if traps],
            waves.duration, waves.suggested_dt, rng_factory(2),
            initial_voltages=cell_b.initial_voltages(SHORT.initial_bit),
            record_every=2)
        assert adapted.waveform.signals == direct.waveform.signals
        assert np.array_equal(adapted.waveform.times, direct.waveform.times)
        for name in direct.waveform.signals:
            assert np.array_equal(adapted.waveform[name],
                                  direct.waveform[name])
        assert adapted.occupancies["M4"] == []
        for name, traces in direct.occupancies.items():
            assert len(adapted.occupancies[name]) == len(traces)
            for ours, theirs in zip(adapted.occupancies[name], traces):
                assert np.array_equal(ours.times, theirs.times)
                assert np.array_equal(ours.states, theirs.states)
        assert direct.total_transitions() > 0


class TestCoupledPhysics:
    def test_occupancies_returned_per_trap(self, rng):
        cell = build_sram_cell()
        traps = {"M5": [fast_trap(0.5), fast_trap(0.6)]}
        result = run_coupled(cell, SHORT, traps, rng, record_every=4)
        assert len(result.occupancies["M5"]) == 2
        for trace in result.occupancies["M5"]:
            assert trace.t_stop == pytest.approx(SHORT.duration)

    def test_trap_activity_follows_circuit_state(self, rng):
        """M5's gate is Q: after the write-1 its trap sees a high drive
        and fills; after the write-0 it empties — with the bias coming
        from the co-simulated circuit itself."""
        cell = build_sram_cell()
        pattern = write_pattern([1, 0], cycle=6e-9, wl_delay=1e-9,
                                wl_width=2e-9)
        trap = fast_trap(0.5 * cell.vdd)
        result = run_coupled(cell, pattern, {"M5": [trap]}, rng,
                             record_every=4)
        trace = result.occupancies["M5"][0]
        # Late in slot 0 (Q=1): filled most of the time.
        fill_one = trace.restricted(4e-9, 6e-9).fraction_filled()
        # Late in slot 1 (Q=0): empty most of the time.
        fill_zero = trace.restricted(10e-9, 12e-9).fraction_filled()
        assert fill_one > 0.6
        assert fill_zero < 0.4

    def test_clean_pattern_unharmed_at_unit_scale(self, rng):
        cell = build_sram_cell()
        traps = {name: [fast_trap(0.5)] for name in cell.transistors}
        result = run_coupled(cell, SHORT, traps, rng, rtn_scale=1.0,
                             record_every=4)
        assert all(r.outcome.value == "ok" for r in result.op_results)

    def test_reproducible(self, rng_factory):
        cell_a = build_sram_cell()
        cell_b = build_sram_cell()
        traps = {"M6": [fast_trap(0.5)]}
        res_a = run_coupled(cell_a, SHORT, traps, rng_factory(3),
                            record_every=4)
        res_b = run_coupled(cell_b, SHORT, traps, rng_factory(3),
                            record_every=4)
        assert np.array_equal(res_a.occupancies["M6"][0].times,
                              res_b.occupancies["M6"][0].times)
