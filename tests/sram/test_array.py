"""Tests for the Monte-Carlo array analysis (extension E2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.methodology import MethodologyConfig
from repro.core.scenario import run_scenario
from repro.errors import SimulationError
from repro.sram.array import ArrayConfig, sample_vt_shifts
from repro.sram.cell import SramCellSpec, TRANSISTOR_NAMES
from repro.sram.patterns import write_pattern

pytestmark = pytest.mark.tier1

TINY_PATTERN = write_pattern([1, 0], cycle=5e-9, wl_delay=1e-9,
                             wl_width=2e-9)


class TestConfig:
    def test_validation(self):
        with pytest.raises(SimulationError):
            ArrayConfig(n_cells=0, base_spec=SramCellSpec(),
                        pattern=TINY_PATTERN)
        with pytest.raises(SimulationError):
            ArrayConfig(n_cells=1, base_spec=SramCellSpec(),
                        pattern=TINY_PATTERN, avt=-1.0)


class TestVtSampling:
    def test_all_transistors_sampled(self, rng):
        shifts = sample_vt_shifts(rng, SramCellSpec(), avt=2.5e-9)
        assert set(shifts) == set(TRANSISTOR_NAMES)

    def test_pelgrom_scaling(self, rng):
        """Smaller devices get wider VT spread (Pelgrom)."""
        spec = SramCellSpec()
        samples = [sample_vt_shifts(rng, spec, avt=2.5e-9)
                   for _ in range(300)]
        std_pu = np.std([s["M3"] for s in samples])   # smallest device
        std_pd = np.std([s["M5"] for s in samples])   # largest device
        assert std_pu > std_pd

    def test_magnitude_plausible(self, rng):
        """~tens of millivolts at 90 nm geometries."""
        samples = [sample_vt_shifts(rng, SramCellSpec(), avt=2.5e-9)["M1"]
                   for _ in range(300)]
        sigma = np.std(samples)
        assert 5e-3 < sigma < 100e-3

    def test_zero_avt_means_no_mismatch(self, rng):
        shifts = sample_vt_shifts(rng, SramCellSpec(), avt=0.0)
        assert all(v == 0.0 for v in shifts.values())


def run_array(config, rng):
    """The ``sram.array`` scenario, seeded by one draw from ``rng``."""
    return run_scenario("sram.array", config,
                        seed=int(rng.integers(2**63))).value


class TestArraySimulation:
    def test_small_array_runs(self, rng):
        config = ArrayConfig(
            n_cells=2, base_spec=SramCellSpec(), pattern=TINY_PATTERN,
            rtn_scale=1.0,
            methodology=MethodologyConfig(record_every=4))
        result = run_array(config, rng)
        assert result.n_cells == 2
        assert result.n_slots == 2
        assert 0.0 <= result.cell_failure_rate <= 1.0
        assert 0.0 <= result.slot_failure_rate <= 1.0
        for outcome in result.outcomes:
            assert set(outcome.vt_shifts) == set(TRANSISTOR_NAMES)
            assert outcome.trap_count >= 0

    def test_healthy_cells_do_not_fail(self, rng):
        """At nominal supply, small mismatch and unit RTN the array is
        clean — failures are the rare events the paper describes."""
        config = ArrayConfig(
            n_cells=3, base_spec=SramCellSpec(), pattern=TINY_PATTERN,
            rtn_scale=1.0, avt=1e-9,
            methodology=MethodologyConfig(record_every=4))
        result = run_array(config, rng)
        assert result.cell_failure_rate == 0.0
        assert result.baseline_failure_rate == 0.0

    def test_reproducible(self, rng_factory):
        config = ArrayConfig(
            n_cells=2, base_spec=SramCellSpec(), pattern=TINY_PATTERN,
            methodology=MethodologyConfig(record_every=4))
        a = run_array(config, rng_factory(9))
        b = run_array(config, rng_factory(9))
        assert [o.vt_shifts for o in a.outcomes] == \
            [o.vt_shifts for o in b.outcomes]
        assert [o.trap_count for o in a.outcomes] == \
            [o.trap_count for o in b.outcomes]
