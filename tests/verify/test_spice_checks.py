"""Tests for the deterministic SPICE-level verification checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiments import fig8_cell_spec, fig8_config, fig8_pattern
from repro.core.methodology import injected_traces, run_methodology
from repro.devices.technology import TECH_45NM, TECH_90NM
from repro.sram.cell import SramCellSpec, build_sram_cell
from repro.verify import (
    check_dcop_kcl,
    check_sram_bistability,
    check_transient_charge_conservation,
    check_transient_dt_refinement,
    check_transient_rc_analytic,
)

pytestmark = pytest.mark.tier1


class TestDcopKcl:
    def test_sram_cell_satisfies_kcl(self):
        cell = build_sram_cell()
        check = check_dcop_kcl(
            cell.circuit,
            initial_guess={"q": TECH_90NM.vdd, "qb": 0.0,
                           "vdd": TECH_90NM.vdd})
        assert check.passed
        assert check.statistic < 1e-6
        assert check.kind == "bound"

    def test_residual_reported_even_when_tiny(self):
        cell = build_sram_cell()
        check = check_dcop_kcl(
            cell.circuit,
            initial_guess={"q": 0.0, "qb": TECH_90NM.vdd,
                           "vdd": TECH_90NM.vdd})
        assert check.statistic >= 0.0


class TestBistability:
    def test_default_cell_is_bistable(self):
        check = check_sram_bistability()
        assert check.passed
        assert check.kind == "exact"
        assert check.extras["q_high"] > 0.8 * TECH_90NM.vdd
        assert check.extras["q_low"] < 0.2 * TECH_90NM.vdd

    def test_45nm_cell_is_bistable_too(self):
        spec = SramCellSpec(technology=TECH_45NM)
        check = check_sram_bistability(spec)
        assert check.passed


class TestTransientChecks:
    def test_charge_conservation(self):
        check = check_transient_charge_conservation()
        assert check.passed
        assert check.statistic < 1e-4

    def test_rc_discharge_matches_closed_form(self):
        check = check_transient_rc_analytic()
        assert check.passed
        assert check.statistic < 2e-3

    def test_rc_tolerance_scales_with_step(self):
        """Behavioural: a coarser integration grid drifts further from
        the closed form — the error really measures the integrator."""
        fine = check_transient_rc_analytic(steps_per_tau=200)
        coarse = check_transient_rc_analytic(steps_per_tau=25, tol=1.0)
        assert coarse.statistic > fine.statistic


def fig8_injected_traces(seed: int) -> dict:
    """The x30, nominal-clipped RTN traces the Fig.-8 flow injects."""
    config = fig8_config()
    result = run_methodology(fig8_pattern(), np.random.default_rng(seed),
                             spec=fig8_cell_spec(), config=config)
    return injected_traces(result.rtn, result.biases, config)


def dt_refinement(traces=None):
    return check_transient_dt_refinement(
        fig8_cell_spec(), fig8_pattern(), fig8_config(), traces=traces)


class TestDtRefinement:
    """Halving dt changes no verdict and moves the final state <= 1 mV,
    for backward Euler and trapezoidal integration."""

    def test_fig8_clean_pass(self):
        check = dt_refinement()
        assert check.passed, check.detail
        assert check.statistic <= 1e-3
        assert check.extras["flips_be"] == check.extras["flips_trap"] == []

    def test_fig8_injected_cell(self):
        # Seed 2 is the ``repro fig8`` default.
        check = dt_refinement(fig8_injected_traces(2))
        assert check.passed, check.detail

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: under the Fig.-8 settings this x30 injected cell's "
        "slot-6 write reads 'slow' (final q 0.09 V) with trapezoidal "
        "integration at the Fig.-8 step, but 'error' at dt/2 (0.34 V) and "
        "dt/4 (0.45 V); the write verdict is not converged in dt"))
    def test_fig8_injected_cell_seed_1(self):
        check = dt_refinement(fig8_injected_traces(1))
        assert check.passed, check.detail

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: this x30 injected cell's slot-8 write settles by "
        "0.45-0.475 ns, but with the Fig.-8 record_every=4 the classifier "
        "sees the settle time on the recorded grid as 0.5 ns, the "
        "allowance itself; the ok/slow verdict then flips on float "
        "rounding when dt halves (BE and trap)"))
    def test_fig8_injected_cell_seed_3(self):
        check = dt_refinement(fig8_injected_traces(3))
        assert check.passed, check.detail
