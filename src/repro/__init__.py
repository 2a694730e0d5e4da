"""SAMURAI reproduction — non-stationary RTN modelling and simulation for SRAMs.

This library reproduces *SAMURAI: An accurate method for modelling and
simulating non-stationary Random Telegraph Noise in SRAMs* (Aadithya,
Demir, Venugopalan, Roychowdhury — DATE 2011) as a complete Python
system:

- :mod:`repro.markov` — exact stochastic kernels (uniformisation,
  Gillespie, piecewise oracle, closed forms).
- :mod:`repro.traps` — oxide-trap physics: propensities from bias
  (paper Eqs. 1-2) and statistical trap profiling.
- :mod:`repro.devices` — technology cards and an EKV all-region MOSFET
  compact model.
- :mod:`repro.rtn` — trap occupancy to RTN current (paper Eq. 3), trace
  containers, and the Ye-et-al. white-noise baseline.
- :mod:`repro.spice` — a from-scratch MNA transient circuit simulator
  (the SPICE substrate of the paper's methodology).
- :mod:`repro.sram` — the 6T cell, test patterns, bias extraction, RTN
  injection and failure detectors.
- :mod:`repro.core` — the SAMURAI engine and the SPICE→SAMURAI→SPICE
  methodology pipeline (paper Fig. 8), plus extensions.
- :mod:`repro.analysis` — autocorrelation/PSD estimation and fitting.

The supported entry points are collected in :mod:`repro.api`::

    from repro.api import EnsembleConfig, EnsembleRunner
"""

__version__ = "2.0.0"

from . import api, constants, errors, units

__all__ = ["api", "constants", "errors", "units", "__version__"]
