"""EKV-style all-region MOSFET compact model with analytic derivatives.

The paper uses BSIM-4 inside SpiceOPUS; we substitute the EKV long-channel
interpolation because it is smooth from weak to strong inversion (a hard
requirement both for Newton convergence in the circuit simulator and for
the trap physics, which evaluates device quantities across the full bias
swing of an SRAM write).

Core equations (bulk-referenced voltages, NMOS):

- pinch-off voltage  ``v_p = (v_gb - v_t0) / n``
- normalised forward/reverse levels ``x_f = (v_p - v_sb)/V_t``,
  ``x_r = (v_p - v_db)/V_t``
- interpolation function ``F(u) = ln^2(1 + e^{u/2})``
- drain current ``I_DS = I_S (F(x_f) - F(x_r))`` with the specific
  current ``I_S = 2 n mu C_ox (W/L) V_t^2``.

PMOS devices are handled by mirroring every terminal voltage about the
bulk and negating the current.  All functions are vectorised over the
terminal voltages.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..constants import thermal_voltage
from .mosfet import MosfetParams


def _softplus(x):
    """Numerically stable ``ln(1 + e^x)``."""
    return np.logaddexp(0.0, x)


def interpolation_f(u):
    """The EKV interpolation function ``F(u) = ln^2(1 + e^{u/2})``.

    ``F(u) -> e^u`` in weak inversion (u << 0) and ``F(u) -> (u/2)^2``
    in strong inversion (u >> 0).
    """
    sp = _softplus(np.asarray(u, dtype=float) / 2.0)
    return sp * sp


def interpolation_f_prime(u):
    """Derivative ``dF/du = ln(1 + e^{u/2}) * sigmoid(u/2)``."""
    u = np.asarray(u, dtype=float)
    return _softplus(u / 2.0) * expit(u / 2.0)


def device_constants(params: MosfetParams) -> tuple:
    """Return ``(sign, vt0, i_spec, slope, v_t)`` for one device.

    ``sign`` is ``+1`` for NMOS and ``-1`` for PMOS; stacking these
    tuples over many devices gives the array arguments of
    :func:`terminal_derivatives`.
    """
    tech = params.technology
    return (1.0 if params.is_nmos else -1.0, params.vt0, params.i_spec,
            tech.slope_factor, thermal_voltage(tech.temperature))


def _levels(vt0, slope, v_t, u_g, u):
    """Normalised level ``(v_p - u) / V_t`` of the bulk-referenced source
    (forward) or drain (reverse) voltage ``u``, or of a stack of both,
    with the pinch-off voltage ``v_p = (u_g - v_t0) / n``."""
    return ((u_g - vt0) / slope - u) / v_t


def _stacked(v_g, v_d, v_s, v_b) -> np.ndarray:
    """Terminal voltages as one ``(4, ...)`` drain/gate/source/bulk array."""
    return np.stack(np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                          for v in (v_d, v_g, v_s, v_b))))


def terminal_derivatives(sign, vt0, i_spec, slope, v_t, v_dgsb):
    """Drain current and its terminal derivatives, vectorised over devices.

    ``v_dgsb`` stacks the drain, gate, source and bulk voltages (shape
    ``(4, ...)``); the device constants (see :func:`device_constants`)
    broadcast against each row, so one call evaluates a whole circuit's
    MOSFETs.  The two sign flips of a PMOS (mirror and negation) cancel
    in the terminal derivatives.

    Returns ``(i_d, di/dv_g, di/dv_d, di/dv_s, di/dv_b)``; the bulk
    derivative is minus the sum of the other three (the current depends
    only on voltage differences).
    """
    # NMOS-convention voltages: a PMOS mirrors every terminal about the
    # bulk.
    u = sign * (v_dgsb[:3] - v_dgsb[3])  # drain, gate, source
    levels = _levels(vt0, slope, v_t, u[1], u[::-2])  # (x_f, x_r)
    f_f, f_r = interpolation_f(levels)
    fp_f, fp_r = interpolation_f_prime(levels)
    i = i_spec * (f_f - f_r)
    dg = i_spec * (fp_f - fp_r) / (slope * v_t)
    dd = i_spec * fp_r / v_t
    ds = -i_spec * fp_f / v_t
    return sign * i, dg, dd, ds, -(dg + dd + ds)


def drain_current(params: MosfetParams, v_g, v_d, v_s, v_b=0.0):
    """Current into the drain terminal [A] at the given node voltages.

    Positive for an NMOS in normal operation (``v_d > v_s``); a PMOS in
    normal operation (``v_d < v_s``) returns a negative value, i.e. the
    conventional current flows source -> drain.
    """
    sign, vt0, i_spec, slope, v_t = device_constants(params)
    v_b = np.asarray(v_b, dtype=float)
    u_g, u_d, u_s = (sign * (np.asarray(v, dtype=float) - v_b)
                     for v in (v_g, v_d, v_s))
    f_f = interpolation_f(_levels(vt0, slope, v_t, u_g, u_s))
    f_r = interpolation_f(_levels(vt0, slope, v_t, u_g, u_d))
    return sign * (i_spec * (f_f - f_r))


def drain_current_derivatives(params: MosfetParams, v_g, v_d, v_s, v_b=0.0):
    """Return ``(i_d, di/dv_g, di/dv_d, di/dv_s, di/dv_b)``.

    These are exactly the values the MNA Newton stamps need; this is
    :func:`terminal_derivatives` for one device.
    """
    return terminal_derivatives(*device_constants(params),
                                _stacked(v_g, v_d, v_s, v_b))


def transconductance(params: MosfetParams, v_gs, v_ds):
    """Gate transconductance ``gm = dI_D/dV_GS`` [S], source-referenced.

    For a PMOS, pass the magnitudes ``v_gs = v_sg`` and ``v_ds = v_sd``;
    the returned gm is the (positive) magnitude used by the thermal-noise
    model.
    """
    v_gs = np.asarray(v_gs, dtype=float)
    v_ds = np.asarray(v_ds, dtype=float)
    if params.is_nmos:
        _, dg, _, _, _ = drain_current_derivatives(params, v_gs, v_ds, 0.0, 0.0)
        return dg
    _, dg, _, _, _ = drain_current_derivatives(params, -v_gs, -v_ds, 0.0, 0.0)
    return np.abs(dg)


def inversion_charge_density(params: MosfetParams, v_gs):
    """Inversion-layer charge per unit area [C/m^2] at gate overdrive.

    Smooth charge-sheet interpolation
    ``Q_inv = n C_ox V_t ln(1 + exp((v_gs - v_t0)/(n V_t)))`` which
    tends to ``C_ox (v_gs - v_t0)`` in strong inversion and decays
    exponentially in weak inversion.  Pass the on-direction drive:
    ``v_gs`` for NMOS, ``v_sg`` for PMOS (both positive when the device
    conducts).
    """
    tech = params.technology
    v_t = thermal_voltage(tech.temperature)
    n = tech.slope_factor
    overdrive = np.asarray(v_gs, dtype=float) - params.vt0
    return n * tech.c_ox * v_t * _softplus(overdrive / (n * v_t))


def saturation_current(params: MosfetParams, v_gs):
    """Drain current [A] magnitude deep in saturation at the given v_gs."""
    v_dd = params.technology.vdd
    if params.is_nmos:
        return np.abs(drain_current(params, v_gs, 10.0 * v_dd, 0.0))
    return np.abs(drain_current(params, -np.abs(v_gs), -10.0 * v_dd, 0.0))
