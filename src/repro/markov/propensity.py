"""Capture/emission propensity abstractions for two-state trap chains.

Paper Eqs. (1)-(2) define the trap propensities ``lambda_c(t)`` and
``lambda_e(t)``.  The stochastic kernels in this package only need three
things from them:

1. evaluate ``lambda_c`` at a time point (scalar or vectorised),
2. evaluate ``lambda_e`` likewise,
3. a finite *rate bound* ``lambda_star`` with
   ``lambda_c(t) <= lambda_star`` and ``lambda_e(t) <= lambda_star`` for
   every ``t`` in the simulated window — the uniformisation rate.

For SAMURAI traps the sum ``lambda_c + lambda_e`` is constant in time
(paper Eq. 1), so the sum itself is the natural bound; the propensity
classes here do not assume that, which lets the same kernels simulate
arbitrary time-inhomogeneous two-state chains.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ..errors import ModelError

ArrayLike = "float | np.ndarray"


@runtime_checkable
class TwoStatePropensity(Protocol):
    """Protocol for the time-varying rates of a two-state chain.

    State 0 is *empty*, state 1 is *filled*.  ``capture`` is the 0->1
    rate, ``emission`` the 1->0 rate.
    """

    def capture(self, t):
        """Return ``lambda_c(t)`` (0 -> 1 rate), elementwise over ``t``."""
        ...

    def emission(self, t):
        """Return ``lambda_e(t)`` (1 -> 0 rate), elementwise over ``t``."""
        ...

    def rate_bound(self) -> float:
        """Return a finite upper bound on both rates over the whole window."""
        ...


class ConstantTwoStatePropensity:
    """Constant capture/emission rates — a stationary (homogeneous) chain.

    Parameters
    ----------
    lambda_c:
        Capture rate (0 -> 1 transitions) [1/s]; must be non-negative.
    lambda_e:
        Emission rate (1 -> 0 transitions) [1/s]; must be non-negative.

    Arguments are keyword-only.
    """

    def __init__(self, *, lambda_c: float, lambda_e: float) -> None:
        if lambda_c < 0.0 or lambda_e < 0.0:
            raise ModelError(
                f"propensities must be non-negative, got "
                f"lambda_c={lambda_c}, lambda_e={lambda_e}"
            )
        if lambda_c == 0.0 and lambda_e == 0.0:
            raise ModelError("at least one propensity must be positive")
        self.lambda_c = float(lambda_c)
        self.lambda_e = float(lambda_e)

    def capture(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.lambda_c) \
            if np.ndim(t) else self.lambda_c

    def emission(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.lambda_e) \
            if np.ndim(t) else self.lambda_e

    def rate_bound(self) -> float:
        return self.lambda_c + self.lambda_e

    def __repr__(self) -> str:
        return (f"ConstantTwoStatePropensity(lambda_c={self.lambda_c:g}, "
                f"lambda_e={self.lambda_e:g})")


class CallableTwoStatePropensity:
    """Propensities given as arbitrary callables plus an explicit bound.

    Parameters
    ----------
    capture_fn, emission_fn:
        Vectorised callables ``t -> rate`` returning non-negative rates.
    rate_bound:
        A number that dominates both callables over the window to be
        simulated.  Uniformisation is exact for *any* valid bound; a
        loose bound only costs extra rejected candidates.

    Arguments are keyword-only.
    """

    def __init__(self, *, capture_fn: Callable, emission_fn: Callable,
                 rate_bound: float) -> None:
        if rate_bound <= 0.0 or not np.isfinite(rate_bound):
            raise ModelError(f"rate_bound must be positive finite, got {rate_bound}")
        self._capture_fn = capture_fn
        self._emission_fn = emission_fn
        self._rate_bound = float(rate_bound)

    def capture(self, t):
        return self._capture_fn(t)

    def emission(self, t):
        return self._emission_fn(t)

    def rate_bound(self) -> float:
        return self._rate_bound


class SampledTwoStatePropensity:
    """Propensities sampled on a time grid, linearly interpolated between.

    This is the form SAMURAI uses in practice: a SPICE transient yields
    the bias waveform on a discrete grid, the trap physics maps it to
    ``lambda_c``/``lambda_e`` samples, and the kernel interpolates.

    Evaluation outside ``[times[0], times[-1]]`` clamps to the endpoint
    values (constant extrapolation), matching how a bias waveform holds
    its final value.

    Parameters
    ----------
    times:
        Strictly increasing sample times [s].
    capture_values, emission_values:
        Non-negative rate samples [1/s], same length as ``times``.
    bound_safety:
        The rate bound is ``max(samples) * bound_safety``; linear
        interpolation never exceeds the sample maximum, so the default
        of 1.0 is already a valid bound.  A piecewise-linear
        interpolation of a *convex* underlying rate can undershoot but
        never overshoot its samples.

    Arguments are keyword-only.
    """

    def __init__(self, *, times, capture_values, emission_values,
                 bound_safety: float = 1.0) -> None:
        times = np.asarray(times, dtype=float)
        capture_values = np.asarray(capture_values, dtype=float)
        emission_values = np.asarray(emission_values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ModelError("times must be a 1-D array with >= 2 samples")
        if capture_values.shape != times.shape or emission_values.shape != times.shape:
            raise ModelError("rate sample arrays must match the time grid")
        if np.any(np.diff(times) <= 0.0):
            raise ModelError("times must be strictly increasing")
        if np.any(capture_values < 0.0) or np.any(emission_values < 0.0):
            raise ModelError("propensity samples must be non-negative")
        if bound_safety < 1.0:
            raise ModelError(f"bound_safety must be >= 1, got {bound_safety}")
        peak = float(max(capture_values.max(), emission_values.max()))
        if peak <= 0.0:
            raise ModelError("at least one propensity sample must be positive")
        self.times = times
        self.capture_values = capture_values
        self.emission_values = emission_values
        self._rate_bound = peak * float(bound_safety)

    def capture(self, t):
        return np.interp(t, self.times, self.capture_values)

    def emission(self, t):
        return np.interp(t, self.times, self.emission_values)

    def rate_bound(self) -> float:
        return self._rate_bound

    @property
    def t_start(self) -> float:
        """First sample time of the underlying grid [s]."""
        return float(self.times[0])

    @property
    def t_stop(self) -> float:
        """Last sample time of the underlying grid [s]."""
        return float(self.times[-1])


def make_propensity(*, lambda_c: float | None = None,
                    lambda_e: float | None = None,
                    times: np.ndarray | None = None,
                    capture_values: np.ndarray | None = None,
                    emission_values: np.ndarray | None = None,
                    capture_fn: Callable | None = None,
                    emission_fn: Callable | None = None,
                    rate_bound: float | None = None,
                    bound_safety: float = 1.0) -> TwoStatePropensity:
    """Build a propensity object from whichever description is given.

    The single keyword-only construction path shared by
    :mod:`repro.markov` and :mod:`repro.traps` (and surfaced through
    :mod:`repro.api`).  Exactly one description must be supplied:

    - ``lambda_c`` + ``lambda_e`` — constant rates
      (:class:`ConstantTwoStatePropensity`);
    - ``times`` + ``capture_values`` + ``emission_values``
      (+ ``bound_safety``) — sampled rates
      (:class:`SampledTwoStatePropensity`);
    - ``capture_fn`` + ``emission_fn`` + ``rate_bound`` — callables
      (:class:`CallableTwoStatePropensity`).
    """
    constant = lambda_c is not None or lambda_e is not None
    sampled = (times is not None or capture_values is not None
               or emission_values is not None)
    callable_ = capture_fn is not None or emission_fn is not None
    if constant + sampled + callable_ != 1:
        raise ModelError(
            "make_propensity needs exactly one of: constant rates "
            "(lambda_c, lambda_e), sampled rates (times, capture_values, "
            "emission_values) or callables (capture_fn, emission_fn, "
            "rate_bound)"
        )
    if constant:
        if lambda_c is None or lambda_e is None:
            raise ModelError("constant rates need both lambda_c and lambda_e")
        return ConstantTwoStatePropensity(lambda_c=lambda_c,
                                          lambda_e=lambda_e)
    if sampled:
        if times is None or capture_values is None or emission_values is None:
            raise ModelError(
                "sampled rates need times, capture_values and "
                "emission_values")
        return SampledTwoStatePropensity(
            times=times, capture_values=capture_values,
            emission_values=emission_values, bound_safety=bound_safety)
    if capture_fn is None or emission_fn is None or rate_bound is None:
        raise ModelError(
            "callable rates need capture_fn, emission_fn and rate_bound")
    return CallableTwoStatePropensity(capture_fn=capture_fn,
                                      emission_fn=emission_fn,
                                      rate_bound=rate_bound)
