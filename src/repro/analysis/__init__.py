"""Signal analysis: the estimators behind the validation experiments.

Paper §IV-A estimates the autocorrelation ``R(tau)`` of generated RTN
traces numerically and translates it to a power spectral density; this
package provides those estimators plus the Lorentzian and 1/f fits used
by the Fig. 3 and Fig. 7 reproductions.

The estimator names follow the ``compute_*`` convention
(``compute_welch_psd``, ``compute_dwell_summary``, ...) and are
re-exported from :mod:`repro.api`.
"""

from .autocorr import autocorrelation as compute_autocorrelation
from .autocorr import autocovariance as compute_autocovariance
from .dwell import DwellSummary
from .dwell import exponentiality_pvalue as compute_dwell_exponentiality
from .dwell import summarise_dwells as compute_dwell_summary
from .fitting import (
    FitResult,
    fit_lorentzian,
    fit_one_over_f,
    log_rms_error,
)
from .psd import periodogram_psd as compute_periodogram_psd
from .psd import psd_from_autocovariance as compute_psd_from_autocovariance
from .psd import welch_psd as compute_welch_psd

__all__ = [
    "DwellSummary",
    "FitResult",
    "compute_autocorrelation",
    "compute_autocovariance",
    "compute_dwell_exponentiality",
    "compute_dwell_summary",
    "compute_periodogram_psd",
    "compute_psd_from_autocovariance",
    "compute_welch_psd",
    "fit_lorentzian",
    "fit_one_over_f",
    "log_rms_error",
]

