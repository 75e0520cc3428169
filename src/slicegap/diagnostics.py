"""Autocorrelation and integrated autocorrelation time (IAT) estimation.

The IAT of a trace is 1 + 2 * sum of autocorrelations up to a truncation
lag chosen by the initial-positive-pair rule: summation stops at the first
odd lag K where rho(K) + rho(K+1) < 0.  For a reversible chain the pair
sums are guaranteed positive in expectation, so this rule adapts the
truncation to the noise level of the estimated autocorrelations.  The IAT
of any square-integrable test function is bounded by 2/gap, which is what
ties the sweep experiments to the certified spectral gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError, ZeroVarianceError, check_number

__all__ = [
    "IatEstimate",
    "autocorr",
    "iat",
    "iat_bound_from_gap",
]

_MIN_LEN = 10
_DEFAULT_MAX_LAG = 10_000


@dataclass(frozen=True)
class IatEstimate:
    """IAT value with the truncation lag that produced it."""

    iat: float
    truncation_lag: int


def autocorr(values: np.ndarray, max_lag: int) -> np.ndarray:
    """Empirical autocorrelations ``rho(0..max_lag)``, with ``rho(0) = 1``,
    under denominator-n normalization.

    gamma(k) = (1/n) sum_{i<n-k} (x_i - mean)(x_{i+k} - mean); rho = gamma/gamma(0),
    computed by FFT.  Returns the ``(max_lag + 1,)`` array ``rho``, for an
    integer ``max_lag`` in [0, n).
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise DomainError("trace must be one-dimensional")
    n = x.size
    if n < _MIN_LEN:
        raise InsufficientDataError(f"trace of length {n} is too short (need >= {_MIN_LEN})")
    check_number("max_lag", max_lag, f"an integer in [0, {n - 1}]",
                 lambda v: 0 <= v < n, integer=True)
    if not np.all(np.isfinite(x)):
        raise DomainError("trace must be finite")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        raise ZeroVarianceError("trace has zero variance")
    # A power of two brings the largest |x| into [1/2, 1): exact, so rho is
    # unchanged, and neither the mean nor the squares can overflow.
    x = np.ldexp(x, -math.frexp(max(-lo, hi))[1])
    xc = x - x.mean()
    m = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(xc, m)
    gamma = np.fft.irfft(f * np.conj(f), m)[: max_lag + 1] / n
    return gamma / gamma[0]


def iat(values: np.ndarray, max_lag: int | None = None) -> IatEstimate:
    """IAT via the initial-positive-pair truncation rule.

    Finds the smallest odd K with rho(K) + rho(K+1) < 0 and returns
    1 + 2 * sum_{k=1}^{K-1} rho(k).  If no such pair occurs before the lag
    cap, an integer lowered to ``n - 1``, the whole window is summed.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if max_lag is None:
        max_lag = min(n // 2, _DEFAULT_MAX_LAG)
    check_number("max_lag", max_lag, "a nonnegative integer", lambda v: v >= 0, integer=True)
    max_lag = min(max_lag, n - 1)
    rho = autocorr(x, max_lag)
    # rho(K) + rho(K+1) for K = 1, 3, 5, ... while K + 1 <= max_lag
    neg = np.flatnonzero(rho[1:max_lag:2] + rho[2:max_lag + 1:2] < 0.0)
    trunc = 2 * int(neg[0]) + 1 if neg.size else max_lag
    value = 1.0 + 2.0 * float(np.sum(rho[1:trunc]))
    return IatEstimate(iat=value, truncation_lag=trunc)


def iat_bound_from_gap(gap: float) -> float:
    """Upper bound 2/gap on the IAT of any L2 test function, for a finite gap > 0."""
    check_number("gap", gap, "a finite positive number", lambda v: 0 < v < math.inf)
    return 2.0 / gap
