"""Gamma and Bessel utilities used by every limiting kernel.

Bessel evaluations are backed by scipy.special (Amos), imported on first
use, so that the finite-N code, which needs only log-gamma, never loads
scipy; the module adds the domain contracts, the log-scaled variants needed
at large order, and the half-power ratio (x/2)^nu / I_nu(x) that appears
inside all deformed sine/Bessel kernels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfRangeError

# Complex J evaluations are guaranteed accurate here; beyond this modulus the
# caller is expected to switch to the large-argument cosine asymptotic.
W_MAX = 60.0
_SMALLEST_NORMAL = sys.float_info.min

# Stirling series of log Gamma(x) for x >= 13, with the Cephes coefficients
# of scipy's gammaln: (x - 1/2) log x - x + log sqrt(2 pi) + A(1/x^2)/x
_STIRLING_MIN = 13.0
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
               7.93650340457716943945e-4, -2.77777777730099687205e-3,
               8.33333333333331927722e-2)


@dataclass(frozen=True)
class BesselOrder:
    """Real order nu >= -1/2 (arises as a + 1/2 with a > -1)."""

    nu: float

    def __post_init__(self):
        if not math.isfinite(self.nu) or self.nu < -0.5:
            raise DomainError(f"Bessel order must be finite and >= -1/2, got {self.nu}")


def ln_gamma(x):
    """Natural log of Gamma(x) for x > 0; a scalar x gives a float.

    On an array, entries from 13 up run the Stirling series at once and the
    smaller ones (at most a few of an n + c sequence) go through math.lgamma.
    Any entry <= 0 or nan raises DomainError.
    """
    if np.ndim(x) == 0:
        if not x > 0:
            raise DomainError(f"ln_gamma requires x > 0, got {x}")
        return math.lgamma(x)
    xs = np.asarray(x, dtype=float)
    # clipped so that no entry over- or underflows; the entries the clip
    # moved (below 13, above 1e150, <= 0 or nan) are replaced after
    xc = np.minimum(np.maximum(xs, _STIRLING_MIN), 1e150)
    p = 1.0 / (xc * xc)
    series = _STIRLING_A[0]
    for coef in _STIRLING_A[1:]:
        series = series * p + coef
    out = (xc - 0.5) * np.log(xc) - xc + _LOG_SQRT_2PI + series / xc
    moved = np.flatnonzero(xs != xc)
    rest = xs.ravel()[moved].tolist()
    if not all(v > 0 for v in rest):
        raise DomainError("ln_gamma requires every entry > 0")
    out.ravel()[moved] = [math.lgamma(v) for v in rest]
    return out


def _order(order) -> float:
    return order.nu if isinstance(order, BesselOrder) else BesselOrder(float(order)).nu


def _jv_order(order) -> float:
    """The order for scipy's complex jv, which returns nan at negative
    subnormal orders; J_nu is continuous in nu, so those are order 0."""
    nu = _order(order)
    return 0.0 if -_SMALLEST_NORMAL < nu < 0.0 else nu


def bessel_j(order, w: complex) -> complex:
    """J_nu(w) at complex w, principal branch of w^nu, for |w| <= W_MAX."""
    nu = _jv_order(order)
    w = complex(w)
    if abs(w) > W_MAX:
        raise OutOfRangeError(
            f"|w|={abs(w):.3g} exceeds W_MAX={W_MAX}; use the cosine asymptotic"
        )
    from scipy.special import jv
    return complex(jv(nu, w))


def bessel_i(order, x: float) -> float:
    """I_nu(x) for real x >= 0."""
    nu = _order(order)
    if x < 0:
        raise DomainError(f"bessel_i requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    from scipy.special import iv
    return float(iv(nu, x))


def log_bessel_i(order, x: float) -> float:
    """log I_nu(x) for x > 0, stable for large order and large argument.

    Uses the exponentially scaled ive when it does not underflow; otherwise
    (x much smaller than nu) sums the ascending series in log space.
    """
    nu = _order(order)
    if x <= 0:
        raise DomainError(f"log_bessel_i requires x > 0, got {x}")
    from scipy.special import ive
    sc = float(ive(nu, x))
    if sc > 0.0:
        return math.log(sc) + x
    # ive underflows only for x << nu where the series converges in few terms
    lq = math.log(x * x / 4.0)
    lu = 0.0  # log of term l=0 relative to the (x/2)^nu / Gamma(nu+1) prefactor
    ls = 0.0
    l = 0
    while True:
        lu += lq - math.log((l + 1) * (nu + l + 1))
        ls = max(ls, lu) + math.log1p(math.exp(-abs(lu - ls)))
        l += 1
        if lu < ls - 40.0 and l > x / 2:
            break
        if l > 200_000:
            raise RuntimeError("log_bessel_i series did not converge")
    return nu * math.log(x / 2.0) - ln_gamma(nu + 1) + ls


def log_i_ratio(order, x):
    """log[(x/2)^nu / I_nu(x)] for x >= 0 (limit log Gamma(nu+1) at x=0).

    x may be an array; a scalar x gives a float.  ive runs on all entries at
    once; those where it underflows to 0, or returns nan (scipy does at
    negative subnormal orders), go through the series of `log_bessel_i`.
    """
    from scipy.special import ive
    nu = _order(order)
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0):
        raise DomainError(f"log_i_ratio requires x >= 0, got {x}")
    out = np.full(xs.shape, ln_gamma(nu + 1))
    pos = xs >= 1e-10
    xp = xs[pos]
    sc = ive(nu, xp)
    with np.errstate(divide="ignore", invalid="ignore"):
        lr = nu * np.log(xp / 2.0) - (np.log(sc) + xp)
    for i in np.flatnonzero(~(sc > 0.0)):
        lr[i] = nu * math.log(xp[i] / 2.0) - log_bessel_i(nu, float(xp[i]))
    out[pos] = lr
    return float(out) if out.ndim == 0 else out
