"""Gamma and Bessel functions used by every limiting kernel, in numpy alone.

The finite-N code needs only log-gamma.  The limiting kernels need
psi(u) = Gamma(nu+1) (2/u)^nu J_nu(u), an even entire function of complex u,
and the half-power ratio (x/2)^nu / I_nu(x) at real x >= 0.  Both come from
standard expansions, so the package loads no scipy at run time.

One log-gamma, `ln_gamma`, serves scalars and arrays: log(math.gamma(x))
below 13 and Stirling's series from 13.  Every ascending series of
0F1(;nu+1;q) takes its terms q^k / (k! (nu+1)_k) from `_ascending`; one
series-and-recurrence core, `_psi_tabled`, serves psi on a node table and at
any array of points; and one Debye-and-shift core, `_log_f_shifted`, gives
log 0F1(;nu+1;x^2/4) at real x for the I side and at x = iu for psi:

  I_nu(x), real x >= 0, as log 0F1(;nu+1;x^2/4) (`_log_f`, which the weight
  in c of the limiting kernels reads, and `log_i_ratio`, `log_bessel_i`,
  `bessel_i`):
    x <= 20                   log1p of the ascending series (DLMF 10.25.2),
                              positive terms, with fewer terms up to x = 4
    x >= max(20, 2 nu^2)      Hankel expansion of e^-x I_nu(x) (DLMF 10.40.1)
    otherwise                 `_log_f_shifted` from order 50: Debye's uniform
                              expansion (DLMF 10.41.3) at order nu + m, then
                              m < 51 steps of the ratio recurrence (DLMF
                              10.29.1) down to nu; m = 0 from nu = 50
  psi(u), complex u (`bessel_j`, `_phi` of the edge and Bessel kernels):
    |u| >= max(20, 2 nu^2)    Hankel expansion (DLMF 10.17.3), its lead in logs
    |u| <= W_MAX = 60         ascending series (DLMF 10.2.2) at orders nu + m
                              and nu + m + 1, m = max(0, ceil(|u|^2/4 - nu - 1)),
                              where it cancels little, then m <= 900 steps of
                              the backward recurrence in the order (DLMF 10.6.1)
    otherwise                 `_log_f_shifted` at x = iu, as
                              J_nu(u) = e^(i nu pi/2) I_nu(-iu), from order
                              max(50, 2|u|): about 2|u| - nu steps
    every route               values and a power-of-two exponent apart, so psi
                              never leaves the doubles and none refuses

In `_log_f` each regime's term count is fixed by nu and the regime's
bounds, so an entry's value does not depend on the other entries.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfRangeError

# the modulus to which `bessel_j` was once limited, and up to which psi takes
# the ascending series and its backward run of at most W_MAX^2/4 steps: there
# it is within 16 eps of the modulus of J, where the I side's core was up to
# 95 eps off at nu = 30, |u| = 51 off the real axis
W_MAX = 60.0
# the range constants of the package, and the ln2 split of `_plus_bits`
_LOG_TINY = math.log(sys.float_info.min)
_LOG_MAX = math.log(sys.float_info.max)
_LN2 = math.log(2.0)
# the double _LN2, in which exponents are counted, split into a 24-bit head,
# whose product with an exponent below 2^29 is exact, and its tail
_LN2_HI = float(np.float32(_LN2))
# relative size of the first term a series may drop
_TAIL = 2.0 ** -60

# Stirling series of log Gamma(x) for x >= 13, with the Cephes coefficients
# of scipy's gammaln: (x - 1/2) log x - x + log sqrt(2 pi) + A(1/x^2)/x
_STIRLING_MIN = 13.0
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
               7.93650340457716943945e-4, -2.77777777730099687205e-3,
               8.33333333333331927722e-2)

# regime bounds, see the module docstring
_I_SERIES_MAX = 20.0
_HANKEL_MIN = 20.0
_DEBYE_MIN = 50.0
_DEBYE_TERMS = 14
# argument up to which the ascending series of the I-ratio takes the shorter
# term count that 4 needs; the kernels' tables of c^2k hold that many powers
# and serve |c root| up to it
_SHORT_SERIES_MAX = 4.0


@dataclass(frozen=True)
class BesselOrder:
    """Real order nu >= -1/2 (arises as a + 1/2 with a > -1)."""

    nu: float

    def __post_init__(self):
        if not math.isfinite(self.nu) or self.nu < -0.5:
            raise DomainError(f"Bessel order must be finite and >= -1/2, got {self.nu}")


def _stirling_tail(x):
    """A(1/x^2)/x, the part of Stirling's series past (x - 1/2) log x - x +
    log sqrt(2 pi), for x >= 13."""
    p = 1.0 / (x * x)
    series = _STIRLING_A[0]
    for coef in _STIRLING_A[1:]:
        series = series * p + coef
    return series / x


def _stirling(x, log):
    """log Gamma(x), x >= 13, for a float (log = math.log) or an array
    (np.log), within 2.3 eps relative of a 40-digit value."""
    return (x - 0.5) * log(x) - x + _LOG_SQRT_2PI + _stirling_tail(x)


def _ln_gamma(x: float) -> float:
    if not x > 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    if x < _STIRLING_MIN:
        # math.gamma overflows below about 5.6e-309, where log Gamma(x) is
        # -log x to rounding
        return math.log(math.gamma(x)) if x > 1e-300 else -math.log(x)
    if x == math.inf:
        return x
    out = _stirling(x, math.log)
    if out == math.inf:
        raise OutOfRangeError(f"log Gamma({x:g}) leaves the double range")
    return out


def ln_gamma(x):
    """Natural log of Gamma(x) for x > 0; a scalar x gives a float.

    Below 13 it is log(math.gamma(x)), within 3 eps of a 40-digit value,
    where math.lgamma is up to 5.5 eps off; from 13 up, Stirling's series,
    which an array runs on all such entries at once.  Any entry <= 0 or nan
    raises DomainError, and one whose log Gamma passes the largest double
    (x from about 2.55e305) OutOfRangeError.
    """
    if isinstance(x, (float, int)) or np.ndim(x) == 0:
        return _ln_gamma(float(x))
    xs = np.asarray(x, dtype=float)
    # clipped so that no entry over- or underflows; the entries the clip
    # moved (below 13, above 1e150, <= 0 or nan) are replaced after
    xc = np.minimum(np.maximum(xs, _STIRLING_MIN), 1e150)
    out = _stirling(xc, np.log)
    moved = np.flatnonzero(xs != xc)
    out.ravel()[moved] = [_ln_gamma(v) for v in xs.ravel()[moved].tolist()]
    return out


def ln_gamma_difference(x, d) -> np.ndarray:
    """log Gamma(x + d) - log Gamma(x) for finite arrays x and d that
    broadcast together, with x and x + d > 0, without the cancellation of
    the two log-gammas.

    Where x and x + d are both >= 13 it is one Stirling series,

        (x - 1/2) log1p(d/x) + d (log(x + d) - 1) + A(x + d) - A(x),

    with A the series tail of `ln_gamma`, so its rounding is a few eps of the
    difference, not of log Gamma(x); elsewhere both log-gammas are small, and
    it is their difference.  An entry <= 0 or nan raises DomainError.
    """
    x, d = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(d, dtype=float))
    y = x + d
    out = np.empty(x.shape)
    big = np.minimum(x, y) >= _STIRLING_MIN
    out[big] = _stirling_difference(x[big], d[big], np.log, np.log1p)
    # one array log-gamma for both ends: its per-call cost is most of the
    # difference's where few entries are small
    small = ln_gamma(np.concatenate((y[~big], x[~big])))
    out[~big] = small[:small.size // 2] - small[small.size // 2:]
    return out


def _stirling_difference(x, d, log, log1p):
    """The Stirling series of `ln_gamma_difference`, x and x + d >= 13, for
    floats (log, log1p from math) or arrays (from numpy)."""
    y = x + d
    return (x - 0.5) * log1p(d / x) + d * (log(y) - 1.0) + (_stirling_tail(y) - _stirling_tail(x))


def _ln_gamma_step(x: float, d: float) -> float:
    """`ln_gamma_difference` at one pair of floats, at the cost of the scalar
    `ln_gamma`: the array path costs about 40 us a call."""
    if min(x, x + d) >= _STIRLING_MIN:
        return _stirling_difference(x, d, math.log, math.log1p)
    return _ln_gamma(x + d) - _ln_gamma(x)


def _log_beta(x, y) -> np.ndarray:
    """log B(x, y) for arrays x, y > 0 that broadcast together: log Gamma of
    the smaller argument less one `ln_gamma_difference` from the larger, so
    that log Gamma(x + y) cancels no log-gamma of the larger argument.  The
    log-gammas are taken of x and y apart, so a float x costs one call."""
    small, large = np.minimum(x, y), np.maximum(x, y)
    return np.where(x <= y, ln_gamma(x), ln_gamma(y)) - ln_gamma_difference(large, small)


def _order(order) -> float:
    return order.nu if isinstance(order, BesselOrder) else BesselOrder(float(order)).nu


def _powers(t: np.ndarray, terms: int) -> np.ndarray:
    """[t, t^2, ..., t^terms] along a new last axis, by repeated products."""
    out = np.empty(t.shape + (terms,), dtype=t.dtype)
    out[...] = t[..., None]
    return np.multiply.accumulate(out, axis=-1, out=out)


def _poly_tail(coefs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_{k >= 1} coefs[k] t^k, as one product with the table of powers."""
    if coefs.size < 2:
        return np.zeros(t.shape, dtype=np.result_type(t, coefs))
    return _powers(t, coefs.size - 1) @ coefs[1:]


def _plus_bits(x, bits):
    """x + bits ln2 for integer bits, floats or arrays: every conversion of a
    power-of-two exponent to a log.  No rounding of bits ln2 itself enters."""
    return x + bits * _LN2_HI + bits * (_LN2 - _LN2_HI)


def _ldexp(z: np.ndarray, n) -> np.ndarray:
    """z 2^n for a complex array z and integers n, by parts: exact, also
    where 2^n alone is not a double."""
    out = np.empty_like(z)
    out.real, out.imag = np.ldexp(z.real, n), np.ldexp(z.imag, n)
    return out


def _read_only(*arrays):
    """The arrays, each made read-only: one array, or a tuple of several."""
    for x in arrays:
        x.flags.writeable = False
    return arrays if len(arrays) > 1 else arrays[0]


def _ascending(nu: float, q: float, terms: int) -> np.ndarray:
    """q^k / (k! (nu+1)_k), k < terms, the terms of the ascending series of
    0F1(;nu+1;q), each the last times q / (k (nu + k)), so that no power of q
    overflows before a term does."""
    k = np.arange(1, terms, dtype=float)
    out = np.ones(terms)
    out[1:] = np.cumprod(q / (k * (nu + k)))
    return out


@functools.lru_cache(maxsize=256)
def _rising_reciprocals(nu: float, terms: int) -> np.ndarray:
    """1 / (k! (nu+1)_k), k < terms: the ascending series of
    psi(iy) = Gamma(nu+1) (2/y)^nu I_nu(y) in (y/2)^2; read-only."""
    return _read_only(_ascending(nu, 1.0, terms))


def _series_terms(nu: float, q_max: float) -> int:
    """Terms of the ascending series in q = (x/2)^2 that leave a tail below
    _TAIL of the sum of |terms| at every q <= q_max: the terms are positive
    in |q|, and the tail's share grows with |q|."""
    term = total = 1.0
    k = 0
    while True:
        k += 1
        step = q_max / (k * (nu + k))
        term *= step
        total += term
        if term < _TAIL * total and step < 0.5:
            return k + 1


# ---------------------------------------------------------------------------
# I_nu at real x >= 0
# ---------------------------------------------------------------------------

def _hankel_coefficients(nu: float, r_min: float) -> np.ndarray:
    """a_k(nu), the coefficients of the Hankel expansions in 1/x (DLMF
    10.17.1), up to the first one below _TAIL at x = r_min, or to the last
    nonzero one at half-odd order."""
    mu = 4.0 * nu * nu
    out = [1.0]
    while True:
        k = len(out)
        nxt = out[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k)
        if nxt == 0.0:
            break
        out.append(nxt)
        if abs(nxt) / r_min ** k < _TAIL:
            break
    return np.array(out)


@functools.lru_cache(maxsize=1)
def _debye_polynomials() -> np.ndarray:
    """Coefficients (in p) of Debye's polynomials U_k(p), k < _DEBYE_TERMS,
    from U_{k+1} = p^2 (1-p^2) U_k'/2 + int_0^p (1-5t^2) U_k(t) dt / 8: the
    first term is p (1-p^2)/2 times p U_k', whose coefficients are j u_j.
    Row k holds U_k, padded with zeros; read-only."""
    out = [np.array([1.0])]
    for _ in range(_DEBYE_TERMS - 1):
        u = out[-1]
        integral = np.convolve([1.0, 0.0, -5.0], u) / np.arange(1.0, u.size + 3)
        out.append(np.convolve([0.0, 0.5, 0.0, -0.5], np.arange(u.size) * u)
                   + np.concatenate(([0.0], integral / 8.0)))
    table = np.zeros((len(out), out[-1].size))
    for k, u in enumerate(out):
        table[k, :u.size] = u
    return _read_only(table)


def _debye_coefficients(nu: float) -> np.ndarray:
    """sum_k U_k(p) nu^-k as one polynomial in p, one reduction over the rows."""
    scales = np.array([nu ** -k for k in range(_DEBYE_TERMS)])
    return np.add.reduce(_debye_polynomials() * scales[:, None], axis=0)


def _hankel_min(nu: float) -> float:
    """The argument from which the Hankel expansions of order nu are used."""
    return max(_HANKEL_MIN, 2.0 * nu * nu)


def _i_hankel_tail(nu: float, x: np.ndarray) -> np.ndarray:
    """sqrt(2 pi x) e^-x I_nu(x) - 1 by the Hankel expansion (DLMF 10.40.1)."""
    a = _hankel_coefficients(nu, _hankel_min(nu))
    return _poly_tail(a * np.where(np.arange(a.size) % 2 == 0, 1.0, -1.0), 1.0 / x)


def _log_f_debye(mu: float, x: np.ndarray) -> np.ndarray:
    """log 0F1(;mu+1;x^2/4) = log[Gamma(mu+1) (2/x)^mu I_mu(x)], mu >= 50,
    at real x >= 0 or complex x with |x| <= mu/2, by Debye's uniform
    expansion (DLMF 10.41.3) with Gamma(mu+1) by Stirling: with z = x/mu,
    w = sqrt(1 + z^2) and d = w - 1 = z^2/(1 + w), it is

        mu (d - log(1 + d/2)) - log(w)/2 + log sum_k U_k(1/w) mu^-k + S(mu),

    S the tail of Stirling's series.  It depends on x through z^2 alone, and
    holds no log of size mu, so its rounding is that of its value."""
    z = x / mu
    z2 = z * z
    w = np.sqrt(1.0 + z2)
    d = z2 / (1.0 + w)
    return (mu * (d - np.log1p(0.5 * d)) - 0.5 * np.log(w)
            + np.log1p(_poly_tail(_debye_coefficients(mu), 1.0 / w)) + _stirling_tail(mu))


def _log_f_shifted(nu: float, x: np.ndarray, top: float):
    """(L, f, bits) with 0F1(;nu+1;x^2/4) = e^L f 2^bits, at real x >= 0 or
    complex x with |x| <= top/2: Debye at the order mu = nu + m, the least
    >= top (m = 0 where nu >= top), then m steps down of the recurrence of
    F_mu = 0F1(;mu+1;q), q = x^2/4, that DLMF 10.29.1 gives for I_mu,

        F_{mu-1} = F_mu + q F_{mu+1} / (mu (mu+1)),

    started from 1 at order mu and from the ratio F_{mu+1}/F_mu, by Debye,
    at order mu + 1.  It is stable downward (I is the minimal solution;
    Gautschi, SIAM Rev. 9, 1967).  L is
    log F_mu, of size about |x|^2/4mu, and f 2^bits the value the run
    reaches, F_nu / F_mu.  The run's power of two is moved into bits,
    exactly, only where it passes 2^(+-600), so an entry whose run stays in
    the doubles has bits 0, and where m = 0 f and bits are 1.0 and 0, with no
    Debye start at order mu + 1; f is not logged, so psi, which is e^L f, does
    not carry the rounding of a log of its size."""
    m = max(0, math.ceil(top - nu))
    log_top = _log_f_debye(nu + m, x)
    if not m:
        return log_top, 1.0, 0
    bits, f = np.zeros(x.shape, dtype=np.int64), np.ones(x.shape, dtype=log_top.dtype)
    above, q = np.exp(_log_f_debye(nu + m + 1.0, x) - log_top), 0.25 * x * x
    for j in range(m, 0, -1):
        above *= q
        above *= 1.0 / ((nu + j) * (nu + j + 1.0))
        above += f
        f, above = above, f
        if j % 16 == 0:
            e = np.frexp(np.abs(f))[1]
            if e.min() < -600 or e.max() > 600:
                f *= np.ldexp(1.0, -e)
                above *= np.ldexp(1.0, -e)
                bits += e
    return log_top, f, bits


def _log_f(nu: float, x: np.ndarray) -> np.ndarray:
    """log 0F1(;nu+1;x^2/4) = log[Gamma(nu+1) (2/x)^nu I_nu(x)] at an array
    of real x >= 0, each entry by the regimes of the module docstring, by x
    and nu alone.  Below the Hankel regime it holds no log-gamma, so its
    rounding is that of its value, of size x^2/4nu or x, however large nu."""
    out, q = np.empty(x.shape), x * x / 4.0
    series, near = x <= _I_SERIES_MAX, x <= _SHORT_SERIES_MAX
    for part, r in ((near, _SHORT_SERIES_MAX), (series & ~near, _I_SERIES_MAX)):
        if part.any():
            coefs = _rising_reciprocals(nu, _series_terms(nu, r * r / 4.0))
            out[part] = np.log1p(_poly_tail(coefs, q[part]))
    if series.all():
        return out
    hankel = ~series & (x >= _hankel_min(nu))
    if hankel.any():
        xh = x[hankel]
        out[hankel] = (ln_gamma(nu + 1.0) + xh - nu * np.log(xh / 2.0)
                       - 0.5 * np.log(2.0 * math.pi * xh) + np.log1p(_i_hankel_tail(nu, xh)))
    mid = ~series & ~hankel
    if mid.any():
        log_top, f, bits = _log_f_shifted(nu, x[mid], _DEBYE_MIN)
        out[mid] = _plus_bits(log_top + np.log(f), bits)
    return out


def log_i_ratio(order, x):
    """log[(x/2)^nu / I_nu(x)] for finite x >= 0 (log Gamma(nu+1) at x = 0),
    as log Gamma(nu+1) less `_log_f`.

    x may be an array; a scalar x gives a float.  Each entry goes to one of
    the regimes of the module docstring by x and nu alone.
    """
    nu = _order(order)
    xs = np.asarray(x, dtype=float)
    hi = xs.max() if xs.size else 0.0
    if not (hi < math.inf and (xs.size == 0 or xs.min() >= 0)):
        raise DomainError(f"log_i_ratio requires finite x >= 0, got {x}")
    if xs.ndim == 0:
        return float(log_i_ratio(nu, xs.reshape(1))[0])
    return ln_gamma(nu + 1.0) - _log_f(nu, xs)


def log_bessel_i(order, x: float) -> float:
    """log I_nu(x) for x > 0, stable for large order and large argument."""
    nu = _order(order)
    if not x > 0:
        raise DomainError(f"log_bessel_i requires x > 0, got {x}")
    return nu * math.log(x / 2.0) - log_i_ratio(nu, x)


def bessel_i(order, x: float) -> float:
    """I_nu(x) for real x >= 0; inf past the double range.

    Where it is in range, the value is a product rather than the exponential
    of `log_bessel_i`, whose rounding grows with |log I_nu(x)|: the Hankel
    expansion times e^x, or else (x/2)^nu / Gamma(nu+1) times the sum of the
    positive terms of `_ascending`.  The product form stops at x = 709.78,
    where e^x leaves the doubles: past it, below the Hankel regime, the
    value is exp(`log_bessel_i`), within 2 eps |log I_nu(x)| (818 eps off at
    nu = 60, x = 710, where scipy's iv is 28.5 eps off).
    """
    nu = _order(order)
    if not x >= 0:
        raise DomainError(f"bessel_i requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if _hankel_min(nu) <= x < _LOG_MAX:
        h = 1.0 + float(_i_hankel_tail(nu, np.array([float(x)]))[0])
        return math.exp(x) / math.sqrt(2.0 * math.pi * x) * h
    if x < _LOG_MAX:
        # (x/2)^nu / Gamma(nu+1); past the range of either, from the
        # fractional order up, one factor a step, each partial product below
        # e^(x/2)
        n = 0 if nu < 170.0 and nu * math.log(x / 2.0) < 700.0 else math.floor(nu)
        pref = (x / 2.0) ** (nu - n) / math.gamma(nu - n + 1.0)
        for j in range(1, n + 1):
            pref *= (x / 2.0) / (nu - n + j)
        if 0.0 < pref < math.inf:
            q = x * x / 4.0
            return pref * float(np.sum(_ascending(nu, q, _series_terms(nu, q))))
    log_i = log_bessel_i(nu, x)
    return math.exp(log_i) if log_i < _LOG_MAX else math.inf


# ---------------------------------------------------------------------------
# J_nu at complex u
# ---------------------------------------------------------------------------

def _exp_bits(log: np.ndarray):
    """(values, bits) with e^log = values 2^bits, real where log is: bits the
    whole number of ln2 in Re log, by divmod, whose remainder is exact.  bits
    is clipped to +-2^60, past which every sum of exponents leaves the
    doubles alike, so that it stays an int64."""
    bits, r = np.divmod(log.real, _LN2)
    values = np.exp(r if np.isrealobj(log) else r + 1j * log.imag)
    return values, np.clip(bits, -2.0 ** 60, 2.0 ** 60).astype(np.int64)


def _psi_hankel(nu: float, u: np.ndarray):
    """(values, bits), psi = values 2^bits, by the Hankel expansion on
    Re u >= 0 (psi is even): Gamma(nu+1) (2/u)^nu sqrt(2/(pi u)) times

        P cos w - Q sin w = [e^(iw) (P + iQ) + e^(-iw) (P - iQ)] / 2,

    w = u - nu pi/2 - pi/4, where P and Q take the even and the odd terms
    of sum_k (-1)^(k//2) a_k u^-k.  The lead is taken in logs and the
    exponentials at e^-|Im w|, so that neither leaves the doubles; on the
    real axis the bracket is P cos w - Q sin w to the bit."""
    u = np.where(u.real < 0, -u, u)
    a = _hankel_coefficients(nu, _hankel_min(nu))
    coefs = a * np.array([1.0, 1.0, -1.0, -1.0])[np.arange(a.size) % 4]
    powers = _powers(1.0 / u, max(a.size - 1, 1))     # column j holds u^-(j+1)
    p = coefs[0] + powers[:, 1::2][:, :coefs[2::2].size] @ coefs[2::2]
    q = powers[:, 0::2][:, :coefs[1::2].size] @ coefs[1::2]
    w = u - (0.5 * nu + 0.25) * math.pi
    t = np.abs(w.imag)
    waves = 0.5 * (np.exp(1j * w - t) * (p + 1j * q) + np.exp(-1j * w - t) * (p - 1j * q))
    lead, bits = _exp_bits(ln_gamma(nu + 1.0) + nu * _LN2 + 0.5 * math.log(2.0 / math.pi)
                           - (nu + 0.5) * np.log(u))
    grow, more = _exp_bits(t)       # e^|Im w|, apart from the lead: both are exact splits
    return lead * grow * waves, bits + more


def _recurrence_start(nu: float, r: float) -> int:
    """The m for which the series of psi_{nu+m} loses at most e^2 to
    cancellation at |u| <= r: (r/2)^2 <= nu + m + 1."""
    return max(0, math.ceil(r * r / 4.0 - nu - 1.0))


def _psi_tabled(nu: float, r: float, table: np.ndarray, z=1.0) -> np.ndarray:
    """psi at the entries u, |u| <= r, for which table[:, k-1] z^k = (-u^2/4)^k:
    the ascending series, one product with the table at each of the orders
    nu + m and nu + m + 1, m by `_recurrence_start`, then m steps down of the
    backward recurrence of psi_mu = Gamma(mu+1) (2/u)^mu J_mu(u) (DLMF 10.6.1),

        psi_{mu-1} = psi_mu - q psi_{mu+1} / (mu (mu+1)),  q = (u/2)^2.

    J is the minimal solution upward, so the recurrence is stable downward.
    This is Miller's algorithm with exact starting values; a normalising
    sum would cancel instead: Gegenbauer's like e^|Im u|, the plane-wave sum
    like |u|^nu."""
    m = _recurrence_start(nu, r)
    zk = np.cumprod(np.full(table.shape[1], z))

    def series(mu):
        return 1.0 + table @ (_rising_reciprocals(mu, table.shape[1] + 1)[1:] * zk)

    q = -z * table[:, 0]
    psi, above = series(nu + m), (series(nu + m + 1.0) if m else None)
    for j in range(m, 0, -1):
        above, psi = psi, psi - q * (1.0 / ((nu + j) * (nu + j + 1.0))) * above
    return psi


def _psi(nu: float, u: np.ndarray):
    """(values, bits) with psi(u) = Gamma(nu+1) (2/u)^nu J_nu(u) =
    0F1(;nu+1;-u^2/4) = values 2^bits at every entry of the complex array u,
    |values| in [1/2, 1) and bits integers, each entry by |u| alone: the
    Hankel expansion from `_hankel_min`; below it and |u| <= W_MAX,
    `_psi_tabled` on the powers of -u^2/4, as many as the series at order
    nu + m takes at the largest of those |u|; between, the I side's core at
    x = iu, where J_nu(u) = e^(i nu pi/2) I_nu(-iu) makes
    psi = 0F1(;nu+1;x^2/4), from Debye at the order max(50, 2|u|), |u| the
    largest of those entries, in about 2|u| - nu steps.  Each route carries
    its power of two, so none leaves the doubles and none refuses."""
    u = np.asarray(u, dtype=complex)
    size = np.abs(u)
    out, bits = np.empty(u.shape, dtype=complex), np.zeros(u.shape, dtype=np.int64)
    hankel = size >= _hankel_min(nu)
    tabled = ~hankel & (size <= W_MAX)
    mid = ~hankel & ~tabled
    if np.any(hankel):
        out[hankel], bits[hankel] = _psi_hankel(nu, u[hankel])
    if np.any(tabled):
        r = float(size[tabled].max())
        terms = _series_terms(nu + _recurrence_start(nu, r), r * r / 4.0)
        out[tabled] = _psi_tabled(nu, r, _powers(-u[tabled] * u[tabled] / 4.0, terms - 1))
    if np.any(mid):
        top_order = max(_DEBYE_MIN, 2.0 * float(size[mid].max()))
        log_top, f, run = _log_f_shifted(nu, 1j * u[mid], top_order)
        top, bits[mid] = _exp_bits(log_top)
        out[mid] = top * f
        bits[mid] += run
    scale = np.frexp(np.abs(out))[1]        # |values| in [1/2, 1)
    return _ldexp(out, -scale), bits + scale


def bessel_j(order, w: complex) -> complex:
    """J_nu(w) at complex w, principal branch of w^nu, as psi(w) times
    (w/2)^nu / Gamma(nu+1), which is taken through logs where (w/2)^nu or
    Gamma(nu+1) would leave the doubles, and psi's power of two applied once,
    last.  OutOfRangeError where the value passes the largest double, as
    J_nu(800i) does; a value below the doubles underflows."""
    nu = _order(order)
    w = complex(w)
    if w == 0:
        return complex(1.0 if nu == 0.0 else (0.0 if nu > 0.0 else math.inf))
    psi, bits = _psi(nu, np.array([w]))
    if nu < 170.0 and nu * (math.log(abs(w)) - _LN2) < _LOG_MAX:
        value, j = complex(psi[0]) * ((w / 2.0) ** nu / math.gamma(nu + 1.0)), 0
    else:
        e = nu * cmath.log(w / 2.0) - ln_gamma(nu + 1.0)
        j, r = divmod(e.real, _LN2)
        value = complex(psi[0]) * cmath.exp(complex(r, e.imag))
    n = int(bits[0] + j)
    try:
        return complex(math.ldexp(value.real, n), math.ldexp(value.imag, n))
    except OverflowError:
        raise OutOfRangeError(f"J of order {nu:g} at {w!r} passes the largest double") from None


@functools.lru_cache(maxsize=64)
def _node_powers(rule: tuple):
    """Read-only (c, [c^2, c^4, ...]) at the nodes c of the quadrature rule
    `rule`, as many powers as the series of psi takes at |u| <= _SHORT_SERIES_MAX
    for any order; each is 0.5-5 kB."""
    from .quadrature import _gauss_rule     # quadrature reads ln_gamma from here
    c = _gauss_rule(*rule)[0]
    terms = _series_terms(-0.5, _SHORT_SERIES_MAX ** 2 / 4.0)
    return c, _read_only(_powers(c * c + 0j, terms - 1))


def _phi_zero(nu: float) -> tuple:
    """(m, k) with phi(0) = 2^-nu / Gamma(nu+1) = m 2^k, m in [1/2, 1), at
    any order, however far phi(0) is below the doubles.  Below nu = 170,
    where Gamma(nu+1) is a double, m 2^k is the correctly rounded quotient
    0.5^nu / math.gamma(nu+1), taken at 2^600 so that it stays normal; above,
    Gamma(nu+1) = e^r 2^j is split from `ln_gamma` by divmod, whose r, an
    fmod, is exact at every order, and 2^-nu into 2^-n times its fractional
    part.  OutOfRangeError where `ln_gamma` refuses nu + 1."""
    if nu < 170.0:
        m, k = math.frexp(0.5 ** nu * 2.0 ** 600 / math.gamma(nu + 1.0))
        return m, k - 600
    j, r = divmod(ln_gamma(nu + 1.0), _LN2)
    m, k = math.frexp(0.5 ** (nu % 1.0) / math.exp(r))
    # j is inf from nu of about 1.7e305, where any 2^-j puts every value
    # below the doubles
    return m, k - math.floor(nu) - int(min(j, 2.0 ** 1023))


def _phi(nu: float, rule: tuple, root: complex):
    """(values, bits) with psi(c*root) = J_nu(c*root) * (c*root)^{-nu} / phi(0)
    = values 2^bits at the nodes c of the quadrature rule `rule`, an even
    (entire) function of root; phi(0) is `_phi_zero`'s.  Where every
    |c root| <= _SHORT_SERIES_MAX, as on the unit rule for |root| <= 4,
    `_psi_tabled` runs on the cached table of c^{2k}: each series is one
    product of the table with (-root^2/4)^k / (k! (mu+1)_k), of modest size
    at any order, and bits is 0; otherwise every node goes to `_psi`."""
    c, table = _node_powers(rule)
    w = complex(root)
    r = abs(w) * c[-1]
    if r > _SHORT_SERIES_MAX:
        return _psi(nu, c * w)
    return _psi_tabled(nu, r, table, -w * w / 4.0), 0
