"""Gegenbauer, Jacobi and Chebyshev evaluation with overflow-safe scaling.

All families are evaluated by forward three-term recurrence (stable here:
every call site sits in or near the ellipse where the polynomials are the
dominant solution).  Values are carried as (mantissa, log_scale) pairs so
that degrees up to 10^5 and arguments like 1/tau ~ 10^6 never overflow.

One rescale rule serves every run: per point, the recurrence pair
(p_{n-1}, p_n) shares one power-of-two exponent, tested once per block of
`_block_length` degrees and moved by the frexp exponent of its larger
magnitude when that leaves [2^-250, 2^250].  The one-point run
(`_scalar_steps`, plain Python) and the batch run (`_blocks`, numpy) test
at the same block starts, so they carry the same exponent at every degree.

One normalisation serves the kernels: `log_raw_norms` gives log int |p_n|^2 w
for the polynomial p_n the recurrence produces, from p_n(1/tau) for the
Gegenbauer and Jacobi gases and from closed forms in the Joukowsky radius for
the Chebyshev gases.  The monic polynomials
M_n = kappa_n p_n and their norms h_n = kappa_n^2 int |p_n|^2 w are the
public view on top of it (`log_monic_factors`, `log_squared_norms`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DomainError, OutOfRangeError
from .geometry import (EllipseGeometry, GasFamily, PolyFamily, PolyKind, _check, _check_point,
                       _times_exp)
from .specialfns import _LN2, _log_beta, _read_only, ln_gamma, ln_gamma_difference

# a recurrence pair is rescaled when, at a block start, it leaves
# [2^-250, 2^250], so the square of a value, which the streamed kernel sum
# takes, stays finite after any block that `_block_length` allows; a rescale
# is by a power of two, so it changes no bit
_RESCALE_LO, _RESCALE_HI = 2.0 ** -250, 2.0 ** 250
# the largest Jacobi exponent alpha or gamma: the coefficients take products
# of three factors of its size, which leave the doubles from about 5.6e102
_JACOBI_MAX = 1e100
# the most degrees a block holds: a batch's buffers take 24 B per degree and
# point; 16 and 24 were no faster on 800 to 3200 points, and slower at N = 3000
_BLOCK_MAX = 32
# the most entries of a `scaled_sequence` table: on a 2-vCPU VM `orthocheck`
# on 16 degrees and 512 x 512 nodes, 2^22 entries, took 0.67 s and 347 MB,
# about 92 B an entry
_MAX_TABLE = 2 ** 22


@dataclass(frozen=True)
class ScaledValue:
    """A complex value mantissa * exp(log_scale) with |mantissa| in [0.5, 2)."""

    mantissa: complex
    log_scale: float

    @property
    def value(self) -> complex:
        """mantissa * exp(log_scale); OutOfRangeError past the double range."""
        return _times_exp(self.mantissa, float(self.log_scale))

    @staticmethod
    def of(z: complex) -> "ScaledValue":
        """z by the normalisation of `_scaled_table`; 0 as (0, 0); DomainError
        for a part that is inf or nan, which has no mantissa."""
        _check_point("ScaledValue.of", complex(z), domain="plane")
        m = np.array([complex(z)])
        k = _normalise(m)
        return ScaledValue(complex(m[0]), float(k[0]) * _LN2) if z else ScaledValue(0.0, 0.0)


def _jacobi_coefficients(alpha: float, gamma: float, n_max: int):
    """(alpha_n, beta_n, gamma_n), n = 0..n_max, of the Jacobi recurrence
    P_n = (alpha_n + beta_n z) P_{n-1} + gamma_n P_{n-2} for P^(alpha, gamma).

    Index 0 is unused; the n = 1 entries give P_1 from P_0 = 1 and P_{-1} = 0.
    OutOfRangeError for an exponent past `_JACOBI_MAX`.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if alpha > _JACOBI_MAX or gamma > _JACOBI_MAX:
        raise OutOfRangeError(f"jacobi needs alpha, gamma <= {_JACOBI_MAX:g}, got {alpha}, {gamma}")
    al, be = alpha, gamma
    n = np.arange(n_max + 1, dtype=float)
    n[:2] = 2.0  # placeholders, overwritten below (avoids a 0/0 at n = 0, 1)
    c = 2.0 * n + al + be
    a1 = 2.0 * n * (n + al + be) * (c - 2.0)
    lin0 = (c - 1.0) * (al * al - be * be) / a1
    lin1 = (c - 2.0) * (c - 1.0) * c / a1
    quad = -2.0 * (n + al - 1.0) * (n + be - 1.0) * c / a1
    if n_max >= 1:
        lin0[1], lin1[1], quad[1] = 0.5 * (al - be), 0.5 * (al + be + 2.0), 0.0
    return lin0, lin1, quad


@functools.lru_cache(maxsize=16)
def _coefficients(family: PolyFamily, n_max: int):
    """z-independent (alpha_n, beta_n, gamma_n) of the family's recurrence
    p_n = (alpha_n + beta_n z) p_{n-1} + gamma_n p_{n-2}, n = 1..n_max
    (p_0 = 1, p_{-1} = 0; index 0 is unused).  Cached; the arrays are
    read-only."""
    return _read_only(*_build_coefficients(family, n_max))


def _build_coefficients(family: PolyFamily, n_max: int):
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    kind = family.kind
    if kind in (PolyKind.GEGENBAUER, PolyKind.CHEBYSHEV_U):
        aa = family.a if kind is PolyKind.GEGENBAUER else 0.0
        n = np.arange(n_max + 1, dtype=float)
        n[0] = 1.0  # placeholder for the unused index 0
        return np.zeros(n_max + 1), 2.0 * (n + aa) / n, -(n + 2.0 * aa) / n
    if kind in (PolyKind.JACOBI_PLUS, PolyKind.JACOBI_MINUS):
        return _jacobi_coefficients(family.a + 0.5,
                                   0.5 if kind is PolyKind.JACOBI_PLUS else -0.5, n_max)
    if kind in (PolyKind.CHEBYSHEV_T, PolyKind.CHEBYSHEV_V):
        lin0, lin1, quad = np.zeros(n_max + 1), np.full(n_max + 1, 2.0), np.full(n_max + 1, -1.0)
        if n_max >= 1:
            # T_1 = z; third-kind gas convention (orthogonal under 1/|1+z|): V_1 = 2z + 1
            lin0[1], lin1[1] = (0.0, 1.0) if kind is PolyKind.CHEBYSHEV_T else (1.0, 2.0)
        return lin0, lin1, quad
    raise DomainError(f"unknown polynomial kind {kind}")


def _block_length(coefs, radius: float, log2_scale: float = 0.0) -> int:
    """Degrees per block of `_blocks` at points with |z| <= radius, for a sum
    of terms 4^log2_scale |p_n|^2: at least 1 and at most `_BLOCK_MAX` and
    the number of steps.  A block starts from a pair whose larger magnitude
    is in [2^-250, 2^250] (or 0), and one step moves that magnitude by at
    most a factor G = max |alpha_n| + |beta_n| radius + |gamma_n| up and
    H = max (1 + |alpha_n| + |beta_n| radius)/|gamma_n| down, so
    K log2 G + log2_scale <= 250 keeps every term below 2^1000 and
    K log2 H <= 700 keeps the pair normal; a nan bound (a nan point) is
    ignored.  Its blocks are where the one rescale rule tests, in
    `_blocks` and in `_scalar_steps` alike."""
    lin0, lin1, quad = (np.abs(c[1:]) for c in coefs)
    lin = lin0 + lin1 * radius
    grow = math.log2(np.max(lin + quad, initial=2.0))
    shrink = math.log2(np.max((1.0 + lin[1:]) / quad[1:], initial=2.0))
    return max(1, int(min(_BLOCK_MAX, len(lin), (250.0 - log2_scale) / grow, 700.0 / shrink)))


def _blocks(coefs, zs, size: int):
    """Run the recurrence at the points zs (1-d), `size` degrees per block,
    in their dtype: real points, such as the nodes of a Gauss rule, run in
    real arithmetic.

    Yields (n0, block, bits, rescaled) in order of degree, p_0 = 1 alone
    first: the rows of block are p_n(zs) 2^-bits for n = n0, n0 + 1, ...
    Per point the pair (p_{n-1}, p_n) that ends a block shares one exponent
    and is rescaled when its larger magnitude leaves [2^-250, 2^250], the
    package's one rescale rule, which `_scalar_steps` tests at the same
    block starts; bits changes only then, and rescaled says whether it did
    since the last block.  A consumer may overwrite a block; bits is updated
    in place, so a consumer copies what it keeps past the next block.  Rescales are powers
    of two, so where a block ends changes no bit of p_n(zs) that is not
    subnormal.
    """
    lin0, lin1, quad = (c.tolist() for c in coefs)
    # rows 0 and 1 carry the pair that ends the last block
    buf = np.empty((size + 2, zs.shape[0]), dtype=zs.dtype)
    rows, tmp = list(buf), np.empty_like(zs)
    buf[0], buf[1] = 0.0, 1.0
    bits = np.zeros(zs.shape)
    yield 0, np.ones((1, zs.shape[0]), dtype=zs.dtype), bits, False
    for n0 in range(1, len(lin0), size):
        big = np.maximum(np.abs(buf[0]), np.abs(buf[1]))
        out = (big > _RESCALE_HI) | ((big > 0.0) & (big < _RESCALE_LO))
        rescaled = bool(out.any())
        if rescaled:
            e = np.frexp(big[out])[1]
            buf[:2, out] *= np.exp2(-e)
            bits[out] += e
        k = min(size, len(lin0) - n0)
        for j, n in enumerate(range(n0, n0 + k), 2):
            row = rows[j]
            np.multiply(lin1[n], zs, out=row)
            if lin0[n]:
                row += lin0[n]
            row *= rows[j - 1]
            np.multiply(quad[n], rows[j - 2], out=tmp)
            row += tmp
        buf[:2] = buf[k:k + 2]
        yield n0, buf[2:k + 2], bits, rescaled


def _scalar_steps(coefs, z, size: int):
    """(values, exponents) of p_0..p_n_max at one point, as arrays: the
    recurrence of `_blocks` in plain Python, which beats numpy at one point,
    with its one rescale rule.  `size` is a block length of `_block_length`
    at a radius of at least |z|; the pair is tested at the block starts
    1, 1 + size, ..., as `_blocks(coefs, zs, size)` tests it, so the
    exponents are those of `_blocks` at every degree, and no step tests a
    magnitude.  A float z runs in float arithmetic, about 1.5x faster; its
    values are the real parts of the run at complex(z) bit for bit, because
    every coefficient is real."""
    lin0, lin1, quad = coefs
    steps = zip((lin0[1:] + lin1[1:] * z).tolist(), quad[1:].tolist())
    real = isinstance(z, float)
    prev, curr = (0.0, 1.0) if real else (0.0j, 1.0 + 0.0j)
    vals = [curr]
    append = vals.append
    # the exponent added at each degree, summed at the end
    shifts = np.zeros(len(lin0))
    for n0 in range(1, len(lin0), size):
        big = max(abs(prev), abs(curr))
        if big > _RESCALE_HI or 0.0 < big < _RESCALE_LO:
            k = math.frexp(big)[1]
            f = math.ldexp(1.0, -k)
            prev *= f
            curr *= f
            shifts[n0] = k
        for lin, g_n in islice(steps, size):
            prev, curr = curr, lin * curr + g_n * prev
            append(curr)
    return np.fromiter(vals, float if real else complex, len(vals)), np.cumsum(shifts)


def _scaled_table(coefs, z):
    """(mantissas, logs) [n_max+1, npts] of the recurrence at points z: one
    point in plain Python, several block by block, with the block length
    that the largest |z| allows."""
    zs = np.atleast_1d(np.asarray(z)).ravel()
    size = _block_length(coefs, np.max(np.abs(zs), initial=0.0))
    if zs.shape[0] == 1:
        z0 = complex(zs[0]) if np.iscomplexobj(zs) else float(zs[0])
        mant, logs = (v[:, None] for v in _scalar_steps(coefs, z0, size))
    else:
        mant = np.empty((coefs[0].shape[0], zs.shape[0]), dtype=complex)
        logs = np.empty(mant.shape)
        for n0, block, bits, _ in _blocks(coefs, zs.astype(complex), size):
            mant[n0:n0 + len(block)] = block
            logs[n0:n0 + len(block)] = bits
    # exact zeros carry a -inf log so they can never dominate the
    # max-exponent alignment of downstream sums
    logs += _normalise(mant)
    logs *= _LN2
    logs[mant == 0.0] = -np.inf
    return mant.astype(complex, copy=False), logs


def _normalise(mant: np.ndarray) -> np.ndarray:
    """The exponents k with mant = m 2^k and |m| in [1/2, 1), mant overwritten
    by m (0 stays 0, with k = 0): the one frexp normalisation of a scaled
    value.  A subnormal value takes 2^-k in two factors, as one is past the
    double range; every factor is a power of two, so m rounds nowhere."""
    k = np.frexp(np.abs(mant))[1]
    step = np.minimum(-k, 1000)
    mant *= np.exp2(step)
    sub = step != -k
    mant[sub] *= np.exp2(-k[sub] - step[sub])
    return k


def scaled_sequence(family: PolyFamily, n_max: int, z):
    """All degrees 0..n_max at points z: mantissas [n_max+1, npts], logs alike;
    DomainError, before any is built, for a table past _MAX_TABLE entries.

    z may be a scalar or a 1-d complex array.  Per point, the recurrence pair
    shares one running exponent, tested at the start of each block of
    `_block_length` degrees (for the largest |z|) and rescaled when it has
    left [2^-250, 2^250]; emitted values are frexp-normalized.  One point
    runs a plain-Python loop, several points one vectorized loop (`_blocks`);
    both rescale at the same degrees and give the bits of a degree-by-degree
    run.
    """
    points = np.size(z)
    if (n_max + 1) * points > _MAX_TABLE:
        raise DomainError(f"a polynomial table needs (n_max + 1) * points <= {_MAX_TABLE}, "
                          f"got n_max = {n_max} at {points} points")
    return _scaled_table(_coefficients(family, n_max), z)


def _scaled_at(coefs, z: complex) -> ScaledValue:
    """The highest degree of the recurrence at one point."""
    mant, logs = _scaled_table(coefs, complex(z))
    m = complex(mant[-1, 0])
    return ScaledValue(m, float(logs[-1, 0])) if m else ScaledValue(0.0, 0.0)


def gegenbauer(n: int, a: float, z: complex) -> ScaledValue:
    """C_n^{(a+1)}(z) by forward recurrence, log-scaled."""
    return _scaled_at(_coefficients(PolyFamily(PolyKind.GEGENBAUER, a), n), z)


def jacobi(n: int, alpha: float, gamma: float, z: complex) -> ScaledValue:
    """P_n^{(alpha,gamma)}(z); only gamma = +-1/2 arises in the gases here,
    but the recurrence is the general one."""
    _check("alpha", alpha)
    _check("gamma", gamma)
    return _scaled_at(_jacobi_coefficients(alpha, gamma, n), z)


def chebyshev_t(n: int, z: complex) -> complex:
    return complex(_scaled_at(_coefficients(PolyFamily(PolyKind.CHEBYSHEV_T), n), z).value)


def chebyshev_u(n: int, z: complex) -> complex:
    return complex(_scaled_at(_coefficients(PolyFamily(PolyKind.CHEBYSHEV_U), n), z).value)


def chebyshev_v(n: int, z: complex) -> complex:
    return complex(_scaled_at(_coefficients(PolyFamily(PolyKind.CHEBYSHEV_V), n), z).value)


def log_monic_factors(family: PolyFamily, n_max: int) -> np.ndarray:
    """log kappa_n with M_n = kappa_n * (raw family polynomial of degree n)."""
    n = np.arange(n_max + 1)
    a = family.a
    kind = family.kind
    if kind is PolyKind.GEGENBAUER:
        return ln_gamma(a + 1) - ln_gamma_difference(n + 1, a) - n * _LN2
    if kind in (PolyKind.JACOBI_PLUS, PolyKind.JACOBI_MINUS):
        # 2^n n! Gamma(n+b)/Gamma(2n+b), with Gamma(2n+b) split by Legendre's
        # duplication formula so that no log-gamma of size n log n is cancelled
        b = a + (2 if kind is PolyKind.JACOBI_PLUS else 1)
        return (0.5 * math.log(math.pi) - (n + b - 1) * _LN2
                + ln_gamma_difference(n + b / 2 + 0.5, b / 2 - 0.5)
                - ln_gamma_difference(n + 1, b / 2 - 1))
    if kind is PolyKind.CHEBYSHEV_T:
        return np.where(n == 0, 0.0, (1 - n) * _LN2)
    # U and V: leading coefficient 2^n
    return -n * _LN2


def monic_value(family: PolyFamily, n: int, z: complex) -> ScaledValue:
    """M_n(z): the family polynomial normalized to unit leading coefficient."""
    raw = _scaled_at(_coefficients(family, n), z)
    lk = float(log_monic_factors(family, n)[n])
    return ScaledValue(raw.mantissa, raw.log_scale + lk)


def monic_scaled_sequence(family: PolyFamily, n_max: int, z):
    """(mantissas, logs) of M_0..M_{n_max} at points z."""
    mant, logs = scaled_sequence(family, n_max, z)
    return mant, logs + log_monic_factors(family, n_max)[:, None]


def log_raw_norms(gas: GasFamily, geometry: EllipseGeometry, n_max: int) -> np.ndarray:
    """log of int |p_n|^2 w, n = 0..n_max, for the family polynomial p_n of
    the recurrence (not the monic one): the normalisation of the kernel.

    Closed forms: the Gegenbauer and Jacobi norms need the gas's own
    polynomial at 1/tau, p_n(1/tau), evaluated log-scaled (for the Jacobi
    gases through the quadratic map 2 semi_x^2 - 1 = 1/tau from the Gegenbauer
    form at semi_x); Chebyshev norms reduce to powers of the Joukowsky radius v.
    """
    n = np.arange(n_max + 1)
    a = gas.a
    tau = geometry.tau
    kind = gas.kind
    if kind in (PolyKind.GEGENBAUER, PolyKind.JACOBI_PLUS, PolyKind.JACOBI_MINUS):
        if kind is PolyKind.GEGENBAUER:
            # (1 - tau)(1 + tau), not 1 - tau^2: 1 - tau is exact from tau = 1/2
            c = math.log(math.pi * math.sqrt((1 - tau) * (1 + tau)) / (2 * tau))
            d = np.log(n + a + 1)
        else:
            # C_{2n+off-1}^(a+1)(semi_x) is P_n^(a+1/2, off-3/2)(1/tau) times
            # a Pochhammer ratio and, for jacobi-plus, semi_x (DLMF 18.7.13-14);
            # the ratio leaves Gamma(a + 1) Gamma(n + off - 1/2)/Gamma(n + a + off),
            # taken as B(a + 1, n + off - 1/2) Gamma(n + a + off + 1/2)/Gamma(n + a + off)
            # so that no two log-gammas of size a log a cancel
            off = 2 if kind is PolyKind.JACOBI_PLUS else 1
            c = (off * _LN2 + 0.5 * math.log(math.pi * (1 - tau) / (2 * tau))
                 + (off - 1) * math.log(geometry.semi_x))
            d = (np.log(2 * n + a + off) - _log_beta(a + 1, n + off - 0.5)
                 - ln_gamma_difference(n + a + off, 0.5))
        mant, logs = scaled_sequence(gas, n_max, 1.0 / tau)
        # mantissas are positive for argument > 1; the exponent, the largest
        # term, is added last
        return logs[:, 0] + (np.log(mant[:, 0].real) + c - d)
    # Chebyshev T, U, V: pi (v^m - v^-m) / (c m) with m = 2n, 2n + 2, 2n + 1 and
    # c = 2, 2, 1, where log(v^m - v^-m) = t + log(-expm1(-2t)), t = m log v,
    # stays accurate when t is tiny; the zero mode of T, m = 0, is 2 pi log v
    m = 2 * n + {PolyKind.CHEBYSHEV_T: 0, PolyKind.CHEBYSHEV_U: 2}.get(kind, 1)
    c = 1.0 if kind is PolyKind.CHEBYSHEV_V else 2.0
    ms = np.maximum(m, 1)
    log_v = math.asinh(geometry.semi_y)      # log(A + B), without rounding v = A + B
    t = ms * log_v
    lh = math.log(math.pi) + (t + np.log(-np.expm1(-2.0 * t))) - np.log(c * ms)
    return np.where(m == 0, math.log(2 * math.pi * log_v), lh)


def log_squared_norms(gas: GasFamily, geometry: EllipseGeometry, n_max: int) -> np.ndarray:
    """log h_n, n = 0..n_max, for the monic polynomials of the gas:
    2 log kappa_n plus the raw norms of `log_raw_norms`."""
    return 2.0 * log_monic_factors(gas, n_max) + log_raw_norms(gas, geometry, n_max)


def squared_norm(gas: GasFamily, geometry: EllipseGeometry, n: int) -> float:
    """log of the monic squared norm h_n (norms overflow double at large n)."""
    if n < 0:
        raise DomainError("n must be >= 0")
    return float(log_squared_norms(gas, geometry, n)[n])
