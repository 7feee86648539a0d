"""Finite-N correlation kernels, plus the truncated-unitary and elliptic
Ginibre reference kernels used as limit targets.

The gas kernel is K_N(z1,z2) = sqrt(w(z1) w(z2)) sum_{n<N} p_n(z1) p_n(zbar2)/h_n
with p_n the Gegenbauer, Jacobi or Chebyshev polynomial of the recurrence in
`polynomials` and h_n = int |p_n|^2 w its norm from `log_raw_norms`; no monic
factor enters.  p_n(zbar) = conj p_n(z) because the coefficients are real.
The recurrence carries each value as a mantissa and an exponent, so
evaluation stays finite arbitrarily close to the wall and for N ~ 10^4.

A kernel builds one scaled coefficient table: with 1/sqrt(h_n) = sigma_n 2^f_n,
the family's coefficients scaled by powers of two only carry 2^f_n p_n bit
for bit, and sigma_n enters each term once.  Both point paths run it.  A
single point runs it in plain Python (`_point`) and keeps one feature table
F and one log scale s, F_n e^s = sqrt(w(z)) q_n(z) for the orthonormal
q_n = p_n/sqrt(h_n), with the largest |F_n| in [1/2, 1); a pair of points
is one conjugate dot product of two tables times e^(s1 + s2).  A kernel
keeps the checked entry of each of the last `_STORE_POINTS` points it was
asked for, so a k-point determinant runs k recurrences; at 16 B per term
the store holds at most about 5.1 MB at N = 10^4.  A batch (`_stream`) runs
the table block by block, K degrees at a time, vectorized over the points,
with one magnitude, one rescale test, one alignment to each point's largest
exponent and one reduction per block, and never holds an [N, points] table;
each sum is folded to a mantissa in [1/2, 1) before it meets its
exponential.  K comes from the kernel alone (`polynomials._block_length`:
at most 32, fewer where one step of the scaled table can grow or shrink a
value fast), and the diagonal of 808 points at N = 300 takes about half the
time of a degree-by-degree run.  Every operation is per point, so a
streamed value does not depend on the rest of its batch.  A row
K_N(z1, zs) streams zs against z1's kept table.  Every integer exponent
becomes a log through `_plus_bits`, which rounds no exponent times ln 2,
and a value whose log scale leaves the double range raises
OutOfRangeError.  At N = 10^4 near the wall (deficit 1e-4 to 1e-2,
a = 0.5, tau = 0.5) both paths are within 2.6e-14 of 40-digit sums for the
Gegenbauer and Jacobi gases, and at a = 300, tau = 1e-6, N = 3000, where
term exponents reach 2e4, `eval` is within 3.4e-15 and `diagonal` 1.4e-14.

The truncated-unitary kernel adds its terms in log space, aligned to the
largest, with the wall prefactor folded into the exponent.  The elliptic
Ginibre kernel runs the orthonormal Hermite recurrence at both points, with
no log-gamma per term, and takes the Gaussian factor in the log scale of the
product of the two folded tables.  Both stay finite for N up to 10^4.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict

import numpy as np

from .errors import OutOfRangeError, SingularPointError
from .geometry import (EllipseGeometry, GasFamily, _check, _check_point, _log_power, _times_exp,
                       log_weight, log_weight_values)
from .polynomials import _block_length, _blocks, _coefficients, _scalar_steps, log_raw_norms
from .specialfns import _LN2, _plus_bits, _read_only, ln_gamma, ln_gamma_difference

# points whose checked single-point table a kernel keeps, oldest evicted first
_STORE_POINTS = 32
# |beta| past which kernel_truncated_edge refuses: its 64-node rule no longer
# resolves e^(-c beta) near the imaginary axis (1e-11 off at 180)
_TRUNCATED_EDGE_BETA_MAX = 160.0


def _fold(vals, bits, sigma=1.0):
    """(F, t) with F 2^t = sigma vals 2^bits, for the integer t that puts the
    largest |F_n| in [1/2, 1): powers of two scale F, so only sigma vals rounds."""
    top = bits.max()
    f = sigma * vals * np.exp2(bits - top)
    e = math.frexp(float(np.max(np.abs(f))))[1]
    return f * math.ldexp(1.0, -e), int(top) + e


class FiniteKernel:
    """Immutable N-point projection kernel of one gas on one ellipse."""

    def __init__(self, gas: GasFamily, geometry: EllipseGeometry, N: int):
        _check("N", N)
        self.gas = gas
        self.geometry = geometry
        self.N = N
        # log c_n of c_n = 1/sqrt(h_n), which turns p_n into the orthonormal p_n/sqrt(h_n)
        self._log_c = -0.5 * log_raw_norms(gas, geometry, N - 1)
        # c_n = sigma_n 2^f_n with f_n = floor(log2 c_n) - floor(log2 c_0), so
        # sigma_n is within a factor 2 of c_0 = 1/sqrt(int w), far inside the
        # double range: the family's coefficients, scaled by powers of two only (degree n by
        # 2^(f_n - f_{n-1}), its p_{n-2} term by 2^(f_n - f_{n-2})), carry the
        # bits of 2^f_n p_n
        f = np.floor(self._log_c / _LN2) - math.floor(self._log_c[0] / _LN2)
        d = np.diff(f, prepend=0.0).astype(int)
        lin0, lin1, quad = _coefficients(gas, N - 1)
        self._coefs = np.ldexp(lin0, d), np.ldexp(lin1, d), np.ldexp(quad, d + np.roll(d, 1))
        self._sigma = np.exp(_plus_bits(self._log_c, -f))
        # degrees per block of a batch, whose points have |z| <= semi_x
        self._block = _block_length(self._coefs, geometry.semi_x, math.log2(self._sigma.max()))
        # point -> (features F, log scale s) of `_point`
        self._store = OrderedDict()

    def _check_points(self, zs: np.ndarray) -> np.ndarray:
        _check_point("finite", zs, params=(self.geometry,))
        lw = log_weight_values(self.gas, self.geometry, zs)
        singular = lw == math.inf
        if singular.any():
            raise SingularPointError(f"point {zs[singular][0]} sits on a weight singularity")
        return lw

    def _point(self, z: complex):
        """(features F, log scale s) at one point, with F_n e^s = sqrt(w(z)) q_n(z)
        for the orthonormal q_n = p_n/sqrt(h_n), n < N.  The kernel's scaled
        table gives 2^f_n p_n(z) = v_n 2^(b_n), and F_n = sigma_n v_n 2^(b_n - t)
        for the integer t that puts the largest |F_n| in [1/2, 1), so only
        sigma_n v_n rounds; s = lw/2 + t ln2 is one float.  Checked and
        computed on the point's first use and then read from the store; a
        point that fails its check raises and is not stored."""
        key = complex(z)
        entry = self._store.get(key)
        if entry is None:
            _check_point("finite", z, params=(self.geometry,))
            lw = log_weight(self.gas, self.geometry, z)
            if lw == math.inf:
                raise SingularPointError(f"point {z} sits on a weight singularity")
            feats, t = _fold(*_scalar_steps(self._coefs, key), self._sigma)
            entry = (_read_only(feats), _plus_bits(0.5 * lw, t))
            while len(self._store) >= _STORE_POINTS:
                self._store.popitem(last=False)
            self._store[key] = entry
        return entry

    def _pair(self, z1, z2):
        """K_N(z1, z2) of two single points as one product of their feature
        tables, sum_n F_n(z1) conj F_n(z2) e^(s1 + s2); the real K_N(z2, z2)
        when z1 is None or equal to z2.  z1 is checked first."""
        if z1 is not None:
            f1, s1 = self._point(z1)
        f2, s2 = self._point(z2)
        if z1 is None or z1 == z2:
            return _times_exp(float(np.vdot(f2, f2).real), 2.0 * s2)
        return _times_exp(complex(np.vdot(f2, f1)), s1 + s2)

    def _stream(self, zs: np.ndarray, f1=None):
        """(acc, bits) with acc 2^bits the sum over n of sigma_n^2 |P_n(zs)|^2,
        or of f1_n sigma_n conj P_n(zs) for a first point's kept feature table
        f1 from `_point`, where P_n = 2^f_n p_n comes from the kernel's scaled
        table, so sigma_n multiplies each term once.

        The terms come block by block from `_blocks`.  Each point
        accumulates in units of 2^top, its largest term exponent so far; top
        and the term factor change only when its recurrence pair is rescaled,
        which is tested once per block.  A block's terms join the sum in one
        reduction over the rows [acc + first term; the other terms], which
        adds them in order of degree after the sum, as a degree-by-degree
        run does, so the values are its bits (but for subnormal parts, at
        points with a subnormal coordinate).  Every operation is per point,
        so a value does not depend on the rest of its batch.
        """
        scalars = self._sigma * self._sigma if f1 is None else f1 * self._sigma
        terms = np.empty((self._block, zs.shape[0])) if f1 is None else None
        acc = np.zeros(zs.shape, dtype=scalars.dtype)
        # every exponent is 0 until the first rescale, and fac None stands for 1
        top, fac = np.zeros(zs.shape), None
        for n0, block, bits, rescaled in _blocks(self._coefs, zs, self._block):
            if rescaled:
                expo = bits * (2.0 if f1 is None else 1.0)     # a copy: _blocks updates bits
                new = np.maximum(top, expo)
                acc *= np.exp2(top - new)
                # of the sum's dtype, so that no block casts it
                top, fac = new, np.exp2(expo - new).astype(acc.dtype)
            if f1 is None:
                rows = np.abs(block, out=terms[:len(block)])
                rows *= rows
            else:
                rows = np.conjugate(block, out=block)
            if fac is not None:
                rows *= fac
            rows *= scalars[n0:n0 + len(rows), None]
            # acc first, then the terms in order of degree
            rows[0] += acc
            np.add.reduce(rows, axis=0, out=acc)
        return acc, top

    def _kernel(self, z1, zs: np.ndarray) -> np.ndarray:
        """K_N(z1, zs[i]), or the diagonal K_N(zs[i], zs[i]) when z1 is None,
        with z1 checked before zs.  A single point is checked and kept by
        `_point` and evaluated by `_pair`, as `eval` is; a batch is checked as
        a whole and streamed against z1's kept table.  Each streamed sum is
        folded to a mantissa in [1/2, 1) before it meets its exponential."""
        if len(zs) == 1:
            return np.array([self._pair(z1, complex(zs[0]))])
        # the log scale of a value is s1 + c lw(zs) plus the bits of its sum
        f1, s1, c = (None, 0.0, 1.0) if z1 is None else (*self._point(z1), 0.5)
        lws = self._check_points(zs)
        acc, top = self._stream(zs, f1)
        e = np.frexp(np.abs(acc))[1]
        return _times_exp(acc * np.exp2(-e), _plus_bits(s1 + c * lws, top + e))

    def __call__(self, z1: complex, z2: complex) -> complex:
        return self.eval(z1, z2)

    def eval(self, z1: complex, z2: complex) -> complex:
        return complex(self._pair(z1, z2))

    def diagonal(self, zs) -> np.ndarray:
        """Density rho_1 = K_N(z, z) at a batch of points of the ellipse;
        DomainError outside it, SingularPointError on a weight singularity."""
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        return self._kernel(None, zs.ravel()).reshape(zs.shape)

    def eval_batch(self, z1: complex, zs) -> np.ndarray:
        """K_N(z1, zs[i]) for a batch of second arguments, with the domain
        checks of `eval`; complex, also where zs is the one point z1."""
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        return self._kernel(z1, zs.ravel()).astype(complex, copy=False).reshape(zs.shape)


def kernel_eval(kernel: FiniteKernel, z1: complex, z2: complex) -> complex:
    return kernel.eval(z1, z2)


def _exact_abs2(z: complex) -> tuple:
    """|z|^2 = x^2 + y^2 of a complex double, exactly, as an integer
    numerator and denominator: each double is an integer over a power of two."""
    z = complex(z)
    a, b = z.real.as_integer_ratio()
    c, d = z.imag.as_integer_ratio()
    return a * a * d * d + c * c * b * b, b * b * d * d


def kernel_truncated(a: float, N: int, z1: complex, z2: complex) -> complex:
    """Finite-N kernel of the truncated-unitary ensemble on the unit disc.

    Its terms take log Gamma(n+a+2) - log Gamma(n+1) from one
    `ln_gamma_difference`: as two log-gammas it was 1.3e-10 off at n = 1e5.
    The wall factors log(1 - |z|^2), and log|q| = log|z1 conj z2| for
    |q| > 1/sqrt(2), are taken from |z|^2 = x^2 + y^2 summed exactly, as
    `kernels_limit._edge_wall` sums its wall factor: from the rounded |q|
    the n-th term lost n eps, and the kernel 1e-11 at N = 1e5 near the wall
    off the axes. Farther in, the terms fall off as |q|^n and log|q| is
    taken from the rounded |q|.
    """
    _check("a", a)
    _check("N", N)
    _check_point("truncated", z1, z2)
    q = z1 * np.conj(z2)
    n = np.arange(N if q else 1)             # q = 0 leaves the n = 0 term
    (n1, d1), (n2, d2) = _exact_abs2(z1), _exact_abs2(z2)
    p, d = n1 * n2, d1 * d2                  # |q|^2 = p / d, exact
    # log1p only near the wall: at small |q| the rounded p - 1 loses eps/p.
    # Each int / int below is one correct rounding of an exact quotient.
    log_q = 0.5 * math.log1p((p - d) / d) if 2 * p > d else math.log(abs(q) or 1.0)
    lt = (ln_gamma_difference(n + 1, a + 1) - ln_gamma(a + 1) + n * log_q
          + 0.5 * a * (math.log((d1 - n1) / d1) + math.log((d2 - n2) / d2)))
    top = np.max(lt)
    s = np.sum(np.exp(lt - top) * (q / abs(q) if q else 1.0) ** n)
    return complex(s) * math.exp(top) / math.pi


def kernel_truncated_limit(a: float, z1: complex, z2: complex) -> complex:
    """N -> infinity closed form of the truncated-unitary kernel,
    (a+1)/pi (1-|z1|^2)^{a/2} (1-|z2|^2)^{a/2} / w^{a+2}, w = 1 - z1 conj z2.

    With x = |z1-z2|^2/|w|^2 = 1 - (1-|z1|^2)(1-|z2|^2)/|w|^2 it is
    (a+1)/pi exp((a/2) log(1-x) - 2 log|w| - i (a+2) arg w), and log(1-x) is
    log1p(-x) for x < 1/2: no two terms of size a cancel, so the diagonal
    (x = 0) keeps full relative accuracy at any a.  For x >= 1/2, where
    log1p(-x) would lose 1 - x, log(1-x) is the sum of the logs of the three
    factors.  w is formed as 1 - |z2|^2 - (z1-z2) conj z2, so Im w has no
    cancellation and the phase (a+2) arg w of close pairs stays accurate; arg w
    is the principal one, because Re w > 0 on the disc.  A value past the
    double range raises OutOfRangeError.
    """
    _check("a", a)
    _check_point("truncated-limit", z1, z2)
    w = 1 - z2 * z2.conjugate() - (z1 - z2) * z2.conjugate()
    x = (abs(z1 - z2) / abs(w)) ** 2
    log_1mx = (math.log1p(-x) if x < 0.5 else
               math.log1p(-abs(z1) ** 2) + math.log1p(-abs(z2) ** 2) - 2.0 * math.log(abs(w)))
    k = (a + 1) / math.pi * cmath.exp(complex(0.5 * a * log_1mx - 2.0 * math.log(abs(w)),
                                               -(a + 2) * cmath.phase(w)))
    if cmath.isinf(k):
        raise OutOfRangeError(f"kernel_truncated_limit leaves the double range at a = {a:g}")
    return k


def kernel_truncated_edge(a: float, Z1: complex, Z2: complex) -> complex:
    """Edge limit of the truncated-unitary kernel at unity.

    lim (1/4N^2) K_N^trunc(1 - Zhat_j/(2N)) with Zhat = Xhat + i Yhat,
    evaluated by Gauss-Jacobi quadrature of int_0^1 c^{a+1} e^{-c beta} dc,
    beta = (Xhat1 + Xhat2)/2 + i (Yhat1 - Yhat2)/2.
    This is the independent cross-check path for the strong edge kernel; its
    prefactor (Xhat1 Xhat2)^{a/2}/(4 pi Gamma(a+1)) is taken in log space, as
    there, with the same inf flag on the edge Xhat = 0 for a < 0.

    Up to |beta| = 160 the integral is within 5e-14 of
    int_0^1 c^{a+1} e^{-c Re beta} dc, its scale, for -0.99 <= a <= 30 and
    every arg beta (1.3e-13 at a = 300); past it the rule fails first near
    the imaginary axis, 1e-11 off at |beta| = 180 and 0.3 at 260, so it
    raises OutOfRangeError there.  A prefactor past the double range is
    refused first.
    """
    _check("a", a)
    Z1, Z2 = complex(Z1), complex(Z2)
    _check_point("kernel_truncated_edge", Z1, Z2, domain="right half-plane")
    # 2^{-(a+2)} turns the Gauss-Jacobi sum at c = (xj + 1)/2 into int_0^1 c^{a+1} F(c) dc
    lpref = (_log_power(0.5 * a, Z1.real) + _log_power(0.5 * a, Z2.real)
             - math.log(4.0 * math.pi) - ln_gamma(a + 1) - (a + 2.0) * _LN2)
    if lpref == math.inf:
        return complex(math.inf, 0.0)   # integrable hard-edge divergence, flagged
    pref = _times_exp(1.0, lpref)
    beta = 0.5 * (Z1.real + Z2.real) + 0.5j * (Z1.imag - Z2.imag)
    if abs(beta) > _TRUNCATED_EDGE_BETA_MAX:
        raise OutOfRangeError(f"kernel_truncated_edge needs |beta| <= "
                              f"{_TRUNCATED_EDGE_BETA_MAX:g}, got {abs(beta):.6g}")
    from .quadrature import _gauss_rule     # the only reader of quadrature here
    xj, wj = _gauss_rule("jacobi", 64, 0.0, a + 1.0)
    return pref * complex(np.sum(wj * np.exp(-(xj + 1.0) / 2.0 * beta)))


def _hermite_coefficients(tau: float, n_max: int):
    """(alpha_n, beta_n, gamma_n), in the form of `polynomials._coefficients`,
    of u_n = z u_{n-1}/sqrt(n) - tau sqrt((n-1)/n) u_{n-2}: the Hermite
    functions u_n = (tau/2)^(n/2) H_n(z/sqrt(2 tau))/sqrt(n!), orthonormal
    under exp(-x^2/(1+tau) - y^2/(1-tau))/(pi sqrt(1-tau^2))."""
    n = np.maximum(np.arange(n_max + 1.0), 1.0)     # 1 at the unused index 0
    return np.zeros(n_max + 1), 1.0 / np.sqrt(n), -tau * np.sqrt((n - 1.0) / n)


def kernel_elliptic_ginibre(tau: float, N: int, z1: complex, z2: complex) -> complex:
    """Elliptic Ginibre kernel (Hermite sum, whole plane); the a -> infinity
    target of the Gegenbauer gas under the sqrt(2 tau a) rescaling.

    The sum over n < N of u_n(z1) u_n(conj z2) runs the orthonormal Hermite
    recurrence of `_hermite_coefficients` at both points, so no term takes a
    log-gamma.  Each point's table is folded as `_point` folds its own, and
    their exponents join the log of the Gaussian factor in one log scale.
    At tau = 0.5, N = 3000, z1 = z2 = 30+20i, where the terms peak near e^1400,
    it is within 4.6e-14 of a 50-digit sum.  Where the Gaussian factor is 0
    in the doubles the value is 0j, before the recurrence runs, which at
    |z| past about 1e233 would overflow.  A point that is not finite raises
    DomainError, and a value past the double range OutOfRangeError.
    """
    _check("tau", tau)
    _check("N", N)
    _check_point("elliptic-ginibre", z1, z2)
    x1, y1, x2, y2 = z1.real, z1.imag, z2.real, z2.imag
    log_g = -(x1 * x1 + x2 * x2) / (2 * (1 + tau)) - (y1 * y1 + y2 * y2) / (2 * (1 - tau))
    if log_g == -math.inf:
        return 0j       # the Gaussian factor is 0, where the recurrence may overflow
    coefs = _hermite_coefficients(tau, N - 1)
    (f1, t1), (f2, t2) = (_fold(*_scalar_steps(coefs, z)) for z in (z1, np.conj(z2)))
    return _times_exp(complex(np.dot(f1, f2)) / (math.pi * math.sqrt(1 - tau * tau)),
                      _plus_bits(log_g, t1 + t2))
