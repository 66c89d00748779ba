"""Exact field arithmetic: rationals, cyclotomic numbers, Laurent polynomials and
rational functions in the indeterminate q.

The field tower is Q -> Q(zeta_m) -> Q(zeta_m)(q).  Every value is a `Scalar`
carrying a `FieldContext`; binary operations require identical contexts and all
coercion is explicit.  Rationals are stdlib `fractions.Fraction`; cyclotomics are
residues modulo the m-th cyclotomic polynomial; q-field elements are canonical
quotients of Laurent polynomials.

Laurent polynomials and cyclotomic numbers share one integer kernel on dense
`int` coefficient lists: products (schoolbook for short lists, Kronecker
substitution for long ones, whose packing also serves the packed matrix
products of `linalg`), exact division and gcds of primitive parts.  A Laurent
polynomial over Q is stored in the kernel's form, a q-shift,
a positive denominator and a tuple of ints, kept canonical so that equality
and hashing compare the stored fields; every operation reads and writes that
form, and its `terms` dict (exponent -> Fraction) is derived for printing.  A
cyclotomic number is stored the same way, a positive denominator and a tuple
of ints in the power basis of zeta, and its `coeffs` Fractions are derived; a
sum aligns the denominators; a product is an integer product reduced modulo
the monic Phi_m from its top power down, by the nonzero terms of Phi_m
(`_phi_tail`); a Galois conjugate or an
embedding Q(zeta_a) -> Q(zeta_b) relabels the powers of zeta and reduces; the
inverse of c zeta^k is c^-1 zeta^-k, and of any other element the product of
the other conjugates over the rational norm.
Laurent polynomials over Q(zeta_m) store a tuple of `Cyclotomic`s; their
products, and the determinants of `linalg` over Q(zeta_m) and Q(zeta_m)(q),
run on the kernel under the ring map zeta -> y, q -> y^N (`_zeta_pack`), and
their divisions and gcds as plain Euclid loops.

`residue` maps a scalar to F_p (q -> q0 over Q(zeta_m)(q), zeta -> a fixed
primitive m-th root of unity mod p), the ring map behind the rank
certificates of `irred`.

Canonical form of a rational function: the denominator is an ordinary monic
polynomial with nonzero constant term (all q-power content is pushed into the
numerator, which may be a genuine Laurent polynomial), and numerator/denominator
are coprime.  Equality is componentwise equality of canonical forms.
"""

from __future__ import annotations

import struct
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd
from math import isqrt
from math import lcm as _int_lcm

from .errors import (
    CoercionError,
    DegreeCapExceeded,
    DivisionByZero,
    FieldMismatch,
    NonPolynomialQuotient,
    ParseError,
    PoleAtPoint,
    ZeroSubstitution,
)
from .records import FrozenRecord

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Safety valve for runaway symbolic degrees (set from QBRAID_MAX_DEGREE by the CLI).
# It is scoped per context: a thread starts without a cap, whatever others set.
_degree_cap = ContextVar("qbraid_degree_cap", default=None)


def set_degree_cap(cap):
    """Set (or clear, with None) the symbolic-degree cap of the current context."""
    _degree_cap.set(cap)


def _check_degree(lo, hi):
    cap = _degree_cap.get()
    if cap is not None and max(abs(lo), abs(hi)) > cap:
        raise DegreeCapExceeded(f"symbolic degree {max(abs(lo), abs(hi))} exceeds cap {cap}")


def _power(x, n, one):
    """x^n for an int n >= 0 by square-and-multiply, from the identity `one`."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


# ---------------------------------------------------------------------------
# Cyclotomic numbers: residues modulo Phi_m, computed on the integer kernel.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """The m-th cyclotomic polynomial, as an ascending tuple of ints.

    Computed as the Moebius product prod_(d | m) (x^d - 1)^mu(m/d): only
    d with m/d squarefree count, the factors with mu = 1 are multiplied
    first and those with mu = -1 then divided out exactly.  Every factor is
    sparse, so a product is one shifted difference and a quotient one
    running sum.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    # m/d runs over the squarefree divisors e of m, mu(e) = (-1)^(number of primes)
    primes = _prime_divisors(m)
    up, down = [], []
    for mask in range(1 << len(primes)):
        e = 1
        for i, p in enumerate(primes):
            if mask >> i & 1:
                e *= p
        (down if bin(mask).count("1") % 2 else up).append(m // e)
    p = [1]
    for d in up:
        out = [0] * (len(p) + d)
        for i, c in enumerate(p):
            out[i] -= c
            out[i + d] += c
        p = out
    for d in down:
        # p = q (x^d - 1) reads p_i = q_(i-d) - q_i, so q_i = q_(i-d) - p_i,
        # and the top d coefficients of p must be those of q, shifted by d.
        n = len(p) - d
        q = [0] * n
        for i in range(n):
            q[i] = (q[i - d] if i >= d else 0) - p[i]
        if any(p[i] != (q[i - d] if i >= d else 0) for i in range(n, len(p))):
            raise AssertionError("cyclotomic division left a remainder")
        p = q
    return tuple(p)


def _prime_divisors(m):
    """The primes dividing m >= 1, ascending, by trial division."""
    primes, d = [], 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    return primes


def euler_phi(m):
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def _phi_tail(order):
    """phi(order), and zeta^phi as its nonzero (power, int) terms: y^phi - Phi_order."""
    mod = cyclotomic_polynomial(order)
    return len(mod) - 1, tuple((i, -c) for i, c in enumerate(mod[:-1]) if c)


def _phi_reduce(order, ints):
    """The int list sum(ints[i] * y^i) reduced modulo the monic Phi_order, as
    a tuple of at most phi(order) ints with no trailing zero.

    A list longer than phi(order) is reduced from its top power down: the int
    c at each power t >= phi becomes c zeta^(t-phi) times the terms of
    zeta^phi (`_phi_tail`).
    """
    phi, tail = _phi_tail(order)
    n = len(ints)
    if n > phi:
        ints = list(ints)
        for t in range(n - 1, phi - 1, -1):
            c = ints[t]
            if c:
                for i, a in tail:
                    ints[t - phi + i] += a * c
        n = phi
    while n and not ints[n - 1]:
        n -= 1
    return tuple(ints[:n])


def _cyclotomic(order, den, ints):
    """The canonical Cyclotomic sum(ints[i] * zeta^i) / den, den a positive
    int: the ints reduced modulo Phi_order (`_phi_reduce`), and den made
    coprime to them."""
    ints = _phi_reduce(order, ints)
    if not ints:
        den = 1
    elif den != 1:
        g = _int_gcd(den, *ints)
        if g != 1:
            den //= g
            ints = tuple(c // g for c in ints)
    c = object.__new__(Cyclotomic)
    c.order, c.den, c.ints = order, den, ints
    return c


def _relabel(c, order, step):
    """The image of c under zeta^i -> zeta_order^(i*step), reduced modulo
    Phi_order: the Galois conjugate sigma_step when order == c.order and step
    is coprime to it, the embedding Q(zeta_a) -> Q(zeta_order) when
    step == order / a."""
    out = [0] * order
    for i, a in enumerate(c.ints):
        if a:
            out[i * step % order] += a
    return _cyclotomic(order, c.den, out)


class Cyclotomic:
    """An element of Q(zeta_m), m >= 3, in the integer kernel's form.

    The value is sum(ints[i] * zeta^i) / den in the power basis 1, zeta, ...,
    zeta^(phi(m)-1): ints is a tuple of at most phi(m) ints with no trailing
    zero, den > 0 and gcd(den, *ints) == 1, and zero is (den 1, ()).  The form
    is unique, so equality and hashing compare the stored fields.  `coeffs`
    is a derived view, phi(m) Fractions.
    """

    __slots__ = ("order", "den", "ints")

    def __init__(self, order, coeffs):
        """sum(coeffs[i] * zeta^i), the coeffs Fractions or ints."""
        den = _common_den(coeffs)
        c = _cyclotomic(order, den, [a.numerator * (den // a.denominator) for a in coeffs])
        self.order, self.den, self.ints = order, c.den, c.ints

    @classmethod
    def from_rational(cls, order, value):
        """The rational value (an int or a Fraction) in Q(zeta_order)."""
        return _cyclotomic(order, value.denominator, (value.numerator,))

    @classmethod
    def zeta_power(cls, order, k):
        return _cyclotomic(order, 1, [0] * (k % order) + [1])

    @property
    def coeffs(self):
        """A derived view: the phi(m) power-basis coefficients as Fractions."""
        phi = euler_phi(self.order)
        den = self.den
        return tuple(Fraction(a, den) for a in self.ints) + (_ZERO,) * (phi - len(self.ints))

    def is_zero(self):
        return not self.ints

    def __bool__(self):
        return bool(self.ints)

    def _lift(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise FieldMismatch("cyclotomic orders differ")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.order, other)
        return NotImplemented

    def _plus(self, den, ints):
        """self + sum(ints[i] * zeta^i) / den, over a common denominator."""
        a = self.ints
        if den != self.den:
            common = _int_lcm(den, self.den)
            if common != self.den:
                a = [c * (common // self.den) for c in a]
            if common != den:
                ints = [c * (common // den) for c in ints]
            den = common
        if len(a) < len(ints):
            a, ints = ints, a
        out = list(a)
        for i, c in enumerate(ints):
            out[i] += c
        return _cyclotomic(self.order, den, out)

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.ints:
            return self
        if not self.ints:
            return other
        return self._plus(other.den, other.ints)

    __radd__ = __add__

    def __neg__(self):
        return _cyclotomic(self.order, self.den, [-a for a in self.ints])

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.ints:
            return self
        return self._plus(other.den, [-a for a in other.ints])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise FieldMismatch("cyclotomic orders differ")
            if not self.ints or not other.ints:
                return _cyclotomic(self.order, 1, ())
            return _cyclotomic(self.order, self.den * other.den, _int_mul(self.ints, other.ints))
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            return _cyclotomic(self.order, self.den * other.denominator,
                               [a * num for a in self.ints])
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        """The inverse.  A single term (a/d) zeta^k inverts to (d/a) zeta^-k,
        reduced; any other element by `_conjugate_inverse`."""
        ints = self.ints
        if not ints:
            raise DivisionByZero("inverse of zero cyclotomic")
        k = len(ints) - 1
        if not any(ints[:k]):
            a, m = ints[k], self.order
            return _cyclotomic(m, abs(a), [0] * (-k % m) + [self.den if a > 0 else -self.den])
        return _conjugate_inverse(self)

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, _cyclotomic(self.order, 1, (1,)))

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.order == other.order and self.den == other.den and self.ints == other.ints
        if isinstance(other, (int, Fraction)):
            return self.rational_part() == other
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.den, self.ints))

    def rational_part(self):
        """The value as a Fraction, if it lies in Q; otherwise None."""
        ints = self.ints
        if len(ints) > 1:
            return None
        return Fraction(ints[0], self.den) if ints else _ZERO

    def __str__(self):
        return format_cyclotomic(self)

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self})"


def _conjugate_inverse(c):
    """The inverse of a nonzero Cyclotomic as the product of its other Galois
    conjugates over the rational norm."""
    m = c.order
    # Conjugates of the numerator polynomial sum(ints[i] * zeta^i) alone,
    # so no product carries a denominator.  Q(zeta_m) has no real
    # embedding for m >= 3, so the norm, a product of |sigma(num)|^2, is
    # positive.
    num = _cyclotomic(m, 1, c.ints)
    conj = None
    for k in range(2, m):
        if _int_gcd(k, m) == 1:
            factor = _relabel(num, m, k)
            conj = factor if conj is None else conj * factor
    norm = (num * conj).ints[0]
    return _cyclotomic(m, norm, [c.den * a for a in conj.ints])


def _base_zero(order):
    return 0 if order == 1 else Cyclotomic.from_rational(order, 0)


# ---------------------------------------------------------------------------
# Laurent polynomials in q over Q or Q(zeta_m).
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Laurent polynomial q^shift * sum(coeffs[i] * q^i) / den, in canonical form.

    Over Q the coeffs are ints, den > 0 and gcd(den, *coeffs) == 1.  Over
    Q(zeta_m) the coeffs are `Cyclotomic`s and den == 1.  The first and last
    coefficients are nonzero, and zero is (shift 0, den 1, ()).  The form is
    unique, so equality and hashing compare the stored fields.
    """

    __slots__ = ("order", "shift", "den", "coeffs")

    def __init__(self, order, terms):
        """sum(c * q^e for e, c in terms.items()), c in the base field Q(zeta_order)."""
        lo = min(terms, default=0)
        dense = [0] * (max(terms, default=lo - 1) - lo + 1)
        for e, c in terms.items():
            dense[e - lo] = c
        p = LaurentPoly.from_dense(order, lo, dense)
        self.order, self.shift, self.den, self.coeffs = order, p.shift, p.den, p.coeffs

    @classmethod
    def zero(cls, order=1):
        return _laurent(order, 0, 1, ())

    @classmethod
    def one(cls, order=1):
        return _laurent_one(order)

    @classmethod
    def constant(cls, coeff, order=1):
        return cls.from_dense(order, 0, [coeff])

    @classmethod
    def q_power(cls, k, order=1):
        return _laurent(order, k, 1, (1,))

    @classmethod
    def from_dense(cls, order, shift, coeffs):
        """q^shift * sum(coeffs[i] * q^i), coeffs in the base field."""
        if order != 1:
            return _laurent(order, shift, 1, coeffs)
        den = _common_den(coeffs)
        return _laurent(1, shift, den, [c.numerator * (den // c.denominator) for c in coeffs])

    def dense(self):
        """(shift, ascending list of base-field coefficients)."""
        if self.order == 1:
            return self.shift, [Fraction(c, self.den) for c in self.coeffs]
        return self.shift, list(self.coeffs)

    @property
    def terms(self):
        """A derived view, exponent -> nonzero base-field coefficient."""
        shift, coeffs = self.dense()
        return {shift + i: c for i, c in enumerate(coeffs) if c}

    def is_zero(self):
        return not self.coeffs

    def min_exp(self):
        return self.shift

    def max_exp(self):
        return self.shift + len(self.coeffs) - 1

    def lead(self):
        """The coefficient of the highest power of q, in the base field."""
        c = self.coeffs[-1]
        return Fraction(c, self.den) if self.order == 1 else c

    def __add__(self, other):
        if self.order != other.order:
            raise FieldMismatch("base fields differ")
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        lo = min(self.shift, other.shift)
        hi = max(self.shift + len(self.coeffs), other.shift + len(other.coeffs))
        den = _int_lcm(self.den, other.den)
        out = [_base_zero(self.order)] * (hi - lo)
        for p in (self, other):
            f = den // p.den
            coeffs = p.coeffs if f == 1 else [c * f for c in p.coeffs]
            for i, c in enumerate(coeffs, p.shift - lo):
                out[i] += c
        return _laurent(self.order, lo, den, out)

    def __neg__(self):
        return _laurent(self.order, self.shift, self.den, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """One `_int_mul`, over Q(zeta_m) at stride 2 phi(m) - 1 (`_zeta_pack`)."""
        if self.order != other.order:
            raise FieldMismatch("base fields differ")
        if not self.coeffs or not other.coeffs:
            return LaurentPoly.zero(self.order)
        shift = self.shift + other.shift
        _check_degree(shift, shift + len(self.coeffs) + len(other.coeffs) - 2)
        if self.order == 1:
            return _laurent(1, shift, self.den * other.den, _int_mul(self.coeffs, other.coeffs))
        stride = 2 * euler_phi(self.order) - 1
        da, db = (_int_lcm(*[c.den for c in p.coeffs]) for p in (self, other))
        prod = _int_mul(_zeta_pack(self.coeffs, stride, da), _zeta_pack(other.coeffs, stride, db))
        return _laurent(self.order, shift, 1, _zeta_unpack(prod, stride, self.order, da * db))

    def scale(self, coeff):
        """The product with a base-field coefficient."""
        if self.order != 1:
            return _laurent(self.order, self.shift, 1, [c * coeff for c in self.coeffs])
        coeff = Fraction(coeff)
        return _laurent(1, self.shift, self.den * coeff.denominator,
                        [c * coeff.numerator for c in self.coeffs])

    def shifted(self, k):
        if k == 0 or not self.coeffs:
            return self
        return _laurent(self.order, self.shift + k, self.den, self.coeffs)

    def at_inverse_q(self):
        """The image under q -> q^-1: the coefficients reversed, times
        q^-(shift + len - 1)."""
        return _laurent(self.order, -self.max_exp(), self.den, self.coeffs[::-1])

    def __pow__(self, n):
        if n < 0:
            raise ValueError("LaurentPoly power must be nonnegative; invert via RatFunc")
        return _power(self, n, LaurentPoly.one(self.order))

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.order == other.order and self.shift == other.shift
                and self.den == other.den and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, self.shift, self.den, self.coeffs))

    def __str__(self):
        return format_laurent(self)

    def __repr__(self):
        return f"LaurentPoly({self})"


def _laurent(order, shift, den, coeffs):
    """The canonical LaurentPoly q^shift * sum(coeffs[i] * q^i) / den.

    Over Q, coeffs are ints and den is a nonzero int.  Over Q(zeta_m), den is 1
    and coeffs are base-field values; rationals among them are lifted to
    `Cyclotomic`, so equal polynomials hash equally.
    """
    if order != 1:
        coeffs = [c if isinstance(c, Cyclotomic) else Cyclotomic.from_rational(order, c)
                  for c in coeffs]
    lo, hi = 0, len(coeffs)
    while lo < hi and not coeffs[lo]:
        lo += 1
    while hi > lo and not coeffs[hi - 1]:
        hi -= 1
    if lo == hi:
        shift, den, coeffs = 0, 1, ()
    else:
        shift += lo
        coeffs = tuple(coeffs[lo:hi])
    if den != 1:
        g = _int_gcd(den, *coeffs)
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            coeffs = tuple(c // g for c in coeffs)
    p = object.__new__(LaurentPoly)
    p.order, p.shift, p.den, p.coeffs = order, shift, den, coeffs
    return p


@lru_cache(maxsize=None)
def _laurent_one(order):
    """The constant 1 over Q(zeta_order), one shared immutable value per order."""
    return _laurent(order, 0, 1, (1,))


def _is_one(p):
    """True when the Laurent polynomial p is the constant 1."""
    return p.shift == 0 and p.den == 1 and p.coeffs == (1,)


def _lp_divmod_generic(a, b):
    """Long division over any base field; inputs must have min_exp >= 0."""
    if a.shift < 0 or b.shift < 0:
        raise ValueError("divmod requires ordinary polynomials")
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    zero = _base_zero(a.order)
    rem = [zero] * a.shift + a.dense()[1]
    cb = [zero] * b.shift + b.dense()[1]
    quo = [zero] * max(len(rem) - len(cb) + 1, 0)
    lead = cb[-1]
    while len(rem) >= len(cb):
        c = rem[-1] / lead
        k = len(rem) - len(cb)
        quo[k] = c
        for j, bj in enumerate(cb):
            rem[k + j] = rem[k + j] - c * bj
        while rem and not rem[-1]:
            rem.pop()
    return (LaurentPoly.from_dense(a.order, 0, quo),
            LaurentPoly.from_dense(a.order, 0, rem))


def _lp_monic_gcd_generic(a, b):
    """Monic gcd over any base field by plain Euclid."""
    while not b.is_zero():
        _, r = _lp_divmod_generic(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    return a.scale(1 / a.lead())


def _lp_divmod(a, b):
    """Ordinary-polynomial divmod; inputs must have min_exp >= 0.

    Over Q it divides the stored ints by the primitive part of b, so an
    exact division is an integer division (Gauss's lemma).
    """
    if a.order != 1:
        return _lp_divmod_generic(a, b)
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if a.is_zero():
        return a, a
    if a.shift < 0 or b.shift < 0:
        raise ValueError("divmod requires ordinary polynomials")
    content, cb = _int_primitive(b.coeffs)
    # f*A = Q*B + R with a = A/a.den and b = content*B/b.den, so
    # a = (Q*b.den / (f*a.den*content)) * b + R/(f*a.den).
    f, quo, rem = _int_pdivmod([0] * a.shift + list(a.coeffs), [0] * b.shift + list(cb))
    return (_laurent(1, 0, f * a.den * content, [x * b.den for x in quo]),
            _laurent(1, 0, f * a.den, rem))


def laurent_exact_div(a, b, error=None):
    """Exact division of Laurent polynomials; raises if a is not a multiple of b."""
    if b.is_zero():
        raise DivisionByZero("exact division by zero polynomial")
    if a.is_zero():
        return LaurentPoly.zero(a.order)
    sa = a.min_exp()
    sb = b.min_exp()
    q, r = _lp_divmod(a.shifted(-sa), b.shifted(-sb))
    if not r.is_zero():
        raise (error or NonPolynomialQuotient)("division left a remainder")
    return q.shifted(sa - sb)


def _lp_monic_gcd(a, b):
    """Monic gcd of two ordinary polynomials over the base field."""
    if a.order != 1:
        return _lp_monic_gcd_generic(a, b)
    if a.is_zero():
        a, b = b, a
    if a.is_zero():
        return a
    if b.is_zero():
        return _laurent(1, a.shift, a.coeffs[-1], a.coeffs)
    if a.shift < 0 or b.shift < 0:
        raise ValueError("gcd requires ordinary polynomials")
    # q does not divide the shift-free parts, so the q-power of the gcd is
    # the smaller shift.
    g = _int_primitive_gcd(a.coeffs, b.coeffs)
    return _laurent(1, min(a.shift, b.shift), g[-1], g)


# ---------------------------------------------------------------------------
# The integer kernel for Laurent polynomials over Q and for Q(zeta_m): dense
# int coefficient lists, ascending.
# ---------------------------------------------------------------------------

# The longest shorter operand that `_int_mul` multiplies by schoolbook.  Two
# 2-term lists take about 2 us by schoolbook and 10 us by Kronecker
# substitution, whose packing dominates; measured on one Xeon core with
# CPython 3.11 and small coefficients, Kronecker wins once the shorter list has
# more than about 10 terms.
_SCHOOLBOOK_MAX = 10


def _common_den(fracs):
    """The least common denominator of some Fractions."""
    den = 1
    for c in fracs:
        if c.denominator != 1:
            den = _int_lcm(den, c.denominator)
    return den


def _int_mul(a, b):
    """Product of two nonempty int coefficient lists: schoolbook while the
    shorter has at most _SCHOOLBOOK_MAX terms, Kronecker substitution above."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) > _SCHOOLBOOK_MAX:
        return _kronecker_mul(a, b)
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return out


def _kronecker_mul(a, b):
    """Product of two int coefficient lists by Kronecker substitution: each
    list is packed as one integer, the two are multiplied once, and the
    product's digits are the product's coefficients."""
    n = len(a) + len(b) - 1
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if not bound:
        return [0] * n
    size = _digit_size(bound)
    return _unpack(_pack(a, size) * _pack(b, size), n, size)


# Kronecker substitution packs an int list as the digits of one integer in
# base 2^w.  w is a whole number of bytes with 2^(w-1) above the bound on every
# digit of the result, so signed digits are read back by adding 2^(w-1) to
# every digit (no digit then borrows) and cutting the bytes into digits.
# Digits of 1, 2, 4 or 8 bytes are cut by `struct`, about five times faster
# than slicing, so a width up to 8 bytes is rounded up to one of those.

_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _digit_size(bound):
    """The digit width in bytes for digits of absolute value at most bound."""
    size = bound.bit_length() // 8 + 1
    return size if size > 8 else 1 << (size - 1).bit_length()


@lru_cache(maxsize=256)
def _bias(n, size):
    """The integer whose n digits of `size` bytes are all 2^(w-1)."""
    return int.from_bytes((b"\x00" * (size - 1) + b"\x80") * n, "little")


def _pack(coeffs, size):
    """sum(coeffs[i] * 2^(w*i)) for signed coeffs below 2^(w-1) in absolute value;
    up to four by Horner's rule, which beats the set-up of `struct` there."""
    if len(coeffs) <= 4:
        w, value = 8 * size, 0
        for c in reversed(coeffs):
            value = (value << w) + c
        return value
    half = 1 << (8 * size - 1)
    code = _STRUCT_CODES.get(size)
    if code:
        digits = struct.pack(f"<{len(coeffs)}{code}", *[c + half for c in coeffs])
    else:
        digits = b"".join((c + half).to_bytes(size, "little") for c in coeffs)
    return int.from_bytes(digits, "little") - _bias(len(coeffs), size)


def _unpack(value, n, size):
    """The n signed digits of value, each below 2^(w-1) in absolute value."""
    half = 1 << (8 * size - 1)
    buf = (value + _bias(n, size)).to_bytes(n * size, "little")
    code = _STRUCT_CODES.get(size)
    if code:
        return [d - half for d in struct.unpack(f"<{n}{code}", buf)]
    return [int.from_bytes(buf[i:i + size], "little") - half
            for i in range(0, n * size, size)]


def _int_pdivmod(a, b):
    """Pseudo-division of int coefficient lists: (f, quo, rem) with
    f * a == quo * b + rem, f a positive int and len(rem) < len(b).

    Each step multiplies by the least factor that makes the leading
    coefficient divisible by lead(b), so f == 1 whenever every step divides
    exactly, which it does when b is primitive and divides a (Gauss's lemma).
    A step that divides exactly takes no gcd: every step of an exact
    division, and every step for a monic b.
    """
    lead, nb = b[-1], len(b)
    rem, quo, f = list(a), [0] * max(len(a) - nb + 1, 0), 1
    for k in range(len(a) - nb, -1, -1):
        c = rem[k + nb - 1]
        if not c:
            continue
        if c % lead:
            s = abs(lead) // _int_gcd(c, lead)
            rem = [s * x for x in rem]
            quo = [s * x for x in quo]
            f, c = f * s, c * s
        c //= lead
        quo[k] = c
        for j in range(nb):
            rem[k + j] -= c * b[j]
    del rem[nb - 1:]
    while rem and not rem[-1]:
        rem.pop()
    return f, quo, rem


def _int_exact_div(a, b):
    """a / b for nonempty int coefficient lists where b divides a over Z:
    `_int_pdivmod`, which then never scales (f == 1) and leaves no remainder.
    Raises NonPolynomialQuotient when either fails."""
    f, quo, rem = _int_pdivmod(a, b)
    if f != 1 or rem:
        raise NonPolynomialQuotient("integer division left a remainder")
    return quo


def _int_primitive(coeffs):
    """(content, primitive part) of a nonzero int list; the primitive part has
    a positive leading coefficient."""
    g = _int_gcd(*coeffs)
    if coeffs[-1] < 0:
        g = -g
    if g == 1:
        return 1, coeffs
    return g, [c // g for c in coeffs]


def _int_primitive_gcd(a, b):
    """Primitive gcd (positive leading coefficient) of two nonzero int lists,
    by the primitive pseudo-remainder sequence."""
    a, b = _int_primitive(a)[1], _int_primitive(b)[1]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem = _int_pdivmod(a, b)[2]
        if not rem:
            return b
        a, b = b, _int_primitive(rem)[1]
    return [1]


def _zeta_pack(coeffs, stride, den, pad=0):
    """den q^pad sum(coeffs[e] q^e), `Cyclotomic` coeffs with denominators
    dividing den and a nonzero last one, as an int list in y under zeta -> y,
    q -> y^stride (stride above every zeta-degree), with no trailing zero."""
    out = [0] * ((pad + len(coeffs) - 1) * stride + len(coeffs[-1].ints))
    for e, c in enumerate(coeffs, pad):
        out[e * stride:e * stride + len(c.ints)] = [a * (den // c.den) for a in c.ints]
    return out


def _zeta_unpack(ints, stride, order, den):
    """The inverse of `_zeta_pack` over den: one `Cyclotomic` per q-step,
    its stride digits reduced modulo Phi_order once."""
    return [_cyclotomic(order, den, ints[i:i + stride]) for i in range(0, len(ints), stride)]


# ---------------------------------------------------------------------------
# Rational functions in q (canonical quotients of Laurent polynomials).
# ---------------------------------------------------------------------------

class RatFunc:
    """Canonical quotient num/den of Laurent polynomials over Q or Q(zeta_m)."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order, num, den):
        self.order = order
        self.num = num
        self.den = den

    @classmethod
    def make(cls, num, den):
        """Canonicalize num/den: monic ordinary denominator with nonzero constant
        term, q-power content moved into the numerator, coprime parts."""
        order = num.order
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            return cls(order, LaurentPoly.zero(order), LaurentPoly.one(order))
        a = num.min_exp()
        b = den.min_exp()
        n_ord = num.shifted(-a)
        d_ord = den.shifted(-b)
        if d_ord.max_exp() > 0:
            g = _lp_monic_gcd(n_ord, d_ord)
            if g.max_exp() > 0:
                n_ord = laurent_exact_div(n_ord, g)
                d_ord = laurent_exact_div(d_ord, g)
        lead = d_ord.lead()
        if lead != 1:
            inv = 1 / lead
            d_ord = d_ord.scale(inv)
            n_ord = n_ord.scale(inv)
        return cls(order, n_ord.shifted(a - b), d_ord)

    @classmethod
    def from_laurent(cls, p):
        return cls(p.order, p, _laurent_one(p.order))

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num.coeffs)

    def is_polynomial(self):
        return _is_one(self.den)

    def _poly_fast(self, other):
        return _is_one(self.den) and _is_one(other.den)

    def __add__(self, other):
        if self.order != other.order:
            raise FieldMismatch("base fields differ")
        if self._poly_fast(other):
            return RatFunc.from_laurent(self.num + other.num)
        return RatFunc.make(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __neg__(self):
        return RatFunc(self.order, -self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.order != other.order:
            raise FieldMismatch("base fields differ")
        if self._poly_fast(other):
            return RatFunc.from_laurent(self.num * other.num)
        return RatFunc.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RatFunc.make(self.num * other.den, self.den * other.num)

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero rational function")
        return RatFunc.make(self.den, self.num)

    def __pow__(self, n):
        num = self.num
        if len(num.coeffs) == 1 and _is_one(self.den):
            # A monomial c q^s: c^n q^(sn) for either sign of n, checked
            # against the degree cap as the products of a power would be.
            shift = num.shift * n
            if n:
                _check_degree(shift, shift)
            return RatFunc.from_laurent(
                LaurentPoly.constant(num.lead() ** n, self.order).shifted(shift))
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, RatFunc.from_laurent(LaurentPoly.one(self.order)))

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.order == other.order and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.order, self.num, self.den))

    def __str__(self):
        return format_ratfunc(self)

    def __repr__(self):
        return f"RatFunc({self})"


# ---------------------------------------------------------------------------
# Field contexts and the Scalar wrapper.
# ---------------------------------------------------------------------------

class FieldContext(FrozenRecord):
    """Ambient field: Q(zeta_order), optionally extended by the indeterminate q.

    Orders 1 and 2 both denote plain Q (zeta_2 = -1 is rational).  Every
    scalar operation compares contexts and every `_constants` lookup hashes
    one, so the hash is taken once, at construction.
    """

    _fields = ("order", "with_q")
    __slots__ = _fields + ("_hash",)

    def __init__(self, order=1, with_q=False):
        if order < 1:
            raise ValueError("order must be >= 1")
        if order == 2:
            order = 1
        self._set(order, with_q, hash((order, with_q)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not FieldContext:
            return NotImplemented
        return self.order == other.order and self.with_q == other.with_q

    def __hash__(self):
        return self._hash

    def describe(self):
        base = "QQ" if self.order == 1 else f"QQ(zeta{self.order})"
        return base + "(q)" if self.with_q else base


QQ = FieldContext()


def cyclotomic_field(m):
    return FieldContext(1 if m <= 2 else m, False)


def function_field(order=1):
    return FieldContext(order, True)


def join_context(a, b):
    order = a.order * b.order // _int_gcd(a.order, b.order)
    return FieldContext(order, a.with_q or b.with_q)


class Scalar:
    """A field element with its context.  Immutable; all operations are pure."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx, val):
        self.ctx = ctx
        self.val = val

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(ctx=QQ):
        return _constants(ctx)[0]

    @staticmethod
    def one(ctx=QQ):
        return _constants(ctx)[1]

    @staticmethod
    def of_fraction(f, ctx=QQ):
        return Scalar(ctx, _payload_const(ctx, Fraction(f)))

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.val

    def is_one(self):
        return self == Scalar.one(self.ctx)

    def is_polynomial(self):
        if not self.ctx.with_q:
            return True
        return self.val.is_zero() or self.val.is_polynomial()

    # -- arithmetic ----------------------------------------------------------

    def _need(self, other):
        if not isinstance(other, Scalar):
            return None
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise FieldMismatch(f"{self.ctx.describe()} vs {other.ctx.describe()}")
        return other

    def __add__(self, other):
        other = self._need(other)
        if other is None:
            return NotImplemented
        return Scalar(self.ctx, self.val + other.val)

    def __sub__(self, other):
        other = self._need(other)
        if other is None:
            return NotImplemented
        return Scalar(self.ctx, self.val - other.val)

    def __neg__(self):
        return Scalar(self.ctx, -self.val)

    def __mul__(self, other):
        other = self._need(other)
        if other is None:
            return NotImplemented
        return Scalar(self.ctx, self.val * other.val)

    def __truediv__(self, other):
        other = self._need(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("scalar division by zero")
        return Scalar(self.ctx, self.val / other.val)

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero scalar")
        return Scalar(self.ctx, _inverse(self.val))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("scalar powers are integer powers")
        # Each payload takes a negative power itself, a RatFunc monomial c q^s
        # without inverting first.
        if n < 0 and self.is_zero():
            raise DivisionByZero("inverse of zero scalar")
        return Scalar(self.ctx, self.val ** n)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.ctx is other.ctx or self.ctx == other.ctx) and self.val == other.val

    def __hash__(self):
        return hash((self.ctx, self.val))

    # -- conversions ---------------------------------------------------------

    def coerce(self, ctx):
        """Explicit embedding into a larger context (injective, never silent)."""
        if ctx == self.ctx:
            return self
        if ctx.order % self.ctx.order != 0 or (self.ctx.with_q and not ctx.with_q):
            raise CoercionError(f"no embedding {self.ctx.describe()} -> {ctx.describe()}")
        val = self.val
        if self.ctx.with_q:
            num = _lift_laurent(val.num, self.ctx.order, ctx.order)
            den = _lift_laurent(val.den, self.ctx.order, ctx.order)
            return Scalar(ctx, RatFunc(ctx.order, num, den))
        base = val if self.ctx.order == ctx.order else _lift_base(val, self.ctx.order, ctx.order)
        if ctx.with_q:
            return Scalar(ctx, RatFunc.from_laurent(LaurentPoly.constant(base, ctx.order)))
        return Scalar(ctx, base)

    def substitute(self, q0):
        """Ring-homomorphism image under q -> q0 (q0 any nonzero scalar)."""
        if not self.ctx.with_q:
            raise ValueError("substitution applies to q-field scalars")
        if not isinstance(q0, Scalar):
            raise TypeError("substitution point must be a Scalar")
        if q0.is_zero():
            raise ZeroSubstitution("substitution at q = 0")
        target = join_context(FieldContext(self.ctx.order, q0.ctx.with_q), q0.ctx)
        q0 = q0.coerce(target)
        num = _eval_laurent(self.val.num, q0, target)
        den = _eval_laurent(self.val.den, q0, target)
        if den.is_zero():
            raise PoleAtPoint("denominator vanishes at the substitution point")
        return num / den

    def __str__(self):
        v = self.val
        return _fmt_rational(v) if type(v) is Fraction else str(v)

    def __repr__(self):
        return f"Scalar[{self.ctx.describe()}]({self})"


@lru_cache(maxsize=None)
def _constants(ctx):
    """The scalars 0 and 1 of ctx, one shared immutable pair per context."""
    return Scalar(ctx, _payload_const(ctx, _ZERO)), Scalar(ctx, _payload_const(ctx, _ONE))


def _inverse(v):
    """The inverse of a nonzero field payload: a Fraction, a `Cyclotomic` or a
    `RatFunc`."""
    return 1 / v if type(v) is Fraction else v.inverse()


def _payload_const(ctx, f):
    if ctx.with_q:
        return RatFunc.from_laurent(LaurentPoly.constant(f, ctx.order))
    if ctx.order == 1:
        return f
    return Cyclotomic.from_rational(ctx.order, f)


def _lift_base(c, order_from, order_to):
    if order_from == order_to:
        return c
    if order_from == 1:
        return Fraction(c) if order_to == 1 else Cyclotomic.from_rational(order_to, c)
    return _relabel(c, order_to, order_to // order_from)


def _lift_laurent(p, order_from, order_to):
    if order_from == order_to:
        return p
    shift, coeffs = p.dense()
    return LaurentPoly.from_dense(order_to, shift, [_lift_base(c, order_from, order_to)
                                                    for c in coeffs])


def _eval_laurent(p, q0, target):
    """p(q0) by Horner's rule on the dense coefficients."""
    shift, coeffs = p.dense()
    base = FieldContext(p.order, False)
    acc = Scalar.zero(target)
    for c in reversed(coeffs):
        acc = acc * q0
        if c:
            acc = acc + Scalar(base, c).coerce(target)
    return acc * q0 ** shift if shift else acc


# ---------------------------------------------------------------------------
# Reduction modulo a prime: the ring map behind the rank certificates.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def root_of_unity_mod(m, p):
    """A primitive m-th root of unity modulo the prime p, the same one on every
    call (from the least a >= 1 whose power a^((p-1)/m) has exact order m);
    None when m does not divide p - 1, so that F_p has none."""
    if (p - 1) % m:
        return None
    primes = _prime_divisors(m)
    for a in range(1, p):
        r = pow(a, (p - 1) // m, p)
        if all(pow(r, m // d, p) != 1 for d in primes):
            return r
    return None


def residue(x, p, q0, k=1):
    """The image of the Scalar x in F_p, as an int in 0..p-1, or None when x
    does not reduce.

    Over Q a Fraction reduces unless p divides its denominator.  Over Q(zeta_m)
    zeta goes to r^k for r = `root_of_unity_mod(m, p)`, so p must be 1 modulo
    m; k = 1 is the standard root, and k coprime to m gives the image of the
    Galois conjugate zeta -> zeta^k.  Over Q(zeta_m)(q) q goes to q0 as well,
    and the residues of the numerator and the denominator are divided; a zero
    denominator residue (a pole) or q0 = 0 gives None.  On the elements that
    reduce this is a ring homomorphism, so the rank of a matrix of them is at
    least the rank of its image.
    """
    v = x.val
    if not isinstance(v, RatFunc):
        return _base_residue(v, p, k)
    if q0 % p == 0:
        return None
    den = _laurent_residue(v.den, p, q0, k)
    if not den:
        return None
    num = _laurent_residue(v.num, p, q0, k)
    return None if num is None else num * pow(den, -1, p) % p


def _base_residue(c, p, k=1):
    """The residue of a Fraction or a Cyclotomic, zeta -> r^k; None when it
    does not reduce."""
    if isinstance(c, Cyclotomic):
        root = root_of_unity_mod(c.order, p)
        if root is None:
            return None
        if k != 1:
            root = pow(root, k, p)
        den, acc = c.den, 0
        for a in reversed(c.ints):
            acc = (acc * root + a) % p
    else:
        den, acc = c.denominator, c.numerator
    if den % p == 0:
        return None
    return acc * pow(den, -1, p) % p


@lru_cache(maxsize=None)
def conjugate_interpolation(m, p):
    """The conjugate exponents of Q(zeta_m) and the map from their images mod
    p back to the power basis.

    Returns (ks, rows), or None when m does not divide p - 1, so that F_p has
    no primitive m-th root of unity.  ks lists the k in 1..m coprime to m
    (just [1] for m <= 2), and rows[e][i] is the coefficient of zeta^i in the Lagrange
    polynomial that is 1 at r^ks[e] and 0 at the other r^k, with
    r = `root_of_unity_mod(m, p)`.  So a = sum(c_i zeta^i) with images
    y_e = a(r^ks[e]) mod p has c_i = sum_e rows[e][i] y_e mod p.  The r^k are
    the phi(m) distinct roots of Phi_m mod p, so the Lagrange polynomial at
    x_e is Phi_m / (x - x_e) over Phi_m'(x_e), and Phi_m'(x_e) is that
    quotient evaluated at x_e.
    """
    root = root_of_unity_mod(m, p)
    if root is None:
        return None
    ks = [k for k in range(1, m + 1) if _int_gcd(k, m) == 1]
    poly = cyclotomic_polynomial(m)
    rows = []
    for k in ks:
        x = pow(root, k, p)
        quotient = [0] * (len(poly) - 1)
        acc = 0
        for i in range(len(poly) - 1, 0, -1):
            acc = (poly[i] + x * acc) % p
            quotient[i - 1] = acc
        scale = pow(sum(c * pow(x, i, p) for i, c in enumerate(quotient)) % p, -1, p)
        rows.append([c * scale % p for c in quotient])
    return ks, rows


def rational_reconstruction(u, m):
    """The Fraction a/b with |a|, b <= isqrt((m - 1) // 2) and a = b u (mod m),
    or None when there is none (Wang 1981).

    The bound is sqrt(m/2) rounded down for odd m; twice its square is below
    m, so the fraction is unique when it exists.  The half extended Euclid on
    (m, u) stops at the first remainder within the bound; that remainder and
    its cofactor are the fraction when the cofactor is within the bound and
    coprime to the remainder.
    """
    u %= m
    if not u:
        return _ZERO
    bound = isqrt((m - 1) // 2)
    r0, r1 = m, u
    t0, t1 = 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1 = r1, r0 - quo * r1
        t0, t1 = t1, t0 - quo * t1
    if not r1 or abs(t1) > bound or _int_gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _laurent_residue(lp, p, q0, k=1):
    """The residue of a Laurent polynomial at q = q0 (q0 a unit mod p),
    zeta -> r^k in its coefficients."""
    acc = 0
    for c in reversed(lp.coeffs):
        if lp.order != 1:
            c = _base_residue(c, p, k)
            if c is None:
                return None
        acc = (acc * q0 + c) % p
    if lp.den % p == 0:
        return None
    return acc * pow(q0, lp.shift, p) * pow(lp.den, -1, p) % p


def integer(n, ctx=QQ):
    return Scalar.of_fraction(Fraction(n), ctx)


def rational(a, b=1, ctx=QQ):
    return Scalar.of_fraction(Fraction(a, b), ctx)


def zeta(m):
    """The primitive m-th root of unity, in its minimal context."""
    if m < 1:
        raise ValueError("order must be >= 1")
    if m == 1:
        return integer(1)
    if m == 2:
        return integer(-1)
    return Scalar(cyclotomic_field(m), Cyclotomic.zeta_power(m, 1))


def q_symbol(order=1):
    """The indeterminate q over Q(zeta_order)."""
    ctx = function_field(order)
    return Scalar(ctx, RatFunc.from_laurent(LaurentPoly.q_power(1, ctx.order)))


def q_monomial_exponent(s):
    """k when s is exactly q^k in its function field; otherwise None."""
    if not s.ctx.with_q:
        return None
    v = s.val
    if _is_one(v.den) and v.num.den == 1 and v.num.coeffs == (1,):
        return v.num.shift
    return None


# ---------------------------------------------------------------------------
# Canonical string format and its parser.
#
# Grammar (both emitted and accepted):
#   expr   := term {('+'|'-') term}
#   term   := unary {('*'|'/') unary}
#   unary  := '-' unary | factor
#   factor := atom ['^' ['-'] INT]
#   atom   := INT | 'q' | 'zeta' INT | 'zeta' '(' INT ')' | '(' expr ')'
# Terms are emitted sorted by ascending exponent with explicit signs,
# e.g. `1+q`, `-1-q^-1`, `q^-3`, `(1/2)*zeta6`.
# ---------------------------------------------------------------------------

def _int_str(x):
    """The decimal digits of the int x, of any size.  CPython's str refuses
    ints of more than 4,300 digits (a process-wide limit, from 3.10.7 and
    3.11 on); `decimal` converts exactly without it, and is imported only
    for such an int."""
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(x))


def _fmt_rational(f):
    """str(f) for a Fraction (or an int) of any size: its numerator, or
    numerator/denominator.  Every rational in a scalar's text is written
    here."""
    num = _int_str(f.numerator)
    return num if f.denominator == 1 else f"{num}/{_int_str(f.denominator)}"


def _fmt_coeff_atom(f, atom):
    """Render f * atom with f a Fraction and atom like 'q^2' (or None for 1)."""
    f = Fraction(f)
    if atom is None:
        if f.denominator == 1:
            return _fmt_rational(f)
        return f"-({_fmt_rational(-f)})" if f < 0 else f"({_fmt_rational(f)})"
    if f == 1:
        return atom
    if f == -1:
        return "-" + atom
    if f.denominator == 1:
        return f"{_fmt_rational(f)}*{atom}"
    if f < 0:
        return f"-({_fmt_rational(-f)})*{atom}"
    return f"({_fmt_rational(f)})*{atom}"


def _zeta_atom(m, k):
    if k == 0:
        return None
    return f"zeta{m}" if k == 1 else f"zeta{m}^{k}"


def _cyclotomic_terms(c):
    """(k, coefficient of zeta^k as a Fraction) for the nonzero terms of c."""
    return [(k, Fraction(a, c.den)) for k, a in enumerate(c.ints) if a]


def format_cyclotomic(c):
    return _join_signed([_fmt_coeff_atom(a, _zeta_atom(c.order, k))
                         for k, a in _cyclotomic_terms(c)])


def _join_signed(parts):
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def _q_atom(e):
    if e == 0:
        return None
    return "q" if e == 1 else f"q^{e}"


def _fmt_term(c, e):
    atom = _q_atom(e)
    if isinstance(c, Cyclotomic):
        r = c.rational_part()
        if r is not None:
            return _fmt_coeff_atom(r, atom)
        nz = _cyclotomic_terms(c)
        if len(nz) == 1:
            k, a = nz[0]
            zatom = _zeta_atom(c.order, k)
            return _fmt_coeff_atom(a, zatom if atom is None else f"{zatom}*{atom}")
        body = format_cyclotomic(c)
        if atom is None:
            return f"({body})"
        return f"({body})*{atom}"
    return _fmt_coeff_atom(c, atom)


def format_laurent(p):
    return _join_signed([_fmt_term(c, e) for e, c in sorted(p.terms.items())])


def format_ratfunc(r):
    if _is_one(r.den):
        return format_laurent(r.num)
    return f"({format_laurent(r.num)})/({format_laurent(r.den)})"


_DIGITS = "0123456789"


def _parse_int(digits):
    """int(digits) for a literal of any length, through `decimal` beyond
    CPython's 4,300-digit limit (see `_int_str`)."""
    try:
        return int(digits)
    except ValueError:
        from decimal import Decimal
        return int(Decimal(digits))


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.toks = []
        self._scan()
        self.i = 0

    def _scan(self):
        t, i, n = self.text, 0, len(self.text)
        while i < n:
            ch = t[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _DIGITS:
                j = i
                while j < n and t[j] in _DIGITS:
                    j += 1
                self.toks.append(("INT", _parse_int(t[i:j]), i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < n and (t[j].isalpha() or t[j] in _DIGITS):
                    j += 1
                self.toks.append(("NAME", t[i:j], i))
                i = j
                continue
            if ch in "()^*/+-":
                self.toks.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("EOF", None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


def _scan_context(toks):
    saw_q = False
    orders = []
    i = 0
    while i < len(toks.toks):
        kind, value, pos = toks.toks[i]
        if kind == "NAME":
            if value == "q":
                saw_q = True
            elif value == "zeta":
                if i + 3 <= len(toks.toks) and toks.toks[i + 1][0] == "(" \
                        and toks.toks[i + 2][0] == "INT":
                    orders.append(toks.toks[i + 2][1])
                else:
                    raise ParseError("zeta needs an order, e.g. zeta(6) or zeta6", pos)
            elif value.startswith("zeta") and value[4:].isdigit():
                orders.append(int(value[4:]))
            else:
                raise ParseError(f"unknown name {value!r}", pos)
        i += 1
    order = 1
    for m in orders:
        if m < 1:
            raise ParseError("zeta order must be >= 1", 0)
        mm = 1 if m <= 2 else m
        order = order * mm // _int_gcd(order, mm)
    return FieldContext(order, saw_q)


def parse_scalar(text):
    """Parse the canonical scalar grammar into a Scalar in its minimal context.

    Any text that is not a well-formed spec, a division by zero or a negative
    power of zero included, raises ParseError.
    """
    toks = _Tokens(text)
    ctx = _scan_context(toks)

    def parse_expr():
        node = parse_term()
        while True:
            kind, _, _ = toks.peek()
            if kind == "+":
                toks.next()
                node = node + parse_term()
            elif kind == "-":
                toks.next()
                node = node - parse_term()
            else:
                return node

    def parse_term():
        node = parse_unary()
        while True:
            kind, _, _ = toks.peek()
            if kind == "*":
                toks.next()
                node = node * parse_unary()
            elif kind == "/":
                _, _, pos = toks.next()
                d = parse_unary()
                if d.is_zero():
                    raise ParseError("division by zero", pos)
                node = node / d
            else:
                return node

    def parse_unary():
        kind, _, _ = toks.peek()
        if kind == "-":
            toks.next()
            return -parse_unary()
        return parse_factor()

    def parse_factor():
        node = parse_atom()
        kind, _, _ = toks.peek()
        if kind == "^":
            _, _, caret = toks.next()
            sign = 1
            kind, value, pos = toks.next()
            if kind == "-":
                sign = -1
                kind, value, pos = toks.next()
            if kind != "INT":
                raise ParseError("exponent must be an integer", pos)
            if sign < 0 and value and node.is_zero():
                raise ParseError("negative power of zero", caret)
            node = node ** (sign * value)
        return node

    def parse_atom():
        kind, value, pos = toks.next()
        if kind == "INT":
            return integer(value, ctx)
        if kind == "(":
            node = parse_expr()
            kind, _, pos = toks.next()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return node
        if kind == "NAME":
            if value == "q":
                return q_symbol(ctx.order)
            if value == "zeta":
                kind, _, pos = toks.next()
                if kind != "(":
                    raise ParseError("zeta needs parentheses or an inline order", pos)
                kind, m, pos = toks.next()
                if kind != "INT":
                    raise ParseError("zeta order must be an integer", pos)
                kind, _, pos = toks.next()
                if kind != ")":
                    raise ParseError("expected ')'", pos)
                return zeta(m).coerce(ctx)
            if value.startswith("zeta") and value[4:].isdigit():
                return zeta(int(value[4:])).coerce(ctx)
            raise ParseError(f"unknown name {value!r}", pos)
        raise ParseError(f"unexpected token {value!r}", pos)

    try:
        node = parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None
    kind, value, pos = toks.peek()
    if kind != "EOF":
        raise ParseError(f"trailing input {value!r}", pos)
    return node
