"""q-combinatorics: q-integers, q-factorials, Gaussian polynomials, the
q-Pascal triangle, and machine verification of the binomial identities the
braid construction rests on.

Gaussian polynomials come from the q-Pascal triangle itself: row n over Z is
built from row n-1 by the deformed Pascal rule C_n^k = C_(n-1)^(k-1) +
q^k C_(n-1)^k on int coefficient tuples, with no division, and cached.  Each
`QContext` memoizes its triangle entries, so an entry is computed once per q
and then read by index.  At a symbolic q the integer entry is evaluated
(lifted, reversed or substituted); at a concrete q, roots of unity included,
the rows are filled by the same rule in the field, one product and one sum
per entry, which measured faster than evaluating each integer entry.  Nothing
divides, so every specialization is defined, including the zeros at roots of
unity, which are the suspected reducibility points.  Each `QContext`
memoizes its q-powers too (`q_power`), which the q_j, Lambda_n(q) and the
identity checks read.  The context at q^-1 is one per q as well
(`inverse_context`), so sigma_2, sigma_2^-1 and the identity checks at q^-1
share its memos.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from fractions import Fraction

from .errors import ZeroQ
from .linalg import ExactMatrix
from .records import FrozenRecord, Record
from .scalar import (
    FieldContext,
    LaurentPoly,
    RatFunc,
    Scalar,
    _check_degree,
    _lift_laurent,
    q_monomial_exponent,
)

_ONE = Fraction(1)


class QContext(FrozenRecord):
    """The deformation parameter: a symbolic indeterminate or a concrete nonzero
    field element.

    A context memoizes its triangle entries at q: `_rows` maps n to row n,
    each entry a pair (value, q-degree to check against the degree cap on
    every read); in a function field an entry stays None until first read.
    Beside them `_powers` maps e to the pair (q^e, its q-degree) in the same
    way, for `q_power`.  The memos are left out of equality, hashing and
    repr, so equal contexts stay equal keys whatever they have memoized.
    Every cached builder is keyed by a context, so its hash is taken once,
    at construction.
    """

    _fields = ("q",)
    __slots__ = ("q", "_rows", "_powers", "_hash")

    def __init__(self, q):
        if q.is_zero():
            raise ZeroQ("q must be nonzero")
        self._set(q, {}, {}, hash((q,)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not QContext:
            return NotImplemented
        return self.q == other.q

    def __hash__(self):
        return self._hash

    @property
    def ctx(self):
        return self.q.ctx

    def one(self):
        return Scalar.one(self.q.ctx)

    def zero(self):
        return Scalar.zero(self.q.ctx)


def symbolic_q(order=1):
    from .scalar import q_symbol
    return QContext(q_symbol(order))


def concrete_q(value):
    return QContext(value)


@lru_cache(maxsize=256)
def inverse_context(ctx):
    """The context at q^-1: one per q, so every reader shares its memos."""
    return QContext(ctx.q.inverse())


# ---------------------------------------------------------------------------
# Cached symbolic polynomials over Z.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _qint_poly(n):
    return LaurentPoly(1, {i: _ONE for i in range(n)})


@lru_cache(maxsize=None)
def _qfact_poly(n):
    p = LaurentPoly.one(1)
    for i in range(1, n + 1):
        p = p * _qint_poly(i)
    return p


# Rows 0, 1, ... of the q-Pascal triangle over Z built so far.
_TRIANGLE = [((1,),)]


def _pascal_row(n):
    """Row n of the q-Pascal triangle over Z: entry k is the ascending tuple of
    int coefficients of C_n^k(q), of degree k(n-k), by the deformed Pascal rule
    C_n^k = C_(n-1)^(k-1) + q^k C_(n-1)^k.  The rows missing below n are built
    in a loop and kept; entry n-k is entry k."""
    rows = _TRIANGLE
    for m in range(len(rows), n + 1):
        prev = rows[m - 1]
        row = [(1,)] * (m + 1)
        for k in range(1, m // 2 + 1):
            out = list(prev[k - 1]) + [0] * (m - k)   # degree (k-1)(m-k) -> k(m-k)
            for i, c in enumerate(prev[k], k):
                out[i] += c
            row[k] = row[m - k] = tuple(out)
        if len(rows) == m:   # another thread may have built the row meanwhile
            rows.append(tuple(row))
    return rows[n]


def _eval_poly(p, ctx):
    """Evaluate an integer-coefficient symbolic polynomial at ctx.q.

    At q itself and at q^-1 (whose image reverses the coefficients) the value
    is p or its reversal, lifted to the base field of q; any other point is
    substituted.  p may come from a cache, so its degree is checked against
    the degree cap here, not only where it was multiplied out; the reversal
    keeps max(|lo|, |hi|) of the exponent range.
    """
    q = ctx.q
    if p.is_zero():
        return Scalar.zero(q.ctx)
    _check_degree(p.min_exp(), p.max_exp())
    k = q_monomial_exponent(q)
    if k == 1 or k == -1:
        p = p if k == 1 else p.at_inverse_q()
        return Scalar(q.ctx, RatFunc.from_laurent(_lift_laurent(p, 1, q.ctx.order)))
    return Scalar(FieldContext(1, True), RatFunc.from_laurent(p)).substitute(q)


def _q_degree(s):
    """The largest |exponent| of q in a function-field scalar's numerator and
    denominator (the denominator has no negative powers)."""
    v = s.val
    if not v:
        return 0
    return max(-v.num.min_exp(), v.num.max_exp(), v.den.max_exp())


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def q_int(n, ctx):
    """(n)_q = 1 + q + ... + q^(n-1); (0)_q = 0."""
    if n < 0:
        raise ValueError("q-integers are defined for n >= 0")
    return _eval_poly(_qint_poly(n), ctx)


def q_factorial(n, ctx):
    """(n)!_q = (1)_q (2)_q ... (n)_q; (0)!_q = 1."""
    if n < 0:
        raise ValueError("q-factorials are defined for n >= 0")
    return _eval_poly(_qfact_poly(n), ctx)


def tri_exponent(j):
    """The triangular exponent j(j-1)/2, defined for every integer j."""
    return j * (j - 1) // 2


def q_power(e, ctx):
    """q^e for any integer e, memoized on ctx.  Every read checks the power's
    q-degree against the degree cap, as computing it does; a concrete q has
    no q-degree."""
    entry = ctx._powers.get(e)
    if entry is None:
        value = ctx.q ** e
        entry = ctx._powers[e] = (value, _q_degree(value) if ctx.q.ctx.with_q else 0)
    _check_degree(0, entry[1])
    return entry[0]


def q_tri(j, ctx):
    """q_j = q^(j(j-1)/2) for any integer j (negative indices included)."""
    return q_power(tri_exponent(j), ctx)


def q_binomial(n, k, ctx):
    """Gaussian polynomial C_n^k(q); zero outside 0 <= k <= n.

    Every read checks the entry's q-degree, at least k(n-k), against the
    degree cap, as evaluating the integer polynomial does.
    """
    if n < 0:
        raise ValueError("defined for n >= 0")
    if k < 0 or k > n:
        return ctx.zero()
    row = ctx._rows.get(n)
    if row is None:
        row = _memo_row(n, ctx)
    entry = row[k]
    if entry is None:
        value = _eval_poly(LaurentPoly.from_dense(1, 0, _pascal_row(n)[k]), ctx)
        entry = row[k] = row[n - k] = (value, max(k * (n - k), _q_degree(value)))
    value, degree = entry
    _check_degree(0, degree)
    return value


def _memo_row(n, ctx):
    """Memoize row n of ctx.  In a function field the row starts empty and
    `q_binomial` evaluates each entry, with its mirror image, on first read.
    In a number field the rows up to n are filled by the deformed Pascal rule
    in the field, each entry checked on read against its degree k(n-k)."""
    rows = ctx._rows
    if ctx.q.ctx.with_q:
        rows[n] = [None] * (n + 1)
        return rows[n]
    one = ctx.one()
    powers = [one]   # q^k for k <= n/2
    for _ in range(n // 2):
        powers.append(powers[-1] * ctx.q)
    for m in range(len(rows), n + 1):
        prev = rows.get(m - 1)
        row = [(one, 0)] * (m + 1)
        for k in range(1, m // 2 + 1):
            value = prev[k - 1][0] + powers[k] * prev[k][0]
            row[k] = row[m - k] = (value, k * (m - k))
        rows[m] = tuple(row)
    return rows[n]


class QTriangleRow(FrozenRecord):
    """One row of the q-Pascal triangle."""

    __slots__ = _fields = ("n", "entries")

    def __init__(self, n, entries):
        self._set(n, entries)


def triangle_row(n, ctx):
    return QTriangleRow(n, tuple(q_binomial(n, k, ctx) for k in range(n + 1)))


# ---------------------------------------------------------------------------
# Identity verification.
# ---------------------------------------------------------------------------

IDENTITY_NAMES = ("bin1q", "bin2q", "qsymmetry", "bin1", "bin2")


class IdentityReport(Record):
    __slots__ = _fields = ("identity", "n", "passed", "checked", "first_failure")

    def __init__(self, identity, n, passed, checked, first_failure):
        self._set(identity, n, passed, checked, first_failure)

    def to_payload(self):
        out = {"identity": self.identity, "n": self.n, "passed": self.passed,
               "checked": self.checked}
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        return out


def verify_identity(identity, n, ctx):
    """Check one identity over its full index range at the given q.

    bin1q: sum_i C_m^i(q) (-1)^(i+j) q_(i-j) C_i^j(q) = delta_mj, both orderings.
    bin2q: sum_r C_(n-k)^(n-r)(q) (q_r q_(n-r)/q_n) (-1)^(n-r) q^-1_(r-m)
           C_r^m(q^-1) = (q_(k-(n-m))/q_k) C_k^(n-m)(q).
    qsymmetry: C_n^k(q) = (q_n/(q_k q_(n-k))) C_n^k(q^-1).
    bin1/bin2: the classical q=1 specializations over the integers.

    The q-binomial identities are checked as matrix products: with
    P = [C_m^i(q)] and M = [(-1)^(i+j) q_(i-j) C_i^j(q)], bin1q says
    P M = M P = I, and bin2q says A B = R for A = P^# = sigma_1(q,n),
    B_rm = (-1)^(n-r) (q_r q_(n-r)/q_n) q^-1_(r-m) C_r^m(q^-1) and
    R_km = (q_(k-(n-m))/q_k) C_k^(n-m)(q).  The first failure is the first
    index pair, in row-major order, where a product differs, and `checked`
    counts the pairs up to it.
    """
    if identity not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity {identity!r}")
    checked = 0
    one, zero, size = ctx.one(), ctx.zero(), n + 1
    qinv_ctx = inverse_context(ctx) if identity in ("bin2q", "qsymmetry") else None

    def fail(**kw):
        return IdentityReport(identity, n, False, checked, kw)

    def matrix(entry):
        return ExactMatrix.from_fn(size, size, ctx.ctx, entry)

    def signed(value, e, s):
        """(-1)^s q^e value; zero, with no q-power read, when value is zero."""
        if value.is_zero():
            return zero
        value = q_power(e, ctx) * value
        return -value if s % 2 else value

    if identity in ("bin1q", "bin2q"):
        pascal = matrix(lambda m, i: q_binomial(m, i, ctx))
    if identity == "bin1q":
        inverse = matrix(lambda i, j: signed(q_binomial(i, j, ctx), tri_exponent(i - j), i + j))
        first, second = pascal * inverse, inverse * pascal
        for m in range(size):
            for j in range(size):
                expected = one if m == j else zero
                checked += 1
                if first[m, j] != expected or second[m, j] != expected:
                    return fail(m=m, j=j, first=str(first[m, j]), second=str(second[m, j]),
                                expected=str(expected))
    elif identity == "bin2q":
        qn = tri_exponent(n)
        lhs = pascal.sharp() * matrix(lambda r, m: signed(
            q_binomial(r, m, qinv_ctx),
            tri_exponent(r) + tri_exponent(n - r) - qn - tri_exponent(r - m), n - r))
        rhs = matrix(lambda k, m: signed(
            q_binomial(k, n - m, ctx), tri_exponent(k - (n - m)) - tri_exponent(k), 0))
        for k in range(size):
            for m in range(size):
                checked += 1
                if lhs[k, m] != rhs[k, m]:
                    return fail(k=k, m=m, lhs=str(lhs[k, m]), rhs=str(rhs[k, m]))
    elif identity == "qsymmetry":
        for k in range(n + 1):
            lhs = q_binomial(n, k, ctx)
            e = tri_exponent(n) - tri_exponent(k) - tri_exponent(n - k)
            rhs = q_power(e, ctx) * q_binomial(n, k, qinv_ctx)
            checked += 1
            if lhs != rhs:
                return fail(k=k, lhs=str(lhs), rhs=str(rhs))
    elif identity == "bin1":
        for m in range(n + 1):
            for j in range(n + 1):
                total = sum((-1) ** (i + j) * comb(m, i) * comb(i, j)
                            for i in range(n + 1))
                checked += 1
                if total != (1 if m == j else 0):
                    return fail(m=m, j=j, total=total)
    else:  # bin2
        for m in range(n + 1):
            for j in range(n + 1):
                total = sum((-1) ** i * comb(m, i) * comb(n - i, n - j)
                            for i in range(n + 1) if n - i >= 0)
                checked += 1
                if total != comb(n - m, j):
                    return fail(m=m, j=j, total=total)
    return IdentityReport(identity, n, True, checked, None)
