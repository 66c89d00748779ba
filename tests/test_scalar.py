"""Exact field tower: rationals, cyclotomics, Laurent polynomials, rational
functions, canonical strings."""

import sys
import threading
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbraid import scalar
from qbraid.errors import (
    CoercionError,
    DegreeCapExceeded,
    DivisionByZero,
    FieldMismatch,
    NonPolynomialQuotient,
    ParseError,
    PoleAtPoint,
    ZeroSubstitution,
)
from qbraid.scalar import (
    QQ,
    Cyclotomic,
    FieldContext,
    LaurentPoly,
    RatFunc,
    Scalar,
    conjugate_interpolation,
    cyclotomic_field,
    cyclotomic_polynomial,
    euler_phi,
    function_field,
    integer,
    join_context,
    laurent_exact_div,
    parse_scalar,
    q_symbol,
    rational,
    rational_reconstruction,
    residue,
    root_of_unity_mod,
    set_degree_cap,
    zeta,
)
from qbraid.scalar import (
    _SCHOOLBOOK_MAX,
    _conjugate_inverse,
    _cyclotomic,
    _digit_size,
    _int_mul,
    _int_pdivmod,
    _kronecker_mul,
    _lp_divmod,
    _lp_divmod_generic,
    _lp_monic_gcd,
    _lp_monic_gcd_generic,
    _pack,
    _power,
    _unpack,
)

ONE = Fraction(1)


# --- oracles -----------------------------------------------------------------

def _lp_mul_generic(a, b):
    """Schoolbook product of Laurent polynomials over any base field, the
    reference the integer kernel is tested against."""
    if a.is_zero() or b.is_zero():
        return LaurentPoly.zero(a.order)
    sa, ca = a.dense()
    sb, cb = b.dense()
    out = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        if x:
            for j, y in enumerate(cb, i):
                out[j] += x * y
    return LaurentPoly.from_dense(a.order, sa + sb, out)


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(a, b):
    """Naive long division over Q (independent of the package's helper)."""
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(b):
            break
        c = rem[-1] / b[-1]
        k = len(rem) - len(b)
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def ext_gcd_poly(a, b):
    """Extended Euclid over Q[x] (oracle for cyclotomic inverses)."""
    r0, r1 = list(a), list(b)
    s0, s1 = [ONE], []
    t0, t1 = [], [ONE]

    def sub(u, v):
        out = [(u[i] if i < len(u) else Fraction(0)) - (v[i] if i < len(v) else Fraction(0))
               for i in range(max(len(u), len(v)))]
        while out and out[-1] == 0:
            out.pop()
        return out

    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, poly_mul(q, s1) if s1 else [])
        t0, t1 = t1, sub(t0, poly_mul(q, t1) if t1 else [])
    return r0, s0, t0


def phi_oracle(m):
    """Phi_m by naive division of x^m - 1 by Phi_d for the proper divisors d."""
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [ONE]
    for d in range(1, m):
        if m % d == 0:
            num, rem = poly_divmod(num, phi_oracle(d))
            assert rem == []
    return num


def reduce_oracle(a, m):
    """a modulo Phi_m, padded to phi(m) coefficients."""
    mod = phi_oracle(m)
    rem = poly_divmod(list(a), mod)[1] if len(a) >= len(mod) else list(a)
    return tuple(Fraction(c) for c in rem) + (Fraction(0),) * (len(mod) - 1 - len(rem))


# --- cyclotomic polynomials ---------------------------------------------------

def test_cyclotomic_polynomial_order_1():
    assert cyclotomic_polynomial(1) == (Fraction(-1), ONE)


def test_cyclotomic_polynomial_order_6():
    assert cyclotomic_polynomial(6) == (ONE, Fraction(-1), ONE)


def test_cyclotomic_polynomial_order_12_against_division_oracle():
    num = [Fraction(0)] * 13
    num[0], num[12] = Fraction(-1), ONE
    den = [ONE]
    for d in (1, 2, 3, 4, 6):
        den = poly_mul(den, list(cyclotomic_polynomial(d)))
    quo, rem = poly_divmod(num, den)
    assert rem == []
    assert tuple(quo) == cyclotomic_polynomial(12)
    assert cyclotomic_polynomial(12) == (ONE, Fraction(0), Fraction(-1), Fraction(0), ONE)


@pytest.mark.parametrize("m", [1, 3, 4, 5, 7, 8, 9, 12, 17])
def test_cyclotomic_polynomial_matches_oracle(m):
    assert cyclotomic_polynomial(m) == tuple(phi_oracle(m))


@lru_cache(maxsize=None)
def phi_by_divisors(m):
    """Phi_m by exact integer pseudo-division of x^m - 1 by Phi_d for every
    proper divisor d, the reference route for the Moebius product."""
    p = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            f, p, r = _int_pdivmod(p, phi_by_divisors(d))
            assert f == 1 and not r
    return tuple(p)


def test_moebius_product_matches_the_divisor_route():
    """Every order below 400, and orders with many prime factors (2310 =
    2 3 5 7 11, 4620 = 2^2 3 5 7 11) or a square (9999 = 3^2 11 101)."""
    for m in [*range(1, 400), 2310, 4620, 9999]:
        assert cyclotomic_polynomial(m) == phi_by_divisors(m), m


# --- field operations ----------------------------------------------------------

def test_rational_addition():
    assert rational(1, 2) + rational(1, 3) == rational(5, 6)


def test_polynomial_division_canonicalizes():
    q = q_symbol()
    one = Scalar.one(q.ctx)
    assert (q * q - one) / (q - one) == one + q


def test_zeta6_square_reduces():
    z = zeta(6)
    assert z * z == z - Scalar.one(z.ctx)


def test_zeta_inverse_matches_ext_gcd_oracle():
    # invert x modulo x^2 - x + 1 by the oracle, compare with zeta(6)^-1
    g, s, _ = ext_gcd_poly([Fraction(0), ONE], list(cyclotomic_polynomial(6)))
    assert len(g) == 1
    inv_coeffs = [c / g[0] for c in s]
    z = zeta(6)
    expected = Scalar(z.ctx, Cyclotomic(6, (inv_coeffs[0],
                                            inv_coeffs[1] if len(inv_coeffs) > 1 else Fraction(0))))
    assert z.inverse() == expected
    assert str(z.inverse()) == "1-zeta6"


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 12])
def test_zeta_orders(m):
    z = zeta(m)
    one = Scalar.one(z.ctx)
    assert z ** m == one
    for k in range(1, m):
        assert z ** k != one


def test_evaluate_examples():
    q = q_symbol()
    one = Scalar.one(q.ctx)
    assert (one + q).substitute(integer(1)) == integer(2)
    assert (one + q).substitute(integer(-1)) == integer(0)
    assert (q ** -1).substitute(zeta(6)) == zeta(6).inverse()


def test_evaluate_errors():
    q = q_symbol()
    one = Scalar.one(q.ctx)
    with pytest.raises(ZeroSubstitution):
        q.substitute(integer(0))
    with pytest.raises(PoleAtPoint):
        (one / (one + q)).substitute(integer(-1))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        integer(1) / integer(0)
    with pytest.raises(DivisionByZero):
        Scalar.zero(QQ).inverse()
    for ctx in (QQ, zeta(5).ctx, q_symbol().ctx):
        with pytest.raises(DivisionByZero, match="^inverse of zero scalar$"):
            Scalar.zero(ctx) ** -2


# --- algebraic laws (property tests) -------------------------------------------

fractions_st = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@given(fractions_st, fractions_st, fractions_st)
def test_rational_field_axioms(a, b, c):
    sa, sb, sc = (Scalar.of_fraction(v) for v in (a, b, c))
    assert (sa + sb) + sc == sa + (sb + sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    if b != 0:
        assert (sa / sb) * sb == sa


@given(st.lists(st.tuples(st.integers(-6, 6), fractions_st), min_size=1, max_size=5),
       st.lists(st.tuples(st.integers(-6, 6), fractions_st), min_size=1, max_size=5))
@settings(max_examples=60)
def test_laurent_degree_additivity(ta, tb):
    pa = LaurentPoly(1, {})
    for e, c in ta:
        pa = pa + LaurentPoly(1, {e: ONE}).scale(c)
    pb = LaurentPoly(1, {})
    for e, c in tb:
        pb = pb + LaurentPoly(1, {e: ONE}).scale(c)
    if pa.is_zero() or pb.is_zero():
        assert (pa * pb).is_zero()
    else:
        prod = pa * pb
        assert prod.min_exp() == pa.min_exp() + pb.min_exp()
        assert prod.max_exp() == pa.max_exp() + pb.max_exp()


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=40)
def test_ratfunc_cross_multiplication_equality(a, b, c, d):
    # x = (a + b q)/(c + q), y scaled cross-multiplied variant must compare equal
    q = q_symbol()
    ac = integer(a, q.ctx) + integer(b, q.ctx) * q
    dn = integer(c, q.ctx) + q
    x = ac / dn
    scale = integer(d, q.ctx)
    y = (ac * scale) / (dn * scale)
    assert x == y
    assert x.val.num * y.val.den == y.val.num * x.val.den


def test_ratfunc_canonical_form():
    q = q_symbol()
    one = Scalar.one(q.ctx)
    x = (q ** 2 + q) / (q ** 3 - q)   # = 1/(q-1) after canonicalization
    val = x.val
    assert isinstance(val, RatFunc)
    assert val.den.min_exp() == 0
    assert val.den.terms[val.den.max_exp()] == ONE
    assert x * (q - one) == one


@given(st.lists(st.tuples(st.integers(-4, 4), fractions_st), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(-4, 4), fractions_st), min_size=1, max_size=3),
       st.integers(1, 4))
@settings(max_examples=40)
def test_q_field_axioms(ta, tb, c):
    q = q_symbol()

    def build(terms):
        acc = Scalar.zero(q.ctx)
        for e, coeff in terms:
            acc = acc + Scalar.of_fraction(coeff, q.ctx) * q ** e
        return acc

    x, y = build(ta), build(tb)
    d = integer(c, q.ctx) + q   # nonzero denominator
    u = x / d
    v = y / d
    assert (u + v) * d == x + y
    assert u * v * d * d == x * y
    if not y.is_zero():
        assert (x / y) * y == x


@given(fractions_st, fractions_st)
@settings(max_examples=40)
def test_evaluation_is_ring_homomorphism(a, b):
    q = q_symbol()
    f = integer(3, q.ctx) + q * Scalar.of_fraction(a, q.ctx) + q ** 2
    g = q ** -1 + Scalar.of_fraction(b, q.ctx)
    q0 = integer(2)
    assert (f * g).substitute(q0) == f.substitute(q0) * g.substitute(q0)
    assert (f + g).substitute(q0) == f.substitute(q0) + g.substitute(q0)


# --- contexts and coercion -----------------------------------------------------

def test_field_mismatch_is_loud():
    with pytest.raises(FieldMismatch):
        integer(1) + zeta(3)


def test_coercion_is_explicit_and_injective():
    z3 = zeta(3)
    ctx = join_context(z3.ctx, function_field())
    assert ctx == FieldContext(3, True)
    lifted = z3.coerce(ctx)
    assert lifted.ctx == ctx
    assert lifted != Scalar.one(ctx)
    back = integer(5).coerce(ctx)
    assert back == integer(5, ctx)
    with pytest.raises(CoercionError):
        q_symbol().coerce(QQ)


def test_zeta_tower_embedding():
    z3 = zeta(3)
    z6 = zeta(6)
    assert z3.coerce(z6.ctx) == z6 * z6  # zeta_6^2 = zeta_3
    assert zeta(2) == integer(-1)
    assert cyclotomic_field(2) == QQ


# --- canonical strings -----------------------------------------------------------

@pytest.mark.parametrize("text", [
    "1+q", "-1-q^-1", "q^-3", "(1/2)*zeta6", "zeta(3)", "0", "5/6",
    "(1+q)/(1-q+q^2)", "2*q^3", "-(1/2)*zeta6*q^2", "q", "zeta12^5",
    "(1+zeta6)*q^2-q", "-3",
])
def test_parse_format_round_trip(text):
    value = parse_scalar(text)
    assert parse_scalar(str(value)) == value


# Integers of more than 4,300 digits, beyond CPython's int-to-str limit.
BIG = 7 ** 6000           # 5,071 digits
BIG2 = 2 ** 16700         # 5,028 digits, coprime to BIG


def without_int_str_limit(fn, *args):
    """fn(*args) with CPython's int-to-str limit lifted: the reference."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return fn(*args)
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return fn(*args)
    finally:
        set_limit(old)


@pytest.mark.parametrize("value", [
    Scalar.of_fraction(Fraction(-BIG, BIG2)),
    Scalar.of_fraction(Fraction(BIG)),
    Cyclotomic(5, [Fraction(BIG, BIG2), 0, Fraction(-3, BIG2), Fraction(BIG)]),
    Cyclotomic(7, [0, Fraction(-BIG)]),
    LaurentPoly.from_dense(1, -2, [Fraction(BIG, 3), Fraction(0), Fraction(-1, BIG2)]),
    RatFunc.make(LaurentPoly.from_dense(1, 0, [Fraction(-BIG), Fraction(1)]),
                 LaurentPoly.from_dense(1, 0, [Fraction(1, BIG2), Fraction(1)])),
], ids=["fraction", "integer", "cyclotomic", "zeta-term", "laurent", "ratfunc"])
def test_values_beyond_the_int_string_limit_format_exactly(value):
    """Scalars with 5,000-digit parts format as with the limit lifted, and the
    text parses back (literals of more than 4,300 digits)."""
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        with pytest.raises(ValueError):
            str(BIG)
    text = str(value)
    assert text == without_int_str_limit(str, value)
    assert len(text) > 5000
    parsed = parse_scalar(text)
    if isinstance(value, Scalar):
        assert parsed == value
    else:
        assert str(parsed) == text


def test_parse_examples():
    q = parse_scalar("q")
    assert q == q_symbol()
    assert parse_scalar("zeta(3)") == zeta(3)
    assert parse_scalar("-1") == integer(-1)
    assert parse_scalar("(q^2-1)/(q-1)") == Scalar.one(q.ctx) + q


SPEC_TOKENS = ["q", "zeta", "zeta3", "zeta4", "zeta(6)", "(", ")", "^", "-", "+", "*", "/",
               "0", "1", "2", "7", "x", "\u00b2", "\u0663", "zeta\u00b2", "!"]


@given(st.one_of(st.text(), st.lists(st.sampled_from(SPEC_TOKENS), max_size=14).map(" ".join)))
@example("1/0")
@example("0^-1")
@example("(q-q)^-2")
@example("\u00b2")
@example("zeta\u00b2")
@example("(" * 500 + "1" + ")" * 500)
@example("-" * 5000 + "1")
@settings(max_examples=300, deadline=None)
def test_parser_raises_only_parse_errors(text):
    # Every text either parses to a Scalar or raises ParseError; single-digit
    # tokens joined by spaces keep exponents small, so no input runs for long.
    try:
        value = parse_scalar(text)
    except ParseError:
        return
    assert isinstance(value, Scalar)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_scalar("1+!")
    with pytest.raises(ParseError):
        parse_scalar("zeta")
    with pytest.raises(ParseError):
        parse_scalar("q^x")
    with pytest.raises(ParseError):
        parse_scalar("1+q)")


def test_degree_cap():
    q = q_symbol()
    one = Scalar.one(q.ctx)
    set_degree_cap(5)
    try:
        with pytest.raises(DegreeCapExceeded):
            (q ** 3) * (q ** 3)
        with pytest.raises(DegreeCapExceeded):   # monomial times polynomial
            (q ** 3) * (one + q ** 3)
        with pytest.raises(DegreeCapExceeded):   # negative degrees count too
            (q ** -3) * (one + q ** -3)
        with pytest.raises(DegreeCapExceeded):   # multi-term product
            (one + q ** 3) * (one - q ** 3)
    finally:
        set_degree_cap(None)
    assert (q ** 3) * (q ** 3) == q ** 6
    assert (q ** 3) * (one + q ** 3) == q ** 3 + q ** 6
    assert (q ** -3) * (one + q ** -3) == q ** -3 + q ** -6
    assert (one + q ** 3) * (one - q ** 3) == one - q ** 6


@given(st.sampled_from([1, 3]).flatmap(lambda order: st.tuples(
    st.just(order), st.integers(-3, 3), base_coeff_st(order).filter(bool), st.integers(0, 60))))
@settings(max_examples=40, deadline=None)
def test_monomial_power_matches_square_and_multiply(case):
    """c q^s to the e, for e in -40..40, equals square-and-multiply of c q^s or
    of its inverse, over Q(q) and Q(zeta_3)(q); under a degree cap both raise
    or neither does."""
    order, s, c, cap = case
    x = RatFunc.from_laurent(LaurentPoly(order, {s: c}))
    one = RatFunc.from_laurent(LaurentPoly.one(order))
    for e in range(-40, 41):
        want = _power(x if e >= 0 else x.inverse(), abs(e), one)
        assert x ** e == want
        set_degree_cap(cap)
        try:
            outcomes = []
            for route in (lambda: x ** e, lambda: _power(x if e >= 0 else x.inverse(), abs(e), one)):
                try:
                    route()
                    outcomes.append(None)
                except DegreeCapExceeded:
                    outcomes.append(DegreeCapExceeded)
        finally:
            set_degree_cap(None)
        assert outcomes[0] is outcomes[1], (e, cap)


def test_degree_cap_is_scoped_per_thread():
    q = q_symbol()
    one = Scalar.one(q.ctx)
    capped, computed = threading.Event(), threading.Event()
    seen = {}

    def capping():
        set_degree_cap(5)
        capped.set()
        computed.wait(30)
        try:
            (q ** 3) * (q ** 3)
        except DegreeCapExceeded:
            seen["capping"] = "raised"

    def other():
        capped.wait(30)
        try:
            seen["other"] = (one + q ** 5) * (one - q ** 5)   # degree 10
        finally:
            computed.set()

    threads = [threading.Thread(target=capping), threading.Thread(target=other)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
        assert not t.is_alive()
    assert seen == {"capping": "raised", "other": one - q ** 10}
    assert (q ** 5) * (q ** 5) == q ** 10   # nor does it leak into this thread


# --- the integer kernel over Q against the generic route -------------------------

# Small rationals, and large numerators over non-trivial denominators.
kernel_coeffs = st.one_of(
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 12)),
).filter(bool)


def laurent_st(lo=-8, hi=8, max_size=7):
    """Laurent polynomials over Q: zero, monomials and longer sums."""
    return st.dictionaries(st.integers(lo, hi), kernel_coeffs, max_size=max_size) \
        .map(lambda terms: LaurentPoly(1, terms))


ordinary_st = laurent_st(lo=0, hi=6, max_size=5)
ZERO_POLY = LaurentPoly(1, {})
MONOMIAL = LaurentPoly(1, {-3: Fraction(-7, 2)})
TRINOMIAL = LaurentPoly(1, {-2: Fraction(10 ** 30 + 1, 9), 0: Fraction(-1), 4: Fraction(5, 3)})
ONE_PLUS_Q = LaurentPoly(1, {0: ONE, 1: ONE})


class CallerError(Exception):
    pass


@given(laurent_st(), laurent_st())
@example(ZERO_POLY, TRINOMIAL)
@example(MONOMIAL, TRINOMIAL)
@example(TRINOMIAL, TRINOMIAL)
@settings(max_examples=150, deadline=None)
def test_kernel_mul_matches_schoolbook(a, b):
    got = a * b
    assert got.terms == _lp_mul_generic(a, b).terms
    assert all(type(c) is Fraction and c for c in got.terms.values())


@pytest.mark.parametrize("c, n", [(11, 2), (-11, 2), (2 ** 31 - 1, 5), (3 ** 40, 30), (1, 300),
                                  (-(2 ** 63 - 1), _SCHOOLBOOK_MAX),
                                  (2 ** 63 - 1, _SCHOOLBOOK_MAX + 1)])
def test_kernel_mul_worst_case_digits(c, n):
    # Equal coefficients make every overlap add up to the full digit bound.
    a = LaurentPoly(1, {i: Fraction(c) for i in range(-1, n - 1)})
    for b in (a, -a, a.scale(Fraction(1, 3))):
        assert (a * b).terms == _lp_mul_generic(a, b).terms
    # Short lists go to schoolbook in `_int_mul`; the packing is checked directly.
    ints = [c] * n
    for other in (ints, [-x for x in ints], [c] * (n + 1), [0] * n):
        want = poly_mul(ints, other)
        assert _kronecker_mul(ints, other) == want
        assert _int_mul(ints, other) == want


@pytest.mark.parametrize("size", range(1, 11))
def test_pack_round_trips_the_extreme_digits(size):
    top = (1 << (8 * size - 1)) - 1
    for digits in ([top, -top, 0, 1, -1, top], [-top], [0, 0, top], [0]):
        assert _unpack(_pack(digits, size), len(digits), size) == digits


@pytest.mark.parametrize("bound", [1, 127, 128, 2 ** 15, 2 ** 31 - 1, 2 ** 31, 2 ** 63 - 1,
                                   2 ** 63, 2 ** 71, 2 ** 200])
def test_digit_size_covers_the_bound(bound):
    size = _digit_size(bound)
    assert 1 << (8 * size - 1) > bound
    assert size in (1, 2, 4, 8) or size > 8 and 1 << (8 * size - 9) <= bound


@given(laurent_st())
@example(ZERO_POLY)
@example(TRINOMIAL)
def test_at_inverse_q_negates_every_exponent(p):
    assert p.at_inverse_q().terms == {-e: c for e, c in p.terms.items()}
    assert p.at_inverse_q().at_inverse_q() == p


@given(laurent_st(), laurent_st())
@example(TRINOMIAL, MONOMIAL)
@example(ZERO_POLY, TRINOMIAL)
@settings(max_examples=100, deadline=None)
def test_kernel_exact_division_inverts_product(a, b):
    if b.is_zero():
        return
    assert laurent_exact_div(_lp_mul_generic(a, b), b).terms == a.terms


@given(laurent_st(), laurent_st(max_size=4))
@example(TRINOMIAL, ONE_PLUS_Q)
@settings(max_examples=100, deadline=None)
def test_kernel_exact_division_matches_long_division(a, b):
    if a.is_zero() or b.is_zero():
        return
    sa, sb = a.min_exp(), b.min_exp()
    quo, rem = _lp_divmod_generic(a.shifted(-sa), b.shifted(-sb))
    if rem.is_zero():
        assert laurent_exact_div(a, b).terms == quo.shifted(sa - sb).terms
    else:
        with pytest.raises(NonPolynomialQuotient):
            laurent_exact_div(a, b)
        with pytest.raises(CallerError):
            laurent_exact_div(a, b, CallerError)


@given(ordinary_st, ordinary_st)
@settings(max_examples=100, deadline=None)
def test_kernel_divmod_matches_long_division(a, b):
    if b.is_zero():
        with pytest.raises(DivisionByZero):
            _lp_divmod(a, b)
        return
    quo, rem = _lp_divmod(a, b)
    ref_quo, ref_rem = _lp_divmod_generic(a, b)
    assert (quo.terms, rem.terms) == (ref_quo.terms, ref_rem.terms)


@given(ordinary_st, ordinary_st, ordinary_st)
@example(ONE_PLUS_Q, MONOMIAL.shifted(5), TRINOMIAL.shifted(2))
@settings(max_examples=80, deadline=None)
def test_kernel_gcd_matches_euclid(g, x, y):
    a, b = _lp_mul_generic(g, x), _lp_mul_generic(g, y)
    assert _lp_monic_gcd(a, b).terms == _lp_monic_gcd_generic(a, b).terms


def test_kernel_division_rejects_non_multiples():
    with pytest.raises(NonPolynomialQuotient):
        laurent_exact_div(LaurentPoly(1, {0: ONE, 1: ONE, 2: ONE}), ONE_PLUS_Q)
    with pytest.raises(CallerError):
        laurent_exact_div(LaurentPoly(1, {-1: Fraction(2), 0: ONE}), ONE_PLUS_Q, CallerError)
    assert laurent_exact_div(LaurentPoly(1, {-1: Fraction(2), 0: Fraction(2)}), ONE_PLUS_Q) \
        == LaurentPoly(1, {-1: Fraction(2)})


def _to_sympy(p, sympy, x):
    return sum((sympy.Rational(c.numerator, c.denominator) * x ** e
                for e, c in p.terms.items()), sympy.Integer(0))


def test_kernel_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("q")

    def sym(p):
        return _to_sympy(p, sympy, x)

    a = LaurentPoly(1, {-1: ONE, 0: Fraction(2, 3), 2: Fraction(-10 ** 25, 7), 5: Fraction(3)})
    b = LaurentPoly(1, {0: Fraction(-5, 2), 1: ONE, 3: Fraction(10 ** 18 + 1, 4)})
    assert sympy.expand(sym(a * b) - sym(a) * sym(b)) == 0

    # The Gaussian polynomial [6 choose 3]_q as an exact quotient.
    num = LaurentPoly.one(1)
    den = LaurentPoly.one(1)
    for i in range(1, 4):
        num = num * LaurentPoly(1, {0: Fraction(-1), 3 + i: ONE})
        den = den * LaurentPoly(1, {0: Fraction(-1), i: ONE})
    assert sympy.expand(sym(laurent_exact_div(num, den)) - sympy.cancel(sym(num) / sym(den))) == 0

    # A monic gcd over Q with a rational, non-monic common factor.
    g = LaurentPoly(1, {0: Fraction(3), 1: Fraction(-2, 5), 2: Fraction(7, 4)})
    u = LaurentPoly(1, {1: Fraction(10 ** 20), 3: Fraction(-1, 3), 4: ONE})
    v = LaurentPoly(1, {1: Fraction(5, 6), 2: Fraction(-9)})
    got = _lp_monic_gcd(g * u, g * v)
    ref = sympy.Poly(sym(g * u), x, domain="QQ").gcd(sympy.Poly(sym(g * v), x, domain="QQ"))
    assert sympy.Poly(sym(got), x, domain="QQ") == ref.monic()
    assert got.max_exp() == 3   # g times the common factor q


# --- cyclotomic arithmetic against the list-of-Fraction oracles ----------------

CYCLOTOMIC_ORDERS = [3, 4, 5, 7, 8, 9, 12, 17]   # phi(17) = 16: Kronecker side
large_fractions = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                            st.integers(1, 10 ** 15)).filter(bool)


def cyclotomic_coeffs_st(m):
    """Power-basis coefficient lists of Q(zeta_m), phi(m) Fractions: zero,
    single-term, dense, and dense with large denominators."""
    phi = len(phi_oracle(m)) - 1
    zero = st.just([Fraction(0)] * phi)
    single = st.tuples(st.integers(0, phi - 1), kernel_coeffs).map(
        lambda t: [t[1] if i == t[0] else Fraction(0) for i in range(phi)])
    dense = st.lists(fractions_st.filter(bool), min_size=phi, max_size=phi)
    large = st.lists(large_fractions, min_size=phi, max_size=phi)
    return st.one_of(zero, single, dense, large)


def cyclotomic_st(m):
    """Elements of Q(zeta_m), drawn as in `cyclotomic_coeffs_st`."""
    return cyclotomic_coeffs_st(m).map(lambda c: Cyclotomic(m, tuple(c)))


cyclotomic_pairs = st.sampled_from(CYCLOTOMIC_ORDERS).flatmap(
    lambda m: st.tuples(cyclotomic_st(m), cyclotomic_st(m)))


@given(cyclotomic_pairs)
@settings(max_examples=120, deadline=None)
def test_cyclotomic_mul_matches_convolution_then_reduction(pair):
    x, y = pair
    got = x * y
    assert got.coeffs == reduce_oracle(poly_mul(x.coeffs, y.coeffs), x.order)
    assert all(type(c) is Fraction for c in got.coeffs)


@given(st.sampled_from(CYCLOTOMIC_ORDERS).flatmap(cyclotomic_st))
@settings(max_examples=80, deadline=None)
def test_cyclotomic_inverse_matches_ext_gcd(x):
    if x.is_zero():
        with pytest.raises(DivisionByZero):
            x.inverse()
        return
    a = list(x.coeffs)
    while a[-1] == 0:
        a.pop()
    g, s, _ = ext_gcd_poly(a, phi_oracle(x.order))
    assert len(g) == 1
    inv = x.inverse()
    assert inv.coeffs == reduce_oracle([c / g[0] for c in s], x.order)
    assert x * inv == Cyclotomic.from_rational(x.order, 1)


@given(st.sampled_from(CYCLOTOMIC_ORDERS + [15, 21, 30]).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, 2 * m), st.one_of(fractions_st, large_fractions))))
@settings(max_examples=150, deadline=None)
def test_single_term_cyclotomic_inverse_matches_the_conjugate_product(case):
    """c zeta^k, a single term in the power basis for k < phi(m) and a reduced
    sum above, inverts to the conjugate-product inverse."""
    m, k, c = case
    x = Cyclotomic.zeta_power(m, k) * c
    if not c:
        with pytest.raises(DivisionByZero):
            x.inverse()
        return
    inv = x.inverse()
    assert inv == _conjugate_inverse(x)
    assert x * inv == Cyclotomic.from_rational(m, 1)


@pytest.mark.parametrize("m", CYCLOTOMIC_ORDERS)
def test_zeta_power_matches_reduction(m):
    one = Cyclotomic.from_rational(m, 1)
    for k in range(-2 * m, 2 * m + 1):
        z = Cyclotomic.zeta_power(m, k)
        assert z.coeffs == reduce_oracle([Fraction(0)] * (k % m) + [ONE], m), k
        assert z * Cyclotomic.zeta_power(m, -k) == one, k


EMBEDDINGS = [(3, 6), (3, 9), (3, 12), (4, 8), (4, 12), (5, 10), (5, 15), (12, 24)]


@given(st.sampled_from(EMBEDDINGS).flatmap(
    lambda ab: st.tuples(st.just(ab[1]), cyclotomic_st(ab[0]), cyclotomic_st(ab[0]))))
@settings(max_examples=80, deadline=None)
def test_coerce_between_cyclotomic_fields_is_a_ring_map(case):
    b, x, y = case
    a = x.order
    source, target = cyclotomic_field(a), cyclotomic_field(b)

    def lift(v):
        return Scalar(source, v).coerce(target)

    sx, sy = Scalar(source, x), Scalar(source, y)
    assert (sx + sy).coerce(target) == lift(x) + lift(y)
    assert (sx * sy).coerce(target) == lift(x) * lift(y)
    # zeta_a^i goes to zeta_b^(i*b/a), reduced modulo Phi_b.
    image = [Fraction(0)] * b
    for i, c in enumerate(x.coeffs):
        image[i * (b // a)] += c
    assert lift(x).val.coeffs == reduce_oracle(image, b)


# --- the stored form of Cyclotomic against a Fraction-tuple reference ------------

def assert_cyclotomic_canonical(c):
    """sum(ints[i] * zeta^i) / den with den > 0 coprime to the ints, at most
    phi(m) ints and no trailing zero; zero is (1, ())."""
    assert type(c) is Cyclotomic
    assert type(c.den) is int and type(c.ints) is tuple
    assert all(type(a) is int for a in c.ints)
    assert len(c.ints) <= len(phi_oracle(c.order)) - 1
    if not c.ints:
        assert c.den == 1
        return
    assert c.ints[-1] != 0
    assert c.den > 0 and gcd(c.den, *c.ints) == 1


def ref_from(c):
    """The reference value of c: its phi(m) coefficients, as Fractions."""
    return tuple(Fraction(a, c.den) for a in c.ints) \
        + (Fraction(0),) * (len(phi_oracle(c.order)) - 1 - len(c.ints))


DIFFERENTIAL_ORDERS = [3, 4, 5, 12, 17]

differential_case = st.sampled_from(DIFFERENTIAL_ORDERS).flatmap(
    lambda m: st.tuples(st.just(m), cyclotomic_coeffs_st(m), cyclotomic_coeffs_st(m),
                        st.one_of(fractions_st, large_fractions)))


@given(differential_case)
@settings(max_examples=150, deadline=None)
def test_cyclotomic_stored_form_matches_fraction_reference(case):
    m, ca, cb, f = case
    ra, rb = tuple(ca), tuple(cb)
    x, y = Cyclotomic(m, ra), Cyclotomic(m, rb)
    zero = (Fraction(0),) * len(ra)
    results = {
        "x": (x, ra),
        "+": (x + y, tuple(a + b for a, b in zip(ra, rb))),
        "-": (x - y, tuple(a - b for a, b in zip(ra, rb))),
        "neg": (-x, tuple(-a for a in ra)),
        "*": (x * y, reduce_oracle(poly_mul(ra, rb), m)),
        "*f": (x * f, tuple(a * f for a in ra)),
    }
    if x:
        inv = x.inverse()
        results["inverse"] = (inv, ref_from(inv))
        assert reduce_oracle(poly_mul(ra, ref_from(inv)), m) == (ONE,) + zero[1:]
    else:
        with pytest.raises(DivisionByZero):
            x.inverse()
    for name, (got, want) in results.items():
        assert_cyclotomic_canonical(got)
        assert ref_from(got) == want, name
        assert got.coeffs == want, name
        assert all(type(a) is Fraction for a in got.coeffs), name
        again = Cyclotomic(m, got.coeffs)
        assert again == got and hash(again) == hash(got), name
        rational = want[0] if not any(want[1:]) else None
        assert got.rational_part() == rational, name
    # Equal values reached by different routes are equal and hash equally.
    routes = [((x + y) - y, x), (x * y, y * x), (x + x, x * 2), (-(-x), x),
              (x * f, Cyclotomic.from_rational(m, f) * x)]
    if y:
        routes.append(((x * y) * y.inverse(), x))
    for u, v in routes:
        assert u == v and hash(u) == hash(v)


@given(st.sampled_from([3, 4, 5, 9, 12, 15, 16, 17, 105]).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(-10 ** 20, 10 ** 20), max_size=3 * m),
                        st.integers(1, 60))))
@settings(max_examples=150, deadline=None)
def test_top_down_reduction_matches_long_division(case):
    """Int lists up to three times the order long, reduced modulo Phi_m by
    the nonzero terms of Phi_m (sparse for 9, 12, 15, 16 and 105), against
    long division over Q."""
    m, ints, den = case
    got = _cyclotomic(m, den, list(ints))
    assert_cyclotomic_canonical(got)
    assert ref_from(got) == tuple(c / den for c in reduce_oracle(ints, m))


def test_cyclotomic_stored_form_examples():
    half = Fraction(1, 2)
    assert (Cyclotomic(3, (half, half)) * 2).ints == (1, 1)
    assert Cyclotomic(3, (0, 0)).ints == () and Cyclotomic(3, (0, 0)).den == 1
    x = Cyclotomic(12, (Fraction(2, 3), 0, Fraction(-4, 9), 0))
    assert (x.den, x.ints) == (9, (6, 0, -4))
    assert x.coeffs == (Fraction(2, 3), 0, Fraction(-4, 9), 0)
    # zeta3^2 = -1 - zeta3 after reduction; an int input is accepted too.
    assert Cyclotomic(3, (0, 0, 1)) == Cyclotomic(3, (-1, -1))
    assert Cyclotomic(4, (1, 1)) * Cyclotomic(4, (1, -1)) == 2
    assert Cyclotomic.from_rational(5, Fraction(-3, 6)).rational_part() == Fraction(-1, 2)
    assert (Cyclotomic(3, (half, 0)) - Cyclotomic(3, (half, 0))).den == 1


# --- the stored form of LaurentPoly against a dict-of-base-field reference --------

STORED_ORDERS = [1, 3, 4]


def base_coeff_st(order):
    """Base-field coefficients of Q(zeta_order), zero included."""
    fractions = st.one_of(fractions_st, kernel_coeffs)
    if order == 1:
        return fractions
    phi = len(phi_oracle(order)) - 1
    return st.lists(st.one_of(st.just(Fraction(0)), fractions), min_size=phi, max_size=phi) \
        .map(lambda c: Cyclotomic(order, tuple(c)))


def terms_st(order, max_size=6):
    return st.dictionaries(st.integers(-6, 6), base_coeff_st(order), max_size=max_size)


def ref_trim(terms):
    return {e: c for e, c in terms.items() if c != 0}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out[e] + c if e in out else c
    return ref_trim(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return ref_trim(out)


def assert_canonical(p):
    assert type(p.coeffs) is tuple
    if not p.coeffs:
        assert (p.shift, p.den) == (0, 1)
        return
    assert p.coeffs[0] != 0 and p.coeffs[-1] != 0
    if p.order == 1:
        assert all(type(c) is int for c in p.coeffs)
        assert type(p.den) is int and p.den > 0
        assert gcd(p.den, *p.coeffs) == 1
    else:
        assert p.den == 1
        assert all(type(c) is Cyclotomic and c.order == p.order for c in p.coeffs)


stored_case = st.sampled_from(STORED_ORDERS).flatmap(
    lambda m: st.tuples(terms_st(m), terms_st(m), base_coeff_st(m), st.integers(-5, 5)))


@given(stored_case)
@settings(max_examples=150, deadline=None)
def test_stored_form_operations_match_dict_reference(case):
    ta, tb, c, k = case
    order = c.order if isinstance(c, Cyclotomic) else 1
    a, b = LaurentPoly(order, ta), LaurentPoly(order, tb)
    ra, rb = ref_trim(ta), ref_trim(tb)
    results = {
        "a": (a, ra),
        "+": (a + b, ref_add(ra, rb)),
        "-": (a - b, ref_add(ra, {e: -v for e, v in rb.items()})),
        "neg": (-a, {e: -v for e, v in ra.items()}),
        "scale": (a.scale(c), ref_trim({e: v * c for e, v in ra.items()})),
        "shifted": (a.shifted(k), {e + k: v for e, v in ra.items()}),
        "*": (a * b, ref_mul(ra, rb)),
    }
    for name, (got, want) in results.items():
        assert_canonical(got)
        assert got.terms == want, name
        again = LaurentPoly(order, got.terms)
        assert again == got and hash(again) == hash(got), name
    # Equal values reached by different routes are equal and hash equally.
    for x, y in (((a + b) - b, a), (a * b, b * a), (a + a, a.scale(2))):
        assert x == y and hash(x) == hash(y)


# --- Laurent products over Q(zeta_m) on the integer kernel ----------------------------

ZETA_PRODUCT_ORDERS = [3, 4, 5, 12]


def top_power_poly(order, exponents, den=1):
    """sum over the exponents e of (|e| + 1)/den zeta^(phi - 1) q^e: every
    coefficient sits at the top power of the power basis, so a product of
    two coefficients reaches zeta-degree 2 phi - 2."""
    top = Cyclotomic.zeta_power(order, euler_phi(order) - 1)
    return LaurentPoly(order, {e: top * Fraction(abs(e) + 1, den) for e in exponents})


zeta_product_case = st.sampled_from(ZETA_PRODUCT_ORDERS).flatmap(
    lambda m: st.tuples(terms_st(m, 8), terms_st(m, 8)).map(
        lambda t: (LaurentPoly(m, t[0]), LaurentPoly(m, t[1]))))


@given(zeta_product_case)
@example((top_power_poly(3, [0]), top_power_poly(3, [0])))
@example((top_power_poly(4, [-2, 5]), top_power_poly(4, [1, 3], 7)))
@example((top_power_poly(5, [-3, -1, 4]), top_power_poly(5, [0, 2])))
@example((top_power_poly(12, range(-4, 9)), top_power_poly(12, range(11), 3)))
@example((top_power_poly(5, range(-6, 7), 10 ** 20), top_power_poly(5, range(13))))
@settings(max_examples=150, deadline=None)
def test_zeta_laurent_product_matches_schoolbook(pair):
    a, b = pair
    got = a * b
    assert_canonical(got)
    assert got == _lp_mul_generic(a, b)


@pytest.mark.parametrize("m", ZETA_PRODUCT_ORDERS)
def test_long_zeta_laurent_products_reach_kronecker(m, monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(min(len(a), len(b)))
        return _kronecker_mul(a, b)

    monkeypatch.setattr(scalar, "_kronecker_mul", counted)
    a, b = top_power_poly(m, range(-3, 9)), top_power_poly(m, range(6), 5)
    assert a * b == _lp_mul_generic(a, b)
    assert calls and min(calls) > _SCHOOLBOOK_MAX


def pdivmod_always_gcd(a, b):
    """`_int_pdivmod` with a gcd at every step, the reference for its
    exact-step fast path."""
    lead, nb = b[-1], len(b)
    rem, quo, f = list(a), [0] * max(len(a) - nb + 1, 0), 1
    for k in range(len(a) - nb, -1, -1):
        c = rem[k + nb - 1]
        if not c:
            continue
        g = gcd(c, lead)
        if lead < 0:
            g = -g
        s, c = lead // g, c // g
        if s != 1:
            rem = [s * x for x in rem]
            quo = [s * x for x in quo]
            f *= s
        quo[k] = c
        for j in range(nb):
            rem[k + j] -= c * b[j]
    del rem[nb - 1:]
    while rem and not rem[-1]:
        rem.pop()
    return f, quo, rem


small_int_lists = st.lists(st.integers(-40, 40), min_size=1, max_size=7)


@given(small_int_lists, small_int_lists.filter(lambda b: b[-1]), small_int_lists, st.booleans())
@example([3, 1, -5], [2, 0, -3], [0], True)
@example([3, 1, -5], [2, 0, -3], [7, 1], False)
@example([1, 1, 1, 1], [1, -1], [0], False)
@example([4, -6, 9], [5, 2, -1], [1, -1, 1], False)
@settings(max_examples=300, deadline=None)
def test_int_pdivmod_fast_path_matches_the_always_gcd_reference(c, b, r, exact):
    """(f, quo, rem) are those of a gcd at every step, for a = c b when
    exact, else a = c b + r, with leads of either sign."""
    a = [int(x) for x in poly_mul(c, b)]
    if not exact:
        a = [x + (r[i] if i < len(r) else 0) for i, x in enumerate(a + [0] * (len(r) - len(a)))]
    assert _int_pdivmod(a, b) == pdivmod_always_gcd(a, b)
    if exact:
        assert _int_pdivmod(a, b)[0] == 1


def test_function_field_one_hashes_like_an_equal_product():
    ctx = function_field(3)
    z = zeta(3).coerce(ctx)
    one = Scalar.one(ctx)
    assert one == z * z.inverse()
    assert len({one, z * z.inverse()}) == 1
    assert LaurentPoly(3, {0: ONE}) == LaurentPoly.one(3)
    assert hash(LaurentPoly(3, {0: ONE, 2: Fraction(0)})) == hash(LaurentPoly.one(3))


ratfunc_case = st.sampled_from(STORED_ORDERS).flatmap(
    lambda m: st.tuples(st.just(m), terms_st(m, 4), terms_st(m, 3)))


@given(ratfunc_case)
@settings(max_examples=120, deadline=None)
def test_parse_round_trip_of_random_rational_functions(case):
    order, tn, td = case
    den = LaurentPoly(order, td)
    if den.is_zero():
        return
    ctx = function_field(order)
    x = Scalar(ctx, RatFunc.make(LaurentPoly(order, tn), den))
    assert parse_scalar(str(x)).coerce(ctx) == x


# --- reduction modulo a prime --------------------------------------------------------------

RESIDUE_PAIRS = [(100008, 1862340481), (5, 13)]   # 13 = 1 (mod 3) and (mod 4)


@given(st.sampled_from(STORED_ORDERS).flatmap(lambda m: st.tuples(
    st.just(m), terms_st(m, 3), terms_st(m, 2), terms_st(m, 3), terms_st(m, 2))),
    st.sampled_from(RESIDUE_PAIRS))
@settings(max_examples=80, deadline=None)
def test_residue_is_a_ring_map(case, pair):
    q0, p = pair
    order, values = case[0], []
    for tn, td in (case[1:3], case[3:5]):
        den = LaurentPoly(order, td)
        if den.is_zero():
            return
        values.append(Scalar(function_field(order), RatFunc.make(LaurentPoly(order, tn), den)))
    x, y = values
    rx, ry = residue(x, p, q0), residue(y, p, q0)
    for combined, expected in ((x + y, None if None in (rx, ry) else (rx + ry) % p),
                               (x * y, None if None in (rx, ry) else rx * ry % p)):
        got = residue(combined, p, q0)
        if got is not None and expected is not None:
            assert got == expected
    # the same map on the constant field: q plays no part
    for c in (x, y):
        if c.is_zero() or not c.val.is_polynomial() or c.val.num.max_exp() or c.val.num.min_exp():
            continue
        base = Scalar(FieldContext(c.ctx.order), c.val.num.lead())
        assert residue(base, p, q0) == residue(c, p, q0)


def test_residue_examples():
    p = 13
    assert residue(rational(3, 4), p, 5) == 3 * pow(4, -1, p) % p
    assert residue(rational(1, 13), p, 5) is None
    z = zeta(3)
    root = root_of_unity_mod(3, p)
    assert pow(root, 3, p) == 1 and root != 1
    assert residue(z, p, 5) == root
    assert residue(z * z + z + Scalar.one(z.ctx), p, 5) == 0
    assert residue(zeta(5), p, 5) is None          # 5 does not divide 12
    q = q_symbol()
    one = Scalar.one(q.ctx)
    assert residue(q, p, 5) == 5
    assert residue(q ** -2, p, 5) == pow(25, -1, p)
    assert residue(one / (q - integer(5, q.ctx)), p, 5) is None   # a pole
    assert residue(one / (q - integer(5, q.ctx)), p, 6) == 1
    assert residue(q, p, 13) is None               # q0 = 0 mod p
    # over Q(zeta_3)(q) the conjugate exponent reaches the coefficients too
    ctx = join_context(q.ctx, z.ctx)
    zq, qz = z.coerce(ctx), q.coerce(ctx)
    assert residue(zq + qz, p, 5, 2) == (root * root + 5) % p
    assert residue(Scalar.one(ctx) / (zq * qz - integer(1, ctx)), p, 5, 2) == \
        pow((root * root * 5 - 1) % p, -1, p)


@given(st.sampled_from([1, 3, 4, 5, 6, 12, 20]).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(-50, 50), min_size=20, max_size=20),
                        st.integers(1, 9))),
    st.sampled_from([1862340481, 232792561, 61]))
@settings(max_examples=80, deadline=None)
def test_conjugate_interpolation_inverts_the_conjugate_residues(case, p):
    """The residues of a in Q(zeta_m) at every conjugate root r^k, mapped back,
    are the residues of its power-basis coefficients."""
    m, ints, den = case
    if (p - 1) % m:
        return
    ks, rows = conjugate_interpolation(m, p)
    ctx = cyclotomic_field(m)
    phi = 1 if m <= 2 else len(cyclotomic_polynomial(m)) - 1
    assert len(ks) == len(rows) == phi
    coeffs = [Fraction(c, den) for c in ints[:phi]]
    x = Scalar(ctx, coeffs[0] if phi == 1 else Cyclotomic(m, coeffs))
    images = [residue(x, p, 0, k) for k in ks]
    if None in images:
        assert den % p == 0
        return
    got = [sum(row[i] * y for row, y in zip(rows, images)) % p for i in range(phi)]
    assert got == [c.numerator * pow(c.denominator, -1, p) % p for c in coeffs]
    # k = 1 is the standard root, and r^k is the image of the conjugate zeta -> zeta^k
    assert ks[0] == 1 and images[0] == residue(x, p, 0)
    if phi > 1:
        z = zeta(m)
        for k, image in zip(ks, images):
            conj = sum((Scalar.of_fraction(c, ctx) * z ** (i * k) for i, c in enumerate(coeffs)),
                       Scalar.zero(ctx))
            assert residue(conj, p, 0) == image


def test_conjugate_interpolation_needs_a_root_of_unity():
    assert conjugate_interpolation(32, 97) is not None
    assert conjugate_interpolation(32, 1009) is None    # 1008 = 2^4 * 63


def brute_reconstruction(u, m):
    bound = isqrt((m - 1) // 2)
    found = [Fraction(a, b) for b in range(1, bound + 1) if gcd(b, m) == 1
             for a in range(-bound, bound + 1) if gcd(a, b) == 1 and (a - b * u) % m == 0]
    assert len(found) <= 1
    return found[0] if found else None


@given(st.integers(3, 400).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1))))
@settings(max_examples=300, deadline=None)
@example((101, 10))     # no a/b with |a|, b <= 7 is 10 mod 101
@example((2 * 3 * 5 * 7, 2))
def test_rational_reconstruction_matches_brute_force(case):
    """Every residue of a small modulus, prime or not: the unique fraction
    within the bound, or None when there is none."""
    u, m = case[1], case[0]
    assert rational_reconstruction(u, m) == brute_reconstruction(u, m)


LIFT_MODULI = [1862340481, 1862340481 * 1163962801,
               1862340481 * 1163962801 * 232792561 * 8613324721]


@given(st.sampled_from(LIFT_MODULI).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(-isqrt(m // 2), isqrt(m // 2)), st.integers(1, isqrt(m // 2)))))
@settings(max_examples=200, deadline=None)
def test_rational_reconstruction_round_trip(case):
    m, a, b = case
    if gcd(b, m) != 1:
        return
    value = Fraction(a, b)
    u = value.numerator * pow(value.denominator, -1, m) % m
    assert rational_reconstruction(u, m) == value


def test_rational_reconstruction_out_of_bound():
    m = 1862340481
    bound = isqrt(m // 2)   # m is odd, so this is the bound
    assert rational_reconstruction(bound, m) == bound
    assert rational_reconstruction(-bound % m, m) == -bound
    # 1/(bound + 1) is out of bound; its residue has no reconstruction
    u = pow(bound + 1, -1, m)
    assert rational_reconstruction(u, m) is None
    assert brute_reconstruction(10, 101) is None and rational_reconstruction(10, 101) is None
    assert rational_reconstruction(0, m) == 0
    # a multiple of one prime of a composite modulus is no fraction within the bound
    assert rational_reconstruction(1862340481, 1862340481 * 1163962801) is None
