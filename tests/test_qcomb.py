"""q-combinatorics: q-integers, Gaussian polynomials, triangle, identities."""

import inspect
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbraid import qcomb
from qbraid.errors import DegreeCapExceeded, NonPolynomialQuotient, ZeroQ
from qbraid.qcomb import (
    IDENTITY_NAMES,
    _TRIANGLE,
    IdentityReport,
    QContext,
    _eval_poly,
    _pascal_row,
    concrete_q,
    q_binomial,
    q_factorial,
    q_int,
    q_power,
    q_tri,
    symbolic_q,
    triangle_row,
    tri_exponent,
    verify_identity,
)
from qbraid.rep import sigma1_matrix
from qbraid.scalar import (
    LaurentPoly,
    RatFunc,
    Scalar,
    function_field,
    integer,
    rational,
    laurent_exact_div,
    parse_scalar,
    q_symbol,
    set_degree_cap,
    zeta,
)

from reference import gauss_expand, q_pochhammer


@pytest.fixture(scope="module")
def ctx():
    return symbolic_q()


def sym(text):
    return parse_scalar(text)


# --- reference routes -------------------------------------------------------------

def factorial_quotient(n, k):
    """C_n^k(q) over Q as prod_i (n-k+i)_q / (i)_q, with exact stepwise
    division of the integer polynomials."""
    if k < 0 or k > n:
        return LaurentPoly.zero(1)
    p = LaurentPoly.one(1)
    for i in range(1, k + 1):
        p = p * LaurentPoly(1, {e: Fraction(1) for e in range(n - k + i)})
        p = laurent_exact_div(p, LaurentPoly(1, {e: Fraction(1) for e in range(i)}))
    return p


def q_binomial_recursive(n, k, ctx, variant="first"):
    """C_n^k(q) computed purely by one of the two deformed Pascal recursions,
    in the field of ctx.q."""
    if variant not in ("first", "second"):
        raise ValueError("variant must be 'first' or 'second'")
    one, zero = ctx.one(), ctx.zero()
    memo = {}

    def rec(nn, kk):
        if kk < 0 or kk > nn:
            return zero
        if kk == 0 or kk == nn:
            return one
        key = (nn, kk)
        got = memo.get(key)
        if got is not None:
            return got
        if variant == "first":
            val = rec(nn - 1, kk - 1) + ctx.q ** kk * rec(nn - 1, kk)
        else:
            val = ctx.q ** (nn - kk) * rec(nn - 1, kk - 1) + rec(nn - 1, kk)
        memo[key] = val
        return val

    return rec(n, k)


# --- basic q-objects ------------------------------------------------------------

def test_q_int(ctx):
    assert q_int(0, ctx).is_zero()
    assert q_int(3, ctx) == sym("1+q+q^2")


def test_q_factorial(ctx):
    assert q_factorial(0, ctx) == ctx.one()
    assert q_factorial(2, ctx) == sym("1+q")
    assert q_factorial(3, ctx) == q_int(1, ctx) * q_int(2, ctx) * q_int(3, ctx)


def test_q_pochhammer(ctx):
    assert q_pochhammer(ctx.q, 0, ctx) == ctx.one()
    assert q_pochhammer(ctx.q, 2, ctx) == (ctx.one() - ctx.q) * (ctx.one() - ctx.q ** 2)


def test_q_triangular_power(ctx):
    assert q_tri(0, ctx) == ctx.one()
    assert q_tri(1, ctx) == ctx.one()
    assert q_tri(3, ctx) == sym("q^3")
    # q_(1,3) = q_1 q_2 / q_3 = q^-2
    lhs = q_tri(1, ctx) * q_tri(2, ctx) / q_tri(3, ctx)
    assert lhs == sym("q^-2") == ctx.q ** (-(3 - 1) * 1)


def test_triangular_exponent_identity():
    # q_r q_(n-r) / q_n = q^(-(n-r)r), the identity behind cond_q.
    for n in range(41):
        for r in range(n + 1):
            assert tri_exponent(r) + tri_exponent(n - r) - tri_exponent(n) == -(n - r) * r


def test_tri_exponent_negative_indices():
    assert tri_exponent(-1) == 1
    assert tri_exponent(-2) == 3
    assert tri_exponent(4) == 6


def test_zero_q_rejected():
    with pytest.raises(ZeroQ):
        QContext(integer(0))


# --- Gaussian polynomials --------------------------------------------------------

def test_q_binomial_displays(ctx):
    assert q_binomial(2, 1, ctx) == sym("1+q")
    assert q_binomial(4, 2, ctx) == sym("(1+q^2)*(1+q+q^2)")
    assert q_binomial(5, 1, ctx) == sym("1+q+q^2+q^3+q^4")
    assert q_binomial(3, 5, ctx).is_zero()
    assert q_binomial(3, -1, ctx).is_zero()


def test_q_binomial_recursions_match_closed_form(ctx):
    assert q_binomial_recursive(3, 2, ctx, "first") == sym("1+q+q^2")
    for n in range(11):
        assert q_binomial_recursive(n, 0, ctx, "first") == ctx.one()
        for k in range(n + 1):
            closed = q_binomial(n, k, ctx)
            assert q_binomial_recursive(n, k, ctx, "first") == closed
            assert q_binomial_recursive(n, k, ctx, "second") == closed
            assert _eval_poly(factorial_quotient(n, k), ctx) == closed


# Every kind of q the two production routes serve: function fields (q, q^-1,
# q^2, 2q, 1+q, and q over Q(zeta_3), drawn separately) evaluate the integer
# rows; number fields (rationals, -1, 1 and roots of unity) fill the rows in
# the field, and at a root of unity other than 1 some entries vanish.
ROOTS_OF_UNITY = ["-1", "zeta(3)", "zeta(3)^2", "zeta(5)", "zeta(7)"]
DIFFERENTIAL_QS = ["q", "q^-1", "q^2", "2*q", "1+q", "2", "3/2", "1"] + ROOTS_OF_UNITY


@pytest.mark.parametrize("spec", DIFFERENTIAL_QS + ["q over Q(zeta3)"])
def test_q_binomial_matches_the_factorial_quotient(spec):
    """Both production routes equal the factorial quotient evaluated at q, for
    n <= 12, the zeros at roots of unity included."""
    qc = QContext(q_symbol(3) if spec == "q over Q(zeta3)" else sym(spec))
    zeros = 0
    for n in range(13):
        for k in range(n + 1):
            got = q_binomial(n, k, qc)
            assert got == _eval_poly(factorial_quotient(n, k), qc), (spec, n, k)
            assert got.ctx == qc.ctx
            zeros += got.is_zero()
    assert (zeros > 0) == (spec in ROOTS_OF_UNITY)


def test_the_memo_stays_out_of_equality_and_hashing():
    """Equal contexts compare, hash and print equal whatever each has
    memoized, so they stay interchangeable keys of the rep caches."""
    warm, cold = symbolic_q(), symbolic_q()
    assert q_binomial(6, 3, warm) == sym("1+q+2*q^2+3*q^3+3*q^4+3*q^5+3*q^6+2*q^7+q^8+q^9")
    assert warm._rows and not cold._rows
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert {warm: 1}[cold] == 1
    assert sigma1_matrix(4, warm) is sigma1_matrix(4, cold)


def test_pascal_rows_are_built_without_recursion():
    """Rows far beyond the recursion limit's headroom are built in a loop, and
    match the factorial quotient."""
    n = len(_TRIANGLE) + 40
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 20)
    try:
        row = _pascal_row(n)
    finally:
        sys.setrecursionlimit(limit)
    for k in (0, 1, 2, n // 2):
        assert LaurentPoly.from_dense(1, 0, row[k]) == factorial_quotient(n, k)


def test_q_binomial_symmetry(ctx):
    for n in range(11):
        for k in range(n + 1):
            assert q_binomial(n, k, ctx) == q_binomial(n, n - k, ctx)


def test_classical_specialization():
    c1 = concrete_q(integer(1))
    for n in range(13):
        for k in range(n + 1):
            assert q_binomial(n, k, c1) == integer(comb(n, k))


def test_root_of_unity_specialization_goes_through_polynomial():
    cm1 = concrete_q(integer(-1))
    assert q_binomial(2, 1, cm1).is_zero()
    assert q_binomial(4, 2, cm1) == integer(2)
    z3 = concrete_q(zeta(3))
    assert q_binomial(3, 1, z3).is_zero()


# --- product expansion -------------------------------------------------------------

def test_gauss_expand_base_cases(ctx):
    assert gauss_expand(0, ctx) == [ctx.one()]
    by_hand = [ctx.one(), ctx.one() + ctx.q, ctx.q]  # (1+x)(1+xq)
    assert gauss_expand(2, ctx) == by_hand


def test_gauss_expand_coefficient(ctx):
    assert gauss_expand(3, ctx)[2] == ctx.q * q_binomial(3, 2, ctx)


def test_gauss_expand_matches_triangle(ctx):
    for k in range(11):
        coeffs = gauss_expand(k, ctx)
        for r in range(k + 1):
            assert coeffs[r] == q_tri(r, ctx) * q_binomial(k, r, ctx)


def test_triangle_row_display(ctx):
    row = triangle_row(5, ctx)
    assert [str(e) for e in row.entries] == [
        "1",
        "1+q+q^2+q^3+q^4",
        "1+q+2*q^2+2*q^3+2*q^4+q^5+q^6",
        "1+q+2*q^2+2*q^3+2*q^4+q^5+q^6",
        "1+q+q^2+q^3+q^4",
        "1",
    ]


# --- identities -----------------------------------------------------------------------

def test_bin1q_small(ctx):
    report = verify_identity("bin1q", 3, ctx)
    assert report.passed and report.checked == 16


def test_bin2q_single_instance_oracle(ctx):
    # n=2, k=0, m=1: both sides expanded directly from the Gaussian polynomials
    n, k, m = 2, 0, 1
    qinv = QContext(ctx.q.inverse())
    lhs = ctx.zero()
    for r in range(n + 1):
        c1 = q_binomial(n - k, n - r, ctx)
        c2 = q_binomial(r, m, qinv)
        if c1.is_zero() or c2.is_zero():
            continue
        term = c1 * (q_tri(r, ctx) * q_tri(n - r, ctx) / q_tri(n, ctx)) \
            * q_tri(r - m, ctx).inverse() * c2
        lhs = lhs - term if (n - r) % 2 else lhs + term
    rhs = (q_tri(k - (n - m), ctx) / q_tri(k, ctx)) * q_binomial(k, n - m, ctx)
    assert lhs == rhs
    assert verify_identity("bin2q", 2, ctx).passed


def test_qsymmetry_example(ctx):
    qinv = QContext(ctx.q.inverse())
    lhs = q_binomial(2, 1, ctx)
    rhs = (q_tri(2, ctx) / (q_tri(1, ctx) * q_tri(1, ctx))) * q_binomial(2, 1, qinv)
    assert lhs == rhs == ctx.q * (ctx.one() + ctx.q.inverse())


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_identities_full_range(name, ctx):
    for n in range(7):
        assert verify_identity(name, n, ctx).passed


def identity_by_loops(identity, n, ctx):
    """The reference for bin1q and bin2q: each index pair's sum term by term,
    in row-major order, stopping at the first failure, with q-powers taken
    afresh and every Gaussian entry read through `qcomb.q_binomial`."""
    checked, one, zero = 0, ctx.one(), ctx.zero()
    for a in range(n + 1):
        for b in range(n + 1):
            checked += 1
            if identity == "bin1q":   # (a, b) = (m, j)
                first = second = zero
                for i in range(n + 1):
                    cmi, cij = qcomb.q_binomial(a, i, ctx), qcomb.q_binomial(i, b, ctx)
                    if cmi.is_zero() or cij.is_zero():
                        continue
                    term = ctx.q ** tri_exponent(i - b) * cmi * cij
                    first = first - term if (i + b) % 2 else first + term
                    term = ctx.q ** tri_exponent(a - i) * cmi * cij
                    second = second - term if (i + a) % 2 else second + term
                expected = one if a == b else zero
                if first != expected or second != expected:
                    return IdentityReport(identity, n, False, checked, dict(
                        m=a, j=b, first=str(first), second=str(second), expected=str(expected)))
                continue
            qinv, lhs = QContext(ctx.q.inverse()), zero   # (a, b) = (k, m)
            for r in range(n + 1):
                c1, c2 = qcomb.q_binomial(n - a, n - r, ctx), qcomb.q_binomial(r, b, qinv)
                if c1.is_zero() or c2.is_zero():
                    continue
                e = tri_exponent(r) + tri_exponent(n - r) - tri_exponent(n) - tri_exponent(r - b)
                term = c1 * ctx.q ** e * c2
                lhs = lhs - term if (n - r) % 2 else lhs + term
            ck = qcomb.q_binomial(a, n - b, ctx)
            rhs = ctx.q ** (tri_exponent(a - (n - b)) - tri_exponent(a)) * ck \
                if not ck.is_zero() else zero
            if lhs != rhs:
                return IdentityReport(identity, n, False, checked,
                                      dict(k=a, m=b, lhs=str(lhs), rhs=str(rhs)))
    return IdentityReport(identity, n, True, checked, None)


IDENTITY_POINTS = {"q": q_symbol, "2": lambda: integer(2), "-1": lambda: integer(-1),
                   "zeta3": lambda: zeta(3), "zeta5": lambda: zeta(5)}


@pytest.mark.parametrize("point", list(IDENTITY_POINTS))
@pytest.mark.parametrize("name", ["bin1q", "bin2q"])
def test_matrix_identities_match_the_loops(name, point):
    qc = QContext(IDENTITY_POINTS[point]())
    for n in range(9):
        want = identity_by_loops(name, n, qc).to_payload()
        assert want["passed"]
        assert verify_identity(name, n, qc).to_payload() == want


@pytest.mark.parametrize("point", list(IDENTITY_POINTS))
@pytest.mark.parametrize("name", ["bin1q", "bin2q"])
def test_a_wrong_gaussian_entry_is_located_as_by_the_loops(name, point, monkeypatch):
    """C_3^1 is replaced by 1/2 (at q and, for bin2q, at q^-1 too): the
    first failure, its values and the pairs checked up to it agree."""
    qc, true_entry = QContext(IDENTITY_POINTS[point]()), qcomb.q_binomial

    def wrong_entry(n, k, ctx):
        return rational(1, 2, ctx.ctx) if (n, k) == (3, 1) else true_entry(n, k, ctx)

    monkeypatch.setattr(qcomb, "q_binomial", wrong_entry)
    for n in (3, 5):
        want = identity_by_loops(name, n, qc).to_payload()
        assert not want["passed"] and want["checked"] < (n + 1) ** 2
        assert verify_identity(name, n, qc).to_payload() == want


def test_identity_failure_reporting(ctx):
    # a deliberately wrong identity name is rejected; failure paths carry locators
    with pytest.raises(ValueError):
        verify_identity("nope", 3, ctx)


def test_exactness_failure_never_fires(ctx):
    # every triangle entry tried is a polynomial in q
    for n in range(9):
        for k in range(n + 1):
            value = q_binomial(n, k, ctx)
            assert value.is_polynomial()


# --- evaluation at q and at q^-1 ----------------------------------------------------

laurent_over_q = st.builds(
    lambda shift, coeffs: LaurentPoly.from_dense(1, shift, coeffs),
    st.integers(-5, 5),
    st.lists(st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=50),
             max_size=15))


@given(laurent_over_q, st.sampled_from([1, 3]), st.sampled_from([1, -1]))
@example(LaurentPoly.from_dense(1, -5, [Fraction(1, 2), 0, Fraction(-3)]), 3, -1)
@example(LaurentPoly.zero(1), 1, -1)
@settings(max_examples=150, deadline=None)
def test_evaluation_at_q_and_inverse_q_matches_substitute(p, order, exponent):
    """At q^-1 the polynomial is reversed, at q it is taken as it is, and over
    Q(zeta_3)(q) either is lifted; each equals the generic substitution."""
    q0 = q_symbol(order) ** exponent
    got = _eval_poly(p, QContext(q0))
    want = Scalar(function_field(), RatFunc.from_laurent(p)).substitute(q0)
    assert got == want
    assert got.ctx == want.ctx == function_field(order)


@pytest.mark.parametrize("q, degree", [("q", 12), ("q^-1", 12), ("q^2", 24), ("1+q", 12),
                                       ("q/(1+q)", 12)])
def test_degree_cap_holds_when_the_q_powers_are_cached(q, degree):
    """q^-12, memoized on its context, raises under a cap below its q-degree
    on every later read, as computing it does; so do the q_j read from the
    memo, and a concrete q has no q-degree."""
    qc = QContext(sym(q))
    assert q_power(-12, qc) == sym(q) ** -12 and q_tri(5, qc) == sym(q) ** 10
    concrete = concrete_q(integer(2))
    assert q_power(-12, concrete) == rational(1, 4096)
    try:
        for read, reached in ((lambda: q_power(-12, qc), degree),
                              (lambda: q_tri(5, qc), degree * 10 // 12)):
            set_degree_cap(reached - 1)
            with pytest.raises(DegreeCapExceeded,
                               match=f"^symbolic degree {reached} exceeds cap {reached - 1}$"):
                read()
            assert q_power(-12, concrete) == rational(1, 4096)
            set_degree_cap(reached)
            read()
    finally:
        set_degree_cap(None)
    assert q_power(-12, qc) == sym(q) ** -12


@pytest.mark.parametrize("order", [1, 3])
def test_degree_cap_holds_at_inverse_q_when_the_polynomials_are_cached(order):
    qinv = QContext(q_symbol(order).inverse())
    square = QContext(q_symbol(order) ** 2)
    concrete = QContext(integer(2) if order == 1 else zeta(order))
    for qc in (qinv, square, concrete):   # fills the q-binomial memo; zero at zeta_3
        assert q_binomial(9, 4, qc) == _eval_poly(factorial_quotient(9, 4), qc)
    set_degree_cap(3)
    try:
        for qc in (qinv, concrete):
            with pytest.raises(DegreeCapExceeded, match="^symbolic degree 20 exceeds cap 3$"):
                q_binomial(9, 4, qc)
            assert q_binomial(9, 0, qc) == qc.one()
        with pytest.raises(DegreeCapExceeded, match="^symbolic degree 6 exceeds cap 3$"):
            q_tri(4, qinv)
        assert q_tri(4, concrete) == concrete.q ** 6   # a concrete power has no degree
        assert q_tri(3, qinv) == q_symbol(order) ** -3
        # At q^2 the entry C_9^4 has degree 40, not k(n-k) = 20.
        set_degree_cap(30)
        assert not q_binomial(9, 4, qinv).is_zero()
        with pytest.raises(DegreeCapExceeded, match="^symbolic degree 40 exceeds cap 30$"):
            q_binomial(9, 4, square)
    finally:
        set_degree_cap(None)
