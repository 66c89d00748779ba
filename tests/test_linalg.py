"""Exact linear algebra: involutions, elimination, minors, nullspaces."""

import threading
from fractions import Fraction
from functools import partial
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qbraid import linalg, scalar
from qbraid.errors import (
    DegreeCapExceeded,
    NonPolynomialQuotient,
    NonSquare,
    ShapeMismatch,
    Singular,
)
from qbraid.linalg import (
    EchelonSpan,
    ExactMatrix,
    _int_update,
    _integer_product,
    _monomial_product,
    _packed_product,
    _row_packed_product,
    compare_all,
    first_mismatch,
)
from qbraid.qcomb import concrete_q, symbolic_q
from qbraid.rep import lambda_canonical, s_matrix, sigma1_matrix, sigma2_matrix
from qbraid.scalar import (
    QQ,
    Cyclotomic,
    LaurentPoly,
    RatFunc,
    Scalar,
    _int_exact_div,
    cyclotomic_field,
    euler_phi,
    function_field,
    integer,
    q_symbol,
    rational,
    residue,
    set_degree_cap,
    zeta,
)

from conftest import rand_scalar
from reference import (
    det_by_permutations,
    generalized_charpoly,
    ratfunc_mul_general,
    superdiagonal_component,
    transpose_t,
)


def int_matrix(rows, ctx=QQ):
    return ExactMatrix.from_rows([[integer(v, ctx) for v in row] for row in rows])


def rand_matrix(rng, n, m=None, ctx=QQ):
    m = n if m is None else m
    return ExactMatrix.from_rows([[rand_scalar(rng, ctx) for _ in range(m)]
                                  for _ in range(n)])


# --- involutions ----------------------------------------------------------------

def test_sharp_2x2():
    m = int_matrix([[1, 2], [3, 4]])
    assert m.sharp() == int_matrix([[4, 3], [2, 1]])


def test_involution_composition(rng):
    a = rand_matrix(rng, 4)
    assert transpose_t(a).transpose_s() == a.sharp()
    assert transpose_t(a.transpose_s()) == a.sharp()
    assert a.sharp().sharp() == a
    assert a.transpose_s().transpose_s() == a


def test_s_lambda_commutation(rng):
    # S(q) Lambda = Lambda^# S(q) for a random diagonal, n = 3
    ctx = symbolic_q()
    s = s_matrix(3, ctx)
    lam = ExactMatrix.diagonal([rand_scalar(rng, ctx.q.ctx, nonzero=True)
                                for _ in range(4)])
    assert s * lam == lam.sharp() * s


def test_involutions_need_square():
    m = int_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(NonSquare):
        m.transpose_s()
    with pytest.raises(NonSquare):
        m.sharp()
    assert transpose_t(m).rows == 3


# --- products ---------------------------------------------------------------------

def test_product_with_identity(rng):
    a = rand_matrix(rng, 3)
    assert a * ExactMatrix.identity(3, QQ) == a


def _sparse_entry(rng, ctx, laurent=False):
    """A random entry that is exactly zero about half the time; over Q(q) a
    Laurent polynomial when laurent is set, a quotient otherwise."""
    if rng.random() < 0.5:
        return Scalar.zero(ctx)
    x = rand_scalar(rng, ctx, nonzero=True)
    if ctx.order == 6:
        return x + rand_scalar(rng, ctx) * zeta(6)
    if ctx.with_q:
        q = q_symbol()
        if laurent:
            return x * q ** rng.randint(-2, 2) + rand_scalar(rng, ctx) * q ** rng.randint(-2, 2)
        return x * q ** rng.randint(-2, 2) / (Scalar.one(ctx) + rand_scalar(rng, ctx) * q)
    return x


@pytest.mark.parametrize("ctx, laurent", [(QQ, False), (cyclotomic_field(6), False),
                                          (function_field(), False), (function_field(), True)],
                         ids=["QQ", "QQ(zeta6)", "QQ(q)", "QQ[q,q^-1]"])
def test_product_matches_triple_loop(rng, ctx, laurent, monkeypatch):
    routes = []
    monkeypatch.setattr(linalg, "_packed_product",
                        lambda *args: routes.append("packed") or _packed_product(*args))
    monkeypatch.setattr(linalg, "_row_packed_product",
                        lambda *args: routes.append("row-packed") or _row_packed_product(*args))
    monkeypatch.setattr(linalg, "_monomial_product",
                        lambda *args: routes.append("monomial") or _monomial_product(*args))
    monkeypatch.setattr(linalg, "_integer_product",
                        lambda *args: routes.append("integer-row") or _integer_product(*args))
    # Row 1 of a and column 2 of b are all zero, and so is column 3 of a.
    a = ExactMatrix.from_fn(4, 5, ctx, lambda i, j: Scalar.zero(ctx) if i == 1 or j == 3
                            else _sparse_entry(rng, ctx, laurent))
    b = ExactMatrix.from_fn(5, 3, ctx, lambda i, j: Scalar.zero(ctx) if j == 2
                            else _sparse_entry(rng, ctx, laurent))
    prod = a * b
    assert routes == (["packed"] if laurent else [] if ctx.with_q else ["row-packed"])
    for i in range(a.rows):
        for j in range(b.cols):
            acc = a[i, 0] * b[0, j]
            for k in range(1, a.cols):
                acc = acc + a[i, k] * b[k, j]
            assert prod[i, j] == acc
            assert prod[i, j].ctx == ctx
    zero = Scalar.zero(ctx)
    assert prod.row(1) == (zero,) * 3
    assert prod.col(2) == (zero,) * 4
    # b in integer-row form: over Q and Q(zeta_m) the integer-row route,
    # and over a field with q b itself, on today's route
    routes.clear()
    assert a * b.as_integer_rows() == prod
    assert routes == (["packed"] if laurent else [] if ctx.with_q else ["integer-row"])
    routes.clear()
    assert ExactMatrix.zeros(2, 3, ctx) * ExactMatrix.zeros(3, 2, ctx) == ExactMatrix.zeros(2, 2, ctx)
    diagonal = ExactMatrix.diagonal([a[0, 0] if a[0, 0].val else Scalar.one(ctx)] * 4)
    assert diagonal * a == term_by_term(diagonal, a)
    assert routes == ["monomial"] * 2


# --- the packed products against the term-by-term loop -------------------------------

QQ_Q = function_field()


def term_by_term(a, b):
    """The reference product over any field: every nonzero term in (i, j, k)
    order, added up."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = Scalar.zero(a.ctx)
            for k in range(a.cols):
                if not a[i, k].is_zero() and not b[k, j].is_zero():
                    acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        out.append(row)
    return ExactMatrix.from_rows(out)


def laurent_entry(shift, den, coeffs):
    return Scalar(QQ_Q, RatFunc.from_laurent(
        LaurentPoly.from_dense(1, shift, [Fraction(c, den) for c in coeffs])))


def outcome(product, a, b):
    """The product, or the type and message of the exception it raised."""
    try:
        return product(a, b)
    except DegreeCapExceeded as exc:
        return DegreeCapExceeded, str(exc)


coeff_st = st.one_of(st.integers(-(2 ** 60), 2 ** 60), st.integers(-3, 3),
                     st.sampled_from([2 ** 60 - 1, -(2 ** 60 - 1)]))
entry_st = st.one_of(
    st.just(Scalar.zero(QQ_Q)),
    st.builds(laurent_entry, st.integers(-3, 3), st.integers(1, 12),
              st.lists(coeff_st, min_size=1, max_size=4)))


@st.composite
def laurent_pairs(draw):
    """Factors of shapes 1..6 with about half of their entries zero; when the
    inner size allows, a last row of a is added whose product with column 0
    of b cancels to an exact zero."""
    rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
    a = [[draw(entry_st) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entry_st) for _ in range(cols)] for _ in range(inner)]
    if inner >= 2:
        a.append([b[1][0], -b[0][0]] + [Scalar.zero(QQ_Q)] * (inner - 2))
    return ExactMatrix.from_rows(a), ExactMatrix.from_rows(b)


@given(laurent_pairs(), st.one_of(st.none(), st.integers(0, 12)))
@settings(max_examples=200, deadline=None)
def test_packed_product_matches_term_by_term(pair, cap):
    """Same entries, and under a degree cap the same exception and message."""
    a, b = pair
    set_degree_cap(cap)
    try:
        got = outcome(ExactMatrix.__mul__, a, b)
        want = outcome(term_by_term, a, b)
    finally:
        set_degree_cap(None)
    assert got == want


@pytest.mark.parametrize("c", [3037000499, 2 ** 59 + 1, -(2 ** 59 + 1)])
def test_packed_digits_cover_the_sum_of_the_terms(c):
    """c^2 alone fits the digit width of one product (c^2 < 2^63 < 2 c^2 for
    the first c, 2^118 < c^2 < 2^119 < 2 c^2 for the others); the sum of two
    such products needs the extra bit of the term count."""
    x = laurent_entry(0, 1, [c])
    a = ExactMatrix.from_rows([[x, x], [x, -x]])
    want = laurent_entry(0, 1, [2 * c * c])
    zero = Scalar.zero(QQ_Q)
    assert a * a == ExactMatrix.from_rows([[want, zero], [zero, want]]) == term_by_term(a, a)


@pytest.mark.parametrize("side", ["a", "b"])
def test_an_entry_with_a_denominator_keeps_the_product_term_by_term(side):
    x = laurent_entry(-1, 3, [1, 2])
    quotient = x / (Scalar.one(QQ_Q) + q_symbol())
    laurent = ExactMatrix.from_rows([[x, x], [x, -x]])
    mixed = ExactMatrix.from_rows([[quotient, x], [x, x]])
    a, b = (mixed, laurent) if side == "a" else (laurent, mixed)
    assert a * b == term_by_term(a, b)


def test_packed_product_checks_the_cap_term_by_term():
    """Each term q^-3 * q^3 has degree 0, though the row of a and the column
    of b each span q^-3..q^3; the first term over the cap, in k order, names
    its degree."""
    q, one = q_symbol(), Scalar.one(QQ_Q)
    a = ExactMatrix.from_rows([[q ** -3, q ** 3]])
    balanced, late, early = (ExactMatrix.from_rows([[x], [y]]) for x, y in
                           ((q ** 3, q ** -3), (q ** 3, q ** 2 + one), (one, q ** 2)))
    set_degree_cap(1)
    try:
        assert a * balanced == ExactMatrix.from_rows([[integer(2, QQ_Q)]])
        with pytest.raises(DegreeCapExceeded, match="^symbolic degree 5 exceeds cap 1$"):
            a * late
        with pytest.raises(DegreeCapExceeded, match="^symbolic degree 3 exceeds cap 1$"):
            a * early
    finally:
        set_degree_cap(None)


BASE_FIELDS = {"QQ": QQ, "QQ(zeta3)": cyclotomic_field(3), "QQ(zeta4)": cyclotomic_field(4),
               "QQ(zeta5)": cyclotomic_field(5), "QQ(zeta12)": cyclotomic_field(12)}


def base_entry(ctx, den, coeffs):
    """sum(coeffs[i] zeta^i) / den over Q or Q(zeta_m); over Q coeffs[0] / den.
    Coefficients past phi(m) are reduced, so they reach every power of zeta."""
    if ctx.order == 1:
        return Scalar(ctx, Fraction(coeffs[0], den))
    return Scalar(ctx, Cyclotomic(ctx.order, [Fraction(c, den) for c in coeffs]))


@st.composite
def base_pairs(draw, ctx):
    """Factors of shapes 1..6 over Q or Q(zeta_m), with about a third of
    their entries zero, denominators on both sides and coefficients up to
    2^60, so that digits are wider than 8 bytes.  Some rows of a, some
    columns of b and a tail of rows of b are zero; when the inner size
    allows, a last row of a is added whose product with column 0 of b
    cancels to an exact zero."""
    rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
    entry = st.one_of(st.just(Scalar.zero(ctx)), st.builds(
        partial(base_entry, ctx), st.integers(1, 12), st.lists(coeff_st, min_size=1, max_size=6)))
    a = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    zero = Scalar.zero(ctx)
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows - 1)):
        a[i] = [zero] * inner
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols - 1)):
        for row in b:
            row[j] = zero
    for k in range(inner - draw(st.integers(0, inner - 1)), inner):
        b[k] = [zero] * cols
    if inner >= 2:
        a.append([b[1][0], -b[0][0]] + [zero] * (inner - 2))
    return ExactMatrix.from_rows(a), ExactMatrix.from_rows(b)


@pytest.mark.parametrize("name", list(BASE_FIELDS))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_row_packed_product_matches_term_by_term(name, data):
    a, b = data.draw(base_pairs(BASE_FIELDS[name]))
    assert a * b == term_by_term(a, b)


@pytest.mark.parametrize("ctx, c", [(QQ, 3037000499), (cyclotomic_field(3), 2 ** 31 - 1),
                                    (QQ, -(2 ** 59 + 1))], ids=["QQ", "QQ(zeta3)", "QQ-wide"])
def test_row_packed_digits_cover_the_sum_of_the_terms(ctx, c):
    """One product c^2 over Q, or the middle int 2 c^2 of (c + c zeta_3)^2,
    fits the digit width that phi times the largest ints of the factors
    give; the sum of two such products needs the extra bit of the term
    count: 2 c^2 is above 2^63 and 2^119 for the two c over Q, and 4 c^2
    above 2^63 for the c over Q(zeta_3)."""
    x = base_entry(ctx, 1, [c] * euler_phi(ctx.order))
    a = ExactMatrix.from_rows([[x, x], [x, -x]])
    want, zero = x * x + x * x, Scalar.zero(ctx)
    assert a * a == ExactMatrix.from_rows([[want, zero], [zero, want]]) == term_by_term(a, a)


def test_row_packed_product_aligns_every_row_of_b():
    """Rows of b on different denominators, and a trailing zero row of b
    under a factor a with more rows than b has nonzero rows."""
    ctx = cyclotomic_field(3)
    z, zero = zeta(3), Scalar.zero(ctx)
    a = ExactMatrix.from_rows([[rational(1, 2, ctx), z, z * z],
                               [z, rational(3, 5, ctx), z],
                               [integer(2, ctx), z * z, rational(-1, 3, ctx)]])
    b = ExactMatrix.from_rows([[z, integer(1, ctx)],
                               [rational(2, 7, ctx) * z, rational(1, 3, ctx)],
                               [zero, zero]])
    assert a * b == term_by_term(a, b)


# --- the integer-row route against the row-packed route and the loop ----------------

INTEGER_ROW_FIELDS = {"QQ": QQ, "QQ(zeta3)": cyclotomic_field(3),
                      "QQ(zeta4)": cyclotomic_field(4), "QQ(zeta5)": cyclotomic_field(5)}


@st.composite
def base_matrices(draw, ctx, rows, cols, monomial=False):
    """A rows x cols matrix over Q or Q(zeta_m) with about a third of its
    entries zero, denominators and coefficients up to 2^60, and some zero
    rows and columns; with `monomial`, one nonzero entry per row and column
    or none (a permutation times a diagonal, as the half twist is)."""
    zero = Scalar.zero(ctx)
    entry = st.one_of(st.just(zero), st.builds(
        partial(base_entry, ctx), st.integers(1, 12), st.lists(coeff_st, min_size=1, max_size=6)))
    if monomial:
        out = [[zero] * cols for _ in range(rows)]
        for i, j in enumerate(draw(st.permutations(range(cols)))[:rows]):
            out[i][j] = draw(entry)
    else:
        out = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows - 1)):
            out[i] = [zero] * cols
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols - 1)):
            for row in out:
                row[j] = zero
    return ExactMatrix.from_rows(out)


def assert_integer_rows(m):
    """m is in the unique integer-row form: one positive denominator per row,
    coprime to the row's ints, which are phi(m) power-basis ints per entry,
    and a zero row on denominator 1."""
    phi = euler_phi(m.ctx.order)
    assert m._ints is not None and len(m._ints) == m.rows
    for den, ints in m._ints:
        assert den > 0 and gcd(den, *ints) == 1 and len(ints) == phi * m.cols
        assert any(ints) or den == 1


def assert_same_matrix(got, want):
    """Entry by entry, with equal hashes."""
    assert (got.rows, got.cols, got.ctx) == (want.rows, want.cols, want.ctx)
    for i in range(want.rows):
        assert got.row(i) == want.row(i), i
    assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("name", list(INTEGER_ROW_FIELDS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_integer_row_product_matches_row_packed_and_term_by_term(name, data):
    """a b with b in integer-row form equals today's route (row-packed, or
    monomial) and the term-by-term loop, for a dense and a monomial left
    factor, and in chains of three products whose middle factor is a
    product not yet read, or read first; the left factor may be in
    integer-row form too."""
    ctx = INTEGER_ROW_FIELDS[name]
    rows, inner, mid, cols = (data.draw(st.integers(1, 5)) for _ in range(4))
    a = data.draw(base_matrices(ctx, rows, inner))
    delta = data.draw(base_matrices(ctx, inner, inner, monomial=True))
    b = data.draw(base_matrices(ctx, inner, mid))
    c = data.draw(base_matrices(ctx, mid, cols))
    b_int, c_int = b.as_integer_rows(), c.as_integer_rows()
    assert_integer_rows(b_int)
    for left, right, right_int in ((a, b, b_int), (delta, b, b_int), (b, c, c_int)):
        got = left * right_int
        assert_integer_rows(got)
        assert got._entries is None
        want = term_by_term(left, right)
        assert_same_matrix(got, want)
        assert_same_matrix(left * right, want)
        assert_same_matrix(left.as_integer_rows() * right_int, want)
    want = term_by_term(a, term_by_term(b, c))
    for read in (False, True):
        bc = b * c_int                  # integer rows, unread
        if read:
            assert bc.row(0) == term_by_term(b, c).row(0)
        chain = a * bc
        assert_integer_rows(chain)
        assert_same_matrix(chain, want)
        assert_same_matrix(delta * (delta * bc), term_by_term(delta, term_by_term(delta, bc)))
        assert_same_matrix((a * b_int).as_integer_rows() * c_int, want)
        assert_same_matrix(bc.as_integer_rows() * ExactMatrix.identity(cols, ctx).as_integer_rows(),
                           term_by_term(b, c))


def test_integer_row_product_examples():
    """Zero factors on either side, a product that cancels to a zero row,
    rows of b on different denominators, and entries at every power of
    zeta_5, so that the fold through zeta^4 = -(1 + zeta + zeta^2 + zeta^3)
    is reached."""
    ctx = cyclotomic_field(5)
    z, zero = zeta(5), Scalar.zero(ctx)
    a = ExactMatrix.from_rows([[z ** 3, z ** 2, zero], [z, -z, zero], [zero, zero, zero]])
    b = ExactMatrix.from_rows([[rational(1, 2, ctx) * z, z ** 3],
                               [rational(1, 2, ctx) * z, z ** 3],
                               [integer(5, ctx), z + z ** 2]])
    zeros = ExactMatrix.zeros
    for left, right in ((a, b), (zeros(3, 3, ctx), b), (a, zeros(3, 2, ctx))):
        got = left * right.as_integer_rows()
        assert_integer_rows(got)
        assert_same_matrix(got, term_by_term(left, right))
    got = a * b.as_integer_rows()
    assert got._ints[1] == (1, [0] * 8) and got._ints[2] == (1, [0] * 8)
    assert got[0, 0] == rational(1, 2, ctx) * (z ** 4 + z ** 3)


@pytest.mark.parametrize("name", list(INTEGER_ROW_FIELDS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_integer_row_inserts_match_payload_span(name, data):
    """`EchelonSpan.insert_matrix` of matrices in integer-row form, some of
    them products not yet read, answers as the field-payload route does on
    their entries, and reaches the same reduced rows and nullspace."""
    ctx = INTEGER_ROW_FIELDS[name]
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    mats = [m.as_integer_rows() for m in data.draw(
        st.lists(base_matrices(ctx, rows, cols), min_size=1, max_size=4))]
    square = data.draw(base_matrices(ctx, rows, rows))
    mats += [square * m for m in mats] + [square * (square * mats[0])]
    mats.append(ExactMatrix.zeros(rows, cols, ctx).as_integer_rows())
    span, ref = EchelonSpan(rows * cols), PayloadSpan(rows * cols)
    for k, m in enumerate(mats):
        grew = span.insert_matrix(m)
        assert grew == ref.insert([x.val for i in range(m.rows) for x in m.row(i)]), k
        assert span.dim == ref.dim, k
    assert typed(span.reduced()) == typed(ref.reduced())
    zero, one = Scalar.zero(ctx).val, Scalar.one(ctx).val
    assert typed(span.nullspace(zero, one)) == typed(ref.nullspace(zero, one))


def test_zeta_multiples_shift_and_fold():
    """Each multiple is zeta times the one before, column by column, over
    Q(zeta_3), Q(zeta_4), Q(zeta_5) and Q(zeta_12)."""
    for order in (3, 4, 5, 12):
        phi = euler_phi(order)
        cols = [Cyclotomic(order, [k + 1 - i * (-1) ** k for i in range(phi)]) for k in range(3)]
        flat = [a for x in cols for a in x.ints + (0,) * (phi - len(x.ints))]
        multiples = linalg._zeta_multiples(order, flat)
        assert len(multiples) == phi
        for t, v in enumerate(multiples):
            assert [Cyclotomic(order, v[j:j + phi]) for j in range(0, len(v), phi)] \
                == [x * Cyclotomic.zeta_power(order, t) for x in cols]


def test_braid_word_in_sl2():
    s1 = int_matrix([[1, 1], [0, 1]])
    s2 = int_matrix([[1, 0], [-1, 1]])
    assert s1 * s2 * s1 == int_matrix([[0, 1], [-1, 0]])
    assert s1 * s2 * s1 == s2 * s1 * s2


def test_core_product_display():
    ctx = symbolic_q()
    q = ctx.q
    one = Scalar.one(q.ctx)
    prod = sigma1_matrix(2, ctx) * lambda_canonical(2, ctx) * sigma2_matrix(2, ctx)
    want = ExactMatrix.from_rows([
        [Scalar.zero(q.ctx), Scalar.zero(q.ctx), one],
        [Scalar.zero(q.ctx), -one, one],
        [q ** -1, -(one + q ** -1), one]])
    assert prod == want


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        int_matrix([[1, 2]]) * int_matrix([[1, 2]])
    with pytest.raises(ShapeMismatch):
        int_matrix([[1, 2]]) + int_matrix([[1], [2]])


# --- inverses ----------------------------------------------------------------------

def test_inverse_pascal_display():
    assert int_matrix([[1, 2, 1], [0, 1, 1], [0, 0, 1]]).inverse() == \
        int_matrix([[1, -2, 1], [0, 1, -1], [0, 0, 1]])


def test_inverse_identity():
    i3 = ExactMatrix.identity(3, QQ)
    assert i3.inverse() == i3


def test_inverse_sigma1_q2_display():
    ctx = symbolic_q()
    q = ctx.q
    one = Scalar.one(q.ctx)
    zero = Scalar.zero(q.ctx)
    want = ExactMatrix.from_rows([
        [one, -(one + q), q],
        [zero, one, -one],
        [zero, zero, one]])
    assert sigma1_matrix(2, ctx).inverse() == want


def test_inverse_properties(rng):
    while True:
        a = rand_matrix(rng, 3)
        if not a.determinant().is_zero():
            break
    while True:
        b = rand_matrix(rng, 3)
        if not b.determinant().is_zero():
            break
    assert a.inverse().inverse() == a
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert a * a.inverse() == ExactMatrix.identity(3, QQ)


def test_singular_raises():
    with pytest.raises(Singular):
        int_matrix([[1, 2], [2, 4]]).inverse()
    with pytest.raises(Singular):
        int_matrix([[0, 1], [0, 2]]).inverse()


# --- determinants, minors, cofactors ---------------------------------------------

def test_determinant_against_permutation_oracle(rng):
    ctx = symbolic_q()
    s = s_matrix(2, ctx)
    assert s.determinant() == det_by_permutations(s)
    for n in (2, 3, 4):
        a = rand_matrix(rng, n)
        assert a.determinant() == det_by_permutations(a)
    # the pivot search swaps rows here, or finds no pivot in some column
    for rows in ([[0, 2], [1, 0]], [[0, 1, 0], [0, 0, 2], [3, 0, 0]],
                 [[0, 1, 1], [0, 2, 2], [1, 0, 5]], [[0, 0], [0, 1]]):
        assert int_matrix(rows).determinant() == det_by_permutations(int_matrix(rows))


def test_upper_triangular_determinant(rng):
    a = rand_matrix(rng, 4)
    entries = [[a[i, j] if j >= i else Scalar.zero(QQ) for j in range(4)]
               for i in range(4)]
    tri = ExactMatrix.from_rows(entries)
    product = tri[0, 0]
    for i in range(1, 4):
        product = product * tri[i, i]
    assert tri.determinant() == product


def test_laplace_expansion(rng):
    a = rand_matrix(rng, 4)
    total = Scalar.zero(QQ)
    for j in range(4):
        total = total + a[0, j] * a.cofactor([0], [j])
    assert total == a.determinant()


def test_empty_minor_is_one(rng):
    a = rand_matrix(rng, 3)
    assert a.minor([], []) == Scalar.one(QQ)
    assert a.cofactor(list(range(3)), list(range(3))) == Scalar.one(QQ)
    assert a.cofactor([], []) == a.determinant()


def test_minor_requires_increasing_indices(rng):
    a = rand_matrix(rng, 3)
    with pytest.raises(ShapeMismatch):
        a.minor([1, 0], [0, 1])
    with pytest.raises(ShapeMismatch):
        a.minor([0], [0, 1])


def test_fraction_free_division_must_be_exact():
    """The Bareiss divisions raise, not round, when the previous pivot does
    not divide: over Z, and over Z[q] when pseudo-division would have to
    scale (f != 1) or leaves a remainder."""
    row = [2, 4]
    _int_update(row, [3, 1], 0, (3, 5))
    assert row == [2, 2]
    with pytest.raises(NonPolynomialQuotient):
        _int_update([1, 4], [3, 1], 0, (3, 5))
    assert _int_exact_div([2, 3, 1], [1, 1]) == [2, 1]
    with pytest.raises(NonPolynomialQuotient):
        _int_exact_div([1, 1], [0, 2])
    with pytest.raises(NonPolynomialQuotient):
        _int_exact_div([1, 0, 1], [1, 1])


@pytest.mark.parametrize("ctx", [cyclotomic_field(5), function_field(5)],
                         ids=["QQ(zeta5)", "QQ(zeta5)(q)"])
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_determinant_reaches_the_top_zeta_degree(ctx, size):
    """Over Q(zeta_5) every entry below is zeta^3 or zeta^3 q, zeta^3 the top
    power of the power basis, so a minor of size k reaches zeta-degree 3k
    before its reduction modulo Phi_5: the stride size (phi - 1) + 1 holds
    it inside one q-step, and a stride one less carries it into the next."""
    z3 = zeta(5).coerce(ctx) ** 3
    zero = Scalar.zero(ctx)
    q = q_symbol(5) if ctx.with_q else rational(2, 3, ctx)
    cyclic = ExactMatrix.from_fn(size, size, ctx, lambda i, j: z3 if i == j else
                                 z3 * q if j == (i + 1) % size else zero)
    dense = ExactMatrix.from_fn(size, size, ctx,
                                lambda i, j: z3 * q ** ((i * j) % 3) + integer(i - j, ctx))
    for a in (ExactMatrix.diagonal([z3] * size), cyclic, dense, -transpose_t(cyclic)):
        assert a.determinant() == det_by_permutations(a)
    assert ExactMatrix.diagonal([z3] * size).determinant() == z3 ** size


@pytest.mark.parametrize("ctx", [cyclotomic_field(3), function_field(3)],
                         ids=["QQ(zeta3)", "QQ(zeta3)(q)"])
def test_determinant_that_vanishes_only_modulo_phi(ctx):
    """det [[z t, -1 - z], [t, z]] = (z^2 + z + 1) t for t = 1 or q: nonzero
    in y, zero once Phi_3 is reduced out; and a 3x3 matrix around it."""
    z, one = zeta(3).coerce(ctx), Scalar.one(ctx)
    t = q_symbol(3) if ctx.with_q else one
    a = ExactMatrix.from_rows([[z * t, -one - z], [t, z]])
    assert a.determinant().is_zero()
    b = ExactMatrix.from_rows([[z * t, -one - z, one], [t, z, z], [one, t, z * z]])
    assert b.determinant() == det_by_permutations(b)


# Its determinant is q^2 and no entry has a degree above 2, but Bareiss forms
# products of degree 4 at the first step and 6 at the second: the second
# pivot 1 + q^2 + q^4 times an entry of degree 2, before the division by 1 + q^2.
def cap_matrix():
    q, one = q_symbol(), Scalar.one(QQ_Q)
    return ExactMatrix.from_rows([[one + q * q, q, one], [q, one + q * q, q], [one, q, one]])


def test_fraction_free_products_are_capped():
    a = cap_matrix()
    want = det_by_permutations(a)
    assert want == q_symbol() ** 2
    for cap, degree in ((3, 4), (5, 6)):
        set_degree_cap(cap)
        try:
            with pytest.raises(DegreeCapExceeded,
                               match=f"^symbolic degree {degree} exceeds cap {cap}$"):
                a.determinant()
        finally:
            set_degree_cap(None)
    set_degree_cap(6)
    try:
        assert a.determinant() == want
    finally:
        set_degree_cap(None)


def test_fraction_free_degree_cap_is_scoped_per_thread():
    a = cap_matrix()
    want = det_by_permutations(a)
    capped, computed = threading.Event(), threading.Event()
    seen = {}

    def capping():
        set_degree_cap(5)
        capped.set()
        computed.wait(30)
        try:
            a.determinant()
        except DegreeCapExceeded:
            seen["capping"] = "raised"

    def other():
        capped.wait(30)
        try:
            seen["other"] = a.determinant()
        finally:
            computed.set()

    threads = [threading.Thread(target=capping), threading.Thread(target=other)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
        assert not t.is_alive()
    assert seen == {"capping": "raised", "other": want}
    assert a.determinant() == want


# --- first mismatch ------------------------------------------------------------------

def test_first_mismatch_row_major():
    a = int_matrix([[1, 2, 3], [4, 5, 6]])
    assert first_mismatch(a, int_matrix([[1, 2, 3], [4, 5, 6]])) is None
    # (1, 0) and (0, 2) differ; (0, 2) comes first in row-major order
    b = int_matrix([[1, 2, 9], [7, 5, 6]])
    assert first_mismatch(a, b) == {"entry": [0, 2], "lhs": "3", "rhs": "9"}
    assert first_mismatch(a, int_matrix([[1, 2, 3], [4, 5, -6]])) == \
        {"entry": [1, 2], "lhs": "6", "rhs": "-6"}
    s2 = s_matrix(2, symbolic_q())
    assert first_mismatch(s2.sharp(), s2) == {"entry": [0, 2], "lhs": "q^-1", "rhs": "1"}


def test_compare_all_keeps_every_check_and_the_first_failure():
    a = int_matrix([[1, 2], [3, 4]])
    checks, first = compare_all((("same", a, a),
                                 ("corner", a, int_matrix([[1, 2], [3, 5]])),
                                 ("also same", a, a),
                                 ("top", a, int_matrix([[0, 2], [3, 4]]))))
    assert checks == [{"check": "same", "passed": True},
                      {"check": "corner", "passed": False},
                      {"check": "also same", "passed": True},
                      {"check": "top", "passed": False}]
    assert first == {"check": "corner", "entry": [1, 1], "lhs": "4", "rhs": "5"}
    assert compare_all((("same", a, a),)) == ([{"check": "same", "passed": True}], None)
    assert compare_all(()) == ([], None)


# --- nullspaces --------------------------------------------------------------------

def test_nullspace_zero_matrix():
    basis = ExactMatrix.zeros(3, 3, QQ).nullspace()
    assert len(basis) == 3
    assert basis[0] == (integer(1), integer(0), integer(0))


def test_nullspace_eigen_system():
    # sigma_1^Lambda - I at n=2, Lambda = diag(1,-1,1): kernel holds (t,1,2)
    a = int_matrix([[0, -2, 1], [0, -2, 1], [0, 0, 0]])
    basis = a.nullspace()
    assert basis == [(integer(1), integer(0), integer(0)),
                     (integer(0), integer(1), integer(2))]
    for v in basis:
        assert a.apply(v) == (integer(0),) * 3


def test_nullspace_full_rank(rng):
    while True:
        a = rand_matrix(rng, 3)
        if not det_by_permutations(a).is_zero():
            break
    assert a.nullspace() == []


@given(st.integers(0, 2 ** 16 - 1))
@settings(max_examples=25, deadline=None)
def test_rank_nullity(seed):
    import random as _r
    lrng = _r.Random(seed)
    a = rand_matrix(lrng, 3, 4)
    assert a.rank() + len(a.nullspace()) == 4
    for v in a.nullspace():
        assert a.apply(v) == (Scalar.zero(QQ),) * 3


# --- sparse elimination against a dense reference ----------------------------------

def dense_gauss_jordan(m):
    """Reference route: reduce the row list m in place, pivoting on the first
    nonzero entry down each column and updating every entry of every row.
    Returns the pivot columns and the signed pivot values, as the production
    routine does."""
    pivots, values = [], []
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if not m[i][col].is_zero()), None)
        if piv is None:
            continue
        value = m[piv][col]
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            value = -value
        inv = m[r][col].inverse()
        m[r] = [inv * x for x in m[r]]
        for i in range(len(m)):
            if i != r:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        values.append(value)
        r += 1
        if r == len(m):
            break
    return pivots, values


def reference_nullspace(rows, pivots, width, ctx):
    zero, one = Scalar.zero(ctx), Scalar.one(ctx)
    basis = []
    for f in (j for j in range(width) if j not in pivots):
        vec = [zero] * width
        vec[f] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][f]
        lead = next(x for x in vec if not x.is_zero()).inverse()
        basis.append(tuple(lead * x for x in vec))
    return basis


def check_against_dense(a):
    """rref, rank, nullspace, determinant and inverse of a against the dense
    first-nonzero route."""
    ref = [list(a.row(i)) for i in range(a.rows)]
    ref_pivots, ref_values = dense_gauss_jordan(ref)
    rows, pivots = a.rref()
    assert pivots == ref_pivots
    assert rows == ref
    assert a.rank() == len(ref_pivots)
    assert a.nullspace() == reference_nullspace(ref, ref_pivots, a.cols, a.ctx)
    if not a.is_square():
        return
    det = Scalar.zero(a.ctx)
    if len(ref_pivots) == a.rows:
        det = Scalar.one(a.ctx)
        for value in ref_values:
            det = det * value
    assert a.determinant() == det
    n = a.rows
    aug = [list(a.row(i)) + list(ExactMatrix.identity(n, a.ctx).row(i)) for i in range(n)]
    if dense_gauss_jordan(aug)[0] == list(range(n)):
        assert a.inverse() == ExactMatrix.from_rows([row[n:] for row in aug])
    else:
        with pytest.raises(Singular):
            a.inverse()


def field_entry(name, a, b):
    """The entry of the field `name` coded by two small integers: a + b/2
    over Q, a + b zeta_6 over Q(zeta_6), (a + b q)/(1 + q^2) over Q(q),
    (a q^-2 + (b/3) q)/(1 + b q) over Q(q) again (negative q-powers, rational
    coefficients and denominators that differ from entry to entry),
    (a + b zeta_3 q^-1)/(1 + a q) over Q(zeta_3)(q), a/2 + b zeta_5^3 over
    Q(zeta_5) and (a zeta_5^3 q + (b/3) zeta_5^2)/(1 + q) over
    Q(zeta_5)(q): zeta_5^3 has the top power phi(5) - 1 of the power basis."""
    ctx = FIELDS[name]
    if ctx == QQ:
        return rational(2 * a + b, 2)
    if ctx.order == 6:
        return integer(a, ctx) + integer(b, ctx) * zeta(6)
    one = Scalar.one(ctx)
    if ctx.order == 5:
        z = zeta(5).coerce(ctx)
        if not ctx.with_q:
            return rational(a, 2, ctx) + integer(b, ctx) * z ** 3
        q = q_symbol(5)
        return (integer(a, ctx) * z ** 3 * q + rational(b, 3, ctx) * z ** 2) / (one + q)
    if ctx.order == 3:
        q = q_symbol(3)
        return (integer(a, ctx) + integer(b, ctx) * zeta(3).coerce(ctx) * q ** -1) \
            / (one + integer(a, ctx) * q)
    q = q_symbol()
    if name == "QQ(q)":
        return (integer(a, ctx) + integer(b, ctx) * q) / (one + q * q)
    return (integer(a, ctx) * q ** -2 + rational(b, 3, ctx) * q) / (one + integer(b, ctx) * q)


FIELDS = {"QQ": QQ, "QQ(zeta6)": cyclotomic_field(6), "QQ(q)": function_field(),
          "QQ(q), Laurent": function_field(), "QQ(zeta3)(q)": function_field(3),
          "QQ(zeta5)": cyclotomic_field(5), "QQ(zeta5)(q)": function_field(5)}


# (0, 0) codes zero: about two entries in three are zero
ENTRY_CODES = st.one_of(st.just((0, 0)), st.just((0, 0)),
                        st.tuples(st.integers(-3, 3), st.integers(-2, 2)))


@st.composite
def zero_heavy_matrices(draw, name):
    rows = draw(st.integers(1, 5))
    cols = rows if draw(st.booleans()) else draw(st.integers(1, 6))
    codes = draw(st.lists(st.lists(ENTRY_CODES, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    return ExactMatrix.from_rows([[field_entry(name, a, b) for a, b in row] for row in codes])


# --- entrywise operations and monomial factors ------------------------------------

# Entries coded by two small integers as in `field_entry`, over Q(zeta_3) as
# (a + b zeta_3)/2.
ENTRYWISE_FIELDS = {"QQ": partial(field_entry, "QQ"),
                    "QQ(zeta3)": lambda a, b: base_entry(cyclotomic_field(3), 2, [a, b]),
                    "QQ(q)": partial(field_entry, "QQ(q)")}


@pytest.mark.parametrize("name", list(ENTRYWISE_FIELDS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_entrywise_operations_agree_on_zero_heavy_matrices(name, data):
    """scale, + and - return exact zeros as they are and agree entrywise
    with the Scalar operations, about two entries in three being zero."""
    entry = ENTRYWISE_FIELDS[name]
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    a, b = (ExactMatrix.from_rows([[entry(*data.draw(ENTRY_CODES)) for _ in range(cols)]
                                   for _ in range(rows)]) for _ in range(2))
    s = entry(*data.draw(ENTRY_CODES))
    for got, want in ((a + b, lambda i, j: a[i, j] + b[i, j]),
                      (a - b, lambda i, j: a[i, j] - b[i, j]),
                      (-a, lambda i, j: -a[i, j]),
                      (a.scale(s), lambda i, j: s * a[i, j])):
        assert got == ExactMatrix.from_fn(rows, cols, a.ctx, want)


def monomial_factors(name, entry=None):
    """4x4 monomial matrices over the field `name` with the nonzero entry
    entry(i) in row i (by default a `field_entry`): a diagonal, the
    antidiagonal, a permutation times a diagonal, and the superdiagonal T,
    whose last row and first column are zero."""
    ctx = FIELDS[name]
    zero = Scalar.zero(ctx)
    if entry is None:
        def entry(i):
            return field_entry(name, i + 1, i % 3 - 1)

    return [ExactMatrix.from_fn(4, 4, ctx, lambda i, j: entry(i) if j == col[i] else zero)
            for col in ((0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2), (1, 2, 3, None))]


@pytest.mark.parametrize("name", list(FIELDS))
def test_monomial_factors_match_term_by_term(name, monkeypatch):
    """Monomial factors on either side, against dense factors with zeros,
    take the monomial route and agree with the reference; over the fields
    with q a degree cap stops at the same term with the same message."""
    routes = []
    monkeypatch.setattr(linalg, "_monomial_product",
                        lambda *args: routes.append("monomial") or _monomial_product(*args))
    ctx = FIELDS[name]
    tall, wide = (ExactMatrix.from_fn(r, c, ctx, lambda i, j: field_entry(
        name, (3 * i + j) % 5 - 2, (i + 2 * j) % 3 - 1)) for r, c in ((4, 3), (3, 4)))
    factors = monomial_factors(name)
    pairs = [(m, tall) for m in factors] + [(wide, m) for m in factors] \
        + [(m, p) for m in factors for p in factors]
    for a, b in pairs:
        assert a * b == term_by_term(a, b)
        for cap in (0, 1) if ctx.with_q else ():
            set_degree_cap(cap)
            try:
                assert outcome(ExactMatrix.__mul__, a, b) == outcome(term_by_term, a, b)
            finally:
                set_degree_cap(None)
    assert routes == ["monomial"] * (len(pairs) * (3 if ctx.with_q else 1))
    assert all(factor.row(3) == (Scalar.zero(ctx),) * 4 for factor in factors[3:])


def unit_monomial_factors(name):
    """`monomial_factors` with unit entries c q^e: c = +-1, a fraction or,
    over Q(zeta_m)(q), a power of zeta times a fraction, and e of either
    sign."""
    ctx = FIELDS[name]
    q = q_symbol(ctx.order)
    z = zeta(ctx.order).coerce(ctx) if ctx.order > 2 else Scalar.one(ctx)
    coeffs = [Scalar.one(ctx), -Scalar.one(ctx), rational(-3, 4, ctx), rational(5, 2, ctx) * z ** 2]
    return monomial_factors(name, lambda i: coeffs[i] * q ** (2 * i - 3))


def general_product(a, b):
    """The product of a monomial factor and any matrix, each entry's one
    term formed by the general payload product (`ratfunc_mul_general`), in
    (i, j) order."""
    zero, out = Scalar.zero(a.ctx), []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            terms = [(a[i, k].val, b[k, j].val) for k in range(a.cols)
                     if a[i, k].val and b[k, j].val]
            assert len(terms) < 2
            row.append(Scalar(a.ctx, ratfunc_mul_general(*terms[0])) if terms else zero)
        out.append(row)
    return ExactMatrix.from_rows(out)


@pytest.mark.parametrize("name", [n for n in FIELDS if FIELDS[n].with_q])
def test_unit_monomial_factors_scale_and_shift(name, monkeypatch):
    """Monomial factors whose entries are units of Q[q, q^-1] form each
    entry by `scalar._unit_product`, on either side, and agree with the
    general payload product; under a degree cap they stop at the same
    entry with the same message.  A monomial factor with an entry that is
    not a unit takes the field product for every entry."""
    calls = []
    monkeypatch.setattr(linalg, "_unit_product",
                        lambda u, r: calls.append(u) or scalar._unit_product(u, r))
    ctx = FIELDS[name]
    tall, wide = (ExactMatrix.from_fn(r, c, ctx, lambda i, j: field_entry(
        name, (3 * i + j) % 5 - 2, (i + 2 * j) % 3 - 1)) for r, c in ((4, 3), (3, 4)))
    units = unit_monomial_factors(name)
    pairs = [(m, tall) for m in units] + [(wide, m) for m in units] \
        + [(m, p) for m in units for p in units]
    for a, b in pairs:
        calls.clear()
        assert a * b == general_product(a, b)
        assert calls and all(len(u.num.coeffs) == 1 and u.den.coeffs == (1,) for u in calls)
        for cap in (0, 1, 3, 5):
            set_degree_cap(cap)
            try:
                assert outcome(ExactMatrix.__mul__, a, b) == outcome(general_product, a, b)
            finally:
                set_degree_cap(None)
    calls.clear()
    for m in monomial_factors(name):
        assert m * tall == general_product(m, tall) and wide * m == general_product(wide, m)
    assert calls == []


@pytest.mark.parametrize("name", list(FIELDS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_elimination_matches_dense_route(name, data):
    check_against_dense(data.draw(zero_heavy_matrices(name)))


# Each of these has a candidate pivot row sparser than the first one, so the
# sparse route swaps rows that the dense route leaves in place, or the reverse.
SPARSEST_NOT_FIRST = [
    [[1, 1, 1], [1, 0, 0], [0, 1, 0]],
    [[2, 3, 0, 1], [0, 1, 1, 1], [5, 0, 0, 0], [0, 0, 0, 3]],
    [[0, 1, 1], [0, 2, 0], [1, 1, 1]],
    [[1, 2, 3], [2, 4, 6], [1, 0, 0]],
    [[1, 1, 1, 1], [2, 2, 0, 0], [3, 0, 0, 0]],
    [[1, 1], [1, 0], [2, 0]],
]


@pytest.mark.parametrize("name", list(FIELDS))
def test_sparsest_pivot_row_is_not_the_first(name):
    for rows in SPARSEST_NOT_FIRST:
        a = ExactMatrix.from_rows([[field_entry(name, v, v % 2) for v in row] for row in rows])
        check_against_dense(a)


def test_rref_matches_sympy():
    for rows in SPARSEST_NOT_FIRST + [
            [[0, 2, -1, 4], [3, 0, 0, 1], [6, 2, -1, 6], [0, 0, 5, 0]],
            [[1, -2, 0, 3, 0], [0, 0, 1, -1, 0], [2, -4, 3, 3, 0]],
            [[0, 0], [0, 0]]]:
        entries = [[Fraction(v, 1 + abs(v) % 3) for v in row] for row in rows]
        reduced, pivots = ExactMatrix.from_rows(
            [[Scalar.of_fraction(f) for f in row] for row in entries]).rref()
        want, want_pivots = sympy.Matrix(
            [[sympy.Rational(f.numerator, f.denominator) for f in row] for row in entries]).rref()
        assert pivots == list(want_pivots), rows
        assert [[x.val for x in row] for row in reduced] == \
            [[Fraction(int(x.p), int(x.q)) for x in want.row(i)] for i in range(want.rows)], rows


# --- the exact incremental span against the batch rank ---------------------------

@pytest.mark.parametrize("name", list(FIELDS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_exact_echelon_span_matches_rank(name, data):
    """`EchelonSpan` over the field against the rank of every prefix by the
    dense reference route: after each insert `dim` is that rank and `insert`
    returned whether it grew.  Sums of earlier rows are appended so that the
    rank also stalls."""
    a = data.draw(zero_heavy_matrices(name))
    rows = [list(a.row(i)) for i in range(a.rows)]
    index = st.integers(0, a.rows - 1)
    for i, j in data.draw(st.lists(st.tuples(index, index), max_size=3)):
        rows.append([x + y for x, y in zip(rows[i], rows[j])])
    span, rank = EchelonSpan(a.cols), 0
    for k, row in enumerate(rows):
        grew = span.insert([x.val for x in row])
        prefix_rank = len(dense_gauss_jordan([list(r) for r in rows[:k + 1]])[0])
        assert (span.dim, grew) == (prefix_rank, prefix_rank > rank), k
        rank = prefix_rank


# --- the integer kernel of the span against the field-payload route -----------------

class PayloadSpan:
    """The reference span over Q and Q(zeta_m): the field-payload route that
    `EchelonSpan` took before its integer kernel.  Each stored row is scaled
    to a leading 1 and a vector is reduced one payload product at a time over
    the row's support; `reduced` and `nullspace` are those of `EchelonSpan`
    on these rows."""

    def __init__(self, width):
        self.dim = 0
        self.rows = [None] * width   # pivot column -> (row, support)

    def insert(self, vec):
        vec = list(vec)
        for k, stored in enumerate(self.rows):
            c = vec[k]
            if not c:
                continue
            if stored is None:
                inv = 1 / c if type(c) is Fraction else c.inverse()
                row = [0] * k + [inv * x if x else x for x in vec[k:]]
                self.rows[k] = (row, [j for j in range(k, len(row)) if row[j]])
                self.dim += 1
                return True
            row, support = stored
            for j in support:
                vec[j] -= c * row[j]
        return False

    def reduced(self):
        pivots = [c for c, stored in enumerate(self.rows) if stored is not None]
        rows = [list(self.rows[c][0]) for c in pivots]
        for i in range(len(rows) - 1, 0, -1):
            col, prow = pivots[i], rows[i]
            support = [j for j in range(col, len(prow)) if prow[j]]
            for row in rows[:i]:
                f = row[col]
                if f:
                    for j in support:
                        row[j] = row[j] - f * prow[j]
        return pivots, rows

    def nullspace(self, zero, one):
        free = [k for k, stored in enumerate(self.rows) if stored is None]
        basis = []
        for f in free:
            vec = [zero] * len(self.rows)
            vec[f] = one
            for k in range(f - 1, -1, -1):
                if self.rows[k] is not None:
                    row, support = self.rows[k]
                    acc = zero
                    for j in support:
                        if j > f:
                            break
                        if vec[j]:
                            acc = acc + row[j] * vec[j]
                    vec[k] = -acc
            basis.append(vec)
        return free, basis


SPAN_ORDERS = {"QQ": 1, "QQ(zeta3)": 3, "QQ(zeta5)": 5, "QQ(zeta7)": 7}
# small numerators and ones past 64 bits, denominators up to 2^64 and past 10^20
SPAN_NUMS = st.one_of(st.integers(-3, 3), st.sampled_from([2 ** 70 + 1, -(3 ** 50)]))
SPAN_DENS = st.sampled_from([1, 1, 2, 3, 10 ** 20 + 39, 2 ** 64])


def span_payload(order, coeffs):
    """sum(coeffs[i] zeta^i) over Q (order 1) or Q(zeta_order)."""
    if order == 1:
        return Fraction(coeffs[0])
    return Cyclotomic(order, coeffs)


@st.composite
def span_vectors(draw, order):
    """Rows of field payloads, about half of the entries zero, then sums of
    multiples of earlier rows (so that the rank stalls), a zero row and a
    row times 2^200."""
    phi = euler_phi(order)
    coeff = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, SPAN_NUMS, SPAN_DENS.filter(bool)))
    entry = st.one_of(st.just([Fraction(0)] * phi), st.lists(coeff, min_size=phi, max_size=phi))
    width = draw(st.integers(1, 6))
    rows = [[span_payload(order, c) for c in draw(st.lists(entry, min_size=width,
                                                           max_size=width))]
            for _ in range(draw(st.integers(1, 5)))]
    index = st.integers(0, len(rows) - 1)
    for i, j, a, b in draw(st.lists(st.tuples(index, index, entry, entry), max_size=3)):
        a, b = span_payload(order, a), span_payload(order, b)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    rows.insert(draw(st.integers(0, len(rows))), [span_payload(order, [0] * phi)] * width)
    rows.append([x * 2 ** 200 for x in rows[draw(index)]])
    return rows


def typed(value):
    """A nested result with each payload paired with its type, so that an
    int 0 and a Fraction 0 differ."""
    if isinstance(value, (list, tuple)):
        return [typed(x) for x in value]
    return type(value).__name__, value


@pytest.mark.parametrize("name", list(SPAN_ORDERS))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_integer_span_matches_payload_span(name, data):
    """`EchelonSpan` over Q and Q(zeta_m), on primitive integer rows, against
    the field-payload route: every insert's answer, the dimension after it,
    the reduced rows and the nullspace, payload types included.  Each stored
    row is primitive, with a positive rational pivot."""
    order = SPAN_ORDERS[name]
    rows = data.draw(span_vectors(order))
    width = len(rows[0])
    span, ref = EchelonSpan(width), PayloadSpan(width)
    for k, row in enumerate(rows):
        assert span.insert(row) == ref.insert(row), k
        assert span.dim == ref.dim, k
    assert typed(span.reduced()) == typed(ref.reduced())
    zero, one = span_payload(order, [0]), span_payload(order, [1])
    assert typed(span.nullspace(zero, one)) == typed(ref.nullspace(zero, one))
    phi = euler_phi(order)
    for k, stored in enumerate(span._rows):
        if stored is not None:
            pivot, (ints, *_) = stored
            assert gcd(*ints) == 1 and pivot > 0
            assert ints[k * phi:(k + 1) * phi] == [pivot] + [0] * (phi - 1)
            assert not any(ints[:k * phi])


def test_integer_span_examples():
    """A rank-deficient 3x3 system over Q(zeta_5) with a pivot that is not
    rational, and the same rows over Q."""
    z = Cyclotomic.zeta_power(5, 1)
    one = Cyclotomic.from_rational(5, 1)
    zero = Cyclotomic.from_rational(5, 0)
    rows = [[1 + z, z, zero], [(1 + z) * z, z * z, one], [zero, zero, one]]
    span, ref = EchelonSpan(3), PayloadSpan(3)
    assert [span.insert(r) for r in rows] == [ref.insert(r) for r in rows] == [True, True, False]
    assert typed(span.reduced()) == typed(ref.reduced())
    assert typed(span.nullspace(zero, one)) == typed(ref.nullspace(zero, one))
    rational_rows = [[Fraction(2), Fraction(4), Fraction(0)],
                     [Fraction(1, 3), Fraction(2, 3), Fraction(0)],
                     [Fraction(0), Fraction(-5), Fraction(7, 2)]]
    span, ref = EchelonSpan(3), PayloadSpan(3)
    assert [span.insert(r) for r in rational_rows] == [ref.insert(r) for r in rational_rows]
    assert span.reduced() == ref.reduced() == ([0, 1], [[1, 0, Fraction(7, 5)], [0, 1, Fraction(-7, 10)]])


# --- the F_p nullspace against the exact one ----------------------------------------

MODP_PRIMES = [1862340481, 232792561]


@given(st.integers(1, 5).flatmap(lambda rows: st.integers(1, 7).flatmap(
    lambda cols: st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5]),
                                   min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))),
    st.sampled_from(MODP_PRIMES))
@settings(max_examples=150, deadline=None)
def test_modp_nullspace_matches_exact_nullspace(rows, p):
    """On small integer matrices no minor is a multiple of p unless it is 0,
    so the pivots agree, and each F_p vector is the reduction of the exact
    basis vector scaled to a 1 at its free column."""
    span = EchelonSpan(len(rows[0]), p)
    for row in rows:
        span.insert(row)
    free, basis = span.nullspace()
    exact = ExactMatrix.from_rows([[integer(x) for x in row] for row in rows])
    want = exact.nullspace()
    assert len(free) == len(basis) == len(want) == len(rows[0]) - exact.rank()
    for f, vec, w in zip(free, basis, want):
        assert vec[f] == 1 and not any(vec[j] for j in free if j != f) and not any(vec[f + 1:])
        assert all(sum(a * x for a, x in zip(row, vec)) % p == 0 for row in rows)
        scale = w[f].inverse()
        assert vec == [residue(scale * x, p, 0) for x in w]


def test_modp_nullspace_examples():
    span = EchelonSpan(4, 7)
    for row in ([1, 2, 0, 3], [2, 4, 1, 6], [0, 0, 0, 0]):
        span.insert(row)
    assert span.nullspace() == ([1, 3], [[5, 1, 0, 0], [4, 0, 0, 1]])
    assert EchelonSpan(2, 7).nullspace() == ([0, 1], [[1, 0], [0, 1]])
    full = EchelonSpan(2, 7)
    full.insert([1, 1])
    full.insert([0, 3])
    assert full.nullspace() == ([], [])


# --- generalized characteristic polynomial ----------------------------------------

def test_generalized_charpoly_1x1():
    c = int_matrix([[7]])
    assert generalized_charpoly(c, [integer(5)]) == integer(12)


def test_generalized_charpoly_d2_submatrix():
    # the distinguished 2x2 minor with its nu-shift brought to diagonal form by a
    # column swap: det = -(1 + nu_1), here with nu_1 = 3/4
    nu = rational(3, 4)
    c = int_matrix([[1, 2], [1, 1]])
    value = generalized_charpoly(c, [Scalar.zero(QQ), -nu])
    assert value == -(integer(1) + nu)


def charpoly_by_cofactors(c, lam):
    """Reference route: the sum over diagonal index subsets K of
    prod_(k in K) lam_k times the principal minor of C on the complement of K."""
    m = c.rows
    total = Scalar.zero(c.ctx)
    for mask in range(1 << m):
        coeff = Scalar.one(c.ctx)
        for k in range(m):
            if mask >> k & 1:
                coeff = coeff * lam[k]
        complement = [k for k in range(m) if not mask >> k & 1]
        total = total + coeff * c.minor(complement, complement)
    return total


def test_generalized_charpoly_matches_cofactor_expansion(rng):
    q = q_symbol()
    for m in range(1, 6):
        for ctx, shift in ((QQ, integer(1)), (q.ctx, q)):
            c = rand_matrix(rng, m, ctx=ctx)
            lam = [rand_scalar(rng, ctx) * shift ** k for k in range(m)]
            assert generalized_charpoly(c, lam) == charpoly_by_cofactors(c, lam), (m, ctx)


def test_generalized_charpoly_matches_direct(rng):
    c = rand_matrix(rng, 3)
    lam = [rand_scalar(rng) for _ in range(3)]
    shifted = c + ExactMatrix.diagonal(lam)
    assert generalized_charpoly(c, lam) == det_by_permutations(shifted)
    c4 = rand_matrix(rng, 4)
    lam4 = [rand_scalar(rng) for _ in range(4)]
    assert generalized_charpoly(c4, lam4) == \
        det_by_permutations(c4 + ExactMatrix.diagonal(lam4))


# --- diagonal decomposition ---------------------------------------------------------

def test_superdiagonal_of_diagonal(rng):
    d = ExactMatrix.diagonal([rand_scalar(rng) for _ in range(4)])
    assert superdiagonal_component(d, 0) == d


def test_superdiagonal_of_sigma1_minus_identity():
    c1 = concrete_q(integer(1))
    n = 3
    a = sigma1_matrix(n, c1) - ExactMatrix.identity(n + 1, QQ)
    beta = superdiagonal_component(a, 1)
    want = ExactMatrix.from_fn(
        n + 1, n + 1, QQ,
        lambda i, j: integer(n - i) if j == i + 1 else integer(0))
    assert beta == want


def test_subdiagonal_of_upper_triangular(rng):
    a = rand_matrix(rng, 4)
    entries = [[a[i, j] if j >= i else Scalar.zero(QQ) for j in range(4)]
               for i in range(4)]
    tri = ExactMatrix.from_rows(entries)
    assert superdiagonal_component(tri, -1) == ExactMatrix.zeros(4, 4, QQ)


def test_decomposition_sums_back(rng):
    a = rand_matrix(rng, 4)
    total = ExactMatrix.zeros(4, 4, QQ)
    for k in range(-3, 4):
        total = total + superdiagonal_component(a, k)
    assert total == a
