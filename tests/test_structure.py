"""q-exponentials, symmetric powers, the polynomial-substitution operators, normal forms, SL(2,Z)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbraid import structure
from qbraid.errors import (
    ConstraintViolated,
    NotStrictlyUpperTriangular,
    NotUnitUpperTriangular,
    QFactorialZero,
    UnsupportedDimension,
)
from qbraid.linalg import ExactMatrix
from qbraid.qcomb import concrete_q, q_tri, symbolic_q
from qbraid.rep import d_matrix, sigma1_matrix, sigma2_matrix
from qbraid.scalar import QQ, Scalar, integer, parse_scalar, q_symbol, rational, zeta
from qbraid.structure import (
    TWParams,
    ferrand_phi,
    ferrand_psi,
    pas_exp_check,
    q_exp_nilpotent,
    sl2_projection,
    symmetric_power,
    t_matrix,
    tw_equivalence_check,
    tw_matrices,
    verify_braid_like,
)

from conftest import rand_scalar
from reference import gauss_expand, unipotent_log


@pytest.fixture(scope="module")
def ctx():
    return symbolic_q()


def int_matrix(rows):
    return ExactMatrix.from_rows([[integer(v) for v in row] for row in rows])


def classical_exp(t):
    """The classical exponential: the q-exponential at q = 1."""
    return q_exp_nilpotent(t, concrete_q(integer(1)))


# --- exponentials ----------------------------------------------------------------

def test_exp_of_zero():
    z = ExactMatrix.zeros(3, 3, QQ)
    assert classical_exp(z) == ExactMatrix.identity(3, QQ)


def test_pascal_exponential_lemma(ctx):
    for n in range(1, 7):
        report = pas_exp_check(n, ctx)
        assert report.passed, (n, report.detail)


def test_exp_requires_strictly_upper():
    with pytest.raises(NotStrictlyUpperTriangular):
        classical_exp(int_matrix([[1, 0], [0, 0]]))


def test_q_factorial_zero_fires():
    # at q = -1, (2)!_q = 0 while a generic strictly-upper T still has T^2 != 0
    cm1 = concrete_q(integer(-1))
    t = int_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(QFactorialZero):
        q_exp_nilpotent(t, cm1)
    # the triangle operator is safe there: its T^2 vanishes with (2)!_q
    assert q_exp_nilpotent(t_matrix(2, cm1), cm1) is not None


def test_unipotent_log_of_pascal():
    c1 = concrete_q(integer(1))
    log = unipotent_log(sigma1_matrix(2, c1))
    assert log == int_matrix([[0, 2, 0], [0, 0, 1], [0, 0, 0]])


def test_log_of_identity():
    i4 = ExactMatrix.identity(4, QQ)
    assert unipotent_log(i4) == ExactMatrix.zeros(4, 4, QQ)


def test_exp_log_round_trip(rng):
    entries = [[Scalar.zero(QQ)] * 4 for _ in range(4)]
    for i in range(4):
        entries[i][i] = Scalar.one(QQ)
        for j in range(i + 1, 4):
            entries[i][j] = rand_scalar(rng)
    u = ExactMatrix.from_rows(entries)
    assert classical_exp(unipotent_log(u)) == u
    with pytest.raises(NotUnitUpperTriangular):
        unipotent_log(int_matrix([[2, 0], [0, 1]]))


# --- symmetric powers ---------------------------------------------------------------

def test_sym2_display():
    m = int_matrix([[1, 1], [0, 1]])
    assert symmetric_power(m, 2) == int_matrix([[1, 2, 1], [0, 1, 1], [0, 0, 1]])


def test_sym1_is_identity_functor(rng):
    m = int_matrix([[3, 1], [2, 5]])
    assert symmetric_power(m, 1) == m


def test_sym3_is_sigma1():
    m = int_matrix([[1, 1], [0, 1]])
    assert symmetric_power(m, 3) == int_matrix(
        [[1, 3, 3, 1], [0, 1, 2, 1], [0, 0, 1, 1], [0, 0, 0, 1]])


def test_sym_reproduces_both_generators():
    c1 = concrete_q(integer(1))
    g1 = int_matrix([[1, 1], [0, 1]])
    g2 = int_matrix([[1, 0], [-1, 1]])
    for n in range(1, 7):
        assert symmetric_power(g1, n) == sigma1_matrix(n, c1)
        assert symmetric_power(g2, n) == sigma2_matrix(n, c1)


def test_sym_multiplicative(rng):
    for _ in range(4):
        a = ExactMatrix.from_rows([[rand_scalar(rng) for _ in range(2)] for _ in range(2)])
        b = ExactMatrix.from_rows([[rand_scalar(rng) for _ in range(2)] for _ in range(2)])
        if a.determinant().is_zero() or b.determinant().is_zero():
            continue
        for n in range(1, 5):
            assert symmetric_power(a * b, n) == symmetric_power(a, n) * symmetric_power(b, n)


# --- polynomial-substitution operators ---------------------------------------------------

def golden(text_rows, ctx):
    return ExactMatrix.from_rows(
        [[parse_scalar(t).coerce(ctx.q.ctx) for t in row] for row in text_rows])


def test_phi_psi_display_n2(ctx):
    assert ferrand_phi(2, ctx) == golden(
        [["1", "1", "1"], ["0", "1", "1+q"], ["0", "0", "q"]], ctx)
    assert ferrand_psi(2, ctx) == golden(
        [["q", "0", "0"], ["-1-q", "1", "0"], ["1", "-1", "1"]], ctx)


def test_phi_psi_display_n3(ctx):
    assert ferrand_phi(3, ctx) == golden(
        [["1", "1", "1", "1"],
         ["0", "1", "1+q", "1+q+q^2"],
         ["0", "0", "q", "q+q^2+q^3"],
         ["0", "0", "0", "q^3"]], ctx)
    assert ferrand_psi(3, ctx) == golden(
        [["q^3", "0", "0", "0"],
         ["-q-q^2-q^3", "q", "0", "0"],
         ["1+q+q^2", "-1-q", "1", "0"],
         ["-1", "1", "-1", "1"]], ctx)


def test_phi_psi_are_s_images_of_dressed_generators(ctx):
    for n in range(1, 5):
        s1d = sigma1_matrix(n, ctx) * d_matrix(n, ctx).sharp()
        s2d = d_matrix(n, ctx) * sigma2_matrix(n, ctx)
        assert ferrand_phi(n, ctx) == s1d.transpose_s()
        assert ferrand_psi(n, ctx) == s2d.transpose_s()


def phi_by_action(n, ctx):
    """Reference route: column k holds the coefficients of (1+X)^k_q."""
    zero = ctx.zero()
    cols = []
    for k in range(n + 1):
        coeffs = gauss_expand(k, ctx)
        cols.append([coeffs[r] if r < len(coeffs) else zero for r in range(n + 1)])
    return ExactMatrix.from_fn(n + 1, n + 1, ctx.q.ctx, lambda r, k: cols[k][r])


def psi_by_action(n, ctx):
    """Reference route: column k holds the coefficients of
    q_(n-k) (1-X)(1-X q^-1)...(1-X q^-(n-k-1)) X^k."""
    zero, one, qinv = ctx.zero(), ctx.one(), ctx.q.inverse()
    cols = []
    for k in range(n + 1):
        coeffs = [one]
        power = one
        for _ in range(n - k):
            nxt = coeffs + [zero]
            for r in range(len(nxt) - 1, 0, -1):
                nxt[r] = nxt[r] - power * coeffs[r - 1]
            coeffs = nxt
            power = power * qinv
        col = [zero] * (n + 1)
        for s, cval in enumerate(coeffs):
            col[s + k] = q_tri(n - k, ctx) * cval
        cols.append(col)
    return ExactMatrix.from_fn(n + 1, n + 1, ctx.q.ctx, lambda r, k: cols[k][r])


def test_phi_psi_match_monomial_action(ctx):
    points = [concrete_q(integer(2)), concrete_q(rational(-1, 3)),
              concrete_q(integer(1)), concrete_q(zeta(6))]
    for qc in [ctx] + points:
        for n in range(7):
            assert ferrand_phi(n, qc) == phi_by_action(n, qc), (qc.q, n)
            assert ferrand_psi(n, qc) == psi_by_action(n, qc), (qc.q, n)


def test_phi_psi_braid_like(ctx):
    for n in range(1, 5):
        assert verify_braid_like(ferrand_phi(n, ctx), ferrand_psi(n, ctx)).passed


def test_braid_like_trivialities():
    c1 = concrete_q(integer(1))
    assert verify_braid_like(sigma1_matrix(3, c1), sigma2_matrix(3, c1)).passed
    i3 = ExactMatrix.identity(3, QQ)
    assert verify_braid_like(i3, i3).passed
    bad = verify_braid_like(int_matrix([[1, 1], [0, 1]]), int_matrix([[2, 0], [0, 1]]))
    assert not bad.passed and "entry" in bad.detail


# --- normal forms ----------------------------------------------------------------------

def test_tw2_matrices():
    l1, l2 = integer(2), integer(3)
    s1, s2 = tw_matrices(TWParams(2, (l1, l2)))
    assert s1 == ExactMatrix.from_rows([[l1, l1], [integer(0), l2]])
    assert s2 == ExactMatrix.from_rows([[l2, integer(0)], [-l2, l1]])


def test_tw3_entry():
    l1, l2, l3 = integer(1), integer(2), integer(4)
    s1, _ = tw_matrices(TWParams(3, (l1, l2, l3)))
    assert s1[0, 1] == l1 * l3 / l2 + l2


def test_tw4_entry():
    lam = (integer(1), integer(4), integer(2), integer(2))
    d = integer(2)
    _, s2 = tw_matrices(TWParams(4, lam, d=d))
    assert s2[3, 0] == -(d ** 3) * lam[0]


def test_tw4_requires_consistent_d():
    lam = (integer(1), integer(4), integer(2), integer(2))
    with pytest.raises(ConstraintViolated):
        tw_matrices(TWParams(4, lam, d=integer(3)))


def test_tw5_sigma2_absent():
    q = q_symbol()
    one = Scalar.one(q.ctx)
    lam = (one, q ** -1, q ** -2, q ** -2, one)
    s1, s2 = tw_matrices(TWParams(5, lam))
    assert s2 is None
    assert s1[0, 4] == q ** -3


def test_tw_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        TWParams(6, tuple(integer(k + 1) for k in range(6)))


def test_tw_equivalences(rng):
    assert tw_equivalence_check(TWParams(2, (integer(2), integer(3)))).passed
    for _ in range(3):
        lam = tuple(rand_scalar(rng, nonzero=True) for _ in range(3))
        assert tw_equivalence_check(TWParams(3, lam)).passed
    assert tw_equivalence_check(
        TWParams(4, (integer(1), integer(2), integer(2), integer(4)), d=integer(1))).passed
    assert tw_equivalence_check(
        TWParams(4, (integer(1), integer(4), integer(2), integer(2)), d=integer(2))).passed
    q = q_symbol()
    one = Scalar.one(q.ctx)
    report = tw_equivalence_check(TWParams(5, (one, q ** -1, q ** -2, q ** -2, one)))
    assert report.passed
    assert report.conjugator == ["1", "1", "1", "q^-1", "q^-3"]


def test_tw4_rejects_zero_d():
    lam = (integer(1), integer(2), integer(2), integer(4))
    with pytest.raises(ConstraintViolated, match="parameter d must be nonzero"):
        TWParams(4, lam, d=integer(0))


TAMPERED_TW = {
    2: (TWParams(2, (integer(2), integer(3))), "-4/3"),
    3: (TWParams(3, (integer(1), integer(2), integer(4))), "-1"),
    4: (TWParams(4, (integer(1), integer(2), integer(2), integer(4)), d=integer(1)), "-1"),
}


@pytest.mark.parametrize("n", sorted(TAMPERED_TW))
def test_tw_equivalence_locates_the_first_failure(n, monkeypatch):
    params, lhs = TAMPERED_TW[n]
    literal = structure.tw_matrices

    def with_bumped_sigma2(p):
        s1, s2 = literal(p)
        one, zero = Scalar.one(s2.ctx), Scalar.zero(s2.ctx)
        bump = ExactMatrix.from_fn(s2.rows, s2.cols, s2.ctx,
                                   lambda i, j: one if (i, j) == (1, 0) else zero)
        return s1, s2 + bump

    monkeypatch.setattr(structure, "tw_matrices", with_bumped_sigma2)
    report = tw_equivalence_check(params)
    assert not report.passed
    assert report.checks == [{"check": "sigma1", "passed": True},
                             {"check": "sigma2", "passed": False}]
    assert report.first_failure == {"check": "sigma2", "entry": [1, 0],
                                    "lhs": lhs, "rhs": "-2"}


def test_tw5_gamma_constraint():
    q = q_symbol()
    one = Scalar.one(q.ctx)
    with pytest.raises(ConstraintViolated):
        tw_matrices(TWParams(5, (one, q ** -1, q ** -2, q ** -1, one)))


# --- SL(2,Z) projection -------------------------------------------------------------------

def test_sl2_braid_image():
    assert sl2_projection(["s1", "s2", "s1"]) == int_matrix([[0, 1], [-1, 0]])
    assert sl2_projection(["s2", "s1"]) == int_matrix([[1, 1], [-1, 0]])
    assert sl2_projection([]) == ExactMatrix.identity(2, QQ)


def test_sl2_respects_braid_relation():
    assert sl2_projection(["s1", "s2", "s1"]) == sl2_projection(["s2", "s1", "s2"])


def test_sl2_inverses():
    assert sl2_projection(["s1", "s1i"]) == ExactMatrix.identity(2, QQ)
    assert sl2_projection(["s2", "s2i"]) == ExactMatrix.identity(2, QQ)


@given(st.lists(st.sampled_from(["s1", "s2", "s1i", "s2i"]), max_size=12))
@settings(max_examples=60, deadline=None)
def test_sl2_projection_has_determinant_one(word):
    assert sl2_projection(word).determinant() == Scalar.one(QQ)


def test_sl2_unknown_token():
    with pytest.raises(ValueError):
        sl2_projection(["sigma"])
