"""Representation family: generator matrices, closed inverses, braid identity."""

import pytest

from qbraid.errors import CondQViolated, NotUnitUpperTriangular
from qbraid.linalg import ExactMatrix, compare_all
from qbraid.qcomb import QContext, concrete_q, q_tri, symbolic_q
from qbraid.rep import (
    BraidReport,
    Representation,
    build_representation,
    check_cond_q,
    d_matrix,
    factored_spec,
    lambda_canonical,
    raw_spec,
    s_matrix,
    sigma1_inverse_closed,
    sigma1_matrix,
    sigma2_inverse_closed,
    sigma2_matrix,
    verify_braid,
)
from qbraid.scalar import QQ, Scalar, integer, parse_scalar, rational, zeta

from conftest import random_factored_lambda
from reference import unipotent_inverse


@pytest.fixture(scope="module")
def ctx():
    return symbolic_q()


def rows_of(text_rows, ctx):
    return ExactMatrix.from_rows(
        [[parse_scalar(t).coerce(ctx.q.ctx) for t in row] for row in text_rows])


# --- generator displays ---------------------------------------------------------

def test_sigma1_displays(ctx):
    assert sigma1_matrix(2, ctx) == rows_of(
        [["1", "1+q", "1"], ["0", "1", "1"], ["0", "0", "1"]], ctx)
    assert sigma1_matrix(3, ctx) == rows_of(
        [["1", "1+q+q^2", "1+q+q^2", "1"],
         ["0", "1", "1+q", "1"],
         ["0", "0", "1", "1"],
         ["0", "0", "0", "1"]], ctx)
    assert sigma1_matrix(0, ctx) == rows_of([["1"]], ctx)


def test_sigma1_inverse_displays(ctx):
    assert sigma1_inverse_closed(2, ctx) == rows_of(
        [["1", "-1-q", "q"], ["0", "1", "-1"], ["0", "0", "1"]], ctx)
    assert sigma1_inverse_closed(3, ctx)[0, 3] == parse_scalar("-q^3").coerce(ctx.q.ctx)
    c1 = concrete_q(integer(1))
    assert sigma1_inverse_closed(2, c1) == ExactMatrix.from_rows(
        [[integer(1), integer(-2), integer(1)],
         [integer(0), integer(1), integer(-1)],
         [integer(0), integer(0), integer(1)]])


def test_sigma2_displays(ctx):
    assert sigma2_matrix(2, ctx) == rows_of(
        [["1", "0", "0"], ["-1", "1", "0"], ["q^-1", "-1-q^-1", "1"]], ctx)
    assert sigma2_inverse_closed(2, ctx) == rows_of(
        [["1", "0", "0"], ["1", "1", "0"], ["1", "1+q^-1", "1"]], ctx)


def test_sigma2_at_q1_is_signed_pascal():
    from math import comb
    c1 = concrete_q(integer(1))
    s2 = sigma2_matrix(4, c1)
    for k in range(5):
        for m in range(5):
            want = (-1) ** (k + m) * comb(k, m) if m <= k else 0
            assert s2[k, m] == integer(want)


CONCRETE_QS = [concrete_q(integer(2)), concrete_q(rational(-1, 3)),
               concrete_q(integer(1)), concrete_q(zeta(6))]


def test_sigma2_involution_route_is_validated(ctx):
    # sigma2_matrix, sigma_1^-1's closed form at q^-1 turned by #, against
    # (sigma_1(q^-1,n)^-1)^# by Gauss-Jordan
    for qc, top in [(ctx, 5)] + [(c, 6) for c in CONCRETE_QS]:
        qinv = QContext(qc.q.inverse())
        for n in range(top + 1):
            assert sigma2_matrix(n, qc) == sigma1_matrix(n, qinv).inverse().sharp(), (qc.q, n)


def test_closed_inverses_invert(ctx):
    for n in range(6):
        ident = ExactMatrix.identity(n + 1, ctx.q.ctx)
        assert sigma1_inverse_closed(n, ctx) * sigma1_matrix(n, ctx) == ident
        assert sigma2_inverse_closed(n, ctx) * sigma2_matrix(n, ctx) == ident


# --- canonical diagonal matrices ---------------------------------------------------

def test_s_matrix_display(ctx):
    assert s_matrix(2, ctx) == rows_of(
        [["0", "0", "1"], ["0", "-1", "0"], ["q^-1", "0", "0"]], ctx)


def test_s_matrix_and_lambda_canonical_from_d(ctx):
    # S(q) = D_n(q)^-1 S(1) and Lambda_n(q) = q_n^-1 D_n D_n^#
    for qc in [ctx] + CONCRETE_QS:
        for n in range(7):
            d = d_matrix(n, qc)
            plain = ExactMatrix.from_fn(n + 1, n + 1, qc.q.ctx, lambda k, m: integer(
                (-1) ** k if k + m == n else 0, qc.q.ctx))
            assert s_matrix(n, qc) == d.inverse() * plain, (qc.q, n)
            assert lambda_canonical(n, qc) == q_tri(n, qc).inverse() * (d * d.sharp()), (qc.q, n)


def test_lambda_canonical_displays(ctx):
    assert lambda_canonical(2, ctx) == rows_of(
        [["1", "0", "0"], ["0", "q^-1", "0"], ["0", "0", "1"]], ctx)
    assert lambda_canonical(3, ctx) == rows_of(
        [["1", "0", "0", "0"], ["0", "q^-2", "0", "0"],
         ["0", "0", "q^-2", "0"], ["0", "0", "0", "1"]], ctx)


def test_d_matrix(ctx):
    d = d_matrix(3, ctx)
    assert d.sharp() == rows_of(
        [["q^3", "0", "0", "0"], ["0", "q", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]], ctx)


# --- specs and construction ----------------------------------------------------------

def test_raw_spec_n1_display(ctx):
    l0 = integer(3, ctx.q.ctx)
    l1 = integer(5, ctx.q.ctx)
    rep = build_representation(raw_spec(1, ctx, (l0, l1)))
    assert rep.sigma1 == ExactMatrix.from_rows([[l0, l1], [Scalar.zero(ctx.q.ctx), l1]])
    assert rep.sigma2 == ExactMatrix.from_rows([[l1, Scalar.zero(ctx.q.ctx)], [-l0, l0]])


def test_factored_identity_gives_sigma_d(ctx):
    one = Scalar.one(ctx.q.ctx)
    rep = build_representation(factored_spec(2, ctx, (one, one, one)))
    assert rep.sigma1 == rows_of(
        [["q", "1+q", "1"], ["0", "1", "1"], ["0", "0", "1"]], ctx)
    assert rep.sigma2 == rows_of(
        [["1", "0", "0"], ["-1", "1", "0"], ["1", "-1-q", "q"]], ctx)


def test_cond_q_violation():
    c1 = concrete_q(integer(1))
    with pytest.raises(CondQViolated) as err:
        build_representation(raw_spec(2, c1, (integer(1), integer(1), integer(2))))
    assert err.value.index == 1


def test_zero_lambda_rejected_at_spec():
    c1 = concrete_q(integer(1))
    with pytest.raises(CondQViolated):
        raw_spec(1, c1, (integer(1), integer(0)))


def test_factored_expansion_satisfies_cond_q(ctx, rng):
    for n in range(1, 5):
        lam_prime = random_factored_lambda(rng, n, ctx.q.ctx)
        rep = build_representation(factored_spec(n, ctx, lam_prime))
        check_cond_q(n, ctx, list(rep.lam_raw))


# --- the braid identity ---------------------------------------------------------------

def test_braid_n1_product(ctx):
    l0 = integer(3, ctx.q.ctx)
    l1 = integer(5, ctx.q.ctx)
    rep = build_representation(raw_spec(1, ctx, (l0, l1)))
    report = verify_braid(rep)
    assert report.passed
    triple = rep.sigma1 * rep.sigma2 * rep.sigma1
    want = ExactMatrix.from_rows([[Scalar.zero(ctx.q.ctx), l1], [-l0, Scalar.zero(ctx.q.ctx)]])
    assert triple == want.scale(l0 * l1)


def test_braid_symbolic_identity_lambda(ctx):
    for n in range(1, 5):
        one = Scalar.one(ctx.q.ctx)
        rep = build_representation(factored_spec(n, ctx, tuple(one for _ in range(n + 1))))
        assert verify_braid(rep).passed


def test_braid_random_factored(ctx, rng):
    for n in range(1, 5):
        for _ in range(3):
            rep = build_representation(
                factored_spec(n, ctx, random_factored_lambda(rng, n, ctx.q.ctx)))
            assert verify_braid(rep).passed


def test_braid_q1_gives_alternating_skew_diagonal():
    c1 = concrete_q(integer(1))
    one = Scalar.one(QQ)
    rep = build_representation(factored_spec(4, c1, tuple(one for _ in range(5))))
    triple = rep.sigma1 * rep.sigma2 * rep.sigma1
    for k in range(5):
        for m in range(5):
            want = integer((-1) ** k) if k + m == 4 else integer(0)
            assert triple[k, m] == want


def test_q1_sharp_relation():
    c1 = concrete_q(integer(1))
    for n in range(1, 6):
        assert sigma2_matrix(n, c1) == sigma1_matrix(n, c1).inverse().sharp()


def test_braid_report_carries_first_failure(ctx):
    one = Scalar.one(ctx.q.ctx)
    rep = build_representation(factored_spec(2, ctx, (one, one, one)))
    tampered = Representation(rep.spec, rep.sigma1 + ExactMatrix.identity(3, ctx.q.ctx),
                              rep.sigma2, rep.lam_raw)
    report = verify_braid(tampered)
    assert not report.passed
    # sigma1 + I breaks both dressed checks; the bare checks do not read sigma1
    assert report.checks == [
        {"check": "s1*s2*s1 == s2*s1*s2", "passed": False},
        {"check": "s1*s2*s1 == c*S(q)*Lambda", "passed": False},
        {"check": "sigma1*Lam(q)*sigma2 == S(q)*sigma1^-1", "passed": True},
        {"check": "sigma1*Lam(q)*sigma2 == sigma2^-1*S(q)", "passed": True}]
    assert report.first_failure == {"check": "s1*s2*s1 == s2*s1*s2", "entry": [0, 0],
                                    "lhs": "1+q", "rhs": "1"}


def braid_report_by_separate_products(rep):
    """The reference `verify_braid`: both triple products formed on their own,
    s1 s2 s1 and s2 s1 s2, each left to right."""
    n, ctx = rep.n, rep.ctx
    s = s_matrix(n, ctx)
    t121 = rep.sigma1 * rep.sigma2 * rep.sigma1
    scale = rep.lam_raw[0] * rep.lam_raw[n]
    core = sigma1_matrix(n, ctx) * lambda_canonical(n, ctx) * sigma2_matrix(n, ctx)
    checks, first = compare_all((
        ("s1*s2*s1 == s2*s1*s2", t121, rep.sigma2 * rep.sigma1 * rep.sigma2),
        ("s1*s2*s1 == c*S(q)*Lambda", t121,
         (s * ExactMatrix.diagonal(list(rep.lam_raw))).scale(scale)),
        ("sigma1*Lam(q)*sigma2 == S(q)*sigma1^-1", core, s * sigma1_inverse_closed(n, ctx)),
        ("sigma1*Lam(q)*sigma2 == sigma2^-1*S(q)", core, sigma2_inverse_closed(n, ctx) * s)))
    return BraidReport(n, first is None, checks, first)


@pytest.mark.parametrize("q", ["q", "2", "-1", "zeta(5)", "(1+q)/(1-q)"])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_shared_product_report_matches_separate_products(q, n):
    """The whole report, verdict, checks and first failure, equals the
    reference's on a valid pair and with sigma_2 perturbed in one entry."""
    ctx = symbolic_q() if q == "q" else concrete_q(parse_scalar(q))
    field = sigma1_matrix(n, ctx).ctx
    # lambda'_k = (3/2)^k, so lambda'_k lambda'_(n-k) is the same for every k
    lam = tuple(rational(3, 2, field) ** k for k in range(n + 1))
    rep = build_representation(factored_spec(n, ctx, lam))
    bump = ExactMatrix.from_fn(n + 1, n + 1, field, lambda i, j: Scalar.one(field)
                               if (i, j) == (n, n // 2) else Scalar.zero(field))
    perturbed = Representation(rep.spec, rep.sigma1, rep.sigma2 + bump, rep.lam_raw)
    for r in (rep, perturbed):
        assert verify_braid(r) == braid_report_by_separate_products(r)
    assert not verify_braid(perturbed).passed


# --- unipotent path-sum inverse ----------------------------------------------------------

def test_unipotent_inverse_superdiagonal_negates(ctx, rng):
    from conftest import rand_scalar
    entries = [[Scalar.zero(QQ)] * 4 for _ in range(4)]
    for i in range(4):
        entries[i][i] = Scalar.one(QQ)
        for j in range(i + 1, 4):
            entries[i][j] = rand_scalar(rng)
    x = ExactMatrix.from_rows(entries)
    inv = unipotent_inverse(x)
    for i in range(3):
        assert inv[i, i + 1] == -x[i, i + 1]
    assert inv == x.inverse()


def test_unipotent_inverse_sigma1(ctx):
    assert unipotent_inverse(sigma1_matrix(3, ctx)) == sigma1_inverse_closed(3, ctx)


def test_unipotent_inverse_identity():
    i4 = ExactMatrix.identity(4, QQ)
    assert unipotent_inverse(i4) == i4


def test_unipotent_inverse_rejects_non_unit():
    with pytest.raises(NotUnitUpperTriangular):
        unipotent_inverse(ExactMatrix.from_rows([[integer(2), integer(1)],
                                                 [integer(0), integer(1)]]))
