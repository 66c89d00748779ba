"""Irreducibility machinery: criterion matrices, minors, oracles, witnesses,
catalogs, intertwiners."""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from qbraid.errors import (
    AlphaDegenerate,
    ConstraintViolated,
    NotAReduciblePoint,
    ShapeMismatch,
)
from qbraid import irred, linalg
from qbraid.linalg import EchelonSpan, ExactMatrix
from qbraid.qcomb import QContext, concrete_q, symbolic_q
from qbraid.rep import build_representation, factored_spec, raw_spec
from qbraid.irred import (
    _CERTIFICATE_PAIRS,
    _burnside_exact,
    _intertwiner_basis,
    _intertwiner_basis_exact,
    analyze,
    burnside_dimension,
    commutant_dimension,
    criterion_matrix,
    intertwiner_space,
    minor_criterion,
    suspected_catalog,
)
from qbraid.scalar import (
    QQ,
    Scalar,
    integer,
    join_context,
    parse_scalar,
    q_symbol,
    rational,
    root_of_unity_mod,
    zeta,
)

from conftest import random_factored_lambda
from reference import (
    FMatrixSpec,
    burnside_exact_sigma2,
    catalog_rep,
    d0_determinant,
    d0_starred_check,
    eigenvector_closed_forms,
    f_matrix,
    fixed_vector_check,
    intertwiner_basis_exact_sigma2,
    n1_subspace_test,
    root_of_unity_reducibility,
)


def rep_q1(values):
    lam = [integer(v) if isinstance(v, int) else v for v in values]
    ctx = concrete_q(Scalar.one(lam[0].ctx))
    return build_representation(raw_spec(len(lam) - 1, ctx, tuple(lam)))


@dataclass
class PairShim:
    n: int
    sigma1: ExactMatrix
    sigma2: ExactMatrix


# --- criterion matrices ----------------------------------------------------------

def test_f_matrix_routes_and_minors():
    qctx = symbolic_q()
    one = Scalar.one(qctx.q.ctx)
    spec = FMatrixSpec(0, 2, qctx, (one, one, one))
    f = f_matrix(spec)
    g = f.transpose_s()
    assert g.minor([0, 1], [1, 2]) == integer(2, qctx.q.ctx) * qctx.q
    c1 = concrete_q(integer(1))
    f1 = f_matrix(FMatrixSpec(0, 2, c1, tuple(integer(1) for _ in range(3))))
    assert f1.transpose_s().minor([0, 1], [1, 2]) == integer(2)
    # r = floor(n/2): the top-row trivial minor M^0_n is 1
    fr = f_matrix(FMatrixSpec(1, 2, c1, tuple(integer(1) for _ in range(3))))
    assert fr.transpose_s().minor([0], [2]) == integer(1)


def test_f_matrix_rejects_bad_r():
    c1 = concrete_q(integer(1))
    with pytest.raises(ShapeMismatch):
        FMatrixSpec(2, 2, c1, tuple(integer(1) for _ in range(3)))


def test_minor_criterion_examples():
    rep = rep_q1([1, 1, 1])
    outcome = minor_criterion(rep, 0)
    assert outcome.witness == (0, 1) and outcome.minor_value == "2"
    red = rep_q1([1, -1, 1])
    outcome = minor_criterion(red, 0)
    assert outcome.exhausted and outcome.reduction_consistent
    rep3 = rep_q1([1, 1, 1, 1])
    outcome = minor_criterion(rep3, 1)
    assert outcome.witness == (0, 1) and outcome.minor_value == "1"
    # the distinguished minor (the first subset) and entry (n,n) both vanish at
    # lambda = I, n = 4, r = 1, so the reduction disagrees with the later witness
    outcome = minor_criterion(rep_q1([1, 1, 1, 1, 1]), 1)
    assert (outcome.witness, outcome.subsets_checked, outcome.reduction_consistent) == \
        ((0, 1, 3), 2, False)


def test_criterion_matrix_matches_f_sharp(rng):
    # the sigma route G_r against the q-exponential route F_(r,n), at lambda' = I
    # and at a generic factored lambda'
    for qctx in (symbolic_q(), concrete_q(integer(2)), concrete_q(integer(1))):
        one = Scalar.one(qctx.q.ctx)
        for n in range(1, 6):
            for lam in ((one,) * (n + 1), random_factored_lambda(rng, n, qctx.q.ctx)):
                rep = build_representation(factored_spec(n, qctx, lam))
                for r in range(n // 2 + 1):
                    spec = FMatrixSpec(r, n, qctx, lam)
                    assert criterion_matrix(rep, r) == f_matrix(spec).transpose_s(), (n, lam)


# --- exact oracles ------------------------------------------------------------------

def test_commutant_at_classical_identity_point():
    dim, basis = commutant_dimension(rep_q1([1, 1, 1]))
    assert dim == 1


def test_commutant_suspected_point_contains_paper_operator():
    rep = rep_q1([1, -1, 1])
    dim, basis = commutant_dimension(rep)
    assert dim == 2
    a = ExactMatrix.from_rows([[integer(v) for v in row]
                               for row in [[0, -2, 2], [1, -3, 1], [2, -2, 0]]])
    assert a * rep.sigma1 == rep.sigma1 * a
    assert a * rep.sigma2 == rep.sigma2 * a
    rows = [[m[i, j] for i in range(3) for j in range(3)] for m in basis]
    rows.append([a[i, j] for i in range(3) for j in range(3)])
    assert ExactMatrix.from_rows(rows).rank() == dim


def test_commutant_operator_irreducible_counterexample():
    z6 = zeta(6)
    rep = rep_q1([Scalar.one(z6.ctx), z6])
    dim, _ = commutant_dimension(rep)
    assert dim == 1
    assert burnside_dimension(rep) == 3


def test_burnside_values():
    assert burnside_dimension(rep_q1([1, 1])) == 4
    one = Scalar.one(QQ)
    rep = build_representation(
        factored_spec(2, concrete_q(integer(-1)), (one, one, one)))
    bdim = burnside_dimension(rep)
    assert bdim == 7 and bdim < 9
    cdim, _ = commutant_dimension(rep)
    assert cdim == 1


def test_full_dimensions_small():
    for n in range(1, 4):
        rep = rep_q1([1] * (n + 1))
        assert burnside_dimension(rep) == (n + 1) ** 2
        assert commutant_dimension(rep)[0] == 1


def algebra_rank_by_words(rep):
    """Reference route for the algebra dimension: the rank of the flattened
    matrices of all words in sigma_1, sigma_2, taken level by level (words of
    length k) until a level adds nothing to the rank."""
    size = rep.n + 1
    ident = ExactMatrix.identity(size, rep.sigma1.ctx)
    seen, level, rank = {ident}, [ident], 1
    while True:
        level = [m for m in {g * w for w in level for g in (rep.sigma1, rep.sigma2)}
                 if m not in seen]
        seen.update(level)
        grown = ExactMatrix.from_rows([[m[i, j] for i in range(size) for j in range(size)]
                                       for m in seen]).rank()
        if grown == rank:
            return rank
        rank = grown


def test_burnside_matches_rank_of_word_matrices(rng):
    one = Scalar.one(QQ)
    z6 = zeta(6)
    reps = [rep_q1([1, 1]), rep_q1([1, -1, 1]), rep_q1([1, 2, 1, 2]),
            rep_q1([Scalar.one(z6.ctx), z6]),
            build_representation(factored_spec(2, concrete_q(integer(-1)), (one,) * 3)),
            build_representation(factored_spec(
                2, symbolic_q(), (Scalar.one(q_symbol().ctx),) * 3))]
    reps += [catalog_rep(e) for n in (2, 3) for e in suspected_catalog(n)]
    for n in (0, 1, 2, 3):
        lam = random_factored_lambda(rng, n, QQ)
        reps.append(build_representation(factored_spec(n, concrete_q(integer(2)), lam)))
    dims = [burnside_dimension(rep) for rep in reps]
    assert dims == [algebra_rank_by_words(rep) for rep in reps]
    assert any(d < (rep.n + 1) ** 2 for d, rep in zip(dims, reps))


# --- catalog -----------------------------------------------------------------------------

def test_catalog_n2():
    entries = suspected_catalog(2)
    assert len(entries) == 1
    assert [str(v) for v in entries[0].lam] == ["1", "-1", "1"]


def test_catalog_n3_includes_cube_roots():
    entries = {e.s: e for e in suspected_catalog(3)}
    assert set(entries) == {2, 3}
    z = zeta(3)
    assert entries[3].lam == (Scalar.one(z.ctx), z, z * z, Scalar.one(z.ctx))


def test_catalog_n4_includes_fourth_roots():
    entries = {e.s: e for e in suspected_catalog(4)}
    assert set(entries) == {2, 3, 4}
    i = zeta(4)
    one = Scalar.one(i.ctx)
    assert entries[4].lam == (one, i, -one, -i, one)


def test_catalog_points_are_degenerate():
    # every catalog entry for n <= 4 has a fixed vector (s = 2) or commutant >= 2
    for n in range(2, 5):
        for entry in suspected_catalog(n):
            rep = catalog_rep(entry)
            cdim, _ = commutant_dimension(rep)
            if entry.s == 2:
                ctx = entry.lam[0].ctx
                one, zero = Scalar.one(ctx), Scalar.zero(ctx)
                two = integer(2, ctx)
                if n % 2 == 0:
                    vec = (two,) + (one,) * (n - 1) + (two,)
                else:
                    vec = (zero,) + (one,) * (n - 1) + (zero,)
                assert fixed_vector_check(rep, vec).passed
            assert cdim >= 2


# --- distinguished determinants ------------------------------------------------------------

PAPER_D0 = {
    2: {(): 1, (1,): 1},
    3: {(): 1, (1,): 2, (2,): 2, (1, 2): 1},
    4: {(): 1, (1,): 3, (2,): 5, (3,): 3, (1, 2): 3, (1, 3): 5, (2, 3): 3,
        (1, 2, 3): 1},
    5: {(): 1, (1,): 4, (2,): 9, (3,): 9, (4,): 4,
        (1, 2): 6, (1, 3): 16, (1, 4): 11, (2, 3): 11, (2, 4): 16, (3, 4): 6,
        (2, 3, 4): 4, (1, 3, 4): 9, (1, 2, 4): 9, (1, 2, 3): 4,
        (1, 2, 3, 4): 1},
}


def expansion_value(n, nus):
    total = Fraction(0)
    for subset, coeff in PAPER_D0[n].items():
        term = Fraction(coeff)
        for i in subset:
            term *= nus[i - 1]
        total += term
    return total


def test_d0_matches_expansions(rng):
    for n in range(2, 6):
        for _ in range(3):
            nus = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n - 1)]
            lam = [integer(1)] + [Scalar.of_fraction(1 / v) for v in nus] + [integer(1)]
            assert d0_determinant(n, lam) == Scalar.of_fraction(expansion_value(n, nus))


def test_d0_symbolic_small():
    # n = 2: 1 + nu_1 with nu_1 = lambda_0/lambda_1
    lam = [integer(1), rational(1, 3), integer(1)]
    assert d0_determinant(2, lam) == integer(4)


def test_d0_starred_closed_forms_hold_up_to_n4():
    q = q_symbol()
    one = Scalar.one(q.ctx)
    two_q = integer(2, q.ctx) * q
    res = d0_starred_check(3, (one, two_q, two_q.inverse(), one))
    assert res["match"] and res["branch"] == "principal"
    res = d0_starred_check(4, (one, two_q, one, two_q.inverse(), one))
    assert res["match"] and res["branch"] == "principal"
    res = d0_starred_check(4, (one, two_q, -one, two_q.inverse(), one))
    assert res["match"] and res["branch"] == "second" and res["direct"].is_zero()
    res = d0_starred_check(2, (one, -one, one))
    assert res["match"] and res["direct"].is_zero()


def test_d0_starred_n5_paper_defect_documented():
    # the n=5 closed form of the source is not an identity on the (*) family:
    # the direct minor is 135 at lambda = (1, 1/2, 1, 1, 2, 1), the closed form 132
    lam = tuple(Scalar.of_fraction(Fraction(v)) for v in
                (1, Fraction(1, 2), 1, 1, 2, 1))
    res = d0_starred_check(5, lam)
    assert res["direct"] == Scalar.of_fraction(135)
    assert res["closed"] == Scalar.of_fraction(132)
    assert not res["match"]
    # its zero set is still right: the zeta_5 catalog diagonal kills the minor
    z = zeta(5)
    assert d0_determinant(5, tuple(z ** k for k in range(6))).is_zero()


def test_d0_starred_rejects_unstarred():
    with pytest.raises(ConstraintViolated):
        d0_starred_check(3, (integer(1), integer(2), integer(3), integer(1)))
    with pytest.raises(ConstraintViolated):
        # (*) holds with c != lambda_0^2
        d0_starred_check(3, (integer(1), integer(2), rational(3, 2), integer(3)))


# --- eigenvectors and fixed vectors -----------------------------------------------------------

def test_eigenvector_closed_forms_alpha_minus_one():
    e0, f0 = eigenvector_closed_forms(integer(-1), 2)
    assert e0 == (rational(1, 4), rational(1, 2), integer(1))
    # e_0 lies in the (t, 1, 2) eigenvector family (scaled by 1/2)
    half = rational(1, 2)
    assert e0 == (half * half, half * integer(1), half * integer(2))


def test_eigenvector_closed_forms_alpha_two():
    e0, _ = eigenvector_closed_forms(integer(2), 3)
    assert e0 == (integer(-1), integer(1), integer(-1), integer(1))


def test_eigenvector_degenerate_alpha():
    with pytest.raises(AlphaDegenerate):
        eigenvector_closed_forms(integer(1), 2)
    with pytest.raises(AlphaDegenerate):
        eigenvector_closed_forms(integer(0), 2)


def test_fixed_vectors_from_the_source():
    rep = rep_q1([1, -1, 1])
    assert fixed_vector_check(rep, (integer(2), integer(1), integer(2))).passed
    rep4 = rep_q1([1, -1, 1, -1, 1])
    assert fixed_vector_check(
        rep4, tuple(integer(v) for v in (2, 1, 1, 1, 2))).passed
    rep3 = rep_q1([1, -1, 1, -1])
    assert fixed_vector_check(
        rep3, tuple(integer(v) for v in (0, 1, 1, 0))).passed
    assert not fixed_vector_check(
        rep, (integer(1), integer(0), integer(0))).passed


# --- root-of-unity reducibility ------------------------------------------------------------------

@pytest.mark.parametrize("n,s", [(2, 2), (3, 3), (4, 4)])
def test_root_of_unity_invariant_subspace(n, s):
    report = root_of_unity_reducibility(n, s)
    assert report.passed
    assert len(report.detail["basis"]) == n - 1


def test_root_of_unity_rejects_nonvanishing_point():
    with pytest.raises(NotAReduciblePoint):
        root_of_unity_reducibility(3, 2)


def test_root_of_unity_proper_divisor_reports_honestly():
    # (4)_q = 0 at q = -1, but the middle block is not invariant there
    report = root_of_unity_reducibility(4, 2)
    assert not report.passed


# --- size-2 subspace criterion ---------------------------------------------------------------------

def test_n1_subspace_examples():
    z6 = zeta(6)
    assert n1_subspace_test(Scalar.one(z6.ctx), z6).detail["verdict"] == "reducible"
    assert n1_subspace_test(integer(1), integer(1)).detail["verdict"] == "irreducible"
    assert n1_subspace_test(integer(1), integer(2)).detail["verdict"] == "irreducible"


def test_n1_size2_formulas_agree():
    # lambda_0/lambda_1 + lambda_1/lambda_0 - 1 = (alpha^2 - alpha + 1)/alpha,
    # alpha = lambda_1/lambda_0, so the two vanish together; zeta6 and its
    # conjugate zeta6^5 are the roots
    z6 = zeta(6)
    ctx = z6.ctx
    points = [integer(v).coerce(ctx) for v in (1, -1, 2, -3)] + [rational(1, 2).coerce(ctx)]
    points += [z6, z6 ** 5, z6 ** 2, z6 * integer(3, ctx), zeta(3).coerce(ctx)]
    one = Scalar.one(ctx)
    roots = 0
    for lam0 in points:
        for lam1 in points:
            alpha = lam1 / lam0
            first = (alpha * alpha - alpha + one).is_zero()
            second = (lam0 / lam1 + lam1 / lam0 - one).is_zero()
            assert first == second, (str(lam0), str(lam1))
            assert (n1_subspace_test(lam0, lam1).detail["verdict"] == "reducible") == first
            roots += first
    assert roots > 0


# --- intertwiners ----------------------------------------------------------------------------------

def test_intertwiner_self_contains_identity():
    rep = rep_q1([1, 1, 1])
    res = intertwiner_space(rep, rep)
    assert res["dimension"] >= 1 and res["status"] == "equivalent"
    size = rep.n + 1
    rows = [[m[i, j] for i in range(size) for j in range(size)] for m in res["basis"]]
    eye = ExactMatrix.identity(size, rep.sigma1.ctx)
    rows.append([eye[i, j] for i in range(size) for j in range(size)])
    assert ExactMatrix.from_rows(rows).rank() == res["dimension"]


def test_intertwiner_tw3_conjugator():
    from qbraid.qcomb import QContext
    from qbraid.structure import TWParams, tw_matrices
    lam = (integer(1), integer(2), integer(4))
    q = lam[0] * lam[2] / (lam[1] * lam[1])
    tw1, tw2 = tw_matrices(TWParams(3, lam))
    shim = PairShim(2, tw1, tw2)
    ours = build_representation(raw_spec(2, QContext(q), lam))
    res = intertwiner_space(shim, ours)
    assert res["status"] == "equivalent"
    conj = ExactMatrix.diagonal([integer(1), integer(1), lam[2] / lam[1]])
    assert tw1 * conj == conj * ours.sigma1
    assert tw2 * conj == conj * ours.sigma2
    size = 3
    rows = [[m[i, j] for i in range(size) for j in range(size)] for m in res["basis"]]
    rows.append([conj[i, j] for i in range(size) for j in range(size)])
    assert ExactMatrix.from_rows(rows).rank() == res["dimension"]


def test_intertwiner_distinct_q_is_zero():
    one = Scalar.one(QQ)
    rep1 = build_representation(factored_spec(2, concrete_q(integer(1)), (one,) * 3))
    rep2 = build_representation(factored_spec(2, concrete_q(integer(2)), (one,) * 3))
    res = intertwiner_space(rep1, rep2)
    assert res["dimension"] == 0 and res["status"] == "inequivalent"


def test_intertwiner_theorem5_samples():
    one = Scalar.one(QQ)
    # even case n = 2: distinct rational q are never equivalent
    for qa, qb in [(2, 3), (1, -1), (2, -2)]:
        ra = build_representation(factored_spec(2, concrete_q(integer(qa)), (one,) * 3))
        rb = build_representation(factored_spec(2, concrete_q(integer(qb)), (one,) * 3))
        assert intertwiner_space(ra, rb)["dimension"] == 0
    # odd case n = 3: q'/q not a square root of 1 forces dimension 0
    for qa, qb in [(2, 3), (2, 4)]:
        ra = build_representation(factored_spec(3, concrete_q(integer(qa)), (one,) * 4))
        rb = build_representation(factored_spec(3, concrete_q(integer(qb)), (one,) * 4))
        assert intertwiner_space(ra, rb)["dimension"] == 0


# --- combined report --------------------------------------------------------------------------------

def test_analyze_verdicts():
    assert analyze(rep_q1([1, 1, 1])).verdict == "operator-irreducible"
    assert analyze(rep_q1([1, -1, 1])).verdict == "operator-reducible"
    z6 = zeta(6)
    rep = rep_q1([Scalar.one(z6.ctx), z6])
    report = analyze(rep)
    assert report.verdict == "subspace-reducible-witnessed"
    assert report.commutant_dim == 1 and report.burnside_dim == 3


def test_minor_criterion_agrees_with_commutant_small(rng):
    # criterion/oracle consistency on a small sample (the acceptance suite runs
    # the full sweep): all-r witnesses iff commutant dimension 1
    points = [rep_q1([1, 1, 1]), rep_q1([1, -1, 1]), rep_q1([1, 2, 1, 2])]
    for _ in range(3):
        lam = random_factored_lambda(rng, 3, QQ)
        points.append(rep_q1(list(lam)))
    for rep in points:
        witnessed = all(minor_criterion(rep, r).witness is not None
                        for r in range(rep.n // 2 + 1))
        cdim, _ = commutant_dimension(rep)
        assert witnessed == (cdim == 1)
        # one Schur direction: a full generated algebra forces a scalar commutant
        if burnside_dimension(rep) == (rep.n + 1) ** 2:
            assert cdim == 1


def test_minor_criterion_degenerate_counterexample_is_pinned():
    # On the degenerate subfamily lambda ~ (l0, t, -t, t, t^2/l0) at size 5 the
    # displayed minor criterion has witnesses at every r while a non-scalar,
    # non-triangular operator still commutes with both generators: the
    # criterion is only generically equivalent to operator irreducibility.
    # The commutant oracle stays the ground truth for verdicts.
    rep = rep_q1([1, 2, -2, 2, 4])
    assert all(minor_criterion(rep, r).witness is not None for r in range(3))
    cdim, basis = commutant_dimension(rep)
    assert cdim == 2
    witness = next(m for m in basis if not m.is_upper_triangular())
    assert witness * rep.sigma1 == rep.sigma1 * witness
    assert witness * rep.sigma2 == rep.sigma2 * witness
    assert analyze(rep).verdict == "operator-reducible"


# --- mod-p certificates ----------------------------------------------------------------------

def reps_under_test():
    """The representations with n <= 4 that this file and the acceptance suite
    build, plus a seeded sample of the acceptance suite's random points."""
    one = Scalar.one(QQ)
    sym = symbolic_q()
    one_sym = Scalar.one(sym.q.ctx)
    z6 = zeta(6)
    reps = [rep_q1(v) for v in ([1], [1, 1], [1, 1, 1], [1, -1, 1], [1, 2, 1, 2], [1, 1, 1, 1],
                                [1, -1, 1, -1], [1, -1, 1, -1, 1], [1, 1, 1, 1, 1],
                                [1, 2, -2, 2, 4])]
    reps.append(rep_q1([Scalar.one(z6.ctx), z6]))
    reps += [build_representation(factored_spec(2, concrete_q(integer(q)), (one,) * 3))
             for q in (-1, 2, 3, -2)]
    reps += [build_representation(factored_spec(3, concrete_q(integer(q)), (one,) * 4))
             for q in (2, 3, 4)]
    reps += [catalog_rep(e) for n in (2, 3, 4) for e in suspected_catalog(n)]
    for n, s in ((2, 2), (3, 3), (4, 4), (4, 2)):
        ctx = concrete_q(zeta(s))
        reps.append(build_representation(
            factored_spec(n, ctx, (Scalar.one(zeta(s).ctx),) * (n + 1))))
    rng = random.Random(20260808)
    for qctx in (sym, concrete_q(integer(2)), concrete_q(integer(1))):
        o = Scalar.one(qctx.q.ctx)
        for n in range(0, 5):
            reps.append(build_representation(factored_spec(n, qctx, (o,) * (n + 1))))
            if n <= (2 if qctx is sym else 4):
                reps.append(build_representation(factored_spec(
                    n, qctx, random_factored_lambda(rng, n, qctx.q.ctx))))
    reps.append(build_representation(factored_spec(2, sym, (one_sym, -one_sym, one_sym))))
    rng = random.Random(1111)
    for _ in range(8):
        n = rng.randint(2, 4)
        lam = random_factored_lambda(rng, n, QQ, wide=True)
        reps.append(build_representation(raw_spec(n, concrete_q(integer(1)), lam)))
    return reps


def intertwiner_pairs_under_test():
    from qbraid.structure import TWParams, tw_matrices
    one = Scalar.one(QQ)

    def ones(n, q):
        return build_representation(factored_spec(n, concrete_q(integer(q)), (one,) * (n + 1)))

    pairs = [(ones(2, a), ones(2, b)) for a, b in ((1, 2), (2, 3), (1, -1), (2, -2))]
    pairs += [(ones(3, a), ones(3, b)) for a, b in ((2, 3), (2, 4), (2, -2))]
    lam = (integer(1), integer(2), integer(4))
    tw1, tw2 = tw_matrices(TWParams(3, lam))
    ours = build_representation(raw_spec(2, QContext(lam[0] * lam[2] / (lam[1] * lam[1])), lam))
    pairs.append((PairShim(2, tw1, tw2), ours))
    rep = rep_q1([1, -1, 1])
    pairs.append((rep, rep_q1([1, -1, 1])))
    return pairs


def exact_route(monkeypatch):
    """Make the oracles skip the certificate, so they run the exact route."""
    monkeypatch.setattr(irred, "_CERTIFICATE_PAIRS", ())


def test_certified_and_exact_routes_agree(monkeypatch):
    reps = reps_under_test()
    certified = [(burnside_dimension(rep), commutant_dimension(rep), analyze(rep).to_payload())
                 for rep in reps]
    for rep, (bdim, (cdim, basis), _) in zip(reps, certified):
        assert bdim == _burnside_exact(rep)
        assert basis == _intertwiner_basis_exact(rep, rep) and cdim == len(basis)
        # the certified [I] is returned unchecked; it must intertwine
        for c in basis:
            assert c * rep.sigma1 == rep.sigma1 * c and c * rep.sigma2 == rep.sigma2 * c
    pairs = intertwiner_pairs_under_test()
    certified_pairs = [_intertwiner_basis(a, b) for a, b in pairs]
    for (a, b), basis in zip(pairs, certified_pairs):
        assert basis == _intertwiner_basis_exact(a, b)
        for c in basis:
            assert c * b.sigma1 == a.sigma1 * c and c * b.sigma2 == a.sigma2 * c
    exact_route(monkeypatch)
    assert [analyze(rep).to_payload() for rep in reps] == [c[2] for c in certified]
    verdicts = {c[2]["verdict"] for c in certified}
    assert verdicts == {"operator-irreducible", "operator-reducible",
                        "subspace-reducible-witnessed"}


def test_certificate_decides_irreducible_points_alone(monkeypatch):
    # At irreducible points over Q, Q(q) and Q(zeta_5) the certificates decide
    # both oracles, and the exact commutant basis there is exactly [I].
    one = Scalar.one(QQ)
    z5 = zeta(5)
    sym = symbolic_q()
    reps = [build_representation(factored_spec(3, concrete_q(integer(2)), (one,) * 4)),
            build_representation(factored_spec(2, sym, (Scalar.one(sym.q.ctx),) * 3)),
            build_representation(factored_spec(3, concrete_q(z5), (Scalar.one(z5.ctx),) * 4))]
    for rep in reps:
        eye = ExactMatrix.identity(rep.n + 1, rep.sigma1.ctx)
        assert _intertwiner_basis_exact(rep, rep) == [eye]

    def refuse(*args):
        raise AssertionError("the exact route ran")

    monkeypatch.setattr(irred, "_burnside_exact", refuse)
    monkeypatch.setattr(irred, "_intertwiner_basis_exact", refuse)
    for rep in reps:
        eye = ExactMatrix.identity(rep.n + 1, rep.sigma1.ctx)
        assert commutant_dimension(rep) == (1, [eye])
        assert analyze(rep).verdict == "operator-irreducible"
        assert analyze(rep).burnside_dim == (rep.n + 1) ** 2
    a, b = (build_representation(factored_spec(2, concrete_q(integer(q)), (one,) * 3))
            for q in (1, 2))
    assert intertwiner_space(a, b)["status"] == "inequivalent"
    # Norton's test alone decides burnside_dimension and analyze: no word span
    # over matrices and no commutation system, only the spins of one vector each
    span_of_words = irred._span_of_words

    def vectors_only(seeds, *args):
        if not all(isinstance(x, int) for seed in seeds for x in seed):
            raise AssertionError("a word span ran")
        return span_of_words(seeds, *args)

    monkeypatch.setattr(irred, "_span_of_words", vectors_only)
    monkeypatch.setattr(irred, "_system_span", refuse)
    for rep in reps:
        assert burnside_dimension(rep) == (rep.n + 1) ** 2
        report = analyze(rep)
        assert report.verdict == "operator-irreducible"
        assert (report.commutant_dim, report.burnside_dim) == (1, (rep.n + 1) ** 2)


def pole_rep():
    # lambda' = (1, t, t^2) with t = 1/(q - 3): every pair with q0 = 3 is a pole
    sym = symbolic_q()
    q = sym.q
    t = (q - integer(3, q.ctx)).inverse()
    return build_representation(factored_spec(2, sym, (Scalar.one(q.ctx), t, t * t)))


P0 = _CERTIFICATE_PAIRS[0][1]


@pytest.mark.parametrize("make_rep,pairs", [
    (pole_rep, ((3, P0),)),
    (lambda: rep_q1([integer(1), rational(1, 7)]), ((2, 7),)),
    (lambda: rep_q1([integer(1), rational(1, 7), rational(1, 49)]), ((2, 7),)),
    # deficient images: q0 = 1 is the reducible point lambda = (1, -1, 1) of
    # the symbolic family, and mod 2 both images of the q = 1 point drop rank
    (lambda: build_representation(factored_spec(
        2, symbolic_q(), tuple(integer(v, q_symbol().ctx) for v in (1, -1, 1)))), ((1, P0),)),
    (lambda: rep_q1([1, 1, 1]), ((2, 2),)),
], ids=["pole", "denominator-1", "denominator-2", "deficient-symbolic", "deficient-mod-2"])
def test_bad_certificate_pairs_fall_back_to_the_exact_answer(monkeypatch, make_rep, pairs):
    rep = make_rep()
    exact_route(monkeypatch)
    expected = analyze(rep).to_payload(), commutant_dimension(rep)
    monkeypatch.setattr(irred, "_CERTIFICATE_PAIRS", pairs)
    assert (analyze(rep).to_payload(), commutant_dimension(rep)) == expected
    assert expected[0]["verdict"] == "operator-irreducible"


def test_first_pair_that_reduces_is_used(monkeypatch):
    # a pole at the first pair moves the certificate to the second, which
    # decides alone
    rep = pole_rep()
    monkeypatch.setattr(irred, "_CERTIFICATE_PAIRS", ((3, P0), _CERTIFICATE_PAIRS[0]))

    def refuse(*args):
        raise AssertionError("the exact route ran")

    monkeypatch.setattr(irred, "_burnside_exact", refuse)
    monkeypatch.setattr(irred, "_intertwiner_basis_exact", refuse)
    assert analyze(rep).verdict == "operator-irreducible"


def test_certificate_primes_and_roots():
    sympy = pytest.importorskip("sympy")
    assert len({p for _, p in _CERTIFICATE_PAIRS}) == len(_CERTIFICATE_PAIRS)
    for q0, p in _CERTIFICATE_PAIRS:
        assert sympy.isprime(p)
        assert p % 232792560 == 1
        assert sympy.n_order(q0, p) == p - 1
        for m in range(1, 21):
            root = root_of_unity_mod(m, p)
            assert sympy.n_order(root, p) == m, (m, p)
        assert root_of_unity_mod(23, p) is None


# --- the multi-modular intertwiner lift -----------------------------------------

LIFT_LAMBDA0 = (Fraction(2), Fraction(2, 3), Fraction(-3, 2))


def catalog_point(n, s, lam0, shift=0):
    """The q = 1 representation at lambda = lam0 diag(zeta_s^(k + shift))."""
    z = zeta(s)
    scale = rational(lam0.numerator, lam0.denominator, z.ctx)
    return rep_q1([scale * z ** (k + shift) for k in range(n + 1)])


def refuse_exact(monkeypatch):
    def refuse(*args):
        raise AssertionError("the exact route ran")

    monkeypatch.setattr(irred, "_intertwiner_basis_exact", refuse)


def lift_cases():
    cases = [(n, s, lam0) for n in (2, 3, 4, 5) for s in range(2, 7) for lam0 in LIFT_LAMBDA0]
    return cases + [(6, s, lam0) for s in range(2, 7) for lam0 in LIFT_LAMBDA0[:2]]


def test_lifted_commutant_bases_match_the_exact_route(monkeypatch):
    """At the root-of-unity catalog points, which the certificate leaves
    open, the lift alone gives the exact route's basis, element for element."""
    reps = [catalog_point(*case) for case in lift_cases()]
    exact = [_intertwiner_basis_exact(rep, rep) for rep in reps]
    refuse_exact(monkeypatch)
    dims = set()
    for case, rep, want in zip(lift_cases(), reps, exact):
        assert _intertwiner_basis(rep, rep) == want, case
        dims.add(len(want))
    assert {2, 3, 5, 9} <= dims


def test_lifted_intertwiners_between_distinct_points_match_the_exact_route(monkeypatch):
    """Pairs of distinct points over one field: lambda against lambda zeta_s
    and against -lambda; at least ten of the spaces have dimension 2 or
    more."""
    pairs = [(catalog_point(n, s, lam0), catalog_point(n, s, lam0 * sign, shift))
             for n in (3, 4, 6) for s in (2, 3, 4, 6) for lam0 in LIFT_LAMBDA0[:2]
             for sign, shift in ((1, 1), (-1, 0))]
    exact = [_intertwiner_basis_exact(a, b) for a, b in pairs]
    assert sum(len(basis) >= 2 for basis in exact) >= 10
    refuse_exact(monkeypatch)
    for (a, b), want in zip(pairs, exact):
        assert _intertwiner_basis(a, b) == want
        assert intertwiner_space(a, b)["basis"] == want


def spy(monkeypatch, name):
    """Record every result of irred.<name> in a list."""
    results, original = [], getattr(irred, name)

    def wrapper(*args):
        result = original(*args)
        results.append(result)
        return result

    monkeypatch.setattr(irred, name, wrapper)
    return results


@pytest.mark.parametrize("s", [2, 3, 4, 6])
def test_lift_falls_back_when_no_prime_reconstructs(monkeypatch, s):
    # mod 13 (1 mod 12) the reconstruction bound is 2, too small for the
    # basis, so the lift gives up and the exact route answers
    rep = catalog_point(6, s, Fraction(2, 3))
    want = _intertwiner_basis_exact(rep, rep)
    monkeypatch.setattr(irred, "_CERTIFICATE_PAIRS", ((2, 13),))
    lifts = spy(monkeypatch, "_reconstructed")
    fallbacks = spy(monkeypatch, "_intertwiner_basis_exact")
    assert _intertwiner_basis(rep, rep) == want
    assert lifts == [None] and fallbacks == [want]


@pytest.mark.parametrize("s", [3, 4])
def test_lift_combines_primes_by_crt(monkeypatch, s):
    # mod one prime near 2^10 the bound is 22, too small; CRT over two of
    # them reaches 717, enough for the basis
    rep = catalog_point(6, s, Fraction(2, 3))
    want = _intertwiner_basis_exact(rep, rep)
    monkeypatch.setattr(irred, "_CERTIFICATE_PAIRS", ((2, 1009), (2, 1021), (2, 1033)))
    lifts = spy(monkeypatch, "_reconstructed")
    refuse_exact(monkeypatch)
    assert _intertwiner_basis(rep, rep) == want
    assert lifts == [None, want]


@pytest.mark.parametrize("s,step,small", [(32, 8, 97), (25, 5, 101)])
def test_lift_skips_primes_without_the_roots_of_unity(monkeypatch, s, step, small):
    """Over Q(zeta_32) or Q(zeta_25), at the zeta_4 or zeta_5 catalog point:
    mod the small prime (1 mod s) no basis reconstructs, and F_1009 has no
    primitive s-th root of unity, so the lift moves past it to the first
    certificate prime that has one, or the exact route answers."""
    z = zeta(s)
    rep = rep_q1([rational(2, 3, z.ctx) * z ** (step * k) for k in range(7)])
    want = _intertwiner_basis_exact(rep, rep)
    assert len(want) > 1
    later = next(pair for pair in _CERTIFICATE_PAIRS if (pair[1] - 1) % s == 0)
    monkeypatch.setattr(irred, "_CERTIFICATE_PAIRS", ((2, small), (2, 1009)))
    lifts = spy(monkeypatch, "_reconstructed")
    fallbacks = spy(monkeypatch, "_intertwiner_basis_exact")
    assert _intertwiner_basis(rep, rep) == want
    assert lifts == [None] and fallbacks == [want]
    monkeypatch.setattr(irred, "_CERTIFICATE_PAIRS", ((2, small), (2, 1009), later))
    lifts = spy(monkeypatch, "_reconstructed")
    refuse_exact(monkeypatch)
    assert _intertwiner_basis(rep, rep) == want
    assert lifts == [None, want]


def test_lift_from_a_bad_prime_is_rejected_by_the_check(monkeypatch):
    """lambda = (t^k) with t = p - 1 is the catalog point lambda = ((-1)^k)
    mod p, so the image at p has the catalog's pivots, not the exact ones.
    Its lift reconstructs but fails the check; the later primes, whose free
    columns differ from the first pass, are skipped, and the exact route
    gives [I]."""
    p = 10007
    rep = rep_q1([(p - 1) ** k for k in range(5)])
    eye = ExactMatrix.identity(5, QQ)
    assert _intertwiner_basis_exact(rep, rep) == [eye]
    monkeypatch.setattr(irred, "_CERTIFICATE_PAIRS", ((2, p),) + _CERTIFICATE_PAIRS)
    lifts = spy(monkeypatch, "_reconstructed")
    checks = spy(monkeypatch, "_intertwine")
    fallbacks = spy(monkeypatch, "_intertwiner_basis_exact")
    assert _intertwiner_basis(rep, rep) == [eye]
    assert len(lifts) == 1 and len(lifts[0]) == 5
    assert False in checks and fallbacks == [[eye]]


TW_Q_VALUES = ["1", "-1", "2", "1/3", "-8", "zeta(3)", "zeta(4)", "zeta(6)"]


def tw_irreducible(lam):
    """Tuba-Wenzl: in dimension 2, irreducible iff l0^2 - l0 l1 + l1^2 != 0;
    in dimension 3, iff li^2 + lj lk != 0 for each i."""
    if len(lam) == 2:
        l0, l1 = lam
        return not (l0 * l0 - l0 * l1 + l1 * l1).is_zero()
    return all(not (lam[i] * lam[i] + lam[j] * lam[k]).is_zero()
               for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)))


def tuba_wenzl_reps():
    """Dimensions 2 and 3 over Q(zeta_6) at each q of TW_Q_VALUES, with
    lambda = (1, t) and (1, t, t^2) for t among units, roots of unity and q."""
    reps = []
    for q_text in TW_Q_VALUES:
        q = parse_scalar(q_text)
        ctx = join_context(q.ctx, zeta(6).ctx)
        qc = QContext(q.coerce(ctx))
        one = Scalar.one(ctx)
        ts = [one, -one, integer(2, ctx), integer(-4, ctx), rational(1, 2, ctx),
              zeta(3).coerce(ctx), zeta(6).coerce(ctx), -zeta(3).coerce(ctx), qc.q]
        reps += [build_representation(raw_spec(1, qc, (one, t))) for t in ts]
        reps += [build_representation(factored_spec(2, qc, (one, t, t * t))) for t in ts]
    return reps


def test_oracles_match_tuba_wenzl_in_dimensions_2_and_3():
    outcomes = set()
    for rep in tuba_wenzl_reps():
        irreducible = tw_irreducible(rep.lam_raw)
        report = analyze(rep)
        assert (report.burnside_dim == (rep.n + 1) ** 2) == irreducible, \
            (str(rep.ctx.q), [str(v) for v in rep.lam_raw])
        assert (report.verdict == "operator-irreducible") == irreducible
        outcomes.add((rep.n, irreducible))
    assert outcomes == {(1, True), (1, False), (2, True), (2, False)}


# --- Norton's irreducibility test ------------------------------------------------

def norton_certifies(rep):
    """Norton's test at the first certificate pair where the generators reduce."""
    reduced = irred._reduced((rep.sigma1, rep.sigma2))
    return reduced is not None and irred._norton_certifies(*reduced[1:])


def acceptance_reps():
    """The representations with n <= 4 that the acceptance suite builds: the
    braid-relation family at symbolic q (of its 20 random diagonals per n,
    all for n <= 3 and the first 5 for n = 4, whose exact algebra spans over
    Q(q) take about 1.7 s each), the q = 1 triple-product and oracle families,
    the reducibility witnesses, the catalog and the random points of the
    minor-criterion check, and the intertwiner pair."""
    one = Scalar.one(QQ)
    sym = symbolic_q()
    q1 = concrete_q(integer(1))
    one_sym = Scalar.one(sym.q.ctx)
    reps = [build_representation(factored_spec(n, sym, (one_sym,) * (n + 1)))
            for n in range(1, 5)]
    rng = random.Random(101)
    for n in range(1, 5):
        for i in range(20):
            lam = random_factored_lambda(rng, n, sym.q.ctx)
            if n < 4 or i < 5:
                reps.append(build_representation(factored_spec(n, sym, lam)))
    reps += [build_representation(factored_spec(n, q1, (one,) * (n + 1))) for n in range(1, 5)]
    reps += [rep_q1([(-1) ** k for k in range(n + 1)]) for n in (2, 3, 4)]
    for n, s in ((2, 2), (3, 3), (4, 4)):
        z = zeta(s)
        reps.append(build_representation(
            factored_spec(n, concrete_q(z), (Scalar.one(z.ctx),) * (n + 1))))
    z6 = zeta(6)
    reps.append(rep_q1([Scalar.one(z6.ctx), z6]))
    reps += [catalog_rep(e) for n in (2, 3, 4) for e in suspected_catalog(n)]
    rng = random.Random(1111)
    for _ in range(50):
        n = rng.randint(2, 4)
        reps.append(build_representation(
            raw_spec(n, q1, random_factored_lambda(rng, n, QQ, wide=True))))
    reps.append(build_representation(factored_spec(2, concrete_q(integer(2)), (one,) * 3)))
    return reps


def deficient_reps():
    """Reducible or algebra-deficient points beyond the catalog: q = -1 at
    n = 4, q = zeta_5 at n = 6 (algebra dimension 31 of 49), and
    lambda = (1, zeta_6) at n = 1 over Q(zeta_6)(q)."""
    z5, z6 = zeta(5), zeta(6)
    qz6 = QContext(q_symbol().coerce(join_context(q_symbol().ctx, z6.ctx)))
    one_qz6 = Scalar.one(qz6.q.ctx)
    return [build_representation(factored_spec(4, concrete_q(integer(-1)), (Scalar.one(QQ),) * 5)),
            build_representation(factored_spec(6, concrete_q(z5), (Scalar.one(z5.ctx),) * 7)),
            build_representation(raw_spec(1, qz6, (one_qz6, z6.coerce(qz6.q.ctx))))]


@pytest.mark.parametrize("make_reps", [reps_under_test, acceptance_reps, tuba_wenzl_reps,
                                       deficient_reps])
def test_norton_certifies_exactly_the_absolutely_irreducible_points(make_reps):
    # Where Norton's test certifies, the exact algebra is full and the exact
    # commutant basis is [I]; at every deficient or reducible point it decides
    # nothing.  On these points it also certifies every full one.
    outcomes = set()
    for rep in make_reps():
        size = rep.n + 1
        full = (_burnside_exact(rep) == size * size and _intertwiner_basis_exact(rep, rep)
                == [ExactMatrix.identity(size, rep.sigma1.ctx)])
        assert norton_certifies(rep) == full, (rep.n, str(rep.ctx.q),
                                               [str(v) for v in rep.lam_raw])
        outcomes.add(full)
    assert outcomes == ({False} if make_reps is deficient_reps else {True, False})


P_SMALL = 101


@pytest.mark.parametrize("gens", [
    # sigma_1 = I has nullity 2 at mu = 1; with a symmetric sigma_2 both basis
    # vectors spin to everything, yet the algebra is 2-dimensional
    ([[1, 0], [0, 1]], [[1, 1], [1, 2]]),
    # U = <(1, -1)> is invariant and misses ker theta = <e_0> at mu = 2, so
    # v = e_0 spins to everything; w = (1, 1) spans the annihilator of U
    ([[2, 1], [0, 1]], [[2, 1], [P_SMALL - 1, 0]]),
    # sigma_2 = sigma_1 keeps the eigenvector v = e_0, so its spin stops at 1
    ([[1, 1], [0, 2]], [[1, 1], [0, 2]]),
], ids=["nullity-2", "short-transpose-spin", "short-spin"])
def test_norton_decides_nothing_on_reducible_images(gens):
    assert not irred._norton_certifies(P_SMALL, gens)


def test_norton_certifies_an_irreducible_image():
    # sigma_1 = [[1, 1], [0, 2]] with the lower triangular sigma_2 = sigma_1^T
    # has no common eigenvector, so F_p^2 is irreducible
    assert irred._norton_certifies(P_SMALL, ([[1, 1], [0, 2]], [[1, 0], [1, 2]]))


def word_span_mod_p(p, gens):
    """Reference for Norton's test: the dimension of the F_p span of the words
    in the generators reduced mod p, grown breadth-first from I and the
    generators (the algebra certificate that Norton's test replaced)."""
    size = len(gens[0])

    def mul(a, b):
        cols = list(zip(*b))
        return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]

    one = [[int(i == j) for j in range(size)] for i in range(size)]
    span = EchelonSpan(size * size, p)
    return irred._span_of_words((one, *gens), gens, mul,
                                lambda m: span.insert([x for row in m for x in row]), size * size)


def norton_grid():
    """n = 1..7 at q = 1, 2, -1, symbolic q and zeta_3..zeta_8, with
    lambda' = 1 and four seeded factored diagonals each, and the
    root-of-unity catalog points up to n = 7."""
    rng = random.Random(17)
    qctxs = [concrete_q(integer(v)) for v in (1, 2, -1)] + [symbolic_q()]
    qctxs += [concrete_q(zeta(m)) for m in range(3, 9)]
    reps = []
    for qctx in qctxs:
        one = Scalar.one(qctx.q.ctx)
        for n in range(1, 8):
            lams = [(one,) * (n + 1)] + [random_factored_lambda(rng, n, qctx.q.ctx)
                                         for _ in range(4)]
            reps += [build_representation(factored_spec(n, qctx, lam)) for lam in lams]
    return reps + [catalog_rep(e) for n in range(2, 8) for e in suspected_catalog(n)]


def test_norton_certifies_exactly_when_the_word_span_mod_p_is_full():
    outcomes = set()
    for rep in norton_grid():
        _, p, gens = irred._reduced((rep.sigma1, rep.sigma2))
        full = word_span_mod_p(p, gens) == (rep.n + 1) ** 2
        assert irred._norton_certifies(p, gens) == full, (rep.n, str(rep.ctx.q),
                                                          [str(v) for v in rep.lam_raw])
        outcomes.add(full)
    assert outcomes == {True, False}


# --- the half twist Delta = sigma_1 sigma_2 sigma_1 ------------------------------

def is_monomial(m):
    """At most one nonzero entry in every row and in every column, and one in
    each when m is invertible."""
    rows = [sum(not x.is_zero() for x in m.row(i)) for i in range(m.rows)]
    cols = [sum(not x.is_zero() for x in m.col(j)) for j in range(m.cols)]
    return set(rows) == set(cols) == {1}


def sign_pair():
    """lambda_0 = 2 against lambda_0 = -2 at the zeta_4 catalog point, n = 6:
    different reducible representations whose half twists differ by a sign."""
    return catalog_point(6, 4, Fraction(2)), catalog_point(6, 4, Fraction(-2))


def test_half_twist_routes_match_the_sigma2_reference():
    """The span and the intertwiner systems on (sigma_1, Delta) give what the
    (sigma_1, sigma_2) routes give, dimension for dimension and basis for
    basis, and Delta is monomial on every built representation."""
    reps = reps_under_test() + deficient_reps()
    pairs = intertwiner_pairs_under_test() + [sign_pair()]
    for rep in reps:
        assert _burnside_exact(rep) == burnside_exact_sigma2(rep), \
            (rep.n, str(rep.ctx.q), [str(v) for v in rep.lam_raw])
        want = intertwiner_basis_exact_sigma2(rep, rep)
        assert _intertwiner_basis_exact(rep, rep) == want
        assert _intertwiner_basis(rep, rep) == want
        assert is_monomial(irred._half_twist(rep))
    for a, b in pairs:
        want = intertwiner_basis_exact_sigma2(a, b)
        assert _intertwiner_basis_exact(a, b) == want
        assert _intertwiner_basis(a, b) == want
        for side in (a, b):
            assert _burnside_exact(side) == burnside_exact_sigma2(side)
    a, b = sign_pair()
    assert irred._half_twist(b) == -irred._half_twist(a)
    assert len(_intertwiner_basis(a, b)) == 2
    assert is_monomial(irred._half_twist(a))


def test_no_half_twist_where_a_certificate_decides(monkeypatch):
    """Norton-certified points and certified intertwiners ([I], or nullity 0
    mod p) form no exact Delta.  A reducible point forms one on first use,
    shares it between the algebra span and the check of its lifted
    commutant, and keeps it out of its equality, hash and repr."""
    def ones(n, q):
        return build_representation(factored_spec(n, QContext(q), (Scalar.one(q.ctx),) * (n + 1)))

    certified = [ones(3, integer(2)), ones(2, q_symbol()), ones(3, zeta(5)), ones(8, integer(2))]
    inequivalent = [(ones(n, integer(qa)), ones(n, integer(qb)))
                    for n, qa, qb in ((2, 1, 2), (3, 2, 3))]
    twists = spy(monkeypatch, "_half_twist")
    for rep in certified:
        assert analyze(rep).verdict == "operator-irreducible"
        assert commutant_dimension(rep)[0] == 1
        assert intertwiner_space(rep, rep)["status"] == "equivalent"
    for a, b in inequivalent:
        assert intertwiner_space(a, b)["status"] == "inequivalent"
    assert twists == []
    assert all(rep._half_twist is None for pair in inequivalent for rep in pair)
    rep = catalog_point(4, 3, Fraction(2))
    assert analyze(rep).commutant_dim > 1
    assert len(twists) >= 2 and all(t is twists[0] for t in twists)
    again = catalog_point(4, 3, Fraction(2))
    assert again._half_twist is None
    assert rep == again and hash(rep) == hash(again) and repr(rep) == repr(again)


def test_half_twist_mod_p_is_the_image_of_the_exact_half_twist():
    for rep in reps_under_test() + deficient_reps() + [catalog_point(6, 4, Fraction(2))]:
        index, p, (s1, s2) = irred._reduced((rep.sigma1, rep.sigma2))
        q0 = _CERTIFICATE_PAIRS[index][0]
        (delta,) = irred._images((irred._half_twist(rep),), p, q0)
        assert irred._half_twist_mod(s1, s2, p) == delta


def test_the_lift_check_needs_both_equations_in_every_block():
    """The exact check of a lifted basis rejects a matrix that commutes with
    sigma_1 but not with Delta, or with Delta but not with sigma_1, in any
    block of the stacked basis, and accepts the true intertwiners."""
    a, b = sign_pair()
    rep = catalog_point(4, 3, Fraction(2))
    eye = ExactMatrix.identity(rep.n + 1, rep.sigma1.ctx)
    delta = irred._half_twist(rep)
    assert irred._intertwine([eye], rep, rep)
    assert irred._intertwine(commutant_dimension(rep)[1], rep, rep)
    assert irred._intertwine(_intertwiner_basis(a, b), a, b)
    for bad in (rep.sigma1 * rep.sigma1, delta):
        assert not irred._intertwine([bad], rep, rep)
        assert not irred._intertwine([eye, bad], rep, rep)
        assert not irred._intertwine([bad, eye], rep, rep)
    # a's commutant does not intertwine a with b
    assert not irred._intertwine(_intertwiner_basis(a, a), a, b)


def test_half_twist_needs_an_upper_triangular_sigma1_with_a_nonzero_diagonal():
    rep = rep_q1([1, 2, 4])
    swapped = PairShim(2, rep.sigma2, rep.sigma1)
    zero_diagonal = PairShim(1, ExactMatrix.from_rows([[integer(0), integer(1)],
                                                       [integer(0), integer(1)]]),
                             ExactMatrix.identity(2, QQ))
    for shim in (swapped, zero_diagonal):
        with pytest.raises(ConstraintViolated):
            _burnside_exact(shim)
        with pytest.raises(ConstraintViolated):
            _intertwiner_basis_exact(shim, shim)


def test_the_exact_span_makes_one_product_per_queued_word_and_generator(monkeypatch):
    """Over Q and Q(zeta_m) `_burnside_exact` multiplies every queued word by
    sigma_1 and by Delta, in queue order, with one `ExactMatrix` product
    each, on integer rows: no word's entries are built, and the span takes
    every word's integer rows.  The dimension is the reference's."""
    points = [catalog_point(4, 3, Fraction(2)), catalog_point(5, 2, Fraction(-1, 2)),
              catalog_point(4, 4, Fraction(3)), deficient_reps()[1]]
    for rep in points:
        want = burnside_exact_sigma2(rep)
        delta = irred._half_twist(rep)
        calls, inserted, built = [], [], []
        product, insert = ExactMatrix.__mul__, EchelonSpan.insert_matrix
        scalar_rows = linalg._scalar_rows

        def spy_product(a, b):
            out = product(a, b)
            calls.append((a, b, out))
            return out

        def spy_insert(span, m):
            grew = insert(span, m)
            inserted.append((m, grew))
            return grew

        monkeypatch.setattr(ExactMatrix, "__mul__", spy_product)
        monkeypatch.setattr(EchelonSpan, "insert_matrix", spy_insert)
        monkeypatch.setattr(linalg, "_scalar_rows",
                            lambda *args: built.append(args) or scalar_rows(*args))
        try:
            got = _burnside_exact(rep)
        finally:
            monkeypatch.undo()
        assert got == want
        assert built == []
        queued = [m for m, grew in inserted if grew]
        assert len(queued) == got
        # the seeds I, sigma_1 and Delta, then every product in turn
        assert [m for m, _ in inserted[3:]] == [out for _, _, out in calls]
        sigma1, twist = (m for m, _ in inserted[1:3])
        assert sigma1 == rep.sigma1 and twist == delta
        assert len(calls) % 2 == 0
        for (a1, b1, _), (a2, b2, _) in zip(calls[::2], calls[1::2]):
            assert a1 is sigma1 and a2 is twist and b1 is b2
        assert [b for _, b, _ in calls[::2]] == queued[:len(calls) // 2]
        for _, _, out in calls:
            assert out._ints is not None and out._entries is None


def test_a_two_dimensional_space_without_an_invertible_element_is_inequivalent():
    """lambda_0 = 2 against lambda_0 = -2 at the zeta_4 catalog point: no
    probe is invertible, det(C_1 + t C_2) vanishes at t = 0..n+1, and the
    pair is inequivalent."""
    a, b = sign_pair()
    res = intertwiner_space(a, b)
    assert (res["dimension"], res["status"], res["invertible"]) == (2, "inequivalent", None)
    c1, c2 = res["basis"]
    ctx = a.sigma1.ctx
    assert all((c1 + c2.scale(integer(t, ctx))).determinant().is_zero() for t in range(-6, 7))


def test_a_two_dimensional_space_is_decided_by_n_plus_2_determinants(monkeypatch):
    """With a basis C_1 = diag(0, -1, -2, 1, 1), C_2 = diag(1, 1, 1, 1, 0),
    det(C_1 + t C_2) = t (t - 1) (t - 2) (t + 1) vanishes at every fixed
    probe (t = 0, 1, 2, -1, and C_2 alone), and t = 3 gives the witness.
    With a zero first row in every basis element no combination is
    invertible: three such elements stay undecided, and two are
    inequivalent."""
    rep = rep_q1([1, 1, 1, 1, 1])
    c1, c2 = (ExactMatrix.diagonal([integer(v) for v in d])
              for d in ((0, -1, -2, 1, 1), (1, 1, 1, 1, 0)))
    monkeypatch.setattr(irred, "_intertwiner_basis", lambda a, b: [c1, c2])
    res = intertwiner_space(rep, rep)
    assert res["status"] == "equivalent"
    assert res["invertible"] == c1 + c2.scale(integer(3))
    singular = [ExactMatrix.diagonal([integer(v) for v in d])
                for d in ((0, 1, 0, 1, 1), (0, 0, 1, 1, 2), (0, 1, 1, 0, 3))]
    monkeypatch.setattr(irred, "_intertwiner_basis", lambda a, b: singular)
    assert intertwiner_space(rep, rep)["status"] == "undecided"
    monkeypatch.setattr(irred, "_intertwiner_basis", lambda a, b: singular[:2])
    res = intertwiner_space(rep, rep)
    assert (res["status"], res["invertible"]) == ("inequivalent", None)
