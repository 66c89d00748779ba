"""Acceptance suite: every criterion at its stated scope, exact equality
throughout, one printed pass/fail line per criterion.

Criterion 12 is split: 12a covers the distinguished-minor expansions (sizes
2..5) and the starred closed forms where they are true (sizes 2..4, both size-4
branches); 12b asserts the size-5 starred closed form exactly as stated, which
fails on a documented defect of the source derivation (see the decisions
ledger) and is therefore marked strict-xfail: the assertion is unweakened and
the suite errors if it ever starts passing.
"""

import random
import time
from math import comb

import pytest

from qbraid.linalg import ExactMatrix
from qbraid.qcomb import concrete_q, symbolic_q, verify_identity
from qbraid.rep import (
    build_representation,
    factored_spec,
    raw_spec,
    s_matrix,
    sigma1_inverse_closed,
    sigma1_matrix,
    sigma2_inverse_closed,
    sigma2_matrix,
    verify_braid,
)
from qbraid.irred import (
    burnside_dimension,
    commutant_dimension,
    intertwiner_space,
    minor_criterion,
    suspected_catalog,
)
from qbraid.scalar import QQ, Scalar, integer, parse_scalar, q_symbol, zeta
from qbraid.structure import (
    TWParams,
    ferrand_phi,
    ferrand_psi,
    pas_exp_check,
    symmetric_power,
    tw_equivalence_check,
    verify_braid_like,
)

from conftest import rand_scalar, random_factored_lambda
from reference import (
    catalog_rep,
    d0_determinant,
    d0_starred_check,
    fixed_vector_check,
    root_of_unity_reducibility,
    unipotent_inverse,
)


def report(number, description, outcome="PASS"):
    print(f"[criterion {number}] {outcome} - {description}")


SYM = symbolic_q()
Q1 = concrete_q(integer(1))
ONE_SYM = Scalar.one(SYM.q.ctx)


def test_criterion_01_braid_relation():
    started = time.perf_counter()
    for n in range(1, 9):
        rep = build_representation(
            factored_spec(n, SYM, tuple(ONE_SYM for _ in range(n + 1))))
        assert verify_braid(rep).passed, f"braid identity failed at n={n}"
    rng = random.Random(101)
    for n in range(1, 6):
        for _ in range(20):
            lam = random_factored_lambda(rng, n, SYM.q.ctx)
            rep = build_representation(factored_spec(n, SYM, lam))
            assert verify_braid(rep).passed, f"braid failed at n={n}, lam={lam}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 exceeded its runtime budget: {elapsed:.1f}s"
    report(1, f"braid relation, n<=8 symbolic + 20 random factored per n<=5 "
              f"({elapsed:.1f}s)")


def test_criterion_02_classical_triple_product():
    one = Scalar.one(QQ)
    for n in range(1, 13):
        rep = build_representation(
            factored_spec(n, Q1, tuple(one for _ in range(n + 1))))
        triple = rep.sigma1 * rep.sigma2 * rep.sigma1
        for k in range(n + 1):
            for m in range(n + 1):
                want = integer((-1) ** k) if k + m == n else integer(0)
                assert triple[k, m] == want, (n, k, m)
    report(2, "q=1 triple product equals the alternating skew diagonal, n<=12")


def test_criterion_03_closed_inverses():
    for n in range(0, 9):
        ident = ExactMatrix.identity(n + 1, SYM.q.ctx)
        s1 = sigma1_matrix(n, SYM)
        s2 = sigma2_matrix(n, SYM)
        gj1 = s1.inverse()
        gj2 = s2.inverse()
        assert sigma1_inverse_closed(n, SYM) == gj1, n
        assert sigma2_inverse_closed(n, SYM) == gj2, n
        assert gj1 * s1 == ident and gj2 * s2 == ident
        assert unipotent_inverse(s1) == gj1, n
    report(3, "closed-form inverses equal Gauss-Jordan and the path-sum "
              "formula agrees, n<=8 symbolic")


def test_criterion_04_binomial_identities():
    for n in range(0, 11):
        assert verify_identity("bin1q", n, SYM).passed, n
        assert verify_identity("bin2q", n, SYM).passed, n
        assert verify_identity("qsymmetry", n, SYM).passed, n
        assert verify_identity("bin1", n, SYM).passed, n
        assert verify_identity("bin2", n, SYM).passed, n
    report(4, "Bin1[q], Bin2[q], q<->q^-1 symmetry for all instances n<=10, "
              "plus the classical q=1 reductions")


def test_criterion_05_pascal_exponential():
    for n in range(1, 9):
        rep = pas_exp_check(n, SYM)
        assert rep.passed, (n, rep.detail)
    report(5, "truncated exp and q-exp reproduce the reflected triangle, n<=8")


def test_criterion_06_symmetric_powers():
    g1 = ExactMatrix.from_rows([[integer(1), integer(1)], [integer(0), integer(1)]])
    g2 = ExactMatrix.from_rows([[integer(1), integer(0)], [integer(-1), integer(1)]])
    for n in range(1, 7):
        assert symmetric_power(g1, n) == sigma1_matrix(n, Q1), n
        assert symmetric_power(g2, n) == sigma2_matrix(n, Q1), n
    report(6, "n-th symmetric powers of the SL(2,Z) generators equal the "
              "Pascal generators, n<=6")


def test_criterion_07_ferrand_operators():
    for n in range(1, 7):
        phi = ferrand_phi(n, SYM)
        psi = ferrand_psi(n, SYM)
        assert verify_braid_like(phi, psi).passed, n
    golden_phi2 = [["1", "1", "1"], ["0", "1", "1+q"], ["0", "0", "q"]]
    golden_psi2 = [["q", "0", "0"], ["-1-q", "1", "0"], ["1", "-1", "1"]]
    golden_phi3 = [["1", "1", "1", "1"],
                   ["0", "1", "1+q", "1+q+q^2"],
                   ["0", "0", "q", "q+q^2+q^3"],
                   ["0", "0", "0", "q^3"]]
    golden_psi3 = [["q^3", "0", "0", "0"],
                   ["-q-q^2-q^3", "q", "0", "0"],
                   ["1+q+q^2", "-1-q", "1", "0"],
                   ["-1", "1", "-1", "1"]]
    assert ferrand_phi(2, SYM).to_strs() == golden_phi2
    assert ferrand_psi(2, SYM).to_strs() == golden_psi2
    assert ferrand_phi(3, SYM).to_strs() == golden_phi3
    assert ferrand_psi(3, SYM).to_strs() == golden_psi3
    report(7, "Phi(q), Psi(q) satisfy the braid-like relation n<=6 and match "
              "the size-2,3 displays entrywise")


def test_criterion_08_normal_form_equivalences():
    rng = random.Random(808)
    for _ in range(5):
        lam = tuple(rand_scalar(rng, nonzero=True) for _ in range(3))
        rep = tw_equivalence_check(TWParams(3, lam))
        assert rep.passed, lam
    for lam, d in ((("1", "2", "2", "4"), "1"), (("1", "4", "2", "2"), "2"),
                   (("9", "2", "2", "4"), "1/3")):
        params = TWParams(4, tuple(parse_scalar(v) for v in lam),
                          d=parse_scalar(d))
        assert tw_equivalence_check(params).passed, (lam, d)
    q = q_symbol()
    one = Scalar.one(q.ctx)
    rep = tw_equivalence_check(TWParams(5, (one, q ** -1, q ** -2, q ** -2, one)))
    assert rep.passed
    assert rep.conjugator == ["1", "1", "1", "q^-1", "q^-3"]
    report(8, "size-3 conjugator diag(1,1,l3/l2), size-4 entrywise equality, "
              "size-5 conjugator diag(1,1,1,q^-1,q^-3) at symbolic q")


def test_criterion_09_reducibility_witnesses():
    rep2 = build_representation(
        raw_spec(2, Q1, (integer(1), integer(-1), integer(1))))
    assert fixed_vector_check(rep2, (integer(2), integer(1), integer(2))).passed
    rep4 = build_representation(
        raw_spec(4, Q1, tuple(integer((-1) ** k) for k in range(5))))
    assert fixed_vector_check(rep4, tuple(integer(v) for v in (2, 1, 1, 1, 2))).passed
    rep3 = build_representation(
        raw_spec(3, Q1, tuple(integer((-1) ** k) for k in range(4))))
    assert fixed_vector_check(rep3, tuple(integer(v) for v in (0, 1, 1, 0))).passed
    cdim, basis = commutant_dimension(rep2)
    assert cdim >= 2
    witness = ExactMatrix.from_rows([[integer(v) for v in row]
                                     for row in [[0, -2, 2], [1, -3, 1], [2, -2, 0]]])
    rows = [[m[i, j] for i in range(3) for j in range(3)] for m in basis]
    rows.append([witness[i, j] for i in range(3) for j in range(3)])
    assert ExactMatrix.from_rows(rows).rank() == cdim
    for n, s in ((2, 2), (3, 3), (4, 4)):
        assert root_of_unity_reducibility(n, s).passed, (n, s)
    report(9, "fixed vectors (2,1,2)/(2,1,1,1,2)/(0,1,1,0), commutant >= 2 with "
              "the explicit commuting operator in span, invariant middle blocks "
              "at (2,-1), (3,zeta3), (4,i)")


def test_criterion_10_irreducibility_oracles():
    one = Scalar.one(QQ)
    for n in range(1, 7):
        rep = build_representation(
            factored_spec(n, Q1, tuple(one for _ in range(n + 1))))
        cdim, _ = commutant_dimension(rep)
        assert cdim == 1, n
        assert burnside_dimension(rep) == (n + 1) ** 2, n
    z6 = zeta(6)
    rep = build_representation(
        raw_spec(1, concrete_q(Scalar.one(z6.ctx)), (Scalar.one(z6.ctx), z6)))
    cdim, _ = commutant_dimension(rep)
    bdim = burnside_dimension(rep)
    assert cdim == 1 and bdim < 4
    report(10, f"commutant 1 and full algebra dimension at q=1, identity "
               f"diagonal, n<=6; the (1,zeta6) pair is operator irreducible "
               f"(commutant 1) yet algebra-deficient (dim {bdim} < 4)")


def test_criterion_11_minor_criterion_consistency():
    # random points are drawn from a wide rational space: the criterion/oracle
    # equivalence is a generic-position statement (a degenerate codimension-2
    # subfamily where it fails is pinned in test_irred.py and the notes)
    points = []
    for n in range(2, 5):
        for entry in suspected_catalog(n):
            points.append(catalog_rep(entry))
    rng = random.Random(1111)
    for _ in range(50):
        n = rng.randint(2, 4)
        lam = random_factored_lambda(rng, n, QQ, wide=True)
        points.append(build_representation(raw_spec(n, Q1, lam)))
    exhausted = 0   # points where some r exhausts its minors without a witness
    for rep in points:
        witnessed = all(minor_criterion(rep, r).witness is not None
                        for r in range(rep.n // 2 + 1))
        cdim, _ = commutant_dimension(rep)
        assert witnessed == (cdim == 1), \
            f"criterion/oracle disagreement at n={rep.n}, lam={[str(v) for v in rep.lam_raw]}"
        exhausted += not witnessed
    report(11, f"minor-criterion outcome agrees with the commutant oracle on "
               f"{len(points)} points (all catalog entries n<=4 plus 50 random "
               f"constraint-satisfying diagonals); {exhausted} exhaust some r, "
               f"each with commutant dimension > 1")


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


def test_criterion_12a_d0_determinants():
    from fractions import Fraction
    rng = random.Random(12)
    for n in range(2, 6):
        for _ in range(5):
            nus = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                   for _ in range(n - 1)]
            lam = [integer(1)] + [Scalar.of_fraction(1 / v) for v in nus] + [integer(1)]
            expect = Fraction(0)
            for subset, coeff in PAPER_D0[n].items():
                term = Fraction(coeff)
                for i in subset:
                    term *= nus[i - 1]
                expect += term
            assert d0_determinant(n, lam) == Scalar.of_fraction(expect), (n, nus)
    q = q_symbol()
    one = Scalar.one(q.ctx)
    two_q = integer(2, q.ctx) * q
    assert d0_starred_check(2, (one, -one, one))["match"]
    assert d0_starred_check(3, (one, two_q, two_q.inverse(), one))["match"]
    assert d0_starred_check(4, (one, two_q, one, two_q.inverse(), one))["match"]
    assert d0_starred_check(4, (one, two_q, -one, two_q.inverse(), one))["match"]
    report("12a", "distinguished-minor expansions match for sizes 2..5 and the "
                  "starred closed forms hold symbolically for sizes 2..4 "
                  "(both size-4 branches)")


@pytest.mark.xfail(strict=True,
                   reason="source defect: the size-5 starred closed form is not "
                          "an identity on the constraint family (direct minor "
                          "135 vs closed form 132 at lambda=(1,1/2,1,1,2,1); "
                          "see the decisions ledger)")
def test_criterion_12b_d0_starred_n5():
    from fractions import Fraction
    lam = tuple(Scalar.of_fraction(Fraction(v)) for v in
                (1, Fraction(1, 2), 1, 1, 2, 1))
    res = d0_starred_check(5, lam)
    if not res["match"]:
        report("12b", "size-5 starred closed form (documented source defect)",
               outcome="FAIL (expected)")
    assert res["match"], (str(res["direct"]), str(res["closed"]))


def test_criterion_13_intertwiner_solver():
    one = Scalar.one(QQ)
    rep1 = build_representation(factored_spec(2, Q1, (one, one, one)))
    rep2 = build_representation(
        factored_spec(2, concrete_q(integer(2)), (one, one, one)))
    res = intertwiner_space(rep1, rep2)
    assert res["dimension"] == 0 and res["status"] == "inequivalent"
    report(13, "no intertwiner between q=1 and q=2 at size 3 "
               "(even-case necessary condition)")
