"""Structural constructions around the representation family: the q-Pascal
triangle as a truncated q-exponential, symmetric powers of the SL(2,Z)
generators, the polynomial-space operators Phi(q)/Psi(q), and the explicit
size-2..5 normal forms with their diagonal conjugators.

The checks here compare two descriptions of one object and report the
result.  pas_exp_check compares the one exponential route, q_exp_nilpotent,
against the closed triangle at the given q and at q = 1, where (m)!_1 = m!
makes it the classical Pascal exponential.  tw_equivalence_check compares the
normal forms against the dressed generators through linalg.compare_all.
Phi(q) and Psi(q) are built by their matrix products only; the tests prove
that these agree with the operator action on monomials.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    ConstraintViolated,
    NotStrictlyUpperTriangular,
    QFactorialZero,
    UnsupportedDimension,
)
from .linalg import ExactMatrix, compare_all, first_mismatch
from .qcomb import QContext, concrete_q, q_factorial, q_int
from .records import FrozenRecord, Record
from .rep import d_matrix, sigma1_matrix, sigma2_matrix
from .scalar import QQ, Scalar, integer


def t_matrix(n, ctx):
    """T_(q) truncated to size n+1: sum over k of (k+1)_q E_(k,k+1)."""
    zero = ctx.zero()
    return ExactMatrix.from_fn(
        n + 1, n + 1, ctx.q.ctx,
        lambda i, j: q_int(i + 1, ctx) if j == i + 1 else zero)


def q_exp_nilpotent(t, ctx):
    """q-exponential sum of T^m / (m)!_q; the division must be exact in the field.

    At q = 1, (m)!_1 = m!, so this is the classical exponential series.
    Raises QFactorialZero when (m)!_q vanishes at a concrete root of unity while
    T^m is still nonzero, which is exactly where the series is undefined.
    """
    if not t.is_strictly_upper_triangular():
        raise NotStrictlyUpperTriangular("exp series needs a strictly upper-triangular matrix")
    n = t.rows
    out = ExactMatrix.identity(n, t.ctx)
    power = ExactMatrix.identity(n, t.ctx)
    for m in range(1, n):
        power = power * t
        fact = q_factorial(m, ctx)
        if fact.is_zero():
            if any(not power[i, j].is_zero() for i in range(n) for j in range(n)):
                raise QFactorialZero(f"({m})!_q = 0 with a nonzero T^{m}")
            break
        out = out + power.scale(fact.inverse())
    return out


class LemmaReport(Record):
    """Generic pass/fail report for one of the structural identities."""

    __slots__ = _fields = ("name", "n", "passed", "detail")

    def __init__(self, name, n, passed, detail):
        self._set(name, n, passed, detail)

    def to_payload(self):
        return {"name": self.name, "n": self.n, "passed": self.passed, **self.detail}


def pas_exp_check(n, ctx):
    """Truncated exponentials against the antidiagonal-reflected triangle:
    exp T_1 = sigma_1(1,n)^s over Q and exp_(q) T_(q) = sigma_1(q,n)^s at ctx."""
    classic = concrete_q(integer(1))
    lhs1 = q_exp_nilpotent(t_matrix(n, classic), classic)
    rhs1 = sigma1_matrix(n, classic).transpose_s()
    lhsq = q_exp_nilpotent(t_matrix(n, ctx), ctx)
    rhsq = sigma1_matrix(n, ctx).transpose_s()
    ok1, okq = lhs1 == rhs1, lhsq == rhsq
    return LemmaReport("pascal-exponential", n, ok1 and okq,
                       {"classical": ok1, "q_deformed": okq})


def symmetric_power(m2, n):
    """The (n+1)x(n+1) matrix of the n-th symmetric power of a 2x2 matrix, in the
    basis e_k^s = sum of all weight-k tensor words (so entries match the Pascal
    normalization exactly)."""
    if m2.rows != 2 or m2.cols != 2:
        raise UnsupportedDimension("symmetric power acts on 2x2 matrices")
    from math import comb
    a, b = m2[0, 0], m2[0, 1]
    c, d = m2[1, 0], m2[1, 1]
    ctx = m2.ctx
    zero = Scalar.zero(ctx)

    def column(k):
        # y-degree coefficient lists of (a x + c y)^(n-k) and (b x + d y)^k
        p1 = [Scalar.of_fraction(comb(n - k, i), ctx) * a ** (n - k - i) * c ** i
              for i in range(n - k + 1)]
        p2 = [Scalar.of_fraction(comb(k, j), ctx) * b ** (k - j) * d ** j
              for j in range(k + 1)]
        prod = [zero] * (n + 1)
        for i, p in enumerate(p1):
            for j, r in enumerate(p2):
                prod[i + j] = prod[i + j] + p * r
        denom = [Scalar.of_fraction(Fraction(comb(n, k), comb(n, r)), ctx)
                 for r in range(n + 1)]
        return [denom[r] * prod[r] for r in range(n + 1)]

    cols = [column(k) for k in range(n + 1)]
    return ExactMatrix.from_fn(n + 1, n + 1, ctx, lambda r, k: cols[k][r])


def ferrand_phi(n, ctx):
    """Phi_n(q) = D_n(q) sigma_1^s(q), the action X^k -> (1+X)^k_q on the
    monomial basis (the agreement of the two is proved in the tests)."""
    return d_matrix(n, ctx) * sigma1_matrix(n, ctx).transpose_s()


def ferrand_psi(n, ctx):
    """Psi_n(q) = sigma_2^s(q) D_n^s(q), the action
    X^k -> q_(n-k) (1-X)^(n-k)_(q^-1) X^k on the monomial basis (the agreement
    of the two is proved in the tests)."""
    return sigma2_matrix(n, ctx).transpose_s() * d_matrix(n, ctx).transpose_s()


def verify_braid_like(a, b):
    """Check ABA = BAB exactly; failure is reported, not raised."""
    lhs = a * b * a
    rhs = b * a * b
    ok = lhs == rhs
    return LemmaReport("braid-like", a.rows - 1, ok,
                       {} if ok else first_mismatch(lhs, rhs))


# ---------------------------------------------------------------------------
# Normal forms for sizes 2..5 and their explicit equivalences.
# ---------------------------------------------------------------------------

class TWParams(FrozenRecord):
    """Eigenvalue data (1-based, as in the source normal forms) for size n.

    n=4 needs the square root d of lambda_2 lambda_3 / (lambda_1 lambda_4)
    supplied explicitly; n=5 derives its fifth root internally as q*lambda_3
    and verifies it against the product of the eigenvalues.
    """

    __slots__ = _fields = ("n", "lam", "d")

    def __init__(self, n, lam, d=None):
        self._set(n, lam, d)
        if self.n not in (2, 3, 4, 5):
            raise UnsupportedDimension("normal forms exist for sizes 2..5 only")
        if len(self.lam) != self.n:
            raise ConstraintViolated(f"size {self.n} needs {self.n} eigenvalues")
        if any(v.is_zero() for v in self.lam):
            raise ConstraintViolated("eigenvalues must be nonzero")
        if self.n == 4 and self.d is None:
            raise ConstraintViolated("size 4 needs the square-root parameter d")
        if self.n == 4 and self.d.is_zero():
            raise ConstraintViolated("the square-root parameter d must be nonzero")


def _tw5_gamma(params):
    l1, l2, l3, l4, l5 = params.lam
    q = l2 * l4 / (l3 * l3)
    gamma = q * l3
    if gamma ** 5 != l1 * l2 * l3 * l4 * l5:
        raise ConstraintViolated(
            "gamma^5 != product of eigenvalues; size-5 parameters do not define "
            "exact gamma powers")
    return q, gamma


def tw_matrices(params):
    """The literal size-2..5 normal-form matrices.

    Returns (sigma1, sigma2); sigma2 is None for n=5, where the source gives no
    formula for it.
    """
    lam = params.lam
    ctx = lam[0].ctx
    zero = Scalar.zero(ctx)
    one = Scalar.one(ctx)
    if params.n == 2:
        l1, l2 = lam
        s1 = ExactMatrix.from_rows([[l1, l1], [zero, l2]])
        s2 = ExactMatrix.from_rows([[l2, zero], [-l2, l1]])
        return s1, s2
    if params.n == 3:
        l1, l2, l3 = lam
        mid = l1 * l3 / l2 + l2
        s1 = ExactMatrix.from_rows([
            [l1, mid, l2],
            [zero, l2, l2],
            [zero, zero, l3]])
        s2 = ExactMatrix.from_rows([
            [l3, zero, zero],
            [-l2, l2, zero],
            [l2, -mid, l1]])
        return s1, s2
    if params.n == 4:
        l1, l2, l3, l4 = lam
        d = params.d
        if d * d != l2 * l3 / (l1 * l4):
            raise ConstraintViolated("d^2 != lambda_2 lambda_3 / (lambda_1 lambda_4)")
        di = d.inverse()
        s1 = ExactMatrix.from_rows([
            [l1, (one + di + di * di) * l2, (one + di + di * di) * l3, l4],
            [zero, l2, (one + di) * l3, l4],
            [zero, zero, l3, l4],
            [zero, zero, zero, l4]])
        s2 = ExactMatrix.from_rows([
            [l4, zero, zero, zero],
            [-l3, l3, zero, zero],
            [d * l2, -(d + one) * l2, l2, zero],
            [-(d ** 3) * l1, (d ** 3 + d ** 2 + d) * l1, -(d ** 2 + d + one) * l1, l1]])
        return s1, s2
    l1, l2, l3, l4, l5 = lam
    _, g = _tw5_gamma(params)
    g2, g3 = g * g, g * g * g
    a15 = g3 / (l1 * l5)
    mid3 = g2 / l3 + l3 + g
    s1 = ExactMatrix.from_rows([
        [l1,
         (one + g2 / (l2 * l4)) * (l2 + g3 / (l3 * l4)),
         mid3 * (one + l1 * l5 / g2),
         (one + l2 * l4 / g2) * (l3 + g3 / (l2 * l4)),
         a15],
        [zero, l2, mid3, a15 + l3 + g, a15],
        [zero, zero, l3, a15 + l3, a15],
        [zero, zero, zero, l4, l4],
        [zero, zero, zero, zero, l5]])
    return s1, None


class TWEquivalenceReport(Record):
    __slots__ = _fields = ("n", "passed", "q", "conjugator", "checks", "first_failure")

    def __init__(self, n, passed, q, conjugator, checks, first_failure):
        self._set(n, passed, q, conjugator, checks, first_failure)

    def to_payload(self):
        out = {"n": self.n, "passed": self.passed, "q": self.q,
               "conjugator": self.conjugator, "checks": self.checks}
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        return out


def tw_equivalence_check(params):
    """Verify the explicit equivalence between the size-n normal form and the
    dressed triangle generators:

      n=2: Lambda^-1 sigma^lam Lambda = sigma^Lam with Lambda = diag(lam);
      n=3: sigma^lam = C sigma^Lam C^-1, C = diag(1, 1, lambda_3/lambda_2),
           q = lambda_1 lambda_3 / lambda_2^2;
      n=4: sigma^lam = sigma^Lam entrywise, q = d^-1;
      n=5: sigma_1^lam = C^-1 sigma_1^Lam C,
           C = diag(1, 1, 1, q^-1 lambda_3/lambda_4, q^-1 lambda_3/lambda_5),
           with q^-3 = lambda_2 lambda_4/(lambda_1 lambda_5) and
           q^-4 = lambda_3^2/(lambda_1 lambda_5) checked exactly.
    """
    from .rep import build_representation, raw_spec
    lam = params.lam
    ctx = lam[0].ctx
    one = Scalar.one(ctx)
    if params.n == 2:
        qc = QContext(one)  # degree-1 generators carry no q
        s1l, s2l = tw_matrices(params)
        rep = build_representation(raw_spec(1, qc, lam))
        lm = ExactMatrix.diagonal(list(lam))
        li = lm.inverse()
        named = (("sigma1", li * s1l * lm, rep.sigma1),
                 ("sigma2", li * s2l * lm, rep.sigma2))
        q = one
        conj = lm
    elif params.n == 3:
        l1, l2, l3 = lam
        q = l1 * l3 / (l2 * l2)
        qc = QContext(q)
        s1l, s2l = tw_matrices(params)
        rep = build_representation(raw_spec(2, qc, lam))
        conj = ExactMatrix.diagonal([one, one, l3 / l2])
        ci = conj.inverse()
        named = (("sigma1", s1l, conj * rep.sigma1 * ci),
                 ("sigma2", s2l, conj * rep.sigma2 * ci))
    elif params.n == 4:
        q = params.d.inverse()
        qc = QContext(q)
        s1l, s2l = tw_matrices(params)
        rep = build_representation(raw_spec(3, qc, lam))
        conj = ExactMatrix.identity(4, ctx)
        named = (("sigma1", s1l, rep.sigma1), ("sigma2", s2l, rep.sigma2))
    else:
        l1, l2, l3, l4, l5 = lam
        q, _ = _tw5_gamma(params)
        if q ** -3 != l2 * l4 / (l1 * l5):
            raise ConstraintViolated("q^-3 != lambda_2 lambda_4/(lambda_1 lambda_5)")
        if q ** -4 != l3 * l3 / (l1 * l5):
            raise ConstraintViolated("q^-4 != lambda_3^2/(lambda_1 lambda_5)")
        qc = QContext(q)
        s1l, _ = tw_matrices(params)
        rep = build_representation(raw_spec(4, qc, lam))
        qi = q.inverse()
        conj = ExactMatrix.diagonal([one, one, one, qi * l3 / l4, qi * l3 / l5])
        ci = conj.inverse()
        named = (("sigma1", s1l, ci * rep.sigma1 * conj),)
    checks, first = compare_all(named)
    return TWEquivalenceReport(params.n, first is None, str(q),
                               [str(conj[i, i]) for i in range(conj.rows)], checks, first)


# ---------------------------------------------------------------------------
# The SL(2,Z) projection.
# ---------------------------------------------------------------------------

_SL2_GENS = {
    "s1": ((1, 1), (0, 1)),
    "s2": ((1, 0), (-1, 1)),
    "s1i": ((1, -1), (0, 1)),
    "s2i": ((1, 0), (1, 1)),
}


def sl2_projection(word):
    """Image of a braid word under the projection to SL(2,Z).

    The word is a sequence over {'s1','s2','s1i','s2i'}; the result is an exact
    2x2 integer matrix of determinant 1.
    """
    out = ExactMatrix.identity(2, QQ)
    for token in word:
        gen = _SL2_GENS.get(token)
        if gen is None:
            raise ValueError(f"unknown generator {token!r}; use s1, s2, s1i, s2i")
        g = ExactMatrix.from_rows([[integer(v) for v in row] for row in gen])
        out = out * g
    return out
