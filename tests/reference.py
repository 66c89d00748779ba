"""Test-side definitions: reference oracles and checks of the paper's claims.

No command reaches these, so they live with the tests that call them.  The
reference oracles recompute by a slow, independent route what the program
computes fast (Leibniz determinants, path-sum inverses, the four braid
checks with every product formed, the series of the unipotent logarithm,
the expansion of the Gaussian product, the general Laurent and
rational-function products with no route for a unit factor, the algebra and
the intertwiners of (sigma_1, sigma_2) itself rather than of sigma_1 and the
half twist, the exhaustive minor search, and the lift's reconstruction and
check on Scalars rather than on integer rows).  The checks of
the paper's claims evaluate a closed form or a witness the paper states (the
starred d0 formula, the fixed vectors e_0 and f_0, the root-of-unity and n = 1
subspaces) and return what they found, for the acceptance suite to assert.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, permutations
from math import factorial
from math import lcm

from qbraid.errors import (
    AlphaDegenerate,
    ConstraintViolated,
    NonSquare,
    NotAReduciblePoint,
    NotUnitUpperTriangular,
    ShapeMismatch,
    SingularDiagonal,
)
from qbraid import irred
from qbraid.irred import (
    MinorOutcome,
    _as_matrix,
    _criterion_matrix_raw,
    _intertwiner_system,
    _span_of_words,
    burnside_dimension,
)
from qbraid.linalg import EchelonSpan, ExactMatrix, compare_all, leading_one
from qbraid.qcomb import QContext, concrete_q, q_int, q_tri
from qbraid.rep import (
    BraidReport,
    build_representation,
    factored_spec,
    lambda_canonical,
    raw_spec,
    s_matrix,
    sigma1_inverse_closed,
    sigma1_matrix,
    sigma2_inverse_closed,
    sigma2_matrix,
)
from qbraid.scalar import (
    Cyclotomic,
    LaurentPoly,
    RatFunc,
    Scalar,
    _check_degree,
    _int_mul,
    _laurent,
    _zeta_pack,
    _zeta_unpack,
    euler_phi,
    rational_reconstruction,
    zeta,
)
from qbraid.structure import q_exp_nilpotent, t_matrix


# ---------------------------------------------------------------------------
# Reference oracles.
# ---------------------------------------------------------------------------

def transpose_t(a):
    """The ordinary transpose."""
    return ExactMatrix.from_fn(a.cols, a.rows, a.ctx, lambda i, j: a[j, i])


def generalized_charpoly(c, lam):
    """det(C + sum_k lam_k E_kk)."""
    if not c.is_square():
        raise NonSquare("generalized characteristic polynomial needs a square matrix")
    m = c.rows
    if len(lam) != m:
        raise ShapeMismatch("diagonal shift length must match the matrix size")
    shifted = c + ExactMatrix.diagonal(list(lam)) if m else c
    return shifted.determinant()


def superdiagonal_component(a, k):
    """The k-th diagonal component A_k of the decomposition A = sum_r A_r."""
    if not a.is_square():
        raise NonSquare("diagonal decomposition needs a square matrix")
    zero = Scalar.zero(a.ctx)
    return ExactMatrix.from_fn(a.rows, a.cols, a.ctx,
                               lambda i, j: a[i, j] if j - i == k else zero)


def det_by_permutations(a):
    """Brute-force Leibniz determinant (test oracle; factorial cost)."""
    if not a.is_square():
        raise NonSquare("determinant needs a square matrix")
    n = a.rows
    total = Scalar.zero(a.ctx)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if not seen[i]:
                j, length = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        term = a[0, perm[0]] if n else Scalar.one(a.ctx)
        for i in range(1, n):
            term = term * a[i, perm[i]]
        total = (total + term) if sign > 0 else (total - term)
    return total


def unipotent_inverse(x):
    """Inverse of a unit upper-triangular matrix by the alternating path-sum:
    entry (k,m) sums (-1)^t x_(k,i1) x_(i1,i2) ... x_(i_(t-1),m) over strictly
    increasing paths k < i1 < ... < m."""
    if not x.is_unit_upper_triangular():
        raise NotUnitUpperTriangular("path-sum inverse needs a unit upper-triangular matrix")
    n = x.rows
    ctx = x.ctx
    zero, one = Scalar.zero(ctx), Scalar.one(ctx)
    inv = [[zero] * n for _ in range(n)]
    for k in range(n):
        inv[k][k] = one
        for m in range(k + 1, n):
            acc = zero
            inner = range(k + 1, m)
            for t in range(m - k):
                for mid in combinations(inner, t):
                    path = (k,) + mid + (m,)
                    prod = one
                    for a, b in zip(path, path[1:]):
                        prod = prod * x[a, b]
                    acc = acc - prod if t % 2 == 0 else acc + prod
            inv[k][m] = acc
    return ExactMatrix.from_rows(inv)


def braid_report_by_separate_products(rep):
    """The reference `verify_braid`: the four checks of the bare route, each
    product formed on its own, both triple products s1 s2 s1 and s2 s1 s2
    left to right and the core sigma1(q) Lam(q) sigma2(q), with no half twist
    and no precondition."""
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


def laurent_mul_general(a, b):
    """The Laurent product with no route for a one-term factor: one
    `_int_mul`, over Q(zeta_m) at stride 2 phi(m) - 1 (`_zeta_pack`), as
    `LaurentPoly.__mul__` forms every product that has no unit factor."""
    if not a.coeffs or not b.coeffs:
        return LaurentPoly.zero(a.order)
    shift = a.shift + b.shift
    _check_degree(shift, shift + len(a.coeffs) + len(b.coeffs) - 2)
    if a.order == 1:
        return _laurent(1, shift, a.den * b.den, _int_mul(a.coeffs, b.coeffs))
    stride = 2 * euler_phi(a.order) - 1
    da, db = (lcm(*[c.den for c in p.coeffs]) for p in (a, b))
    prod = _int_mul(_zeta_pack(a.coeffs, stride, da), _zeta_pack(b.coeffs, stride, db))
    return _laurent(a.order, shift, 1, _zeta_unpack(prod, stride, a.order, da * db))


def ratfunc_mul_general(a, b):
    """The RatFunc product with no route for a unit factor: the Laurent
    product of two polynomials, otherwise `RatFunc.make` of the products of
    the numerators and of the denominators, all by `laurent_mul_general`."""
    if a.is_polynomial() and b.is_polynomial():
        return RatFunc.from_laurent(laurent_mul_general(a.num, b.num))
    return RatFunc.make(laurent_mul_general(a.num, b.num), laurent_mul_general(a.den, b.den))


def unipotent_log(u):
    """Nilpotent N with exp(N) = U, by the finite classical series
    sum (-1)^(r+1)/r (U-I)^r."""
    if not u.is_unit_upper_triangular():
        raise NotUnitUpperTriangular("log needs a unit upper-triangular matrix")
    n = u.rows
    x = u - ExactMatrix.identity(n, u.ctx)
    out = ExactMatrix.zeros(n, n, u.ctx)
    power = ExactMatrix.identity(n, u.ctx)
    for r in range(1, n):
        power = power * x
        term = power.scale(Scalar.of_fraction(Fraction(1, r), u.ctx))
        out = out + term if r % 2 else out - term
    return out


def q_pochhammer(a, n, ctx):
    """(a; q)_n = (1-a)(1-aq)...(1-aq^(n-1)); (a; q)_0 = 1."""
    if n < 0:
        raise ValueError("q-shifted factorials are defined for n >= 0")
    one = ctx.one()
    out = one
    power = one
    for _ in range(n):
        out = out * (one - a * power)
        power = power * ctx.q
    return out


def gauss_expand(k, ctx):
    """Coefficients of (1+x)(1+xq)...(1+xq^(k-1)) as a polynomial in x.

    Coefficient r equals q^(r(r-1)/2) C_k^r(q).
    """
    if k < 0:
        raise ValueError("defined for k >= 0")
    one = ctx.one()
    coeffs = [one]
    power = one
    for _ in range(k):
        nxt = coeffs + [ctx.zero()]
        for r in range(len(nxt) - 1, 0, -1):
            nxt[r] = nxt[r] + power * coeffs[r - 1]
        coeffs = nxt
        power = power * ctx.q
    return coeffs


def burnside_exact_sigma2(rep):
    """Reference for `irred._burnside_exact` on (sigma_1, sigma_2) themselves.

    The algebra dimension by exact span growth over the field of the
    generators, in the order of `_span_of_words`."""
    size = rep.n + 1
    gens = (rep.sigma1, rep.sigma2)
    span = EchelonSpan(size * size)
    return _span_of_words((ExactMatrix.identity(size, rep.sigma1.ctx), *gens),
                          gens, lambda a, b: a * b,
                          lambda m: span.insert([m[i, j].val for i in range(size)
                                                 for j in range(size)]),
                          size * size)


def intertwiner_basis_exact_sigma2(rep_a, rep_b):
    """Reference for `irred._intertwiner_basis_exact` on the system of
    (sigma_1, sigma_2) themselves.

    Exact basis of the intertwiners: the nullspace of the stacked system
    over the field, each basis vector read as a matrix.  Every element solves
    both equations by construction, so only the lifted basis is checked."""
    size = rep_a.n + 1
    pairs = tuple(([sa.row(i) for i in range(size)], [sb.row(i) for i in range(size)])
                  for sa, sb in ((rep_a.sigma1, rep_b.sigma1), (rep_a.sigma2, rep_b.sigma2)))
    rows = list(_intertwiner_system(pairs, size, Scalar.zero(rep_a.sigma1.ctx)))
    return [_as_matrix(vec, size) for vec in ExactMatrix.from_rows(rows).nullspace()]


def minor_criterion_search(rep, r):
    """Reference for `irred.minor_criterion`: the exhaustive lexicographic
    search, one minor per row subset until the first nonzero one, with no
    rank.  G_r is read through `irred.criterion_matrix` at call time, so a
    test that patches it patches both routes."""
    n = rep.n
    g = irred.criterion_matrix(rep, r)
    cols = list(range(r + 1, n + 1))
    witness = value = None
    for checked, rows in enumerate(combinations(range(n + 1), n - r), 1):
        m = g.minor(list(rows), cols)
        if checked == 1:
            distinguished = m
        if not m.is_zero():
            witness, value = rows, m
            break
    consistent = (distinguished.is_zero() and g[n, n].is_zero()) == (witness is None)
    return MinorOutcome(r, witness, None if value is None else str(value), checked, consistent)


def reconstructed_scalars(lifted, modulus, phi, ctx, size):
    """Reference for `irred._reconstructed` on Scalars: every coefficient
    reconstructed, each entry built as a Scalar, each vector scaled by the
    inverse of its first nonzero entry (`leading_one`) and read as a
    matrix."""
    coeffs = []
    for u in lifted:
        c = rational_reconstruction(u, modulus)
        if c is None:
            return None
        coeffs.append(c)
    if phi == 1:
        entries = [Scalar(ctx, c) for c in coeffs]
    else:
        entries = [Scalar(ctx, Cyclotomic(ctx.order, coeffs[i:i + phi]))
                   for i in range(0, len(coeffs), phi)]
    return [_as_matrix(leading_one(entries[t:t + size * size]), size)
            for t in range(0, len(entries), size * size)]


def intertwine_scalars(basis, rep_a, rep_b):
    """Reference for `irred._intertwine` on Scalars: the stacked basis built
    from the basis's entries, the products S^A [C_1 | ... | C_k] and
    [C_1; ...; C_k] S^B for S = sigma_1 and the half twist
    sigma_1 sigma_2 sigma_1, all held as Scalars, and each block compared
    entry by entry."""
    size, ctx = rep_a.n + 1, rep_a.sigma1.ctx
    wide = ExactMatrix(size, size * len(basis), ctx,
                       tuple(tuple(chain.from_iterable(c.row(i) for c in basis))
                             for i in range(size)))
    tall = ExactMatrix(size * len(basis), size, ctx,
                       tuple(c.row(i) for c in basis for i in range(size)))
    twists = [rep.sigma1 * rep.sigma2 * rep.sigma1 for rep in (rep_a, rep_b)]
    for sa, sb in ((rep_a.sigma1, rep_b.sigma1), twists):
        left, right = sa * wide, tall * sb
        if any(left.row(i)[t * size:(t + 1) * size] != right.row(t * size + i)
               for t in range(len(basis)) for i in range(size)):
            return False
    return True


# ---------------------------------------------------------------------------
# Checks of the paper's claims.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FMatrixSpec:
    """Parameters (r, n, q, lambda) of one shifted q-exponential matrix; lambda
    is the factored-form diagonal."""

    r: int
    n: int
    ctx: QContext
    lam: tuple

    def __post_init__(self):
        if not 0 <= self.r <= self.n // 2:
            raise ShapeMismatch("r must lie in 0..floor(n/2)")
        if len(self.lam) != self.n + 1:
            raise ShapeMismatch(f"lambda needs {self.n + 1} entries")
        if any(v.is_zero() for v in self.lam):
            raise SingularDiagonal("lambda entries must be nonzero")


def f_matrix(spec):
    """F_(r,n)(q,lambda) by the q-exponential route."""
    n, r, ctx = spec.n, spec.r, spec.ctx
    lam_sharp = [spec.lam[n - k] for k in range(n + 1)]
    d_diag = [q_tri(k, ctx) for k in range(n + 1)]
    scale = q_tri(n - r, ctx) * spec.lam[r]
    shift = ExactMatrix.diagonal(
        [scale / (d_diag[k] * lam_sharp[k]) for k in range(n + 1)])
    return q_exp_nilpotent(t_matrix(n, ctx), ctx) - shift


def catalog_rep(entry):
    """Build the q=1 representation at a catalog point."""
    ctx = entry.lam[0].ctx
    return build_representation(raw_spec(entry.n, concrete_q(Scalar.one(ctx)),
                                         entry.lam))


def d0_determinant(n, lam):
    """The distinguished r=0 minor of sigma_1(1,n) - lambda_0 Lambda^(-1):
    rows 0..n-1 against columns 1..n."""
    if n < 2:
        raise ShapeMismatch("defined for n >= 2")
    if len(lam) != n + 1 or any(v.is_zero() for v in lam):
        raise SingularDiagonal("lambda needs n+1 nonzero entries")
    ctx = concrete_q(Scalar.one(lam[0].ctx))
    g = _criterion_matrix_raw(n, ctx, list(lam), 0)
    return g.minor(list(range(n)), list(range(1, n + 1)))


def d0_starred_check(n, lam):
    """Compare the direct minor against the closed form
    (n-1)! lambda_0^(n-2) (sum_(k<n) lambda_k) / (prod_(0<k<n) lambda_k),
    valid under lambda_r lambda_(n-r) = c with lambda_0 = lambda_n; for n = 4
    the branch lambda_2 = -lambda_0 uses the two-term sum lambda_0 + lambda_2.
    """
    direct = d0_determinant(n, lam)
    c = lam[0] * lam[n]
    for r in range(n + 1):
        if lam[r] * lam[n - r] != c:
            raise ConstraintViolated(f"(*) fails at r={r}")
    if lam[0] != lam[n]:
        raise ConstraintViolated("starred closed form needs lambda_0 = lambda_n")
    ctx = lam[0].ctx
    branch = "principal"
    if n % 2 == 0 and lam[n // 2] == -lam[0]:
        if n == 2:
            pass  # principal formula already vanishes with lambda_1 = -lambda_0
        elif n == 4:
            branch = "second"
        else:
            raise ConstraintViolated(
                "second starred branch is only available for n = 4")
    coeff = Scalar.of_fraction(factorial(n - 1), ctx) * lam[0] ** (n - 2)
    denom = lam[1]
    for k in range(2, n):
        denom = denom * lam[k]
    if branch == "second":
        total = lam[0] + lam[2]
    else:
        total = lam[0]
        for k in range(1, n):
            total = total + lam[k]
    closed = coeff * total / denom
    return {"direct": direct, "closed": closed, "match": direct == closed,
            "branch": branch}


def eigenvector_closed_forms(alpha, n):
    """e_0(alpha) and f_0(alpha), the fixed vectors of sigma_1(1,n) Lambda(alpha)
    and Lambda^#(alpha) sigma_2(1,n) with Lambda(alpha) = diag(alpha^(n-k));
    verified by multiplication."""
    one = Scalar.one(alpha.ctx)
    if alpha.is_zero() or alpha == one:
        raise AlphaDegenerate("alpha must avoid 0 and 1")
    ctx = concrete_q(one)
    mu = (one - alpha).inverse()
    nu = one - alpha.inverse()
    e0 = tuple(mu ** (n - k) for k in range(n + 1))
    f0 = tuple(nu ** (n - k) for k in range(n + 1))
    lam = ExactMatrix.diagonal([alpha ** (n - k) for k in range(n + 1)])
    op1 = sigma1_matrix(n, ctx) * lam
    op2 = lam.sharp() * sigma2_matrix(n, ctx)
    if op1.apply(e0) != e0:
        raise AssertionError("e_0(alpha) is not fixed by sigma_1 Lambda(alpha)")
    if op2.apply(f0) != f0:
        raise AssertionError("f_0(alpha) is not fixed by Lambda^#(alpha) sigma_2")
    return e0, f0


@dataclass
class WitnessReport:
    name: str
    passed: bool
    detail: dict

    def to_payload(self):
        return {"name": self.name, "passed": self.passed, **self.detail}


def fixed_vector_check(rep, vec):
    """Check sigma_1 v = v and sigma_2 v = v exactly."""
    vec = tuple(vec)
    if len(vec) != rep.n + 1:
        raise ShapeMismatch("vector length mismatch")
    im1, im2 = rep.sigma1.apply(vec), rep.sigma2.apply(vec)
    ok1, ok2 = im1 == vec, im2 == vec
    return WitnessReport("fixed-vector", ok1 and ok2,
                         {"sigma1_fixes": ok1, "sigma2_fixes": ok2,
                          "vector": [str(v) for v in vec]})


def root_of_unity_reducibility(n, s):
    """At q = zeta_s with (n)_q = 0, exhibit the middle-coordinate subspace
    {(0, t_1, ..., t_(n-1), 0)} and verify its invariance under both dressed
    generators of the Lambda' = I family."""
    if s < 2:
        raise NotAReduciblePoint("s must be at least 2")
    q = zeta(s)
    ctx = concrete_q(q)
    if not q_int(n, ctx).is_zero():
        raise NotAReduciblePoint(f"(({n}))_q != 0 at q = zeta_{s}")
    one = Scalar.one(q.ctx)
    rep = build_representation(factored_spec(n, ctx, tuple(one for _ in range(n + 1))))
    zero = Scalar.zero(q.ctx)
    basis = []
    for k in range(1, n):
        v = [zero] * (n + 1)
        v[k] = one
        basis.append(tuple(v))
    invariant = True
    for v in basis:
        for image in (rep.sigma1.apply(v), rep.sigma2.apply(v)):
            if not (image[0].is_zero() and image[n].is_zero()):
                invariant = False
    return WitnessReport("root-of-unity-subspace", invariant,
                         {"n": n, "s": s, "invariant": invariant,
                          "basis": [[str(x) for x in v] for v in basis]})


def n1_subspace_test(lam0, lam1):
    """Size-2 subspace criterion: reducible iff alpha^2 - alpha + 1 = 0 for
    alpha = lambda_1/lambda_0 (equivalently lambda_0/lambda_1 +
    lambda_1/lambda_0 - 1 = 0, since that is (alpha^2 - alpha + 1)/alpha; the
    tests prove the two agree); cross-checked against the algebra dimension."""
    if lam0.is_zero() or lam1.is_zero():
        raise SingularDiagonal("parameters must be nonzero")
    one = Scalar.one(lam0.ctx)
    alpha = lam1 / lam0
    reducible = (alpha * alpha - alpha + one).is_zero()
    rep = build_representation(raw_spec(1, concrete_q(one), (lam0, lam1)))
    dim = burnside_dimension(rep)
    if (dim < 4) != reducible:
        raise AssertionError("algebra-dimension oracle disagrees with the criterion")
    return WitnessReport("n1-subspace", True,
                         {"verdict": "reducible" if reducible else "irreducible",
                          "burnside_dim": dim})
