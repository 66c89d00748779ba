"""Irreducibility and equivalence analysis for the dressed generator pairs.

The operator-irreducibility criterion tests, for each 0 <= r <= floor(n/2),
whether some (n-r)x(n-r) minor with fixed columns {r+1..n} of

    G_r = sigma_1(q,n) - q_(n-r) lambda_r (D_n^#(q) Lambda)^(-1)

is nonzero; G_r is the antidiagonal reflection of the shifted q-exponential

    F_(r,n)(q,lambda) = exp_(q)(sum (k+1)_q E_(k,k+1))
                        - q_(n-r) lambda_r (D_n(q) Lambda^#)^(-1),

and a test proves the two routes agree.  Two oracles accompany the
criterion: the commutant dimension (nullity of the stacked commutation system;
1 iff operator irreducible) and the dimension of the unital algebra generated
by the pair (full iff subspace irreducible over the algebraic closure).  Both
are ranks of linear systems, hence independent of field extension.

Each oracle tries a mod-p certificate before its exact route.  The generators
are reduced to F_p by the ring map `scalar.residue` at the first (q0, p) pair
of `_CERTIFICATE_PAIRS` where every entry reduces, and the rank is taken over
F_p.  Rank never rises under a ring map, so a full algebra image proves the
algebra full, and a zero (or, for a commutant, one-dimensional) nullity image
proves the exact nullity.  Any other image, or no pair that reduces, leaves
the answer to the exact route over the field, which is unchanged; reducibility
is never concluded from an image.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    AlphaDegenerate,
    ConstraintViolated,
    NotAReduciblePoint,
    ShapeMismatch,
    SingularDiagonal,
)
from .linalg import ExactMatrix, ModpSpan
from .qcomb import QContext, concrete_q, q_int, q_tri
from .rep import (
    build_representation,
    factored_spec,
    raw_spec,
    sigma1_matrix,
    sigma2_matrix,
)
from .scalar import Scalar, integer, residue, zeta
from .structure import q_exp_nilpotent, t_matrix


# ---------------------------------------------------------------------------
# The criterion matrices.
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


def _criterion_matrix_raw(n, ctx, lam_raw, r):
    # sigma_1(q,n) - lam_raw[r] * diag(lam_raw)^-1; eigenvalue-shifted generator
    shift = ExactMatrix.diagonal([lam_raw[r] / lam_raw[k] for k in range(n + 1)])
    return sigma1_matrix(n, ctx) - shift


def criterion_matrix(rep, r):
    """G_r for a built representation (the s-image of F_(r,n))."""
    return _criterion_matrix_raw(rep.n, rep.ctx, list(rep.lam_raw), r)


@dataclass
class MinorOutcome:
    r: int
    witness: tuple | None
    minor_value: str | None
    subsets_checked: int
    reduction_consistent: bool

    @property
    def exhausted(self):
        return self.witness is None

    def to_payload(self):
        out = {"r": self.r, "subsets_checked": self.subsets_checked,
               "reduction_consistent": self.reduction_consistent}
        if self.witness is None:
            out["exhausted"] = True
        else:
            out["witness"] = list(self.witness)
            out["minor"] = self.minor_value
        return out


def minor_criterion(rep, r):
    """Search row subsets of size n-r against columns {r+1..n} of G_r.

    Subsets are tried in lexicographic order, so the distinguished minor with
    rows {0..n-r-1} comes first and acts as the fast path; the full search
    decides exhaustion.  The two-minor reduction (distinguished minor and entry
    (n,n)) is evaluated alongside and reported for consistency.
    """
    n = rep.n
    if not 0 <= r <= n // 2:
        raise ShapeMismatch("r must lie in 0..floor(n/2)")
    g = criterion_matrix(rep, r)
    cols = list(range(r + 1, n + 1))
    witness = None
    value = None
    for checked, rows in enumerate(combinations(range(n + 1), n - r), 1):
        m = g.minor(list(rows), cols)
        if checked == 1:
            distinguished = m
        if not m.is_zero():
            witness, value = rows, m
            break
    corner = g[n, n]
    reduced_says_exhausted = distinguished.is_zero() and corner.is_zero()
    consistent = reduced_says_exhausted == (witness is None)
    return MinorOutcome(r, witness, None if value is None else str(value),
                        checked, consistent)


# ---------------------------------------------------------------------------
# Oracles: commutant and generated-algebra dimensions, certified mod p first.
# ---------------------------------------------------------------------------

# The (q0, p) pairs of the mod-p certificates, tried in order: the first pair
# at which every generator entry reduces (`residue`) is the one used.  Each p
# is a prime that is 1 modulo lcm(1..20) = 232792560, so Q(zeta_m) reduces for
# every m <= 20 (and every m dividing that lcm); each q0 is a primitive root
# mod p, so no q-integer (k)_q0 with 0 < k < p - 1 vanishes.  The later pairs
# serve where an entry has a pole at an earlier q0 or a denominator that an
# earlier p divides.
_CERTIFICATE_PAIRS = ((100008, 1862340481), (100005, 1163962801), (100002, 232792561))


def _reduced(matrices):
    """(p, images as lists of int rows) at the first certificate pair where
    every entry of every matrix reduces; None when no pair does."""
    for q0, p in _CERTIFICATE_PAIRS:
        images = []
        for m in matrices:
            image = [[residue(x, p, q0) for x in m.row(i)] for i in range(m.rows)]
            if any(None in row for row in image):
                break
            images.append(image)
        else:
            return p, images
    return None


def commutant_dimension(rep):
    """Dimension and basis of {A : A sigma_i = sigma_i A, i = 1, 2}.

    Dimension 1 means operator irreducible.  A basis from the exact route is
    re-verified to commute with both generators; the certified [I] is not,
    since I commutes with everything.
    """
    basis = _intertwiner_basis(rep, rep)
    return len(basis), basis


class _EchelonSpan:
    """Incremental exact span with echelon reduction (deterministic pivots).

    Each stored row keeps its support, the columns where it is nonzero, so
    reducing a vector and normalizing a new row touch only nonzero entries.
    """

    def __init__(self):
        self.rows = []   # list of (pivot index, vector, support) sorted by pivot
        self.dim = 0

    def reduce(self, vec):
        vec = list(vec)
        for pivot, row, support in self.rows:
            c = vec[pivot]
            if not c.is_zero():
                for k in support:
                    vec[k] = vec[k] - c * row[k]
        return vec

    def insert(self, vec):
        vec = self.reduce(vec)
        support = [k for k, x in enumerate(vec) if not x.is_zero()]
        if not support:
            return False
        inv = vec[support[0]].inverse()
        for k in support:
            vec[k] = inv * vec[k]
        self.rows.append((support[0], vec, support))
        self.rows.sort(key=lambda pr: pr[0])
        self.dim += 1
        return True


def _span_of_words(one, gens, mul, flat, span, full):
    """Grow `span` by the words in `gens` breadth-first (words explored in
    insertion order, left multiplication by each generator in turn) until it
    reaches dimension `full` or no word adds to it; returns its dimension."""
    queue = deque()
    for seed in (one, *gens):
        if span.insert(flat(seed)):
            queue.append(seed)
    while queue and span.dim < full:
        current = queue.popleft()
        for gen in gens:
            product = mul(gen, current)
            if span.insert(flat(product)):
                queue.append(product)
    return span.dim


def burnside_dimension(rep):
    """Dimension of the unital algebra generated by the two dressed generators.

    The certificate comes first: the span of the words in sigma_1 and sigma_2
    is grown mod p, at the first pair of `_CERTIFICATE_PAIRS` where both
    generators reduce.  Rank never rises under that ring map, so an image that
    reaches (n+1)^2 proves the algebra full.  Otherwise, or when no pair
    reduces, the exact span over the field decides (`_burnside_exact`); a
    deficient image never does.
    """
    size = rep.n + 1
    full = size * size
    reduced = _reduced((rep.sigma1, rep.sigma2))
    if reduced is not None:
        p, gens = reduced

        def mul(a, b):
            cols = list(zip(*b))
            return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]

        one = [[int(i == j) for j in range(size)] for i in range(size)]
        dim = _span_of_words(one, gens, mul, lambda m: [x for row in m for x in row],
                             ModpSpan(p, full), full)
        if dim == full:
            return full
    return _burnside_exact(rep)


def _burnside_exact(rep):
    """The algebra dimension by exact span growth over the field of the
    generators, in the order of `_span_of_words`."""
    size = rep.n + 1
    return _span_of_words(ExactMatrix.identity(size, rep.sigma1.ctx),
                          (rep.sigma1, rep.sigma2), lambda a, b: a * b,
                          lambda m: [m[i, j] for i in range(size) for j in range(size)],
                          _EchelonSpan(), size * size)


# ---------------------------------------------------------------------------
# Suspected-value catalog and reducibility witnesses.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuspectedCatalogEntry:
    """Lambda = lambda_0 diag(zeta_s^k) over Q(zeta_s), a candidate degenerate
    point of the q=1 family."""

    n: int
    s: int
    lam: tuple

    def to_payload(self):
        return {"n": self.n, "s": self.s, "lambda": [str(v) for v in self.lam],
                "field": self.lam[0].ctx.describe()}


def suspected_catalog(n, lam0=None):
    """All root-of-unity diagonals diag(zeta_s^k), 2 <= s <= n; lambda_0
    defaults to 1 in Q(zeta_s)."""
    if n < 2:
        raise ShapeMismatch("catalog starts at n = 2")
    entries = []
    for s in range(2, n + 1):
        z = zeta(s)
        ctx = z.ctx
        scale = Scalar.one(ctx) if lam0 is None else lam0.coerce(ctx)
        entries.append(SuspectedCatalogEntry(
            n, s, tuple(scale * z ** k for k in range(n + 1))))
    return entries


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
    from math import factorial
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


# ---------------------------------------------------------------------------
# Intertwiners and equivalence.
# ---------------------------------------------------------------------------

def _intertwiner_basis(rep_a, rep_b):
    """Exact basis of {C : sigma_i^A C = C sigma_i^B, i = 1, 2}.

    The certificate comes first: the stacked linear system in the entries of
    C is built from the generators reduced mod p (`_reduced`).  Its nullity
    mod p bounds the exact nullity from above, so nullity 0 gives the empty
    basis, and nullity 1 with sigma^A = sigma^B, where I is a solution, gives
    [I].  Every other case runs the exact solver (`_intertwiner_basis_exact`),
    the only route whose basis elements are re-verified against both equations.
    """
    size = rep_a.n + 1
    same = rep_a.sigma1 == rep_b.sigma1 and rep_a.sigma2 == rep_b.sigma2
    reduced = _reduced((rep_a.sigma1, rep_a.sigma2, rep_b.sigma1, rep_b.sigma2))
    if reduced is not None:
        p, images = reduced
        pairs = tuple(zip(images[:2], images[2:]))
        # I solves the system when sigma^A = sigma^B, so its rank is at most
        # size^2 - 1 there and the search stops on reaching that bound.
        target = size * size - same
        span = ModpSpan(p, size * size)
        for row in _intertwiner_system(pairs, size, 0):
            if span.insert(row) and span.dim == target:
                break
        if span.dim == size * size:
            return []
        if same and span.dim == target:
            return [ExactMatrix.identity(size, rep_a.sigma1.ctx)]
    return _intertwiner_basis_exact(rep_a, rep_b)


def _intertwiner_system(pairs, size, zero):
    """The rows of the stacked system S^A C - C S^B = 0 in the entries of C,
    C_(a,b) at column a*size + b, for each pair (S^A, S^B) of generator
    matrices given as row lists."""
    for sa, sb in pairs:
        for i in range(size):
            for j in range(size):
                row = [zero] * (size * size)
                for a in range(size):
                    # coefficient of C_(a,j) from (S^A C)_(i,j)
                    row[a * size + j] = row[a * size + j] + sa[i][a]
                for b in range(size):
                    # coefficient of C_(i,b) from (C S^B)_(i,j)
                    row[i * size + b] = row[i * size + b] - sb[b][j]
                yield row


def _checked_intertwiner(mat, rep_a, rep_b):
    """mat, once checked against both intertwining equations."""
    if mat * rep_b.sigma1 != rep_a.sigma1 * mat or mat * rep_b.sigma2 != rep_a.sigma2 * mat:
        raise AssertionError("intertwiner basis element fails its equations")
    return mat


def _intertwiner_basis_exact(rep_a, rep_b):
    """Exact basis of the intertwiners: the nullspace of the stacked system
    over the field, each basis vector rebuilt as a matrix and re-checked
    against both equations."""
    size = rep_a.n + 1
    pairs = tuple(([sa.row(i) for i in range(size)], [sb.row(i) for i in range(size)])
                  for sa, sb in ((rep_a.sigma1, rep_b.sigma1), (rep_a.sigma2, rep_b.sigma2)))
    rows = list(_intertwiner_system(pairs, size, Scalar.zero(rep_a.sigma1.ctx)))
    return [_checked_intertwiner(
                ExactMatrix.from_rows([[vec[i * size + j] for j in range(size)]
                                       for i in range(size)]), rep_a, rep_b)
            for vec in ExactMatrix.from_rows(rows).nullspace()]


def intertwiner_space(rep_a, rep_b):
    """Exact basis of {C : sigma_i^A C = C sigma_i^B}; equivalence holds iff the
    space contains an invertible element.

    Invertibility is probed on each basis element and then on a small
    deterministic family of rational combinations; when none of the tested
    combinations is invertible the result is reported as undecided rather than
    as a hard negative.
    """
    if rep_a.n != rep_b.n:
        raise ShapeMismatch("intertwiners need equal dimensions")
    if rep_a.sigma1.ctx != rep_b.sigma1.ctx:
        raise ShapeMismatch("intertwiners need one common field; coerce first")
    size = rep_a.n + 1
    basis = _intertwiner_basis(rep_a, rep_b)
    dim = len(basis)
    invertible = None
    if dim:
        ctx = rep_a.sigma1.ctx
        candidates = [tuple(1 if i == k else 0 for i in range(dim)) for k in range(dim)]
        candidates += [tuple(1 for _ in range(dim)),
                       tuple(i + 1 for i in range(dim)),
                       tuple((-1) ** i for i in range(dim)),
                       tuple(2 ** i for i in range(dim))]
        for coeffs in candidates:
            combo = ExactMatrix.zeros(size, size, ctx)
            for c, mat in zip(coeffs, basis):
                if c:
                    combo = combo + mat.scale(integer(c, ctx))
            if not combo.determinant().is_zero():
                invertible = combo
                break
    status = "inequivalent" if dim == 0 else (
        "equivalent" if invertible is not None else "undecided")
    return {"dimension": dim, "basis": basis, "invertible": invertible,
            "status": status}


# ---------------------------------------------------------------------------
# Combined report.
# ---------------------------------------------------------------------------

@dataclass
class IrreducibilityReport:
    n: int
    q: str
    lam: list
    per_r: list
    commutant_dim: int
    burnside_dim: int
    verdict: str

    def to_payload(self):
        return {"n": self.n, "q": self.q, "lambda": self.lam,
                "per_r": [o.to_payload() for o in self.per_r],
                "commutant_dim": self.commutant_dim,
                "burnside_dim": self.burnside_dim,
                "verdict": self.verdict}


def analyze(rep):
    """Run the minor criterion for every r with both oracles and classify.

    The two oracles decide the verdict: commutant dimension > 1 is
    operator-reducible; otherwise a deficient algebra dimension is
    subspace-reducible-witnessed (reducible over the closure even when operator
    irreducible); otherwise the commutant is the scalars (it always contains
    I) and the verdict is operator-irreducible.  The minor criterion is
    reported per r but does not decide the verdict: it is only generically
    equivalent to operator irreducibility.
    """
    n = rep.n
    per_r = [minor_criterion(rep, r) for r in range(n // 2 + 1)]
    cdim, _ = commutant_dimension(rep)
    bdim = burnside_dimension(rep)
    full = (n + 1) ** 2
    if cdim > 1:
        verdict = "operator-reducible"
    elif bdim < full:
        verdict = "subspace-reducible-witnessed"
    else:
        verdict = "operator-irreducible"
    return IrreducibilityReport(n, str(rep.ctx.q), [str(v) for v in rep.lam_raw],
                                per_r, cdim, bdim, verdict)
