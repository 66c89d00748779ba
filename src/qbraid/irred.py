"""Irreducibility and equivalence analysis for the dressed generator pairs.

The operator-irreducibility criterion tests, for each 0 <= r <= floor(n/2),
whether some (n-r)x(n-r) minor with fixed columns {r+1..n} of

    G_r = sigma_1(q,n) - q_(n-r) lambda_r (D_n^#(q) Lambda)^(-1)

is nonzero; G_r is the antidiagonal reflection of the shifted q-exponential

    F_(r,n)(q,lambda) = exp_(q)(sum (k+1)_q E_(k,k+1))
                        - q_(n-r) lambda_r (D_n(q) Lambda^#)^(-1),

and a test proves the two routes agree.  The distinguished minor, rows
{0..n-r-1}, comes first; when it is zero, one rank of the column block
decides whether every minor vanishes, and only a block of full rank is
searched further (`minor_criterion`).  Two oracles accompany the
criterion: the commutant dimension (nullity of the stacked commutation system;
1 iff operator irreducible) and the dimension of the unital algebra generated
by the pair (full iff subspace irreducible over the algebraic closure).  Both
are ranks of linear systems, hence independent of field extension.

Each oracle tries a mod-p certificate before its exact route.  The generators
are reduced to F_p by the ring map `scalar.residue` at the first (q0, p) pair
of `_CERTIFICATE_PAIRS` where every entry reduces.  Rank never rises under a
ring map, so an image can prove an exact value but never reducibility; any
other image, or no pair that reduces, leaves the answer to the exact route
over the field, which is unchanged.  The algebra's certificate is Norton's
irreducibility test from the MeatAxe (Parker 1984; Holt and Rees 1994;
`_norton_certifies`): one null vector of sigma_1 - mu I and one of its
transpose, spun under the generators and their transposes, reach n+1
dimensions only when the module mod p is absolutely irreducible, which
proves the algebra full from two spans of width n+1.  The intertwiner
certificate is the rank mod p of the stacked system: nullity 0, or 1 where
I is a solution, proves the exact basis.  `analyze` asks for the
commutant only below a full algebra, since the commutant of M_(n+1)(K) is
the scalars.

Over Q and Q(zeta_m) an intertwiner or commutant basis that the certificate
does not settle is lifted from F_p instead (multi-modular linear algebra with
rational reconstruction; Wang 1981, Monagan 2004): the nullspace mod p at
every conjugate root of unity and at each prime of the pairs in turn, CRT,
then rational reconstruction, and every lifted element is checked exactly
before it is returned.  The checked lift is the exact basis (see
`_intertwiner_basis`); when no prime gives one, the exact route decides.
The lift stays on ints: each reconstructed vector is scaled to a leading 1
on its power-basis ints and held as integer rows (`_reconstructed`), and
the check multiplies integer rows and compares them over their
denominators (`_intertwine`), so no entry is built until it is read.  Each
representation memoizes the images of sigma_1 and sigma_2 mod p per
(p, q0, k) (`_generator_images`), so the algebra's certificate, the
commutant's and the lift reduce each generator once per pair and
conjugate.  `linalg.EchelonSpan` is the one elimination routine: over F_p
for the certificates and the lift, and over the field for the exact
algebra dimension, the exact intertwiner solve and the rank of the minor
criterion; every minor is a fraction-free determinant (`linalg._bareiss`).

Where only the algebra of (sigma_1, sigma_2) or its intertwiners matter,
the routes use (sigma_1, Delta) instead, with the half twist
Delta = sigma_1 sigma_2 sigma_1 = lambda_0 lambda_n S(q) Lambda of the braid
relation: an antidiagonal, hence monomial, matrix where sigma_2 is dense
and triangular.  Over Q and Q(zeta_m) it is formed as (sigma_1 sigma_2)
times sigma_1 in integer-row form (`_sigma1_rows`), so it is born as
integer rows and every product with it on the right stays on them; over a
field with q every product with it scales and moves rows or columns
(`linalg`).  The two pairs generate the same algebra and have the same
intertwiners.  sigma_1 = sigma_1(q) Lambda is unit upper triangular times a
nonzero diagonal, so it is invertible and, by Cayley-Hamilton, sigma_1^-1 is
a polynomial in sigma_1; hence sigma_2 = sigma_1^-1 Delta sigma_1^-1 lies in
alg(sigma_1, Delta), which lies in alg(sigma_1, sigma_2).  If
sigma_1^A C = C sigma_1^B and Delta^A C = C Delta^B, then multiplying the
first by sigma_1^A^-1 on the left and by sigma_1^B^-1 on the right gives
sigma_1^A^-1 C = C sigma_1^B^-1, and so
sigma_2^A C = sigma_1^A^-1 Delta^A sigma_1^A^-1 C = C sigma_2^B; the
converse is immediate.  Both ranks and the reduced row echelon basis of the
one solution space are therefore unchanged, and so is every report.  The
exact Delta is formed once per representation, on first use, and only where
the exact word span, the exact intertwiner solve or the check of a lifted
basis needs it (`_half_twist`), which checks that sigma_1 is upper
triangular with a nonzero diagonal; the mod-p systems take Delta_p from the
reduced images (`_system_span`).  A certified point forms no exact Delta.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations, repeat
from math import comb
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from operator import mul

from .errors import ConstraintViolated, ShapeMismatch
from .linalg import EchelonSpan, ExactMatrix, _payload_ints, _rational_pivot, echelon
from .records import FrozenRecord, Record
from .rep import sigma1_matrix
from .scalar import (
    Scalar,
    conjugate_interpolation,
    integer,
    rational_reconstruction,
    residue,
    zeta,
)


# ---------------------------------------------------------------------------
# The criterion matrices.
# ---------------------------------------------------------------------------

def _criterion_matrix_raw(n, ctx, lam_raw, r):
    # sigma_1(q,n) - lam_raw[r] * diag(lam_raw)^-1, the eigenvalue-shifted
    # generator: only the diagonal moves
    sigma1 = sigma1_matrix(n, ctx)
    shift = [lam_raw[r] / lam_raw[k] for k in range(n + 1)]
    return ExactMatrix.from_fn(n + 1, n + 1, sigma1.ctx,
                               lambda i, j: sigma1[i, j] - shift[i] if i == j else sigma1[i, j])


def criterion_matrix(rep, r):
    """G_r for a built representation (the s-image of F_(r,n))."""
    return _criterion_matrix_raw(rep.n, rep.ctx, list(rep.lam_raw), r)


class MinorOutcome(Record):
    __slots__ = _fields = ("r", "witness", "minor_value", "subsets_checked",
                           "reduction_consistent")

    def __init__(self, r, witness, minor_value, subsets_checked, reduction_consistent):
        self._set(r, witness, minor_value, subsets_checked, reduction_consistent)

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
    rows {0..n-r-1} comes first and acts as the fast path.  When it is zero,
    one rank decides exhaustion: every (n-r)-minor of the column block
    G_r[:, r+1..n] vanishes exactly when its rank is below n-r, and then
    all C(n+1, n-r) subsets count as checked.  Otherwise some minor is
    nonzero, and the search resumes at the second subset to find the first.
    The two-minor reduction (distinguished minor and entry (n,n)) is
    evaluated alongside and reported for consistency.
    """
    n = rep.n
    if not 0 <= r <= n // 2:
        raise ShapeMismatch("r must lie in 0..floor(n/2)")
    g = criterion_matrix(rep, r)
    cols = list(range(r + 1, n + 1))
    subsets = combinations(range(n + 1), n - r)
    first = next(subsets)
    distinguished = g.minor(list(first), cols)
    witness, value, checked = None, None, 1
    if not distinguished.is_zero():
        witness, value = first, distinguished
    elif g.submatrix(range(n + 1), cols).rank() < n - r:
        checked = comb(n + 1, n - r)
    else:
        for checked, rows in enumerate(subsets, 2):
            m = g.minor(list(rows), cols)
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
# earlier p divides, and their primes extend the multi-modular intertwiner
# lift (`_lifted_basis`) to about 190 bits.
_CERTIFICATE_PAIRS = ((100008, 1862340481), (100005, 1163962801), (100002, 232792561),
                      (100002, 4655851201), (100003, 6285399121), (100005, 8613324721))


def _images(matrices, p, q0, k=1):
    """The matrices reduced mod p (`residue`, zeta -> r^k), as lists of int
    rows; None when some entry does not reduce."""
    images = []
    for m in matrices:
        image = [[residue(x, p, q0, k) for x in m.row(i)] for i in range(m.rows)]
        if any(None in row for row in image):
            return None
        images.append(image)
    return images


def _generator_images(reps, p, q0, k=1):
    """The generators sigma_1, sigma_2 of each representation of `reps`, in
    turn, reduced mod p with zeta -> r^k (`_images`); None when some entry
    does not reduce.  Each representation memoizes its pair of images, or
    None, per (p, q0, k) (its `_residues` slot), so that the certificates
    and the lift reduce each generator once per pair and conjugate, and
    the two sides of a commutant system share one reduction."""
    out = []
    for rep in reps:
        memo = getattr(rep, "_residues", None)
        if memo is None:
            memo = {}
            object.__setattr__(rep, "_residues", memo)
        key = (p, q0, k)
        if key not in memo:
            memo[key] = _images((rep.sigma1, rep.sigma2), p, q0, k)
        images = memo[key]
        if images is None:
            return None
        out += images
    return out


def _reduced(reps):
    """(index, p, images as lists of int rows) at the first certificate pair
    `_CERTIFICATE_PAIRS[index]` where both generators of every
    representation of `reps` reduce (`_generator_images`); None when no
    pair does."""
    for index, (q0, p) in enumerate(_CERTIFICATE_PAIRS):
        images = _generator_images(reps, p, q0)
        if images is not None:
            return index, p, images
    return None


def commutant_dimension(rep):
    """Dimension and basis of {A : A sigma_i = sigma_i A, i = 1, 2}.

    Dimension 1 means operator irreducible.  A lifted basis is checked to
    commute with sigma_1 and the half twist, hence with both generators; the
    certified [I] and the exact nullspace are not, since each commutes with
    both by construction.
    """
    basis = _intertwiner_basis(rep, rep)
    return len(basis), basis


def _span_of_words(seeds, gens, mul, insert, full):
    """Grow a span from `seeds` by left multiplication with the words in
    `gens`, breadth-first (elements explored in insertion order, each
    generator in turn), until it reaches dimension `full` or no product adds
    to it; returns its dimension.  `insert` puts an element into an empty
    span and says whether the span grew, so the dimension is the number of
    elements queued.  Seeded with the identity and the generators it spans
    their unital algebra (`_burnside_exact`); seeded with one vector, the
    smallest invariant subspace holding it, a spin (`_norton_certifies`)."""
    queue = deque(seed for seed in seeds if insert(seed))
    dim = len(queue)
    while queue and dim < full:
        current = queue.popleft()
        for gen in gens:
            product = mul(gen, current)
            if insert(product):
                queue.append(product)
                dim += 1
    return dim


def burnside_dimension(rep):
    """Dimension of the unital algebra generated by the two dressed generators.

    The certificate comes first: Norton's test (`_norton_certifies`) on the
    generators reduced at the first pair of `_CERTIFICATE_PAIRS` where both
    reduce.  When it certifies, the algebra mod p is all of M_(n+1)(F_p);
    rank never rises under that ring map, so the exact algebra is full too.
    Otherwise, or when no pair reduces, the exact span over the field decides
    (`_burnside_exact`); a test that certifies nothing never does.
    """
    reduced = _reduced((rep,))
    if reduced is not None and _norton_certifies(*reduced[1:]):
        return (rep.n + 1) ** 2
    return _burnside_exact(rep)


def _burnside_exact(rep):
    """The algebra dimension by exact span growth over the field, in the
    order of `_span_of_words`, of the words in sigma_1 and the half twist
    Delta (`_half_twist`), which generate the algebra of sigma_1 and sigma_2
    (see the module docstring).  Every queued element is multiplied by both,
    one `ExactMatrix` product each.

    Over Q and Q(zeta_m) the seeds I, sigma_1 and Delta are in integer-row
    form (`ExactMatrix.as_integer_rows`; sigma_1 and Delta are the
    representation's memos, `_sigma1_rows` and `_half_twist`), so every
    word is a product with an integer-row right factor and stays on
    integer rows, and the span takes each word's integer rows as they are
    (`EchelonSpan.insert_matrix`): no word's entries are built."""
    size = rep.n + 1
    gens = (_sigma1_rows(rep), _half_twist(rep))
    identity = ExactMatrix.identity(size, rep.sigma1.ctx).as_integer_rows()
    return _span_of_words((identity, *gens), gens, lambda a, b: a * b,
                          EchelonSpan(size * size).insert_matrix, size * size)


def _norton_certifies(p, gens):
    """Norton's irreducibility test (Parker 1984; Holt and Rees 1994) on the
    generators (sigma_1, sigma_2) reduced mod p, as lists of int rows: True
    when it proves F_p^(n+1) absolutely irreducible under them, so that they
    generate all of M_(n+1)(F_p) and commute only with the scalars; False
    decides nothing.

    sigma_1 is upper triangular, so its eigenvalues mod p are its diagonal
    residues.  At the first of them, in order, where theta = sigma_1 - mu I
    has nullity 1, take the null vector v of theta and w of theta^T, and spin
    v under (sigma_1, sigma_2) and w under their transposes
    (`_span_of_words`).  When both spins reach n+1 no proper submodule U
    exists: if U meets the line ker theta it holds v, and otherwise theta is
    invertible on U, so w lies in the annihilator of U, a proper subspace
    that the transposes keep.  Every endomorphism of the module commutes
    with theta, so it keeps the line ker theta and is a scalar c on v; minus
    c it kills the spin of v, which is everything, so the module is
    absolutely irreducible.  A short spin, or no mu of nullity 1, leaves
    the question to the exact route; it never makes the module reducible.

    The test is complete on the dressed generators wherever the superdiagonal
    entries (n-k)_q lambda_(k+1) of sigma_1 are units mod p: rows 0..n-1 and
    columns 1..n of theta are then triangular with a unit diagonal, so the
    first mu has nullity 1, and at nullity 1 an absolutely irreducible module
    spins v and w to everything.  It then certifies exactly when the words in
    the generators span all of M_(n+1)(F_p).
    """
    sigma1 = gens[0]
    size = len(sigma1)
    for mu in dict.fromkeys(sigma1[i][i] for i in range(size)):
        theta = [[(x - mu) % p if i == j else x for j, x in enumerate(row)]
                 for i, row in enumerate(sigma1)]
        span = echelon(theta, size, p)
        if span.dim == size - 1:
            break
    else:
        return False
    _, (v,) = span.nullspace()
    _, (w,) = echelon(list(zip(*theta)), size, p).nullspace()
    transposes = tuple(list(zip(*g)) for g in gens)

    def apply(m, vec):
        return [sum(x * y for x, y in zip(row, vec)) % p for row in m]

    return all(_span_of_words((seed,), mats, apply, EchelonSpan(size, p).insert, size) == size
               for seed, mats in ((v, gens), (w, transposes)))


# ---------------------------------------------------------------------------
# Suspected-value catalog.
# ---------------------------------------------------------------------------

class SuspectedCatalogEntry(FrozenRecord):
    """Lambda = lambda_0 diag(zeta_s^k) over Q(zeta_s), a candidate degenerate
    point of the q=1 family."""

    __slots__ = _fields = ("n", "s", "lam")

    def __init__(self, n, s, lam):
        self._set(n, s, lam)

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


# ---------------------------------------------------------------------------
# Intertwiners and equivalence.
# ---------------------------------------------------------------------------

def _sigma1_rows(rep):
    """sigma_1 of a representation in integer-row form over Q and Q(zeta_m)
    (`ExactMatrix.as_integer_rows`; sigma_1 itself over a field with q),
    formed on first use and memoized on it (the `_sigma1_rows` slot of
    `rep.Representation`, outside its fields).  It shares sigma_1's
    entries, and a product with it on the right takes the integer-row
    route."""
    rows = getattr(rep, "_sigma1_rows", None)
    if rows is None:
        rows = rep.sigma1.as_integer_rows()
        object.__setattr__(rep, "_sigma1_rows", rows)
    return rows


def _half_twist(rep):
    """The half twist Delta = (sigma_1 sigma_2) sigma_1 of a representation
    over its field, formed on first use and memoized on it (the
    `_half_twist` slot of `rep.Representation`, outside its fields).  The
    last factor is sigma_1 in integer-row form (`_sigma1_rows`), so over Q
    and Q(zeta_m) Delta is born in that form, as the exact word span and
    the check of a lifted basis take it.

    Raises `ConstraintViolated` unless sigma_1 is upper triangular with a
    nonzero diagonal: that makes sigma_1 invertible, which the equality of
    the algebras and of the intertwiners of (sigma_1, sigma_2) and
    (sigma_1, Delta) needs (see the module docstring).  Every built
    representation passes.
    """
    delta = getattr(rep, "_half_twist", None)
    if delta is None:
        if not rep.sigma1.is_invertible_upper_triangular():
            raise ConstraintViolated(
                "the half twist needs sigma_1 upper triangular with a nonzero diagonal")
        delta = rep.sigma1 * rep.sigma2 * _sigma1_rows(rep)
        object.__setattr__(rep, "_half_twist", delta)
    return delta


def _half_twist_mod(sigma1, sigma2, p):
    """Delta_p = (sigma_1 sigma_2) sigma_1 mod p from the generators reduced
    mod p, as lists of int rows: the image of the exact half twist, since
    the reduction is a ring map, formed without it."""
    def product(a, b):
        cols = list(zip(*b))
        return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]

    return product(product(sigma1, sigma2), sigma1)


def _intertwiner_basis(rep_a, rep_b):
    """Exact basis of {C : sigma_i^A C = C sigma_i^B, i = 1, 2}: the reduced
    row echelon nullspace basis of the stacked system in the entries of C
    (`_intertwiner_system`), each vector scaled to a leading 1 and read as a
    matrix.  Every system here is written for sigma_1 and the half twist
    Delta, which have the same intertwiners (see the module docstring).

    The certificate comes first: the system is built from the generators
    reduced mod p (`_reduced`, memoized on each side), with Delta_p their
    product mod p.  Its nullity mod p bounds the exact nullity from above,
    so nullity 0 gives the empty basis, and nullity 1 with sigma^A =
    sigma^B, where I is a solution, gives [I]; neither forms the exact
    Delta.

    Over Q and Q(zeta_m) the same image then starts a multi-modular lift
    (`_lifted_basis`): the nullspace basis mod p of the system at each prime
    of `_CERTIFICATE_PAIRS`, at every conjugate root of unity, is combined by
    CRT and rational reconstruction, and every lifted element is checked
    against the equations of sigma_1 and Delta (`_intertwine`).  Why the
    checked elements are the exact route's basis, so that every report is
    byte-identical:
    - they lie in the exact nullspace N, and each ends in a 1 at its own free
      column mod p with a 0 at the other free columns, so they are
      independent;
    - their number is the nullity mod p, which is at least dim N, so they are
      a basis of N;
    - a basis of N whose vectors end at distinct columns ends exactly at the
      free columns of N's reduced row echelon basis, and the vector of N with
      a 1 at one of those columns and a 0 at the others is unique, so they
      are that basis, which depends only on N; the scaling to a leading 1 is
      the one `ExactMatrix.nullspace` applies.

    Over Q(q) and Q(zeta_m)(q), or when the lift fails at every prime, the
    exact solver decides (`_intertwiner_basis_exact`).
    """
    size = rep_a.n + 1
    ctx = rep_a.sigma1.ctx
    same = (rep_a.sigma1, rep_a.sigma2) == (rep_b.sigma1, rep_b.sigma2)
    # I solves the system when sigma^A = sigma^B, so its rank is at most
    # size^2 - 1 there and the search stops on reaching that bound.
    target = size * size - same
    reduced = _reduced((rep_a, rep_b))
    if reduced is not None:
        start, p, images = reduced
        span = _system_span(p, images, size, target)
        if span.dim == size * size:
            return []
        if same and span.dim == target:
            return [ExactMatrix.identity(size, ctx)]
        if not ctx.with_q:
            basis = _lifted_basis(rep_a, rep_b, target, start, span)
            if basis is not None:
                return basis
    return _intertwiner_basis_exact(rep_a, rep_b)


def _system_span(p, images, size, target):
    """The F_p span of the rows of the stacked system for (sigma_1, Delta_p),
    built from the reduced generators (sigma_1^A, sigma_2^A, sigma_1^B,
    sigma_2^B) with Delta_p of each side (`_half_twist_mod`), grown until it
    holds every row or reaches dimension `target`.

    The sparsest rows go in first (`echelon`): those of the monomial
    Delta_p have two nonzero entries or fewer.
    """
    s1a, s2a, s1b, s2b = images
    delta_a = _half_twist_mod(s1a, s2a, p)
    delta_b = delta_a if (s1b, s2b) == (s1a, s2a) else _half_twist_mod(s1b, s2b, p)
    rows = list(_intertwiner_system(((s1a, s1b), (delta_a, delta_b)), size, 0))
    return echelon(rows, size * size, p, target)


def _lifted_basis(rep_a, rep_b, target, start, first):
    """The intertwiner basis over Q or Q(zeta_m) by multi-modular lifting, or
    None when no prime of `_CERTIFICATE_PAIRS` gives one that checks.

    `first` is the span of the system at the standard root mod the prime of
    `_CERTIFICATE_PAIRS[start]`, the first pair that reduces; the lift runs
    over that pair and the pairs after it.  At each prime p the system is
    reduced at every conjugate root r^k of `conjugate_interpolation`
    (`_generator_images`, memoized on each side), and
    `EchelonSpan.nullspace` gives its basis mod p there; a prime where F_p has
    no primitive m-th root of unity, where some generator does not reduce,
    or where the free columns differ from those of the first pass, is
    skipped.  The residues of the entries at the phi(m) roots are mapped to
    power-basis coefficients mod p, combined with the earlier primes by CRT,
    and each coefficient is taken back to Q by `rational_reconstruction`.
    When every coefficient reconstructs, each vector is scaled to a leading 1
    and read as a matrix in integer-row form (`_reconstructed`), and the
    basis is returned if it passes the exact check of `_intertwine`,
    against sigma_1 and the half twist, which forms the exact Delta of each
    side on first use; otherwise the next prime refines the residues.
    """
    size = rep_a.n + 1
    ctx = rep_a.sigma1.ctx
    free, modulus, lifted = None, 1, None
    for index, (q0, p) in enumerate(_CERTIFICATE_PAIRS[start:]):
        conjugates = conjugate_interpolation(ctx.order, p)
        if conjugates is None:
            continue
        ks, interpolation = conjugates
        bases = []
        for k in ks:
            if index == 0 and k == 1:
                span = first
            else:
                images = _generator_images((rep_a, rep_b), p, q0, k)
                if images is None:
                    break
                span = _system_span(p, images, size, target)
            columns, basis = span.nullspace()
            if free is None:
                free = columns
            if columns != free:
                break
            bases.append(basis)
        else:
            # the power-basis coefficient residues, coordinate by coordinate
            residues = [sum(row[i] * b[t][j] for row, b in zip(interpolation, bases)) % p
                        for t in range(len(free)) for j in range(size * size)
                        for i in range(len(ks))]
            if lifted is None:
                lifted = residues
            else:
                step = pow(modulus, -1, p)
                lifted = [x + modulus * ((y - x) * step % p) for x, y in zip(lifted, residues)]
            modulus *= p
            basis = _reconstructed(lifted, modulus, len(ks), ctx, size)
            if basis is not None and _intertwine(basis, rep_a, rep_b):
                return basis
    return None


def _reconstructed(lifted, modulus, phi, ctx, size):
    """The matrices whose power-basis coefficients, phi per entry and size^2
    entries per matrix in row-major order, have the residues `lifted` mod
    `modulus`, each scaled so its first nonzero entry is 1; None when some
    coefficient has no rational reconstruction.

    The scaling runs on ints: a vector's coefficients times their common
    denominator (`linalg._payload_ints`) are made to hold a positive
    rational integer E at the leading entry (`linalg._rational_pivot`, the pivot step of the integer
    span), and the vector is that over E.  Each matrix is returned in
    integer-row form (see `ExactMatrix`), every row over E put in lowest
    terms, and builds its Scalars only when they are read."""
    coeffs = []
    for u in lifted:
        c = rational_reconstruction(u, modulus)
        if c is None:
            return None
        coeffs.append(c)
    width, out = size * phi, []
    for t in range(0, len(coeffs), size * width):
        _, ints = _payload_ints(1, coeffs[t:t + size * width])
        lead = next(i for i, a in enumerate(ints) if a) // phi * phi
        ints = _rational_pivot(ctx.order, ints, lead)
        e, rows = ints[lead], []
        for i in range(0, size * width, width):
            row = ints[i:i + width]
            g = _int_gcd(e, *row)
            rows.append((e // g, [a // g for a in row]) if g != 1 else (e, row))
        out.append(ExactMatrix(size, size, ctx, None, rows))
    return out


def _as_matrix(vec, size):
    """The vector vec of size^2 entries read as a size x size matrix, row by
    row: C_(a,b) is at a*size + b, as in `_intertwiner_system`."""
    return ExactMatrix.from_rows([vec[i * size:(i + 1) * size] for i in range(size)])


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


def _intertwine(basis, rep_a, rep_b):
    """True when every matrix C_1..C_k of `basis` satisfies S^A C = C S^B
    exactly for S = sigma_1 and S = Delta (`_half_twist`), hence for sigma_2
    too: each S and side is one product over the stacked basis,
    S^A [C_1 | ... | C_k] against [C_1; ...; C_k] S^B, compared block by
    block.

    Over Q and Q(zeta_m) the stacked basis, sigma_1 (`_sigma1_rows`) and
    Delta are in integer-row form, so all four products take the
    integer-row route and no entry is built: block t of row i on the left,
    L / d, equals row t size + i on the right, R / e, when L e = R d int
    for int, the power basis being unique."""
    size, k, ctx = rep_a.n + 1, len(basis), rep_a.sigma1.ctx
    blocks = [c.as_integer_rows()._ints for c in basis]
    wide = []
    for i in range(size):
        den, ints = _int_lcm(*[b[i][0] for b in blocks]), []
        for b in blocks:
            d, row = b[i]
            ints += row if d == den else [a * (den // d) for a in row]
        wide.append((den, ints))
    wide = ExactMatrix(size, size * k, ctx, None, wide)
    tall = ExactMatrix(size * k, size, ctx, None, [row for b in blocks for row in b])
    for sa, sb in ((_sigma1_rows(rep_a), _sigma1_rows(rep_b)),
                   (_half_twist(rep_a), _half_twist(rep_b))):
        left, right = (sa * wide)._ints, (tall * sb)._ints
        width = len(right[0][1])
        for t in range(k):
            for i in range(size):
                (d, a), (e, b) = left[i], right[t * size + i]
                if list(map(mul, a[t * width:(t + 1) * width], repeat(e))) \
                        != list(map(mul, b, repeat(d))):
                    return False
    return True


def _intertwiner_basis_exact(rep_a, rep_b):
    """Exact basis of the intertwiners: the nullspace of the stacked system
    over the field for sigma_1 and the half twist (`_half_twist`), each
    basis vector read as a matrix.  Every element solves both equations by
    construction, so only the lifted basis is checked."""
    size = rep_a.n + 1
    pairs = tuple(([sa.row(i) for i in range(size)], [sb.row(i) for i in range(size)])
                  for sa, sb in ((rep_a.sigma1, rep_b.sigma1),
                                 (_half_twist(rep_a), _half_twist(rep_b))))
    rows = list(_intertwiner_system(pairs, size, Scalar.zero(rep_a.sigma1.ctx)))
    return [_as_matrix(vec, size) for vec in ExactMatrix.from_rows(rows).nullspace()]


def intertwiner_space(rep_a, rep_b):
    """Exact basis of {C : sigma_i^A C = C sigma_i^B}; equivalence holds iff the
    space contains an invertible element.

    Invertibility is probed on each basis element and then on a small
    deterministic family of rational combinations; the first invertible one
    is the witness of "equivalent".  When none is invertible and the space
    has dimension 2, with basis C_1, C_2 of size N = n + 1, det(C_1 + t C_2)
    is a polynomial in t of degree at most N, so its values at the N + 1
    points t = 0..N decide it: the first nonzero one gives the witness, and
    if all are zero the polynomial is, and so is the homogeneous
    det(a C_1 + b C_2) of degree N, whose value at a = 1 it is.  No
    intertwiner is then invertible, over the field or any extension, and the
    pair is "inequivalent", as it is when the space is 0, and when it has
    dimension 1 and its one basis element C_1, probed first, is singular:
    every intertwiner is then a multiple of C_1.  A larger space where no
    probe is invertible is "inequivalent" when both sigma_1 are upper
    triangular and their diagonal multisets differ: those are their
    spectra, and an invertible intertwiner would make them similar
    (certificate "sigma1-spectrum"; every other verdict has certificate
    None).  Otherwise it is reported as undecided rather than as a hard
    negative.  A coefficient tuple that was already tried is skipped,
    since it gives the same combination: the probes (i + 1) and (2^i)
    coincide in dimension 2, and t = 0, 1, 2 repeat the probes C_1,
    C_1 + C_2 and C_1 + 2 C_2.
    """
    if rep_a.n != rep_b.n:
        raise ShapeMismatch("intertwiners need equal dimensions")
    if rep_a.sigma1.ctx != rep_b.sigma1.ctx:
        raise ShapeMismatch("intertwiners need one common field; coerce first")
    size = rep_a.n + 1
    basis = _intertwiner_basis(rep_a, rep_b)
    dim = len(basis)
    ctx = rep_a.sigma1.ctx
    tried = set()

    def invertible_among(candidates):
        for coeffs in candidates:
            if coeffs in tried:
                continue
            tried.add(coeffs)
            combo = ExactMatrix.zeros(size, size, ctx)
            for c, mat in zip(coeffs, basis):
                if c:
                    combo = combo + mat.scale(integer(c, ctx))
            if not combo.determinant().is_zero():
                return combo
        return None

    candidates = [tuple(1 if i == k else 0 for i in range(dim)) for k in range(dim)]
    candidates += [tuple(1 for _ in range(dim)),
                   tuple(i + 1 for i in range(dim)),
                   tuple((-1) ** i for i in range(dim)),
                   tuple(2 ** i for i in range(dim))]
    invertible = invertible_among(candidates) if dim else None
    if invertible is not None:
        status = "equivalent"
    elif dim == 2:
        invertible = invertible_among((1, t) for t in range(size + 1))
        status = "inequivalent" if invertible is None else "equivalent"
    else:
        status = "inequivalent" if dim < 2 else "undecided"
    certificate = None
    if status == "undecided" and _spectra_differ(rep_a.sigma1, rep_b.sigma1):
        status, certificate = "inequivalent", "sigma1-spectrum"
    return {"dimension": dim, "basis": basis, "invertible": invertible,
            "status": status, "certificate": certificate}


def _spectra_differ(a, b):
    """True when the square matrices a and b are upper triangular and their
    diagonal multisets, which are their spectra, differ: then a and b are
    not similar."""
    if not (a.is_upper_triangular() and b.is_upper_triangular()):
        return False
    return Counter(a[i, i] for i in range(a.rows)) != Counter(b[i, i] for i in range(b.rows))


# ---------------------------------------------------------------------------
# Combined report.
# ---------------------------------------------------------------------------

class IrreducibilityReport(Record):
    __slots__ = _fields = ("n", "q", "lam", "per_r", "commutant_dim", "burnside_dim",
                           "verdict")

    def __init__(self, n, q, lam, per_r, commutant_dim, burnside_dim, verdict):
        self._set(n, q, lam, per_r, commutant_dim, burnside_dim, verdict)

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

    The algebra dimension comes first (`burnside_dimension`, certified by
    Norton's test).  At (n+1)^2 the algebra is all of M_(n+1)(K), whose
    commutant is the scalars, so the commutant dimension is 1 and
    `commutant_dimension` runs only below a full algebra.
    """
    n = rep.n
    per_r = [minor_criterion(rep, r) for r in range(n // 2 + 1)]
    full = (n + 1) ** 2
    bdim = burnside_dimension(rep)
    cdim = 1 if bdim == full else commutant_dimension(rep)[0]
    if cdim > 1:
        verdict = "operator-reducible"
    elif bdim < full:
        verdict = "subspace-reducible-witnessed"
    else:
        verdict = "operator-irreducible"
    return IrreducibilityReport(n, str(rep.ctx.q), [str(v) for v in rep.lam_raw],
                                per_r, cdim, bdim, verdict)
