"""The braid-group B3 representation family built from the q-Pascal triangle.

For size n+1, the bare generators are
    sigma_1(q,n)_km = C_(n-k)^(n-m)(q)           (upper triangular),
    sigma_2(q,n)    = (sigma_1(q^-1,n)^-1)^#     (lower triangular),
dressed by a diagonal parameter matrix Lambda.  sigma_1 and sigma_1^-1 are
built from their closed forms, and sigma_2 and sigma_2^-1 from those two at
q^-1 by the half turn #, as the definition of sigma_2 reads.  S(q) and
Lambda_n(q) are built from their closed forms too; that these agree with the
constructions they stand for (sigma_1^-1 by elimination, S(q) = D_n(q)^-1
S(1), Lambda_n(q) = q_n^-1 D_n D_n^#) is proved in the tests, not on every
build.
Two parameter forms are supported:

  raw       sigma_1 -> sigma_1(q,n) L,  sigma_2 -> L^# sigma_2(q,n), where L
            satisfies lambda_0 lambda_n q_r q_(n-r)/q_n = lambda_r lambda_(n-r)
            componentwise;
  factored  L = D_n^#(q) L' with L' L'^# = c I (c derived as lambda'_0
            lambda'_n, never supplied).

A built Representation carries only the dressed generators and L.  The braid
identity verified is
    s1 s2 s1 = s2 s1 s2 = lambda_0 lambda_n S(q) L,
together with its bare equivalents
    sigma_1(q) Lam(q) sigma_2(q) = S(q) sigma_1^-1(q) = sigma_2^-1(q) S(q);
verify_braid, the only reader of S(q), takes it from its cached builder, so
building a representation never computes it; Lambda_n(q) is read from its
cached builder too, by verify_braid and by the raw form's compatibility check.

verify_braid forms two dense products, s1 s2 and the half twist
Delta = (s1 s2) s1.  Once Delta = c S(q) L (c = lambda_0 lambda_n), s1 is
invertible, L L^# = c Lambda_n(q) and the generators are dressed by L as
built, the braid relation is Delta s1 = s2 Delta and the bare forms are
s1 s2 = c S(q) sigma_1^-1(q) = sigma_2^-1(q) c S(q), products with a
monomial factor; otherwise the four products of the bare route are formed
and compared, so that the report and its first failure do not depend on
the route.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CondQViolated
from .linalg import ExactMatrix, compare_all
from .qcomb import inverse_context, q_binomial, q_power, q_tri, tri_exponent
from .records import FrozenRecord, Record


@lru_cache(maxsize=256)
def sigma1_matrix(n, ctx):
    """sigma_1(q,n): entry (k,m) is the Gaussian polynomial C_(n-k)^(n-m)(q)."""
    return ExactMatrix.from_fn(
        n + 1, n + 1, ctx.q.ctx,
        lambda k, m: q_binomial(n - k, n - m, ctx))


@lru_cache(maxsize=256)
def sigma1_inverse_closed(n, ctx):
    """Closed form sigma_1^-1(q,n)_km = (-1)^(k+m) q_(m-k) C_(n-k)^(n-m)(q)."""
    zero = ctx.zero()

    def entry(k, m):
        if m < k:
            return zero
        val = q_tri(m - k, ctx) * q_binomial(n - k, n - m, ctx)
        return -val if (k + m) % 2 else val

    return ExactMatrix.from_fn(n + 1, n + 1, ctx.q.ctx, entry)


@lru_cache(maxsize=256)
def sigma2_matrix(n, ctx):
    """sigma_2(q,n) = (sigma_1(q^-1,n)^-1)^#, from sigma_1^-1's closed form
    at q^-1."""
    return sigma1_inverse_closed(n, inverse_context(ctx)).sharp()


@lru_cache(maxsize=256)
def sigma2_inverse_closed(n, ctx):
    """sigma_2^-1(q,n) = sigma_1(q^-1,n)^#, that is C_k^m(q^-1) at (k, m)."""
    return sigma1_matrix(n, inverse_context(ctx)).sharp()


@lru_cache(maxsize=256)
def s_matrix(n, ctx):
    """S(q)_km = q_k^-1 (-1)^k delta_(k+m,n), that is S(q) = D_n(q)^-1 S(1)."""
    zero = ctx.zero()

    def entry(k, m):
        if k + m != n:
            return zero
        val = q_power(-tri_exponent(k), ctx)
        return -val if k % 2 else val

    return ExactMatrix.from_fn(n + 1, n + 1, ctx.q.ctx, entry)


@lru_cache(maxsize=256)
def d_matrix(n, ctx):
    """D_n(q) = diag(q_r)_(r=0..n)."""
    return ExactMatrix.diagonal([q_tri(r, ctx) for r in range(n + 1)])


@lru_cache(maxsize=256)
def lambda_canonical(n, ctx):
    """Lambda_n(q) = diag(q^(-(n-r)r)), that is q_n^-1 D_n D_n^#."""
    return ExactMatrix.diagonal([q_power(-(n - r) * r, ctx) for r in range(n + 1)])


class RepSpec(FrozenRecord):
    """Parameter triple (n, q, lambda) with its validity constraints.

    form 'raw': lam is the full diagonal, checked against the compatibility
    condition.  form 'factored': lam is L' with L' L'^# = c I, c derived.
    """

    __slots__ = _fields = ("n", "ctx", "lam", "form")

    def __init__(self, n, ctx, lam, form="factored"):
        self._set(n, ctx, lam, form)
        if self.form not in ("raw", "factored"):
            raise ValueError("form must be 'raw' or 'factored'")
        if len(self.lam) != self.n + 1:
            raise CondQViolated(f"lambda needs {self.n + 1} entries")
        for k, v in enumerate(self.lam):
            if v.is_zero():
                raise CondQViolated(f"lambda_{k} must be nonzero", index=k)


def raw_spec(n, ctx, lam):
    return RepSpec(n, ctx, tuple(lam), "raw")


def factored_spec(n, ctx, lam_prime):
    return RepSpec(n, ctx, tuple(lam_prime), "factored")


class Representation(FrozenRecord):
    """The realized pair: the dressed generators and the raw diagonal L.

    Three memos serve `irred`, which fills each on first use: `_sigma1_rows`
    holds s1 in integer-row form over Q and Q(zeta_m), `_half_twist` the
    half twist s1 s2 s1, and `_residues` the images of (s1, s2) mod p per
    (p, q0, k).  Like the memos of `QContext` they are left out of
    equality, hashing and repr.
    """

    _fields = ("spec", "sigma1", "sigma2", "lam_raw")
    __slots__ = _fields + ("_sigma1_rows", "_half_twist", "_residues")

    def __init__(self, spec, sigma1, sigma2, lam_raw):
        self._set(spec, sigma1, sigma2, lam_raw, None, None, None)

    @property
    def n(self):
        return self.spec.n

    @property
    def ctx(self):
        return self.spec.ctx


def _cond_q_failure(n, ctx, lam):
    """The first r where lambda_0 lambda_n q_r q_(n-r)/q_n differs from
    lambda_r lambda_(n-r), that is where L L^# = lambda_0 lambda_n
    Lambda_n(q) fails on the diagonal; None when it holds everywhere."""
    l0ln = lam[0] * lam[n]
    canonical = lambda_canonical(n, ctx)
    return next((r for r in range(n + 1) if l0ln * canonical[r, r] != lam[r] * lam[n - r]),
                None)


def check_cond_q(n, ctx, lam):
    """Componentwise compatibility: lambda_0 lambda_n q_r q_(n-r)/q_n equals
    lambda_r lambda_(n-r) for every r; raises with the offending index."""
    r = _cond_q_failure(n, ctx, lam)
    if r is not None:
        raise CondQViolated(
            f"cond_q fails at r={r}: lambda_0 lambda_n q_r q_(n-r)/q_n != "
            f"lambda_r lambda_(n-r)", index=r)


def build_representation(spec):
    """Realize a RepSpec as the dressed generator pair."""
    n, ctx = spec.n, spec.ctx
    if spec.form == "factored":
        c = spec.lam[0] * spec.lam[n]
        for k in range(n + 1):
            if spec.lam[k] * spec.lam[n - k] != c:
                raise CondQViolated(
                    f"factored form fails at k={k}: lambda'_k lambda'_(n-k) != c",
                    index=k)
        lam_raw = tuple(q_tri(n - k, ctx) * spec.lam[k] for k in range(n + 1))
    else:
        check_cond_q(n, ctx, spec.lam)
        lam_raw = spec.lam
    return Representation(spec, *_dressed(n, ctx, lam_raw), lam_raw)


@lru_cache(maxsize=4)
def _dressed(n, ctx, lam_raw):
    """The dressed generators sigma_1(q,n) L and L^# sigma_2(q,n), L given
    as the tuple lam_raw.  Cached, so that the generators of a built
    representation are these very matrices and `_half_twist_applies` finds
    them equal at once.  Only the last few pairs are kept: a representation
    is verified right after it is built, and the pair of one at n = 20 and
    symbolic q holds about 0.7 MB."""
    lam_m = ExactMatrix.diagonal(list(lam_raw))
    return sigma1_matrix(n, ctx) * lam_m, lam_m.sharp() * sigma2_matrix(n, ctx)


class BraidReport(Record):
    """Outcome of the braid-identity verification, with a first-failure locator."""

    __slots__ = _fields = ("n", "passed", "checks", "first_failure")

    def __init__(self, n, passed, checks, first_failure):
        self._set(n, passed, checks, first_failure)

    def to_payload(self):
        out = {"n": self.n, "passed": self.passed, "checks": self.checks}
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        return out


_BRAID_CHECKS = ("s1*s2*s1 == s2*s1*s2", "s1*s2*s1 == c*S(q)*Lambda",
                "sigma1*Lam(q)*sigma2 == S(q)*sigma1^-1",
                "sigma1*Lam(q)*sigma2 == sigma2^-1*S(q)")


def _half_twist_applies(rep):
    """The preconditions of the half-twist route besides check 2: s1 is upper
    triangular with no zero on its diagonal, hence invertible; L L^# =
    c Lambda_n(q), n + 1 scalar comparisons; and the generators are dressed
    by L as `build_representation` dresses them, s1 = sigma1(q) L and
    s2 = L^# sigma2(q), compared with the cached pair of `_dressed`, which a
    built representation holds itself.  A Representation made by hand need
    not be dressed so, and s1 s2 is then no multiple of the core
    sigma1(q) Lam(q) sigma2(q)."""
    n, ctx = rep.n, rep.ctx
    return (rep.sigma1.is_invertible_upper_triangular()
            and _cond_q_failure(n, ctx, rep.lam_raw) is None
            and (rep.sigma1, rep.sigma2) == _dressed(n, ctx, tuple(rep.lam_raw)))


def _holds_on_half_twist(rep, s, s12, twist, c):
    """Checks 1, 3 and 4 on the half twist Delta = c S(q) L, each one product
    with a monomial factor: Delta s1 = s2 Delta, and s1 s2 equal to
    (c S(q)) sigma1^-1(q) and to sigma2^-1(q) (c S(q)).  Each is equivalent
    to its check only under check 2 and `_half_twist_applies`."""
    n, ctx = rep.n, rep.ctx
    cs = s.scale(c)
    return (twist * rep.sigma1 == rep.sigma2 * twist
            and s12 == cs * sigma1_inverse_closed(n, ctx)
            and s12 == sigma2_inverse_closed(n, ctx) * cs)


def verify_braid(rep):
    """Check s1 s2 s1 = s2 s1 s2 = c S(q) L exactly, c = lambda_0 lambda_n,
    and the bare forms sigma1(q) Lam(q) sigma2(q) = S(q) sigma1^-1(q) =
    sigma2^-1(q) S(q); failures are reported, never raised.

    Two dense products are formed, s1 s2 and the half twist
    Delta = (s1 s2) s1, and check 2 compares Delta with c S(q) L.  When it
    holds and so do the preconditions of `_half_twist_applies`, every other
    check is one product with the monomial factor c S(q) L or c S(q)
    (`_holds_on_half_twist`):
      - s1 s2 s1 = s2 s1 s2 iff Delta s1 = s2 Delta, since the two sides
        differ by (s1 s2 s1 - s2 s1 s2) s1 and s1 is invertible;
      - s1 s2 = sigma1(q) L L^# sigma2(q) = c sigma1(q) Lam(q) sigma2(q),
        and c = lambda_0 lambda_n is nonzero, since s1 = sigma1(q) L has no
        zero on its diagonal; so each bare form holds iff s1 s2 equals c
        times its right-hand side.
    If a precondition or one of these checks fails, the two products of the
    bare route that were left out, s2 (s1 s2) and the core
    sigma1(q) Lam(q) sigma2(q), are formed and the four checks compared
    entry by entry, so that the report and its first failure are those of
    the four checks themselves."""
    n, ctx = rep.n, rep.ctx
    s = s_matrix(n, ctx)
    s12 = rep.sigma1 * rep.sigma2
    t121 = s12 * rep.sigma1
    c = rep.lam_raw[0] * rep.lam_raw[n]
    twist = (s * ExactMatrix.diagonal(list(rep.lam_raw))).scale(c)
    if t121 == twist and _half_twist_applies(rep) and _holds_on_half_twist(rep, s, s12, twist, c):
        return BraidReport(n, True, [{"check": name, "passed": True} for name in _BRAID_CHECKS],
                           None)
    core = sigma1_matrix(n, ctx) * lambda_canonical(n, ctx) * sigma2_matrix(n, ctx)
    checks, first = compare_all(zip(
        _BRAID_CHECKS, (t121, t121, core, core),
        (rep.sigma2 * s12, twist, s * sigma1_inverse_closed(n, ctx),
         sigma2_inverse_closed(n, ctx) * s)))
    return BraidReport(n, first is None, checks, first)
