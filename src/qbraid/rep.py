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


def check_cond_q(n, ctx, lam):
    """Componentwise compatibility: lambda_0 lambda_n q_r q_(n-r)/q_n equals
    lambda_r lambda_(n-r) for every r; raises with the offending index."""
    l0ln = lam[0] * lam[n]
    canonical = lambda_canonical(n, ctx)
    for r in range(n + 1):
        if l0ln * canonical[r, r] != lam[r] * lam[n - r]:
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
    lam_m = ExactMatrix.diagonal(list(lam_raw))
    sigma1 = sigma1_matrix(n, ctx) * lam_m
    sigma2 = lam_m.sharp() * sigma2_matrix(n, ctx)
    return Representation(spec, sigma1, sigma2, lam_raw)


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


def verify_braid(rep):
    """Check s1 s2 s1 = s2 s1 s2 = lambda_0 lambda_n S(q) L exactly, plus the
    bare equivalent forms; failures are reported, never raised.  Both triple
    products share s1 s2: (s1 s2) s1 and s2 (s1 s2)."""
    n, ctx = rep.n, rep.ctx
    s = s_matrix(n, ctx)
    s12 = rep.sigma1 * rep.sigma2
    t121 = s12 * rep.sigma1
    scale = rep.lam_raw[0] * rep.lam_raw[n]
    core = sigma1_matrix(n, ctx) * lambda_canonical(n, ctx) * sigma2_matrix(n, ctx)
    checks, first = compare_all((
        ("s1*s2*s1 == s2*s1*s2", t121, rep.sigma2 * s12),
        ("s1*s2*s1 == c*S(q)*Lambda", t121,
         (s * ExactMatrix.diagonal(list(rep.lam_raw))).scale(scale)),
        ("sigma1*Lam(q)*sigma2 == S(q)*sigma1^-1", core, s * sigma1_inverse_closed(n, ctx)),
        ("sigma1*Lam(q)*sigma2 == sigma2^-1*S(q)", core, sigma2_inverse_closed(n, ctx) * s)))
    return BraidReport(n, first is None, checks, first)

