"""Seeded job lists for the qbraid benchmark.

A job is one `qbraid` argv list plus the exit code it must return (None when
the exit code is only required to agree with the statuses in its reports)
and, for catalog points, the verdict it must reach.
The generator sees the seed; the program sees only the generated argv.

Seeds vary the parameters (rational and q-power entries of a factored
diagonal, the lambda_0 of a catalog point), never the shape of the list, so
the cost of a list stays close from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

DEFAULT_SEED = 1

# Rationals of one small height, so coefficient growth, and with it the cost
# of a job, is much the same for every seed.
_DRESS = [Fraction(p, d) for p, d in
          ((2, 1), (1, 2), (3, 2), (2, 3), (-2, 1), (-1, 2), (-3, 2), (-2, 3))]


def scalar_spec(coeff, exp=0):
    """Canonical-grammar spec of coeff * q^exp (coeff a Fraction)."""
    num = str(coeff.numerator) if coeff.denominator == 1 \
        else f"{coeff.numerator}/{coeff.denominator}"
    if exp == 0:
        return num
    power = "q" if exp == 1 else f"q^{exp}"
    if coeff == 1:
        return power
    if coeff == -1:
        return "-" + power
    return f"{num}*{power}"


def factored_lambda(n, rng, symbolic):
    """A factored diagonal L' with L'_k L'_(n-k) = c for every k.

    c = a^2 is a rational square, so an even n has a valid middle entry +-a.
    Half of the free entries (k < n/2) are 1 and the rest r q^e, r from
    _DRESS and e = +-1 (0 when q is a number).  The seed picks which entries
    and their values; the mix, and with it the cost, stays put (q-powers of
    c widen every entry's support and make the cost vary by seed).
    """
    a = rng.choice(_DRESS[:4])
    c = a * a
    free = list(range((n + 1) // 2))
    dressed = set(rng.sample(free, (len(free) + 1) // 2))
    entries = [None] * (n + 1)
    for k in free:
        r, e = Fraction(1), 0
        if k in dressed:
            r = rng.choice(_DRESS)
            e = rng.choice([-1, 1]) if symbolic else 0
        entries[k] = (r, e)
        entries[n - k] = (c / r, -e)
    if n % 2 == 0:
        entries[n // 2] = (a * rng.choice([1, -1]), 0)
    return ",".join(scalar_spec(r, e) for r, e in entries)


def _braid_symbolic(rng):
    # One distinct n per job, so the rep/qcomb caches are barely shared; n=12
    # is the frontier job.
    jobs = [{"argv": ["rep", "verify", "--n", str(k), "--q", "q",
                      "--lambda-prime=" + factored_lambda(k, rng, True),
                      "--json"], "exit": 0}
            for k in (1, 2, 3, 4, 5, 6, 7, 8, 12)]
    jobs.append({"argv": ["identities", "--id", "all", "--max-n", "6", "--json"],
                 "exit": 0})
    jobs.append({"argv": ["rep", "build", "--n", "8", "--q", "q",
                          "--lambda-prime=" + factored_lambda(8, rng, True),
                          "--json"], "exit": 0})
    jobs.append({"argv": ["exp", "check", "--max-n", "6", "--json"], "exit": 0})
    return jobs


def _uniform_lambda(n, rng):
    """L' = a q^f (1, ..., 1): seeded, yet as costly as L' = I at symbolic q
    (a generic L' makes n=3 cost from 2x to 4x as much, varying by seed)."""
    entry = scalar_spec(rng.choice(_DRESS), rng.choice([-1, 1]))
    return ",".join([entry] * (n + 1))


def _oracles_symbolic(rng):
    jobs = [{"argv": ["irr", "minors", "--n", "2", "--q", "q",
                      "--lambda-prime=" + factored_lambda(2, rng, True), "--json"],
             "exit": None}
            for _ in range(6)]
    jobs.append({"argv": ["irr", "minors", "--n", "3", "--q", "q",
                          "--lambda-prime=" + _uniform_lambda(3, rng), "--json"],
                 "exit": None})
    lam = factored_lambda(2, rng, True)
    jobs.append({"argv": ["irr", "equiv", "--n", "2", "--q", "q",
                          "--lambda-prime=" + lam, "--lambda2-prime=" + lam, "--json"],
                 "exit": 0})
    return jobs


def catalog_lambda(n, s, lam0):
    """lambda_0 diag(zeta_s^k), k = 0..n, as a raw-diagonal CSV."""
    scale = scalar_spec(lam0)
    return ",".join(scale if k == 0 else f"{scale}*zeta({s})^{k}"
                    for k in range(n + 1))


def _oracles_exact(rng):
    # Jobs share (n, q), so the rep/qcomb caches hit; no Laurent polynomials.
    jobs = [{"argv": ["irr", "minors", "--n", "5", "--q", "2",
                      "--lambda-prime=" + factored_lambda(5, rng, False), "--json"],
             "exit": None}
            for _ in range(4)]
    # Catalog points below are reducible for every lambda_0; (n, s) = (5, 5)
    # is irreducible and costs as much as the rest together, so it stays out.
    lam0 = rng.choice(_DRESS)
    for n, s in ((4, 2), (4, 3), (4, 4), (5, 2), (5, 3)):
        jobs.append({"argv": ["irr", "minors", "--n", str(n), "--q", "1",
                              "--lambda=" + catalog_lambda(n, s, lam0), "--json"],
                     "exit": 1, "verdict": "operator-reducible"})
    lam = factored_lambda(4, rng, False)
    jobs.append({"argv": ["irr", "equiv", "--n", "4", "--q", "2",
                          "--lambda-prime=" + lam, "--lambda2-prime=" + lam, "--json"],
                 "exit": 0})
    return jobs


WORKLOADS = {
    "braid-symbolic": _braid_symbolic,
    "oracles-symbolic": _oracles_symbolic,
    "oracles-exact": _oracles_exact,
}


def jobs_for(workload, seed):
    """The job list of a workload for a seed (same seed, same list)."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def jobs_hash(jobs):
    """Short content hash of a job list, stamped on every result."""
    blob = json.dumps(jobs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
