"""Span recorder for the traced benchmark run.

Spans are taken from outside the program: `install` wraps public functions
and methods of the `qbraid` layers, replacing every reference to each one
(the defining module, modules that imported it, class aliases) so that
intra-package calls are traced too.  A span is (name, start, end, parent
index, job index); spans are kept in memory and summarized or written when
the session ends.

Names are `<layer>.<op>` or `<layer>.<op>.<variant>`; metrics aggregate on
the first two components, so the five elimination routines all count as
`linalg.elim`.
"""

from __future__ import annotations

import gzip
import json
import sys
from fractions import Fraction
from time import perf_counter

# (span name, module, attribute path) of every wrapped entry point.
TARGETS = [
    ("cli.run", "qbraid.cli", "run"),
    ("scalar.laurent_mul", "qbraid.scalar", "LaurentPoly.__mul__"),
    ("scalar.ratfunc_make", "qbraid.scalar", "RatFunc.make"),
    ("scalar.substitute", "qbraid.scalar", "Scalar.substitute"),
    ("scalar.cyclotomic_mul", "qbraid.scalar", "Cyclotomic.__mul__"),
    ("scalar.cyclotomic_inverse", "qbraid.scalar", "Cyclotomic.inverse"),
    ("linalg.mul", "qbraid.linalg", "ExactMatrix.__mul__"),
    ("linalg.elim.inverse", "qbraid.linalg", "ExactMatrix.inverse"),
    ("linalg.elim.determinant", "qbraid.linalg", "ExactMatrix.determinant"),
    ("linalg.elim.rref", "qbraid.linalg", "ExactMatrix.rref"),
    ("linalg.elim.nullspace", "qbraid.linalg", "ExactMatrix.nullspace"),
    ("linalg.elim.minor", "qbraid.linalg", "ExactMatrix.minor"),
    ("qcomb.q_binomial", "qbraid.qcomb", "q_binomial"),
    ("qcomb.verify_identity", "qbraid.qcomb", "verify_identity"),
    ("rep.build_representation", "qbraid.rep", "build_representation"),
    ("rep.sigma2_matrix", "qbraid.rep", "sigma2_matrix"),
    ("rep.verify_braid", "qbraid.rep", "verify_braid"),
    ("structure.pas_exp_check", "qbraid.structure", "pas_exp_check"),
    ("irred.minor_criterion", "qbraid.irred", "minor_criterion"),
    ("irred.commutant_dimension", "qbraid.irred", "commutant_dimension"),
    ("irred.burnside_dimension", "qbraid.irred", "burnside_dimension"),
    ("irred.intertwiner_space", "qbraid.irred", "intertwiner_space"),
]

OBSERVE = "trace.observe"


class Recorder:
    """In-memory spans plus the counters observed at span boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.counters = dict.fromkeys(
            ("gcd_attempted", "gcd_useful", "subsets_checked", "burnside_dim",
             "max_q_degree", "max_coeff_bits"), 0)

    def write(self, path):
        """Write every span as one gzipped JSON document."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)


# -- observation of values crossing a boundary ---------------------------------

def _coeff_bits(c):
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return max((_coeff_bits(x) for x in c.coeffs), default=0)  # Cyclotomic


def _size_laurent(p):
    if not p.terms:
        return 0, 0
    deg = max(abs(min(p.terms)), abs(max(p.terms)))
    return deg, max(_coeff_bits(c) for c in p.terms.values())


def _size_value(v):
    """(q-degree, coefficient bits) of a Fraction, Cyclotomic or RatFunc."""
    if hasattr(v, "num"):
        d1, b1 = _size_laurent(v.num)
        d2, b2 = _size_laurent(v.den)
        return max(d1, d2), max(b1, b2)
    return 0, _coeff_bits(v)


def _note_sizes(rec, values):
    """Raise the max q-degree and coefficient-bit counters over raw field
    elements (Fraction, Cyclotomic or RatFunc)."""
    counters = rec.counters
    deg, bits = counters["max_q_degree"], counters["max_coeff_bits"]
    for v in values:
        d, b = _size_value(v)
        deg, bits = max(deg, d), max(bits, b)
    counters["max_q_degree"], counters["max_coeff_bits"] = deg, bits


def _scalars_in(result):
    """The Scalars of a linalg result: a matrix, a scalar (determinant,
    minor), an rref (rows, pivots) pair or a nullspace basis."""
    if hasattr(result, "_e"):
        return [x for row in result._e for x in row]
    if hasattr(result, "val"):
        return [result]
    rows = result[0] if isinstance(result, tuple) else result
    return [x for row in rows for x in row]


def _observe_linalg(rec, args, result):
    _note_sizes(rec, [s.val for s in _scalars_in(result)])


def _observe_make(rec, args, result):
    # The gcd runs when the numerator is nonzero and the denominator is not a
    # monomial; it was useful when it lowered the denominator's degree.
    num, den = args[-2], args[-1]
    if not num.is_zero() and den.max_exp() > den.min_exp():
        rec.counters["gcd_attempted"] += 1
        if result.den.max_exp() < den.max_exp() - den.min_exp():
            rec.counters["gcd_useful"] += 1
    _note_sizes(rec, [result])


def _observe_minor_criterion(rec, args, result):
    rec.counters["subsets_checked"] += result.subsets_checked


def _observe_burnside(rec, args, result):
    rec.counters["burnside_dim"] += result


OBSERVERS = {
    "scalar.ratfunc_make": _observe_make,
    "linalg.mul": _observe_linalg,
    "linalg.elim.inverse": _observe_linalg,
    "linalg.elim.determinant": _observe_linalg,
    "linalg.elim.rref": _observe_linalg,
    "linalg.elim.nullspace": _observe_linalg,
    "linalg.elim.minor": _observe_linalg,
    "irred.minor_criterion": _observe_minor_criterion,
    "irred.burnside_dimension": _observe_burnside,
}


# -- wrapping ----------------------------------------------------------------

def _span_wrapper(fn, name, rec, observe):
    spans, stack = rec.spans, rec.stack

    def traced(*args, **kwargs):
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, rec.job)
        if observe is not None:
            # Observation gets a span of its own, so its cost is not charged
            # to the self time of the caller.
            obs = len(spans)
            spans.append(None)
            try:
                observe(rec, args, result)
            finally:
                spans[obs] = (OBSERVE, end, perf_counter(), parent, rec.job)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    traced.__doc__ = getattr(fn, "__doc__", None)
    return traced


def qbraid_namespaces():
    """(namespace, setter) for every module and class of the loaded qbraid
    package; the setter rebinds a name in that namespace."""
    for modname, module in list(sys.modules.items()):
        if modname != "qbraid" and not modname.startswith("qbraid."):
            continue
        yield module.__dict__, lambda k, v, m=module: setattr(m, k, v)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == modname:
                yield value.__dict__, lambda k, v, c=value: setattr(c, k, v)


def install(rec):
    """Wrap every target so calls record spans into rec; returns an undo."""
    replacements = {}   # id(original object) -> (original, replacement)
    for name, modname, path in TARGETS:
        owner = sys.modules[modname]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(_span_wrapper(original.__func__, name, rec,
                                                OBSERVERS.get(name)))
        else:
            wrapped = _span_wrapper(original, name, rec, OBSERVERS.get(name))
        replacements[id(original)] = (original, wrapped)
    undo = []
    for namespace, assign in qbraid_namespaces():
        for key, value in list(namespace.items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                assign(key, hit[1])
                undo.append((assign, key, value))

    def restore():
        for assign, key, value in undo:
            assign(key, value)

    return restore


# -- summaries -------------------------------------------------------------------

def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by the union of its children's intervals."""
    children = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def group_of(name):
    """Metric group of a span name: its first two components."""
    return ".".join(name.split(".")[:2])


def summarize(rec):
    """Per-group calls, self seconds and inclusive seconds, per-layer self
    seconds, and the counters, as one flat dict."""
    spans = rec.spans
    selfs = self_times(spans)
    groups = [group_of(s[0]) for s in spans]
    out = {}
    for idx, (name, start, end, parent, _) in enumerate(spans):
        group = groups[idx]
        layer = group.split(".")[0]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + selfs[idx]
        out[f"{group}.s"] = out.get(f"{group}.s", 0.0) + selfs[idx]
        # A span nested in another of its group counts neither as a call nor
        # towards inclusive time (nullspace calls rref, for instance).
        p = parent
        while p >= 0 and groups[p] != group:
            p = spans[p][3]
        if p < 0:
            out[f"{group}.calls"] = out.get(f"{group}.calls", 0) + 1
            out[f"{group}.total_s"] = out.get(f"{group}.total_s", 0.0) + (end - start)
    burnside_products = sum(
        1 for s, g in zip(spans, groups)
        if g == "linalg.mul" and s[3] >= 0 and groups[s[3]] == "irred.burnside_dimension")
    c = rec.counters
    out["scalar.ratfunc_make.gcd_ratio"] = \
        c["gcd_useful"] / c["gcd_attempted"] if c["gcd_attempted"] else 0.0
    out["scalar.max_q_degree"] = c["max_q_degree"]
    out["scalar.max_coeff_bits"] = c["max_coeff_bits"]
    out["irred.minor_criterion.subsets_checked"] = c["subsets_checked"]
    out["irred.burnside.insert_yield"] = \
        c["burnside_dim"] / burnside_products if burnside_products else 0.0
    return out
