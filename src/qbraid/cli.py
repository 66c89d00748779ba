"""Command-line surface: exact construction, verification and analysis with
machine-readable JSON reports.

Exit codes: 0 pass, 1 fail, 2 inconclusive (only `irr equiv`, when the
intertwiner space has dimension 3 or more, no invertible intertwiner is
found among those tried and the two sigma_1 have the same spectrum), 3
usage error, 4 symbolic-degree cap exceeded (QBRAID_MAX_DEGREE), 5 internal
error (an exception that is not a `QBraidError`: a defect, never a verdict).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .errors import DegreeCapExceeded, ParseError, QBraidError, ZeroQ
from .linalg import ExactMatrix
from .qcomb import (
    IDENTITY_NAMES,
    QContext,
    concrete_q,
    symbolic_q,
    triangle_row,
    verify_identity,
)
from .rep import build_representation, factored_spec, raw_spec, verify_braid
from .scalar import integer, join_context, parse_scalar, set_degree_cap
from .structure import (
    TWParams,
    ferrand_phi,
    ferrand_psi,
    pas_exp_check,
    sigma1_matrix,
    sigma2_matrix,
    sl2_projection,
    symmetric_power,
    tw_equivalence_check,
    verify_braid_like,
)
from .irred import analyze, intertwiner_space, suspected_catalog

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_DEGREE_CAP = 4
EXIT_INTERNAL = 5

_STATUS_CODE = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}


class UsageError(QBraidError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_q(text):
    q = parse_scalar(text)
    if q.is_zero():
        raise ZeroQ("q spec evaluates to 0")
    return q


def _parse_lambda_csv(text, count=None):
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise UsageError(f"empty lambda entry in {text!r}")
    if count is not None and len(parts) != count:
        raise UsageError(f"expected {count} lambda entries, got {len(parts)}")
    return [parse_scalar(p) for p in parts]


def _common_context(scalars):
    ctx = scalars[0].ctx
    for s in scalars[1:]:
        ctx = join_context(ctx, s.ctx)
    return [s.coerce(ctx) for s in scalars], ctx


def latex_matrix(matrix):
    """The LaTeX body of a matrix: cells joined by ' & ', rows by ' \\\\'."""
    return " \\\\\n".join(" & ".join(row) for row in matrix.to_strs())


class Report:
    """Command echo + status + payload + timing, emitted as JSON or text."""

    def __init__(self, command, status, payload):
        self.command = command
        self.status = status
        self.payload = payload
        self.timing_ms = 0.0

    def to_json(self):
        import json   # only --json needs it, so a text run never loads it
        return json.dumps({"command": self.command, "status": self.status,
                           "payload": self.payload,
                           "timing_ms": round(self.timing_ms, 3)})

    def to_text(self):
        lines = [f"[{self.status.upper()}] {self.command} ({self.timing_ms:.1f} ms)"]
        lines.extend(_pretty_payload(self.payload))
        return "\n".join(lines)


def _pretty_payload(value, indent="  "):
    lines = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_pretty_payload(item, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {item}")
    elif isinstance(value, list):
        if value and all(isinstance(v, list) for v in value) \
                and all(isinstance(x, str) for v in value for x in v):
            widths = [max(len(row[j]) for row in value) for j in range(len(value[0]))] \
                if value and value[0] else []
            for row in value:
                lines.append(indent + "  ".join(
                    cell.rjust(widths[j]) for j, cell in enumerate(row)))
        else:
            for item in value:
                if isinstance(item, (dict, list)):
                    lines.append(f"{indent}-")
                    lines.extend(_pretty_payload(item, indent + "  "))
                else:
                    lines.append(f"{indent}- {item}")
    else:
        lines.append(f"{indent}{value}")
    return lines


def _build_parser():
    parser = _Parser(prog="qbraid", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, sweep=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON reports")
        if sweep:
            p.add_argument("--n", type=_size)
            p.add_argument("--max-n", type=_size)
        return p

    add("triangle", "print q-Pascal triangle rows", sweep=True)

    p = add("identities", "verify the q-binomial identities", sweep=True)
    p.add_argument("--id", default="all", choices=list(IDENTITY_NAMES) + ["all"])

    p = add("rep", "build or verify a dressed representation", sweep=True)
    p.add_argument("action", choices=["build", "verify"])
    p.add_argument("--q", default="q", help="q spec (default: symbolic q)")
    p.add_argument("--lambda", dest="lam", help="raw diagonal, CSV of scalar specs")
    p.add_argument("--lambda-prime", dest="lam_prime",
                   help="factored diagonal, CSV of scalar specs")
    p.add_argument("--latex", action="store_true",
                   help="emit matrices as LaTeX bodies (build only)")

    p = add("irr", "irreducibility and equivalence analysis")
    p.add_argument("action", choices=["minors", "commutant", "burnside",
                                      "catalog", "equiv"])
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--q", default="1")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--lambda-prime", dest="lam_prime")
    p.add_argument("--q2", help="second q spec (equiv)")
    p.add_argument("--lambda2", dest="lam2", help="second raw diagonal (equiv)")
    p.add_argument("--lambda2-prime", dest="lam2_prime",
                   help="second factored diagonal (equiv)")

    p = add("exp", "q-exponential realization of the triangle", sweep=True)
    p.add_argument("action", choices=["check"])

    p = add("sym", "symmetric powers of the SL(2,Z) generators", sweep=True)
    p.add_argument("action", choices=["check"])

    p = add("ferrand", "polynomial-space operators Phi(q), Psi(q)", sweep=True)
    p.add_argument("action", choices=["check"])

    p = add("tw", "normal forms and explicit equivalences, sizes 2..5")
    p.add_argument("action", choices=["check"])
    p.add_argument("--n", type=int, required=True, choices=[2, 3, 4, 5])
    p.add_argument("--lambda", dest="lam", help="eigenvalues, CSV of scalar specs")
    p.add_argument("--d", help="square-root parameter for n=4")

    p = add("sl2", "project a braid word to SL(2,Z)")
    p.add_argument("--word", default="", help="CSV over s1,s2,s1i,s2i")
    return parser


def _size(text):
    """argparse type of --n and --max-n: a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


# Built once per process: parsing leaves the parser as it was, so every call
# shares it.
_PARSER = _build_parser()


def _sweep(args):
    if args.max_n is not None:
        if args.max_n < 1:
            raise UsageError("--max-n must be at least 1")
        return list(range(1, args.max_n + 1))
    if args.n is None:
        raise UsageError("one of --n or --max-n is required")
    return [args.n]


def _rep_from_args(n, q_text, lam_text, lam_prime_text):
    q = _parse_q(q_text)
    if lam_text is not None and lam_prime_text is not None:
        raise UsageError("give either --lambda or --lambda-prime, not both")
    if lam_text is None and lam_prime_text is None:
        lam_prime_text = ",".join(["1"] * (n + 1))
    csv = lam_text if lam_text is not None else lam_prime_text
    entries = _parse_lambda_csv(csv, n + 1)
    coerced, ctx = _common_context([q] + entries)
    q, entries = coerced[0], coerced[1:]
    qc = QContext(q)
    spec = raw_spec(n, qc, entries) if lam_text is not None \
        else factored_spec(n, qc, entries)
    return build_representation(spec)


def _cmd_triangle(args):
    ctx = symbolic_q()
    for n in _sweep(args):
        row = triangle_row(n, ctx)
        yield Report(f"triangle --n {n}", "pass",
                     {"n": n, "row": [str(e) for e in row.entries]})


def _cmd_identities(args):
    ctx = symbolic_q()
    names = list(IDENTITY_NAMES) if args.id == "all" else [args.id]
    for n in _sweep(args):
        matrix = {}
        ok = True
        for name in names:
            rep = verify_identity(name, n, ctx)
            matrix[name] = rep.to_payload()
            ok = ok and rep.passed
        yield Report(f"identities --id {args.id} --n {n}",
                     "pass" if ok else "fail", {"n": n, "results": matrix})


def _cmd_rep(args):
    for n in _sweep(args):
        rep = _rep_from_args(n, args.q, args.lam, args.lam_prime)
        if args.action == "build":
            render = latex_matrix if args.latex else ExactMatrix.to_strs
            payload = {"n": n, "q": str(rep.ctx.q),
                       "lambda_raw": [str(v) for v in rep.lam_raw],
                       "sigma1": render(rep.sigma1),
                       "sigma2": render(rep.sigma2)}
            yield Report(f"rep build --n {n}", "pass", payload)
        else:
            br = verify_braid(rep)
            yield Report(f"rep verify --n {n}",
                         "pass" if br.passed else "fail", br.to_payload())


def _cmd_irr(args):
    n = args.n
    if args.action == "catalog":
        if n < 2:
            raise UsageError("irr catalog needs --n 2 or more")
        entries = suspected_catalog(n)
        yield Report(f"irr catalog --n {n}", "pass",
                     {"n": n, "entries": [e.to_payload() for e in entries]})
        return
    if args.action == "equiv":
        rep_a = _rep_from_args(n, args.q, args.lam, args.lam_prime)
        rep_b = _rep_from_args(n, args.q2 if args.q2 is not None else args.q,
                               args.lam2, args.lam2_prime)
        ctx = join_context(rep_a.sigma1.ctx, rep_b.sigma1.ctx)
        if rep_a.sigma1.ctx != ctx or rep_b.sigma1.ctx != ctx:
            raise UsageError("equiv needs both representations in one field; "
                             "write specs over a common field")
        res = intertwiner_space(rep_a, rep_b)
        status = {"equivalent": "pass", "inequivalent": "fail",
                  "undecided": "inconclusive"}[res["status"]]
        payload = {"n": n, "dimension": res["dimension"], "status": res["status"],
                   "basis": [m.to_strs() for m in res["basis"]]}
        if res["invertible"] is not None:
            payload["invertible_intertwiner"] = res["invertible"].to_strs()
        if res["certificate"] is not None:
            payload["certificate"] = res["certificate"]
        yield Report(f"irr equiv --n {n}", status, payload)
        return
    rep = _rep_from_args(n, args.q, args.lam, args.lam_prime)
    report = analyze(rep)
    status = {"operator-irreducible": "pass",
              "operator-reducible": "fail",
              "subspace-reducible-witnessed": "fail"}[report.verdict]
    yield Report(f"irr {args.action} --n {n}", status, report.to_payload())


def _cmd_exp(args):
    ctx = symbolic_q()
    for n in _sweep(args):
        rep = pas_exp_check(n, ctx)
        yield Report(f"exp check --n {n}", "pass" if rep.passed else "fail",
                     rep.to_payload())


def _cmd_sym(args):
    c1 = concrete_q(integer(1))
    g1, g2 = sl2_projection(["s1"]), sl2_projection(["s2"])
    for n in _sweep(args):
        ok1 = symmetric_power(g1, n) == sigma1_matrix(n, c1)
        ok2 = symmetric_power(g2, n) == sigma2_matrix(n, c1)
        yield Report(f"sym check --n {n}", "pass" if ok1 and ok2 else "fail",
                     {"n": n, "sigma1_matches": ok1, "sigma2_matches": ok2})


def _cmd_ferrand(args):
    ctx = symbolic_q()
    for n in _sweep(args):
        phi = ferrand_phi(n, ctx)
        psi = ferrand_psi(n, ctx)
        rep = verify_braid_like(phi, psi)
        payload = {"n": n, "braid_like": rep.passed,
                   "phi": phi.to_strs(), "psi": psi.to_strs()}
        yield Report(f"ferrand check --n {n}", "pass" if rep.passed else "fail",
                     payload)


_TW_DEFAULTS = {
    2: ("2,3", None),
    3: ("1,2,4", None),
    4: ("1,2,2,4", "1"),
    5: ("1,q^-1,q^-2,q^-2,1", None),
}


def _cmd_tw(args):
    if args.d is not None and args.n != 4:
        raise UsageError("--d applies only to n = 4")
    lam_text, d_text = _TW_DEFAULTS[args.n]
    if args.lam is not None:
        lam_text = args.lam
    if args.d is not None:
        d_text = args.d
    entries = _parse_lambda_csv(lam_text, args.n)
    scalars = entries + ([parse_scalar(d_text)] if d_text is not None else [])
    coerced, _ = _common_context(scalars)
    lam = tuple(coerced[:args.n])
    d = coerced[args.n] if d_text is not None else None
    params = TWParams(args.n, lam, d=d)
    rep = tw_equivalence_check(params)
    yield Report(f"tw check --n {args.n}", "pass" if rep.passed else "fail",
                 rep.to_payload())


def _cmd_sl2(args):
    word = [w.strip() for w in args.word.split(",") if w.strip()]
    try:
        image = sl2_projection(word)
    except ValueError as exc:
        raise UsageError(str(exc))
    yield Report(f"sl2 --word {args.word or '(empty)'}", "pass",
                 {"word": word, "matrix": image.to_strs()})


_HANDLERS = {
    "triangle": _cmd_triangle,
    "identities": _cmd_identities,
    "rep": _cmd_rep,
    "irr": _cmd_irr,
    "exp": _cmd_exp,
    "sym": _cmd_sym,
    "ferrand": _cmd_ferrand,
    "tw": _cmd_tw,
    "sl2": _cmd_sl2,
}


def run(argv=None, out=None):
    """Parse and execute one command; returns the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = _PARSER.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    worst = EXIT_PASS
    generator = _HANDLERS[args.command](args)
    while True:
        started = time.perf_counter()
        try:
            report = next(generator)
            report.timing_ms = (time.perf_counter() - started) * 1000.0
            text = report.to_json() if args.json else report.to_text()
        except StopIteration:
            break
        except DegreeCapExceeded as exc:
            print(f"degree cap exceeded: {exc}", file=sys.stderr)
            return EXIT_DEGREE_CAP
        except (UsageError, ZeroQ, ParseError) as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except QBraidError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_FAIL
        except Exception as exc:
            # a defect, not a verdict: exit 1 would read as a failed check
            import traceback
            traceback.print_exc(file=sys.stderr)
            command = " ".join(["qbraid", args.command, getattr(args, "action", "")]).strip()
            print(f"internal error in '{command}': {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        print(text, file=out)
        worst = max(worst, _STATUS_CODE[report.status])
    return worst


def main():
    cap = os.environ.get("QBRAID_MAX_DEGREE")
    if cap is not None:
        try:
            set_degree_cap(int(cap))
        except ValueError:
            print("usage error: QBRAID_MAX_DEGREE must be an integer", file=sys.stderr)
            return EXIT_USAGE
    return run()


if __name__ == "__main__":
    sys.exit(main())
