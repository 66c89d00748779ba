"""CLI surface: scalar specs, reports, exit codes, output modes."""

import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qbraid import cli
from qbraid.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_USAGE,
    UsageError,
    latex_matrix,
    run,
)
from qbraid.errors import ZeroQ
from qbraid.qcomb import symbolic_q
from qbraid.rep import sigma1_matrix
from qbraid.scalar import integer, parse_scalar, q_symbol, set_degree_cap, zeta


def run_cli(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def run_json(*argv):
    code, text = run_cli(*argv, "--json")
    reports = [json.loads(line) for line in text.strip().splitlines()]
    return code, reports


# --- scalar specs -----------------------------------------------------------------

def test_parse_scalar_spec_examples():
    assert parse_scalar("q") == q_symbol()
    assert parse_scalar("zeta(3)") == zeta(3)
    assert parse_scalar("-1") == integer(-1)


def test_round_trip_of_emitted_scalars():
    ctx = symbolic_q()
    for n in range(5):
        for entry in sigma1_matrix(n, ctx).inverse().to_strs():
            for text in entry:
                assert str(parse_scalar(text)) == text


# --- matrix emission ---------------------------------------------------------------

def test_emit_matrix_latex():
    ctx = symbolic_q()
    body = latex_matrix(sigma1_matrix(2, ctx))
    assert body == "1 & 1+q & 1 \\\\\n0 & 1 & 1 \\\\\n0 & 0 & 1"


# --- commands and exit codes -----------------------------------------------------------

def test_rep_verify_passes():
    code, reports = run_json("rep", "verify", "--n", "3", "--q", "q",
                             "--lambda-prime", "1,1,1,1")
    assert code == EXIT_PASS
    assert reports[0]["status"] == "pass"
    assert set(reports[0]) == {"command", "status", "payload", "timing_ms"}


def test_irr_commutant_reducible_point():
    code, reports = run_json("irr", "commutant", "--n", "2", "--q", "1",
                             "--lambda", "1,-1,1")
    assert code == EXIT_FAIL
    payload = reports[0]["payload"]
    assert payload["commutant_dim"] >= 2
    assert payload["verdict"] == "operator-reducible"


def test_identities_sweep():
    code, reports = run_json("identities", "--id", "bin1q", "--max-n", "4")
    assert code == EXIT_PASS
    assert [r["payload"]["n"] for r in reports] == [1, 2, 3, 4]
    assert all(r["payload"]["results"]["bin1q"]["passed"] for r in reports)


def test_triangle_row_output():
    code, reports = run_json("triangle", "--n", "2")
    assert code == EXIT_PASS
    assert reports[0]["payload"]["row"] == ["1", "1+q", "1"]


def test_rep_build_payload():
    code, reports = run_json("rep", "build", "--n", "1", "--q", "1",
                             "--lambda", "3,5")
    assert code == EXIT_PASS
    payload = reports[0]["payload"]
    assert payload["sigma1"] == [["3", "5"], ["0", "5"]]
    assert payload["sigma2"] == [["5", "0"], ["-3", "3"]]


def test_irr_equiv_inequivalent_exit():
    code, reports = run_json("irr", "equiv", "--n", "2", "--q", "1", "--q2", "2")
    assert code == EXIT_FAIL
    assert reports[0]["payload"]["dimension"] == 0


def test_irr_catalog():
    code, reports = run_json("irr", "catalog", "--n", "2")
    assert code == EXIT_PASS
    assert reports[0]["payload"]["entries"][0]["lambda"] == ["1", "-1", "1"]


def test_check_subcommands_pass():
    for argv in (["exp", "check", "--n", "3"],
                 ["sym", "check", "--n", "3"],
                 ["ferrand", "check", "--n", "2"],
                 ["tw", "check", "--n", "3"],
                 ["tw", "check", "--n", "5"],
                 ["sl2", "--word", "s1,s2,s1"]):
        code, _ = run_cli(*argv)
        assert code == EXIT_PASS, argv


def test_usage_errors():
    assert run(["nope"]) == EXIT_USAGE
    assert run(["rep", "verify"]) == EXIT_USAGE          # missing --n
    assert run(["rep", "verify", "--n", "1", "--q", "0"]) == EXIT_USAGE  # ZeroQ
    assert run(["rep", "verify", "--n", "1", "--q", "1",
                "--lambda", "1,1", "--lambda-prime", "1,1"]) == EXIT_USAGE
    assert run(["rep", "verify", "--n", "2", "--q", "1",
                "--lambda", "1,1"]) == EXIT_USAGE        # wrong count
    assert run(["rep", "verify", "--n", "1", "--q", "q",
                "--lambda-prime=1,,1"]) == EXIT_USAGE    # empty field
    assert run(["tw", "check", "--n", "3", "--lambda=1,,2,4"]) == EXIT_USAGE
    assert run(["sl2", "--word", "sigma"]) == EXIT_USAGE
    assert run(["rep", "verify", "--n", "1", "--q", "q%"]) == EXIT_USAGE


def test_spec_that_fails_to_parse_is_a_usage_error():
    # a non-ASCII digit used to escape the parser as a ValueError
    assert run_cli("rep", "verify", "--n", "1", "--q", "2\u00b2") == (EXIT_USAGE, "")


def test_tw_zero_d_is_a_failure_that_names_d(capsys):
    assert run(["tw", "check", "--n", "4", "--d", "0"]) == EXIT_FAIL
    assert capsys.readouterr().err == \
        "error: ConstraintViolated: the square-root parameter d must be nonzero\n"


@pytest.mark.parametrize("n", [2, 3, 5])
def test_tw_d_away_from_size_4_is_a_usage_error(n, capsys):
    assert run_cli("tw", "check", "--n", str(n), "--d", "0") == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "usage error: --d applies only to n = 4\n"
    assert run_cli("tw", "check", "--n", str(n))[0] == EXIT_PASS


def test_cond_q_violation_is_a_failure():
    assert run(["rep", "verify", "--n", "2", "--q", "1",
                "--lambda", "1,1,2"]) == EXIT_FAIL


def test_degree_cap_exit_code():
    set_degree_cap(3)
    try:
        assert run(["triangle", "--n", "9"]) == 4
    finally:
        set_degree_cap(None)


def test_degree_cap_stops_the_fraction_free_minors(capsys):
    """At n = 3 the largest product of the minor criterion's Bareiss steps
    has degree 7, and nothing else the command computes goes above it."""
    set_degree_cap(6)
    try:
        assert run(["irr", "minors", "--n", "3", "--q", "q"]) == 4
    finally:
        set_degree_cap(None)
    assert capsys.readouterr().err == \
        "degree cap exceeded: symbolic degree 7 exceeds cap 6\n"
    set_degree_cap(7)
    try:
        assert run(["irr", "minors", "--n", "3", "--q", "q"]) == EXIT_PASS
    finally:
        set_degree_cap(None)


def test_degree_cap_stops_the_cyclotomic_minors_at_their_q_degree(capsys):
    """Over Q(zeta_3)(q) the Bareiss entries are int lists in y, with
    zeta -> y and q -> y^N (N = 6 for a 5x5 minor), and the cap is checked
    on their q-degree, not on their y-degree: at n = 4 the largest product
    has q-degree 21."""
    argv = ["irr", "minors", "--n", "4", "--q", "q",
            "--lambda-prime=1,zeta(3),1,zeta(3)^2,1"]
    set_degree_cap(20)
    try:
        assert run(argv) == 4
    finally:
        set_degree_cap(None)
    assert capsys.readouterr().err == \
        "degree cap exceeded: symbolic degree 21 exceeds cap 20\n"
    set_degree_cap(21)
    try:
        assert run(argv) == EXIT_PASS
    finally:
        set_degree_cap(None)


def test_degree_cap_holds_when_the_polynomials_are_cached():
    assert run(["triangle", "--n", "9"]) == EXIT_PASS   # fills the q-binomial cache
    set_degree_cap(3)
    try:
        assert run(["triangle", "--n", "9"]) == 4
    finally:
        set_degree_cap(None)


def test_exit_codes_are_deterministic():
    first = run_cli("irr", "minors", "--n", "2", "--q", "1", "--lambda", "1,-1,1")
    second = run_cli("irr", "minors", "--n", "2", "--q", "1", "--lambda", "1,-1,1")
    assert first[0] == second[0] == EXIT_FAIL


def test_an_internal_error_exits_5_and_names_the_command(monkeypatch, capsys):
    """An exception that is not a QBraidError is not a verdict: exit 5, nothing
    on stdout, and the message names the command."""
    def broken(args):
        raise RuntimeError("boom")
        yield

    monkeypatch.setitem(cli._HANDLERS, "irr", broken)
    assert run_cli("irr", "minors", "--n", "2", "--q", "2", "--json") == (EXIT_INTERNAL, "")
    err = capsys.readouterr().err
    assert "internal error in 'qbraid irr minors': RuntimeError: boom" in err


def test_a_report_beyond_the_int_string_limit_is_written():
    """irr minors at n = 36, q = 2 has minors of more than 4,300 digits; it
    exits 0 and reports them exactly, and a lambda literal that long parses."""
    code, reports = run_json("irr", "minors", "--n", "36", "--q", "2")
    assert code == EXIT_PASS
    minors = [r["minor"] for r in reports[0]["payload"]["per_r"]]
    assert max(len(v) for v in minors) > 4300
    assert all(parse_scalar(v) != integer(0) for v in minors)
    big = "1" + "0" * 5000
    code, reports = run_json("rep", "verify", "--n", "1", "--q", "2", f"--lambda={big},{big}")
    assert code == EXIT_PASS
    assert reports[0]["payload"]["passed"]


def test_json_schema_stability():
    _, reports = run_json("irr", "minors", "--n", "2", "--q", "1",
                          "--lambda", "1,-1,1")
    payload = reports[0]["payload"]
    assert set(payload) == {"n", "q", "lambda", "per_r", "commutant_dim",
                            "burnside_dim", "verdict"}
    assert payload["per_r"][0]["exhausted"] is True
    assert payload["per_r"][1]["witness"] == [0]


def test_mixed_field_specs():
    code, reports = run_json("rep", "verify", "--n", "1", "--q", "1",
                             "--lambda", "1,zeta(6)")
    assert code == EXIT_PASS


def test_json_reports_match_golden_files():
    import pathlib
    golden_dir = pathlib.Path(__file__).parent / "golden"
    for argv, name in ((["irr", "minors", "--n", "2", "--q", "1",
                         "--lambda", "1,-1,1"], "irr_minors_suspected_n2.json"),
                       (["rep", "build", "--n", "2", "--q", "q",
                         "--lambda-prime", "1,1,1"], "rep_build_n2_symbolic.json")):
        _, reports = run_json(*argv)
        got = dict(reports[0])
        del got["timing_ms"]
        assert got == json.loads((golden_dir / name).read_text()), name


def replay_golden_file(name):
    """Run every recorded argv of a golden file and compare its exit code and
    timing-stripped reports."""
    import pathlib
    path = pathlib.Path(__file__).parent / "golden" / name
    for case in json.loads(path.read_text()):
        code, reports = run_json(*case["argv"])
        for report in reports:
            del report["timing_ms"]
        assert (code, reports) == (case["exit"], case["reports"]), case["argv"]


def test_function_field_reports_match_golden_file():
    """`rep` and `irr` over Q(zeta_m)(q) and at non-monomial q, replayed
    against recorded reports with their exit codes."""
    replay_golden_file("function_field_zeta_q.json")


def test_cyclotomic_exact_route_reports_match_golden_file():
    """`irr minors` and `irr equiv` at reducible root-of-unity points, which
    no mod-p certificate settles, so commutant, Burnside and intertwiner
    bases run exactly over Q(zeta_s); plus `rep build` at q = zeta5 and a
    point with a non-integral Q(zeta3) entry."""
    replay_golden_file("cyclotomic_exact_route.json")


def test_catalog_intertwiner_reports_match_golden_file():
    """`irr equiv` at n = 4 and 6 and `irr minors` at n = 6 at the zeta2,
    zeta3 and zeta4 catalog points with lambda_0 = 2 and 2/3, whose commutant
    and intertwiner bases the multi-modular lift computes, replayed against
    reports recorded from the exact route."""
    replay_golden_file("catalog_intertwiners.json")


def test_exact_burnside_reports_match_golden_file():
    """`irr burnside` where the algebra is deficient outside the catalog, so
    the exact span decides: q = -1 at n = 2, 4 and 6 over Q (at n = 2 the
    commutant is one-dimensional and the Burnside dimension alone gives the
    verdict), and n = 1 over Q(zeta6)(q), where it spans rational functions."""
    replay_golden_file("exact_burnside.json")


def test_structure_reports_match_golden_file():
    """`exp`, `sym`, `ferrand`, `tw` and `sl2` checks, `rep build --latex`
    and `rep verify` at symbolic q and q = zeta4, replayed against recorded
    reports with their exit codes."""
    replay_golden_file("structure_reports.json")


def test_symbolic_products_match_golden_file():
    """`identities` (all of them to n = 6, bin2q to n = 8) and `rep verify` at
    symbolic q: n = 12 and n = 6 with Laurent dressings of mixed
    denominators, which take the packed product, and n = 3 over Q(zeta3)(q),
    which takes the term-by-term product and the lifted q -> q^-1 reversal."""
    replay_golden_file("symbolic_products.json")


def test_irr_analysis_at_symbolic_q():
    code, reports = run_json("irr", "minors", "--n", "2", "--q", "q")
    assert code == EXIT_PASS
    payload = reports[0]["payload"]
    assert payload["per_r"][0]["minor"] == "2*q"
    assert payload["verdict"] == "operator-irreducible"
    assert payload["burnside_dim"] == 9


def test_main_reads_degree_cap_env(monkeypatch, capsys):
    from qbraid.cli import main
    monkeypatch.setenv("QBRAID_MAX_DEGREE", "3")
    monkeypatch.setattr("sys.argv", ["qbraid", "triangle", "--n", "9"])
    try:
        assert main() == 4
    finally:
        set_degree_cap(None)
    monkeypatch.setenv("QBRAID_MAX_DEGREE", "not-an-int")
    assert main() == EXIT_USAGE


# --- the shared parser -------------------------------------------------------------

def parse_or_usage(parser, argv):
    try:
        return parser.parse_args(argv)
    except UsageError as exc:
        return f"usage error: {exc}"


def test_shared_parser_parses_as_a_fresh_one(monkeypatch):
    """`run` parses with one parser built at import, which must parse every
    argv as a freshly built parser does, whatever it parsed before: usage
    errors, and an --n call right after a --max-n call."""
    sequence = [(["rep", "verify", "--n", "-1"], EXIT_USAGE),
                (["irr", "bogus"], EXIT_USAGE),
                (["rep", "verify", "--n", "2"], EXIT_PASS),
                (["identities", "--max-n", "3"], EXIT_PASS),
                (["identities", "--n", "2"], EXIT_PASS),
                (["rep", "build", "--max-n", "2", "--q", "2"], EXIT_PASS),
                (["rep", "build", "--n", "1"], EXIT_PASS),
                (["irr", "minors", "--n", "2", "--lambda", "1,2,3"], EXIT_FAIL),
                (["irr", "equiv", "--n", "2"], EXIT_PASS)]
    for argv, _ in sequence:
        assert parse_or_usage(cli._PARSER, argv) == \
            parse_or_usage(cli._build_parser(), argv), argv
    # run does not build a parser of its own
    monkeypatch.setattr(cli, "_build_parser", None)
    for argv, code in sequence:
        assert run_cli(*argv)[0] == code, argv


# --- size arguments ------------------------------------------------------------------------

SWEEP_COMMANDS = [["triangle"], ["identities"], ["rep", "build"], ["rep", "verify"],
                  ["exp", "check"], ["sym", "check"], ["ferrand", "check"]]
OTHER_N_COMMANDS = [["irr", action] for action in
                    ("minors", "commutant", "burnside", "catalog", "equiv")] + [["tw", "check"]]


@pytest.mark.parametrize("command", SWEEP_COMMANDS + OTHER_N_COMMANDS, ids=" ".join)
def test_size_arguments_are_checked(command):
    bad = [("--n", "-1"), ("--n", "-2"), ("--n", "x")]
    if command in SWEEP_COMMANDS:
        bad += [("--max-n", "0"), ("--max-n", "-1")]
    for flag, value in bad:
        assert run_cli(*command, flag, value) == (EXIT_USAGE, ""), (flag, value)
    if command[-1] == "catalog":   # the catalog starts at n = 2
        for value in ("0", "1"):
            assert run_cli(*command, "--n", value) == (EXIT_USAGE, ""), value
    elif command[0] != "tw":   # --n 0 stays valid
        code, reports = run_json(*command, "--n", "0")
        assert code == EXIT_PASS and reports[0]["payload"]["n"] == 0


# --- start-up ----------------------------------------------------------------------

_SRC = str(Path(cli.__file__).resolve().parents[1])


def run_isolated(code):
    """Run code in a fresh interpreter under -I -S (no site-packages, no
    environment) with this source tree first on the path; returns stdout."""
    prelude = f"import sys; sys.path.insert(0, {_SRC!r}); "
    done = subprocess.run([sys.executable, "-I", "-S", "-c", prelude + code],
                          capture_output=True, text=True, check=True, timeout=60)
    return done.stdout


def test_a_start_loads_neither_dataclasses_nor_inspect_nor_json():
    loaded = run_isolated("import qbraid.cli; "
                          "print([m for m in ('dataclasses', 'inspect', 'json') "
                          "if m in sys.modules])")
    assert loaded == "[]\n"


def test_json_is_loaded_by_a_json_report_only():
    text = run_isolated("from qbraid.cli import run; run(['sl2', '--word', 's1,s2,s1']); "
                        "print('json' in sys.modules)")
    assert text.endswith("  matrix:\n     0  1\n    -1  0\nFalse\n")
    report, loaded = run_isolated(
        "from qbraid.cli import run; run(['sl2', '--word', 's1,s2,s1', '--json']); "
        "print('json' in sys.modules)").splitlines()
    assert loaded == "True"
    assert re.sub(r'"timing_ms": [0-9.e-]+', '"timing_ms": 0', report) == (
        '{"command": "sl2 --word s1,s2,s1", "status": "pass", "payload": '
        '{"word": ["s1", "s2", "s1"], "matrix": [["0", "1"], ["-1", "0"]]}, '
        '"timing_ms": 0}')
