"""Output checks for benchmark jobs.

Every job is checked against what holds for every input (its exit code,
the shape and consistency of its reports, known verdicts).  For the default
seed the reports must also equal the committed expected reports byte for
byte once their `timing_ms` values are masked.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

_STATUS_EXIT = {"pass": 0, "fail": 1, "inconclusive": 2}
_TIMING = re.compile(r'"timing_ms": [-+0-9.eE]+')
_REDUCIBLE = ("operator-reducible", "subspace-reducible-witnessed")


def strip_timing(text):
    """Report text with every timing value masked."""
    return _TIMING.sub('"timing_ms": 0', text)


def expected_path(workload):
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(workload):
    """Committed reports of the default seed: a list of {argv, exit, stdout}."""
    with open(expected_path(workload)) as fh:
        return json.load(fh)


def _square(cells, size):
    return isinstance(cells, list) and len(cells) == size and all(
        isinstance(row, list) and len(row) == size
        and all(isinstance(x, str) and x for x in row) for row in cells)


def _check_report(argv, report, job):
    """Problems with one report, from what holds for every input."""
    cmd, payload, status = argv[:2], report["payload"], report["status"]
    if status not in _STATUS_EXIT:
        return [f"unknown status {status!r}"]
    if cmd == ["rep", "verify"]:
        ok = payload.get("passed") is True and status == "pass" and \
            payload.get("checks") and all(c["passed"] for c in payload["checks"])
        return [] if ok else ["braid identity not verified"]
    if cmd[0] == "identities":
        ok = status == "pass" and payload.get("results") and \
            all(r.get("passed") is True for r in payload["results"].values())
        return [] if ok else ["identity not verified"]
    if cmd == ["exp", "check"]:
        return [] if payload.get("passed") is True and status == "pass" \
            else ["Pascal exponential not verified"]
    if cmd == ["rep", "build"]:
        size = payload.get("n", -1) + 1
        ok = status == "pass" and len(payload.get("lambda_raw", ())) == size and \
            _square(payload.get("sigma1"), size) and _square(payload.get("sigma2"), size)
        return [] if ok else ["malformed representation"]
    if cmd == ["irr", "equiv"]:
        # Both sides are the same representation: an invertible intertwiner
        # always exists.
        ok = status == "pass" and payload.get("status") == "equivalent" and \
            payload.get("dimension", 0) >= 1 and "invertible_intertwiner" in payload
        return [] if ok else ["self-equivalence not certified"]
    if cmd[0] == "irr":
        problems = []
        full = (payload.get("n", -1) + 1) ** 2
        cdim, bdim = payload.get("commutant_dim"), payload.get("burnside_dim")
        verdict = payload.get("verdict")
        if not (isinstance(cdim, int) and 1 <= cdim <= full):
            problems.append(f"commutant_dim {cdim!r} outside 1..{full}")
        if not (isinstance(bdim, int) and 1 <= bdim <= full):
            problems.append(f"burnside_dim {bdim!r} outside 1..{full}")
        if isinstance(cdim, int) and cdim > 1 and verdict != "operator-reducible":
            problems.append(f"commutant_dim {cdim} with verdict {verdict!r}")
        want = {"operator-irreducible": "pass", "inconclusive": "inconclusive"}.get(
            verdict, "fail" if verdict in _REDUCIBLE else None)
        if want != status:
            problems.append(f"status {status!r} disagrees with verdict {verdict!r}")
        if job.get("verdict") is not None and verdict != job["verdict"]:
            problems.append(f"verdict {verdict!r}, expected {job['verdict']!r}")
        return problems
    return [f"no check for command {' '.join(cmd)!r}"]


def check_job(job, result, expected=None):
    """Problems with one job's result (empty when it is correct).

    result holds `exit`, `stdout` and `error` as a session returns them;
    expected, when given, is the committed entry of the same job.
    """
    if result.get("error"):
        return ["raised: " + result["error"].strip().splitlines()[-1]]
    problems = []
    reports = []
    for line in result["stdout"].splitlines():
        try:
            report = json.loads(line)
        except json.JSONDecodeError:
            report = None
        if not isinstance(report, dict):
            return [f"unparseable report line {line[:60]!r}"]
        reports.append(report)
    if not reports:
        problems.append("no report")
    for report in reports:
        try:
            problems.extend(_check_report(job["argv"], report, job))
        except (KeyError, TypeError, AttributeError) as exc:
            problems.append(f"malformed report: {exc!r}")
    worst = max((_STATUS_EXIT.get(str(r.get("status")), 3) for r in reports),
                default=0)
    want_exit = worst if job.get("exit") is None else job["exit"]
    if result["exit"] != want_exit or (reports and result["exit"] != worst):
        problems.append(f"exit code {result['exit']}, expected {want_exit}")
    if expected is not None:
        if expected["argv"] != job["argv"]:
            problems.append("expected reports belong to another job")
        elif strip_timing(result["stdout"]) != expected["stdout"]:
            problems.append("reports differ from the expected reports")
    return problems
