"""Frontier harness: large-n CLI jobs, each in a fresh process under a deadline.

The benchmark in `perfbench/` times short seeded sessions; this harness runs
the jobs at the edge of what the program can do, one process each, and
records for every job its wall time, its exit code and whether it hit the
deadline of DEADLINE_S seconds.  A job that hits the deadline is killed and
recorded as a timeout (exit null), never as a pass or a failure.  Each job
runs REPEATS times and its median wall time is recorded with every run.

    python3 bench/frontier.py --out frontier.json
    python3 bench/frontier.py --src /path/to/other/checkout/src --out old.json
    python3 bench/frontier.py --baseline /path/to/parent/checkout/src --out cmp.json

Run from the checkout root; --src picks the source tree whose `qbraid` runs
(default: this checkout's src/).  With --baseline the runs of each job
alternate between the two trees, the side that goes first switching from run
to run and from job to job, so that the machine's drift falls on both sides
alike; the record then holds the baseline's runs and median as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Seconds each job may run before it is killed.
DEADLINE_S = 120.0

# Runs of each job (per side): the median of three is not moved by one run
# that the VM's drift slowed or sped up.
REPEATS = 3


def catalog_lambda(n, s, lam0):
    """The raw diagonal lam0 diag(zeta_s^k), k = 0..n, of a root-of-unity
    catalog point, as a CSV spec."""
    return ",".join([lam0] + [f"{lam0}*zeta({s})^{k}" for k in range(1, n + 1)])


JOBS = [
    # the start-up floor: a command whose arithmetic takes well under a millisecond
    ["sl2", "--word", "s1,s2,s1"],
    ["irr", "minors", "--n", "8", "--q", "2"],
    ["irr", "minors", "--n", "10", "--q", "2"],
    # operator-irreducible points where the mod-p oracle certificates dominate
    ["irr", "minors", "--n", "20", "--q", "2"],
    ["irr", "minors", "--n", "30", "--q", "2"],
    # a determinant beyond CPython's 4,300-digit limit on int-to-str conversion
    ["irr", "minors", "--n", "40", "--q", "2"],
    # a reducible point that is not a catalog point: the exact algebra span decides
    ["irr", "minors", "--n", "10", "--q", "zeta(5)"],
    ["irr", "minors", "--n", "6", "--q", "zeta(5)"],
    ["irr", "burnside", "--n", "8", "--q", "zeta(7)"],
    ["irr", "minors", "--n", "5", "--q", "q"],
    ["irr", "minors", "--n", "8", "--q", "q"],
    ["irr", "minors", "--n", "10", "--q", "q"],
    ["irr", "minors", "--n", "12", "--q", "q"],
    # symbolic determinants over Q(zeta_3)(q)
    ["irr", "minors", "--n", "6", "--q", "q", "--lambda-prime=1,zeta(3),2,1,1/2,zeta(3)^2,1"],
    ["irr", "minors", "--n", "8", "--q", "q",
     "--lambda-prime=1,zeta(3),2,zeta(3)^2,1,zeta(3),1/2,zeta(3)^2,1"],
    # Laurent products over Q(zeta_3)
    ["rep", "verify", "--n", "12", "--q", "q",
     "--lambda-prime=1,zeta(3),2,zeta(3)^2,3,zeta(3),1,zeta(3)^2,1/3,zeta(3),1/2,zeta(3)^2,1"],
    ["rep", "verify", "--n", "20", "--q", "q"],
    ["identities", "--id", "all", "--max-n", "10"],
    ["exp", "check", "--max-n", "10"],
    # the q-binomial identities and the q-exponential at symbolic q, where
    # most terms have a zero or one-term factor
    ["identities", "--id", "all", "--max-n", "14"],
    ["exp", "check", "--max-n", "14"],
    ["rep", "verify", "--n", "12", "--q", "zeta(5)"],
    # one root of unity of large order: phi(9999) = 6000
    ["rep", "verify", "--n", "1", "--q", "zeta(9999)"],
    # reducible catalog points: commutant and intertwiners by the lift
    ["irr", "minors", "--n", "10", "--q", "1", "--lambda=" + catalog_lambda(10, 3, "2")],
    # the exhaustive minor search: about 1,900 determinants over Q(zeta_3)
    ["irr", "minors", "--n", "14", "--q", "1", "--lambda=" + catalog_lambda(14, 3, "2")],
    ["irr", "equiv", "--n", "8", "--q", "1", "--lambda=" + catalog_lambda(8, 4, "2"),
     "--lambda2=" + catalog_lambda(8, 4, "2")],
]

# Report fields copied into the record, when the report has them.
_PAYLOAD_FIELDS = ("verdict", "commutant_dim", "burnside_dim", "dimension")


def run_job(argv, src):
    """One job in a fresh interpreter; returns its record."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "qbraid.cli", *argv, "--json"]
    record = {"job": " ".join(argv)}
    started = time.perf_counter()
    try:
        done = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        record.update(wall_s=round(time.perf_counter() - started, 3), exit=None,
                      timed_out=True)
        return record
    record.update(wall_s=round(time.perf_counter() - started, 3), exit=done.returncode,
                  timed_out=False)
    lines = done.stdout.strip().splitlines()
    if lines:
        report = json.loads(lines[-1])
        record["status"] = report["status"]
        record.update({k: report["payload"][k] for k in _PAYLOAD_FIELDS
                       if k in report["payload"]})
    elif done.stderr:
        record["stderr_tail"] = done.stderr.strip().splitlines()[-1]
    return record


def summarize(runs):
    """One side's record of a job from its runs: the median wall time, every
    run's time, and the exit code and report fields of the first run."""
    record = {k: v for k, v in runs[0].items() if k != "wall_s"}
    record["wall_s"] = statistics.median(r["wall_s"] for r in runs)
    record["runs_s"] = [r["wall_s"] for r in runs]
    record["timed_out"] = any(r["timed_out"] for r in runs)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree holding the qbraid package")
    parser.add_argument("--baseline", help="a second source tree to alternate with --src")
    args = parser.parse_args(argv)
    sides = {"src": Path(args.src).resolve()}
    if args.baseline:
        sides["baseline"] = Path(args.baseline).resolve()
    for tree in sides.values():
        if not (tree / "qbraid" / "cli.py").is_file():
            parser.error(f"no qbraid package under {tree}")
    records = []
    for i, job in enumerate(JOBS):
        runs = {side: [] for side in sides}
        for repeat in range(REPEATS):
            order = list(sides) if (i + repeat) % 2 == 0 else list(sides)[::-1]
            for side in order:
                runs[side].append(run_job(job, sides[side]))
        record = summarize(runs["src"])
        line = f"{' '.join(job):36} {record['wall_s']:9.3f} s"
        if args.baseline:
            record["baseline"] = summarize(runs["baseline"])
            line += f"  (baseline {record['baseline']['wall_s']:9.3f} s)"
        records.append(record)
        outcome = "timeout" if record["timed_out"] else f"exit {record['exit']}"
        print(f"{line}  {outcome}", flush=True)
    doc = {"deadline_s": DEADLINE_S, "repeats": REPEATS,
           "machine": {"python": platform.python_version(), "system": platform.system(),
                       "machine": platform.machine(), "cpus": os.cpu_count()},
           "jobs": records}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
