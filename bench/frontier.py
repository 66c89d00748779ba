"""Frontier harness: large-n CLI jobs, each in a fresh process under a deadline.

The benchmark in `perfbench/` times short seeded sessions; this harness runs
the jobs at the edge of what the program can do, one process each, and
records for every job its wall time, its exit code and whether it hit the
deadline of DEADLINE_S seconds.  A job that hits the deadline is killed and
recorded as a timeout (exit null), never as a pass or a failure.

    python3 bench/frontier.py --out frontier.json
    python3 bench/frontier.py --src /path/to/other/checkout/src --out old.json

Run from the checkout root; --src picks the source tree whose `qbraid` runs
(default: this checkout's src/).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Seconds each job may run before it is killed.
DEADLINE_S = 120.0


def catalog_lambda(n, s, lam0):
    """The raw diagonal lam0 diag(zeta_s^k), k = 0..n, of a root-of-unity
    catalog point, as a CSV spec."""
    return ",".join([lam0] + [f"{lam0}*zeta({s})^{k}" for k in range(1, n + 1)])


JOBS = [
    ["irr", "minors", "--n", "8", "--q", "2"],
    ["irr", "minors", "--n", "10", "--q", "2"],
    ["irr", "minors", "--n", "5", "--q", "q"],
    ["irr", "minors", "--n", "8", "--q", "q"],
    ["irr", "minors", "--n", "10", "--q", "q"],
    ["rep", "verify", "--n", "20", "--q", "q"],
    ["identities", "--id", "all", "--max-n", "10"],
    # reducible catalog points: commutant and intertwiners by the lift
    ["irr", "minors", "--n", "10", "--q", "1", "--lambda=" + catalog_lambda(10, 3, "2")],
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree holding the qbraid package")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "qbraid" / "cli.py").is_file():
        parser.error(f"no qbraid package under {src}")
    records = []
    for job in JOBS:
        record = run_job(job, src)
        records.append(record)
        outcome = "timeout" if record["timed_out"] else f"exit {record['exit']}"
        print(f"{' '.join(job):28} {record['wall_s']:9.3f} s  {outcome}", flush=True)
    doc = {"deadline_s": DEADLINE_S,
           "machine": {"python": platform.python_version(), "system": platform.system(),
                       "machine": platform.machine(), "cpus": os.cpu_count()},
           "jobs": records}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
