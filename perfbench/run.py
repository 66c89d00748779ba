"""The qbraid benchmark: closed-loop CLI sessions over seeded job lists.

One run of a workload runs its job list in fresh session processes (one
client, jobs back to back, cold caches in every session) until --seconds
have been spent, samples the set-up time of a fresh `qbraid` process after
every session, and checks every report.  Timings are medians over sessions;
session and job times are reported both as timed and rescaled to a
reference machine speed (see REF_CHUNK_S).

    python3 perfbench/run.py --workload braid-symbolic --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seconds 40     # every workload, one table
    python3 perfbench/run.py --all --trace 1        # per-layer table
    python3 perfbench/run.py --print-jobs --seed 7  # argv lists, rerunnable by hand
    python3 perfbench/run.py --bless                # rewrite expected reports

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
sessions alternate untraced and traced, and it holds the per-layer metrics
of the traced ones plus the tracing overhead.  Run from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, jobs_for, jobs_hash  # noqa: E402

# Set-up is sampled a few times after every session, so that its median
# spans the same stretch of machine time as the sessions' median.
SETUP_REPEATS = 3
SETUP_ARGV = ["sl2", "--word", "s1,s2,s1"]
SETUP_STDOUT_TAIL = "  matrix:\n     0  1\n    -1  0\n"
SESSION_TIMEOUT_S = 150

END_TO_END = [("setup_s", "s"), ("wall_ref_s", "s"), ("top_job_ref_s", "s"),
              ("peak_rss_mb", "MB")]

# Seconds one calibration chunk (session.calibration_chunk) takes at the
# reference speed: its typical time on the 2-vCPU Xeon VM the benchmark was
# defined on.  The speed of that VM drifts by +-25% over minutes, so job
# times are also reported rescaled to this speed (`*_ref_s`): each job's time
# is multiplied by REF_CHUNK_S over the mean of the speed samples taken just
# before and just after it.
REF_CHUNK_S = 0.008

# Per-layer metrics of a traced run, with units.  Each `.s` is self time:
# the span's time minus the time of the wrapped spans it calls.
PER_LAYER = [
    ("scalar.laurent_mul.calls", "count"), ("scalar.laurent_mul.s", "s"),
    ("scalar.substitute.calls", "count"), ("scalar.substitute.s", "s"),
    ("scalar.ratfunc_make.calls", "count"), ("scalar.ratfunc_make.s", "s"),
    ("scalar.ratfunc_make.gcd_ratio", "ratio"),
    ("scalar.cyclotomic_mul.calls", "count"), ("scalar.cyclotomic_mul.s", "s"),
    ("scalar.cyclotomic_inverse.calls", "count"), ("scalar.cyclotomic_inverse.s", "s"),
    ("scalar.max_q_degree", "degree"), ("scalar.max_coeff_bits", "bits"),
    ("scalar.cache_hit_ratio", "ratio"), ("scalar.self_s", "s"),
    ("linalg.mul.calls", "count"), ("linalg.mul.s", "s"),
    ("linalg.elim.calls", "count"), ("linalg.elim.s", "s"), ("linalg.self_s", "s"),
    ("qcomb.q_binomial.calls", "count"), ("qcomb.q_binomial.s", "s"),
    ("qcomb.verify_identity.s", "s"), ("qcomb.verify_identity.total_s", "s"),
    ("qcomb.cache_hit_ratio", "ratio"), ("qcomb.self_s", "s"),
    ("rep.build_representation.s", "s"), ("rep.build_representation.total_s", "s"),
    ("rep.sigma2_matrix.s", "s"), ("rep.sigma2_matrix.total_s", "s"),
    ("rep.verify_braid.s", "s"), ("rep.verify_braid.total_s", "s"),
    ("rep.cache_hit_ratio", "ratio"), ("rep.self_s", "s"),
    ("structure.pas_exp_check.s", "s"), ("structure.pas_exp_check.total_s", "s"),
    ("structure.self_s", "s"),
    ("irred.minor_criterion.s", "s"), ("irred.minor_criterion.total_s", "s"),
    ("irred.minor_criterion.subsets_checked", "count"),
    ("irred.commutant_dimension.s", "s"), ("irred.commutant_dimension.total_s", "s"),
    ("irred.burnside_dimension.s", "s"), ("irred.burnside_dimension.total_s", "s"),
    ("irred.burnside.insert_yield", "ratio"),
    ("irred.intertwiner_space.s", "s"), ("irred.intertwiner_space.total_s", "s"),
    ("irred.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _require_source():
    if not (ROOT / "src" / "qbraid" / "cli.py").is_file():
        raise BenchError(f"no qbraid source under {ROOT / 'src'}; run from a checkout")


def _session_env():
    env = dict(os.environ)
    env.pop("QBRAID_MAX_DEGREE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(workload, seed, jobs):
    return {"workload": workload, "seed": seed, "jobs": len(jobs),
            "jobs_sha256_16": jobs_hash(jobs),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "commit": _git_commit()}


def measure_setup(repeats):
    """Wall seconds for fresh interpreters to run a trivial qbraid command;
    returns (times, number of starts whose output or exit code was wrong)."""
    cmd = [sys.executable, "-c",
           "import sys; from qbraid.cli import main; sys.exit(main())"] + SETUP_ARGV
    times, failed = [], 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_session_env(), capture_output=True,
                              text=True, timeout=SESSION_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or not proc.stdout.endswith(SETUP_STDOUT_TAIL):
            failed += 1
    return times, failed


def run_session(jobs, trace=False, spans_path=None):
    """Run the job list in a fresh session process and return its document."""
    request = json.dumps({"jobs": jobs, "trace": trace,
                          "spans_path": str(spans_path) if spans_path else None})
    proc = subprocess.run([sys.executable, str(HERE / "session.py")], input=request,
                          cwd=ROOT, env=_session_env(), capture_output=True,
                          text=True, timeout=SESSION_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"session exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def check_session(jobs, doc, expected):
    """[(job index, problems)] for every failed job of a session."""
    failures = []
    for i, (job, result) in enumerate(zip(jobs, doc["jobs"])):
        problems = check.check_job(job, result, expected[i] if expected else None)
        if problems:
            failures.append((i, problems))
    return failures


def _median(values):
    return statistics.median(values) if values else 0.0


def _ref_seconds(doc):
    """Each job's seconds rescaled to the reference speed."""
    c = doc["calib_s"]
    return [job["seconds"] * 2 * REF_CHUNK_S / (c[j] + c[j + 1])
            for j, job in enumerate(doc["jobs"])]


def _cache_ratio(doc, layer):
    c = doc["caches"].get(layer, {"hits": 0, "misses": 0})
    total = c["hits"] + c["misses"]
    return c["hits"] / total if total else 0.0


def run_workload(workload, seed, seconds, trace, log=print):
    """One benchmark run: returns (result line dict, context)."""
    _require_source()
    jobs = jobs_for(workload, seed)
    context = run_context(workload, seed, jobs)
    expected = check.load_expected(workload) if seed == DEFAULT_SEED else None
    if expected is not None and len(expected) != len(jobs):
        raise BenchError(f"expected reports for {workload} list {len(expected)} jobs, "
                         f"the workload has {len(jobs)}")
    # One untimed start compiles the bytecode, which later starts reuse.
    _, failed = measure_setup(1)
    attempted, setup_times = 1, []
    spans_path = None
    if trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload}-seed{seed}.json.gz"
    plain, traced, durations = [], [], []
    started = time.perf_counter()
    while True:
        use_trace = trace and len(plain) > len(traced)
        t0 = time.perf_counter()
        doc = run_session(jobs, use_trace, spans_path if use_trace and not traced else None)
        times, setup_failed = measure_setup(SETUP_REPEATS)
        durations.append(time.perf_counter() - t0)
        (traced if use_trace else plain).append(doc)
        setup_times += times
        attempted += len(jobs) + len(times)
        failed += setup_failed
        for index, problems in check_session(jobs, doc, expected):
            failed += 1
            log(f"FAIL job {index} ({'traced' if use_trace else 'untraced'}): "
                f"qbraid {shlex.join(jobs[index]['argv'])}: {'; '.join(problems)}")
        if setup_failed:
            log(f"FAIL {setup_failed} set-up starts: qbraid {shlex.join(SETUP_ARGV)}")
        elapsed = time.perf_counter() - started
        if trace and not traced:
            continue
        # Stop before a session that would overrun the measuring time.
        if elapsed + _median(durations) > seconds:
            break
    metrics = {}
    raw = {}
    if not trace:
        def top_job(job_times):
            return max(_median([job_times(d)[i] for d in plain]) for i in range(len(jobs)))
        raw = {"wall_s": _median([d["wall_s"] for d in plain]),
               "top_job_s": top_job(lambda d: [job["seconds"] for job in d["jobs"]])}
        values = {"setup_s": _median(setup_times),
                  "wall_ref_s": _median([sum(_ref_seconds(d)) for d in plain]),
                  "top_job_ref_s": top_job(_ref_seconds),
                  "peak_rss_mb": _median([d["peak_rss_mb"] for d in plain])}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        layers = {}
        for key in traced[0]["layers"]:
            layers[key] = _median([d["layers"].get(key, 0) for d in traced])
        for layer in ("scalar", "qcomb", "rep"):
            layers[f"{layer}.cache_hit_ratio"] = _median(
                [_cache_ratio(d, layer) for d in traced])
        layers["trace.wall_s"] = _median([d["wall_s"] for d in traced])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - _median(
            [d["wall_s"] for d in plain])
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layers.get(name, 0), "unit": unit}
    context.update({"sessions": len(plain) + len(traced), "traced_sessions": len(traced),
                    **raw,
                    "session_wall_s": [round(d["wall_s"], 4) for d in plain],
                    "speed_factor": [round(sum(_ref_seconds(d)) / d["wall_s"], 4)
                                     for d in plain],
                    "setup_s": [round(t, 4) for t in setup_times],
                    "measured_s": round(time.perf_counter() - started, 3)})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, context


def print_jobs(workloads, seed):
    for workload in workloads:
        jobs = jobs_for(workload, seed)
        print(f"# {workload} seed {seed}: {len(jobs)} jobs, sha256/16 {jobs_hash(jobs)}")
        for job in jobs:
            want = "exit must match the reports" if job["exit"] is None \
                else f"exit {job['exit']}"
            print(f"qbraid {shlex.join(job['argv'])}    # {want}")


def bless(workloads):
    """Rewrite the expected reports of the default seed, refusing any job
    that fails the checks that hold for every input."""
    _require_source()
    for workload in workloads:
        jobs = jobs_for(workload, DEFAULT_SEED)
        doc = run_session(jobs)
        failures = check_session(jobs, doc, None)
        if failures:
            raise BenchError(f"{workload}: not blessing failed jobs {failures}")
        entries = [{"argv": job["argv"], "exit": result["exit"],
                    "stdout": check.strip_timing(result["stdout"])}
                   for job, result in zip(jobs, doc["jobs"])]
        check.EXPECTED_DIR.mkdir(exist_ok=True)
        with open(check.expected_path(workload), "w") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")
        print(f"wrote {check.expected_path(workload).relative_to(ROOT)}")


def run_all(seed, seconds, trace):
    """Every workload as one table of its metrics (end-to-end, or per-layer
    with --trace 1); exit 0 only if every job was correct."""
    ok = True
    results, contexts = {}, {}
    for workload in WORKLOADS:
        result, context = run_workload(workload, seed, seconds, trace,
                                       log=lambda line: print(line, file=sys.stderr))
        print("context " + json.dumps(context))
        ok = ok and result["correct"]
        results[workload], contexts[workload] = result, context
    print(f"{'metric':40}" + "".join(f"{w:>18}" for w in results) + "  unit")
    for name, unit in (PER_LAYER if trace else END_TO_END):
        print(f"{name:40}" + "".join(f"{r['metrics'][name]['value']:>18.6g}"
                                     for r in results.values()) + f"  {unit}")
    if not trace:
        for name in ("wall_s", "top_job_s"):
            print(f"{name:40}" + "".join(f"{c[name]:>18.6g}" for c in contexts.values())
                  + "  s (as timed, not rescaled)")
    print(f"{'fail_ratio':40}" + "".join(
        f"{r['failed'] / r['attempted']:>18.6g}" for r in results.values())
        + "  failed/attempted")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="run every workload")
    mode.add_argument("--print-jobs", action="store_true",
                      help="print the generated argv lists and exit")
    mode.add_argument("--bless", action="store_true",
                      help="rewrite the expected reports of the default seed")
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if args.print_jobs:
            print_jobs(workloads, args.seed)
            return 0
        if args.bless:
            bless(workloads)
            return 0
        if args.all:
            return run_all(args.seed, args.seconds, bool(args.trace))
        if not args.workload:
            parser.error("--workload is required")
        result, context = run_workload(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("context " + json.dumps(context))
    for name, metric in result["metrics"].items():
        print(f"  {name:42} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
