"""One benchmark session: a fresh interpreter that runs a job list back to back.

Reads {"jobs": [...], "trace": bool, "spans_path": str|null} as JSON on stdin
and writes one JSON document on stdout with each job's exit code, captured
report text and seconds, the session's wall time (the sum of its jobs'), the
speed samples taken between jobs (seconds of one calibration chunk), its
peak RSS, the `lru_cache` statistics of every qbraid cache and, when traced,
the per-layer summary.  Jobs run in-process through `qbraid.cli.run`, the
public entry point, so the caches start cold in every session and warm up
across its jobs.

Run from the root of a checkout: `python3 perfbench/session.py < request.json`.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (the benchmark's own span recorder)


def _import_qbraid():
    import qbraid
    source = Path(qbraid.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"qbraid imported from {source}, not from {ROOT / 'src'}")
    from qbraid import cli
    return cli


def _unwrap(value):
    """Follow __wrapped__ (tracing wrappers) down to an lru_cache, if any."""
    while not hasattr(value, "cache_info") and hasattr(value, "__wrapped__"):
        value = value.__wrapped__
    return value


def cache_stats():
    """Hits and misses of every functools.lru_cache reachable from the
    attributes of the loaded qbraid modules and their classes, summed per
    defining module (`rep`, `qcomb`, `scalar`, ...)."""
    found = {}
    for namespace, _ in spans.qbraid_namespaces():
        for value in list(namespace.values()):
            value = _unwrap(getattr(value, "__func__", value))
            if callable(getattr(value, "cache_info", None)):
                found[id(value)] = value
    out = {}
    for fn in found.values():
        layer = fn.__module__.rsplit(".", 1)[-1]
        info = fn.cache_info()
        hits, misses = out.get(layer, (0, 0))
        out[layer] = (hits + info.hits, misses + info.misses)
    return {layer: {"hits": h, "misses": m} for layer, (h, m) in sorted(out.items())}


def calibration_chunk():
    """Fixed pure-Python work, Fraction arithmetic and dict updates like the
    exact kernels, whose time gauges how fast the machine runs right now."""
    acc, total = {}, Fraction(0)
    for i in range(1, 700):
        f = Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 1)
        total += f
        acc[i % 37] = acc.get(i % 37, 0) + f
    return total


def _time_chunk():
    t0 = time.perf_counter()
    calibration_chunk()
    return time.perf_counter() - t0


def _speed_sample():
    """Median seconds of three calibration chunks run back to back."""
    return statistics.median(_time_chunk() for _ in range(3))


def run_session(jobs, trace=False, spans_path=None):
    """Run the jobs back to back through qbraid.cli.run; returns the session
    document described in the module docstring."""
    cli = _import_qbraid()
    rec = None
    if trace:
        rec = spans.Recorder()
        spans.install(rec)
    results, calib = [], []
    for index, job in enumerate(jobs):
        # A speed sample before every job and after the last brackets each
        # job with the machine's speed just before and just after it.
        calib.append(_speed_sample())
        if rec is not None:
            rec.job = index
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code, error = cli.run(job["argv"], out), None
        except Exception:  # a job that raises is a failed job, not a crash
            code, error = None, traceback.format_exc(limit=4)
        results.append({"seconds": time.perf_counter() - t0, "exit": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "error": error})
    calib.append(_speed_sample())
    doc = {"jobs": results, "wall_s": sum(r["seconds"] for r in results),
           "calib_s": calib,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "caches": cache_stats()}
    if rec is not None:
        doc["layers"] = spans.summarize(rec)
        doc["spans"] = len(rec.spans)
        if spans_path:
            rec.write(spans_path)
    return doc


def main():
    request = json.load(sys.stdin)
    doc = run_session(request["jobs"], request.get("trace", False),
                      request.get("spans_path"))
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
