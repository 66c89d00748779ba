"""Tests of the benchmark's own machinery: span arithmetic, output checks,
cache accounting and the transparency of tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys

import pytest

import check
import session
import spans
from workloads import DEFAULT_SEED, WORKLOADS, jobs_for, jobs_hash


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("qbraid"):
            for value in vars(module).values():
                target = session._unwrap(value)
                if hasattr(target, "cache_clear"):
                    target.cache_clear()


def test_self_times_of_a_synthetic_span_tree():
    tree = [
        ("cli.run", 0.0, 10.0, -1, 0),
        ("rep.verify_braid", 1.0, 4.0, 0, 0),
        ("linalg.mul", 2.0, 3.0, 1, 0),
        ("rep.build_representation", 5.0, 9.0, 0, 0),
        ("trace.observe", 9.0, 9.5, 0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([2.5, 2.0, 1.0, 4.0, 0.5])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [
        ("linalg.elim.inverse", 0.0, 4.0, -1, 0),
        ("scalar.ratfunc_make", 1.0, 3.0, 0, 0),
        ("scalar.ratfunc_make", 2.0, 5.0, 0, 0),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_summary_counts_nested_spans_of_one_group_once():
    rec = spans.Recorder()
    rec.spans = [
        ("irred.commutant_dimension", 0.0, 6.0, -1, 0),
        ("linalg.elim.nullspace", 1.0, 5.0, 0, 0),
        ("linalg.elim.rref", 1.5, 4.5, 1, 0),
        ("scalar.ratfunc_make", 2.0, 3.0, 2, 0),
    ]
    out = spans.summarize(rec)
    assert out["linalg.elim.calls"] == 1
    assert out["linalg.elim.total_s"] == pytest.approx(4.0)
    assert out["linalg.elim.s"] == pytest.approx(1.0 + 2.0)
    assert out["scalar.ratfunc_make.s"] == pytest.approx(1.0)
    assert out["irred.commutant_dimension.s"] == pytest.approx(2.0)
    assert out["linalg.self_s"] == pytest.approx(3.0)
    total_self = sum(out[f"{layer}.self_s"] for layer in ("irred", "linalg", "scalar"))
    assert total_self == pytest.approx(6.0)


def test_job_lists_depend_only_on_the_seed():
    for workload in WORKLOADS:
        assert jobs_for(workload, 5) == jobs_for(workload, 5)
        assert jobs_hash(jobs_for(workload, 5)) != jobs_hash(jobs_for(workload, 6))


def test_expected_reports_match_the_default_job_lists():
    for workload in WORKLOADS:
        expected = check.load_expected(workload)
        assert [e["argv"] for e in expected] == \
            [job["argv"] for job in jobs_for(workload, DEFAULT_SEED)]


@pytest.fixture(scope="module")
def default_results():
    """A few cheap default-seed jobs, run in-process, with their expected entries."""
    picked = []
    for workload, index in (("braid-symbolic", 2), ("braid-symbolic", 10),
                            ("oracles-symbolic", 0), ("oracles-exact", 5)):
        picked.append((jobs_for(workload, DEFAULT_SEED)[index],
                       check.load_expected(workload)[index]))
    doc = session.run_session([job for job, _ in picked])
    return [(job, result, expected)
            for (job, expected), result in zip(picked, doc["jobs"])]


def test_default_reports_pass_the_checks(default_results):
    for job, result, expected in default_results:
        assert check.check_job(job, result, expected) == []


def _corrupt(result, old, new):
    assert old in result["stdout"], old
    return dict(result, stdout=result["stdout"].replace(old, new, 1))


def test_a_corrupted_report_counts_as_a_failure(default_results):
    (verify, verify_res, verify_exp), (build, build_res, build_exp), \
        (minors, minors_res, _), (catalog, catalog_res, _) = default_results
    # A flipped verdict fails the invariant check, with or without goldens.
    bad = _corrupt(verify_res, '"passed": true', '"passed": false')
    assert check.check_job(verify, bad, None)
    assert check.check_job(verify, bad, verify_exp)
    # A changed matrix entry only shows against the expected reports.
    entry = json.loads(build_res["stdout"])["payload"]["sigma1"][0][0]
    bad = _corrupt(build_res, f'"{entry}"', f'"{entry}+1"')
    assert check.check_job(build, bad, None) == []
    assert check.check_job(build, bad, build_exp) == \
        ["reports differ from the expected reports"]
    # Oracle dimensions outside their range, or a verdict they contradict.
    assert check.check_job(minors, _corrupt(minors_res, '"commutant_dim": 1',
                                            '"commutant_dim": 0'))
    assert check.check_job(minors, _corrupt(minors_res, '"commutant_dim": 1',
                                            '"commutant_dim": 2'))
    assert check.check_job(catalog, _corrupt(catalog_res, '"operator-reducible"',
                                             '"inconclusive"'))
    # Truncated output, a wrong exit code and a raised exception.
    assert check.check_job(verify, dict(verify_res, stdout=verify_res["stdout"][:40]))
    assert check.check_job(catalog, dict(catalog_res, exit=0))
    assert check.check_job(verify, dict(verify_res, error="Traceback\nValueError: x"))


def test_tracing_leaves_reports_unchanged_and_records_every_layer():
    jobs = [job for workload, indices in (("braid-symbolic", (3, 11)),
                                          ("oracles-symbolic", (0,)),
                                          ("oracles-exact", (6,)))
            for job in (jobs_for(workload, DEFAULT_SEED)[i] for i in indices)]
    _clear_caches()
    plain = session.run_session(jobs)
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        _clear_caches()
        traced = session.run_session(jobs)
        stats = session.cache_stats()
    finally:
        restore()
    for a, b in zip(plain["jobs"], traced["jobs"]):
        assert check.strip_timing(a["stdout"]) == check.strip_timing(b["stdout"])
        assert a["exit"] == b["exit"]
    summary = spans.summarize(rec)
    for group in ("cli.run", "scalar.laurent_mul", "scalar.ratfunc_make",
                  "scalar.cyclotomic_mul", "linalg.mul", "linalg.elim",
                  "qcomb.q_binomial", "rep.verify_braid", "structure.pas_exp_check",
                  "irred.commutant_dimension", "irred.burnside_dimension"):
        assert summary[f"{group}.calls"] > 0, group
    assert summary["irred.minor_criterion.subsets_checked"] > 0
    assert 0 < summary["irred.burnside.insert_yield"] <= 1
    # The caches stay visible through the tracing wrappers.
    assert {"qcomb", "rep", "scalar"} <= set(stats)
    assert stats["rep"]["hits"] + stats["rep"]["misses"] > 0


def test_benchmark_json_names_what_the_runs_report():
    import run
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
