"""Slices of the benchmark's own grid_scan and avg_verify checks, in Tier-1.

The benchmark runs every request several times, some passes under
``perfbench/spans.Tracer``, and rejects an output that fails its check or
that differs between passes.  This runs a few requests of each command or
kind of seed 1 the same way: twice untraced and once traced, with one
fingerprint (exit code and output) each time and no problem from the
workload's check.  ``workloads`` and ``spans`` are read from ``perfbench/``
by path; nothing there changes.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    # the workloads' generator reads sample-config.json from the working directory
    monkeypatch.chdir(ROOT)
    import spans
    import workloads

    return workloads, spans


def _pick(requests, kind, size, count=2):
    """The ``count`` smallest requests of each kind, by ``size``."""
    by_kind = {}
    for i, request in enumerate(requests):
        by_kind.setdefault(kind(request), []).append(i)
    return [i for indices in by_kind.values() for i in sorted(indices, key=size)[:count]]


def _run_traced_and_untraced(workload, spans, picked):
    for i in picked:
        first = workload.run(i)
        assert first[0] in (0, 2), (i, first[-1])
        problems, _, _ = workload.check(i, first)
        assert problems == [], (i, workload.command(i))
        outcomes = [first, workload.run(i)]
        tracer = spans.Tracer()
        tracer.install()
        tracer.enabled = True
        try:
            outcomes.append(workload.run(i))
        finally:
            tracer.enabled = False
            tracer.uninstall()
        assert tracer.take()[0], "the traced run recorded no span"
        assert {workload.fingerprint(i, outcome) for outcome in outcomes} == \
            {workload.fingerprint(i, first)}, (i, workload.command(i))


def test_grid_scan_slice_passes_its_checks_traced_and_untraced(perfbench, tmp_path):
    workloads, spans = perfbench
    workload = workloads.GridScan(1, str(tmp_path))
    picked = _pick(workload.requests, lambda r: r["command"],
                   lambda i: len(workload.requests[i]["doc"]["grid"]["list"]))
    assert len(picked) == 8
    _run_traced_and_untraced(workload, spans, picked)


def test_avg_verify_slice_passes_its_checks_traced_and_untraced(perfbench, tmp_path):
    workloads, spans = perfbench
    workload = workloads.AvgVerify(1, str(tmp_path))
    # the smallest scans; duels and oracle solves in request order
    picked = _pick(workload.requests, lambda r: r["kind"],
                   lambda i: (len(workload.requests[i].get("grid", ())), i))
    assert sorted(workload.command(i) for i in picked) == \
        ["duel", "duel", "oracle", "oracle", "scan", "scan"]
    _run_traced_and_untraced(workload, spans, picked)
