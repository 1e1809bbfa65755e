"""Slices of the benchmark's own grid_scan and avg_verify checks, in Tier-1.

The benchmark runs every request several times, some passes under
``perfbench/spans.Tracer``, and rejects an output that fails its check or
that differs between passes.  This runs a few requests of each command or
kind of seed 1 the same way: twice untraced and once traced, with one
fingerprint (exit code and output) each time and no problem from the
workload's check.  It also holds the ladder judge to the tracer's contract:
one ``boundary.ladder`` span per lattice row of ``diagonal_records``, one
evaluation of f each, and the same records traced as untraced; classify,
which reads its records at E + i0, records no ladder.  ``workloads`` and ``spans`` are read
from ``perfbench/`` by path; nothing there changes.
"""

from pathlib import Path

import numpy as np
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


def _rows(records):
    """Each record of a lattice run as its fields, the arrays as bytes."""
    return [(r.E, r.status, r.value, r.im_limit, r.pole_weight, r.slope,
             None if r.eps is None else r.eps.tobytes(),
             None if r.values is None else r.values.tobytes()) for r in records]


@pytest.mark.parametrize("n", [1, 40])
@pytest.mark.parametrize("producer, columns", [("diagonal", 4), ("classify", 2)])
def test_the_judge_keeps_its_span_contract(perfbench, producer, columns, n):
    # the tracer wraps ``boundary_value`` by name and counts f's calls: one
    # ladder span per lattice row, each with one evaluation of f, and the
    # same records as without it; ``columns`` records per energy either way
    _, spans = perfbench
    import specbox.cli  # noqa: F401  (registers every module the tracer patches)
    from specbox import boundary, config

    cfg = config.build_run_config(config.load_config(str(ROOT / "sample-config.json")))
    grid = np.linspace(-3.0, 3.0, n)  # at n = 40: two blocks, and the band edges 1 and 2

    def records():
        if producer == "diagonal":
            rows = boundary.diagonal_records(cfg.model, cfg.coupling, grid, cfg.ladder)
            return _rows(r for row in rows for r in row)
        rows = boundary.classify_grid(cfg.model, grid, cfg.coupling.nu)
        return _rows(r for c in rows for r in (c.rec_chi_l, c.rec_chi_r))

    untraced = records()
    assert len(untraced) == columns * n
    tracer = spans.Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        traced = records()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    layers = spans.layer_metrics(*tracer.take())
    if producer == "diagonal":
        assert layers["boundary.ladders"] == columns * n
        assert layers["boundary.f_calls_per_ladder"] == 1
    else:
        assert layers["boundary.ladders"] == layers["measures.borel.calls"] == 0
    assert traced == untraced
