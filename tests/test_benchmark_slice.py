"""A slice of the benchmark's own grid_scan checks, in Tier-1.

The benchmark runs every grid_scan request several times, some passes under
``perfbench/spans.Tracer``, and rejects an output that fails its check or
that differs between passes.  This runs the two smallest-grid requests of
each command of seed 1 the same way: twice untraced and once traced, with
the same exit code and stdout each time and no problem from the workload's
check.  ``workloads`` and ``spans`` are read from ``perfbench/`` by path;
nothing there changes.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_grid_scan_slice_passes_its_checks_traced_and_untraced(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    # the workload's generator reads sample-config.json from the working directory
    monkeypatch.chdir(ROOT)
    import spans
    import workloads

    workload = workloads.GridScan(1, str(tmp_path))
    by_command = {}
    for i, request in enumerate(workload.requests):
        by_command.setdefault(request["command"], []).append(i)
    size = lambda i: len(workload.requests[i]["doc"]["grid"]["list"])  # noqa: E731
    picked = [i for indices in by_command.values() for i in sorted(indices, key=size)[:2]]
    assert len(picked) == 8

    for i in picked:
        first = workload.run(i)
        assert first[0] in (0, 2), (i, first[2][-300:])
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
