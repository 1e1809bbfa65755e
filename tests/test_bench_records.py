"""Every committed benchmark record parses, and every run in it read correct.

A ``BENCH_<pr>.json`` at the repository root records the perfbench runs
behind a speed claim: ``runs`` (untraced) and ``traced`` each hold one entry
per run of ``perfbench/run.py``, with the workload, seed, side (``parent``
or ``change``), commit, passes, ``pass_speed_factors`` and ``result``, the
JSON object of that run's last stdout line.  Its ``summary`` gives, per
workload and end-to-end metric, each side's median, quartiles and IQR over
the untraced runs (``statistics.quantiles(n=4, method="inclusive")``), the
relative change of the medians, in how many seed-paired runs the change read
lower, and whether the medians lie further apart than the parent's IQR; its
``claim`` repeats one of those entries.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
RUN_KEYS = {"workload", "seed", "side", "commit", "passes", "pass_speed_factors", "result"}


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_run_reads_correct(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["runs"] and doc["traced"]
    for run in doc["runs"] + doc["traced"]:
        assert RUN_KEYS <= set(run), sorted(RUN_KEYS - set(run))
        assert run["side"] in ("parent", "change")
        assert len(run["pass_speed_factors"]) == run["passes"] > 0
        assert run["result"]["correct"] is True, (run["workload"], run["seed"], run["side"])


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_summary_follows_from_its_runs(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc["summary"]) == {run["workload"] for run in doc["runs"]}
    for workload, summary in doc["summary"].items():
        runs = [run for run in doc["runs"] if run["workload"] == workload]
        by_side = {side: {run["seed"]: run["result"]["metrics"] for run in runs
                          if run["side"] == side} for side in ("parent", "change")}
        seeds = sorted(by_side["parent"])
        assert sorted(by_side["change"]) == seeds == summary["seeds"]
        assert len(runs) == 2 * len(seeds), "one run per seed and side"
        for metric, entry in summary.items():
            if metric == "seeds":
                continue
            values = {side: [by_side[side][seed][metric]["value"] for seed in seeds]
                      for side in by_side}
            for side, want in values.items():
                assert entry[side] == pytest.approx(_spread(want), rel=1e-12, abs=1e-15)
            parent, change = entry["parent"]["median"], entry["change"]["median"]
            assert entry["relative_change"] == pytest.approx(change / parent - 1, rel=1e-12)
            lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
            assert entry["change_lower_in"] == f"{lower} of {len(seeds)} pairs"
            assert entry["gap_exceeds_parent_iqr"] == (abs(change - parent)
                                                       > entry["parent"]["iqr"])
    claim = doc["claim"]
    entry = doc["summary"][claim["workload"]][claim["metric"]]
    assert {k: claim[k] for k in entry} == entry
