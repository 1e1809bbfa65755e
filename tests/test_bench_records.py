"""Every committed benchmark record parses, and every run in it read correct.

A ``BENCH_<pr>.json`` at the repository root records the perfbench runs
behind a speed claim: ``runs`` (untraced) and ``traced`` each hold one entry
per run of ``perfbench/run.py``, with the workload, seed, side (``parent``
or ``change``), commit, passes, ``pass_speed_factors`` and ``result``, the
JSON object of that run's last stdout line.
"""

import json
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
