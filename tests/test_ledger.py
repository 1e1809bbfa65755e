"""The ledger of unresolved outcomes (``tests/ledger.json``).

Each input runs in process through the CLI, and its unresolved outcomes are
counted by category from the JSON output: a ladder row that is UNDETERMINED,
a density row without a value, a certificate point that is
NUMERICALLY_UNRESOLVED, and an averaging row whose duel has no value (by
reason) or fails.  The categories add up to the count that --strict reports.
The test fails when a count rises; it also fails when one falls, so that
the lower count is committed and cannot rise again unseen.
"""

import copy
import json
from collections import Counter
from pathlib import Path

import pytest

from specbox.boundary import UNDETERMINED
from specbox.certify import NUMERICALLY_UNRESOLVED
from specbox.cli import main
from specbox.config import build_run_config

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = json.loads((ROOT / "sample-config.json").read_text())
LEDGER = json.loads((ROOT / "tests" / "ledger.json").read_text())["inputs"]


def _unresolved(command: str, out: dict) -> Counter:
    """The unresolved outcomes of one command's JSON output, by category."""
    if command == "classify":
        return Counter(UNDETERMINED for p in out["points"]
                       if UNDETERMINED in (p["chi_l"]["status"], p["chi_r"]["status"]))
    if command == "density":
        return Counter(p["status"] if p["status"] == UNDETERMINED
                       else f"{p['status']} without a value"
                       for p in out["points"] if p["ac_density"] is None and p["point_mass"] is None)
    if command == "certify":
        return Counter(p["verdict"] for p in out["certificate"]["points"]
                       if p["verdict"] == NUMERICALLY_UNRESOLVED)
    if command == "average":
        quad_tol = build_run_config(SAMPLE).tolerances.quad_tol
        counts = Counter()
        for row in out["table"]:
            if row["ladder_status"] == UNDETERMINED:
                counts[UNDETERMINED] += 1
            elif row["rel_diff"] is None:
                counts[f"null duel: {row['reason']}"] += 1
            elif not row["rel_diff"] <= quad_tol:
                counts["duel above quad_tol"] += 1
        return counts
    return Counter()


@pytest.mark.parametrize("entry", LEDGER, ids=[e["name"] for e in LEDGER])
def test_no_unresolved_count_rises(entry, monkeypatch, capsys, tmp_path):
    argv = list(entry["argv"])
    if "grid" in entry:
        doc = copy.deepcopy(SAMPLE)
        doc["grid"] = {"list": entry["grid"]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        argv[argv.index("--config") + 1] = str(path)
    monkeypatch.chdir(ROOT)
    code = main([*argv, "--format", "json", "--strict"])
    out, err = capsys.readouterr()
    payload = json.loads(out)
    counts = _unresolved(payload["command"], payload)
    total = sum(counts.values())
    # the categories are the outcomes that --strict counts
    assert (code, err) == ((2, f"error: {total} unresolved outcome(s) under --strict\n")
                           if total else (0, ""))
    risen = {k: (entry["counts"].get(k, 0), n) for k, n in counts.items()
             if n > entry["counts"].get(k, 0)}
    assert not risen, f"unresolved counts rose (ledger, now): {risen}"
    assert dict(counts) == entry["counts"], "counts fell: commit the lower counts to the ledger"
    if "verdict" in entry:
        assert payload["abs_continuity"]["verdict"] == entry["verdict"]
