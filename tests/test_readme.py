"""The README's library quickstart runs as printed, and the names it imports
from ``specbox`` are exactly the package's public namespace."""

import contextlib
import io
import re
import types
from pathlib import Path

import specbox

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
(QUICKSTART,) = re.findall(r"```python\n(.*?)```", README, flags=re.S)


def test_quickstart_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(QUICKSTART, "README.md", "exec"), {})
    in_ml, min_abs_d = out.getvalue().split()
    assert in_ml == "True"
    assert float(min_abs_d) > 0


def test_namespace_is_the_quickstart():
    (names,) = re.findall(r"from specbox import \((.*?)\)", QUICKSTART, flags=re.S)
    # dir, not vars: a lazy export enters vars(specbox) only on its first read
    public = {
        name for name in dir(specbox)
        if not name.startswith("_") and not isinstance(getattr(specbox, name), types.ModuleType)
    }
    assert public == {name.strip() for name in names.split(",") if name.strip()}
