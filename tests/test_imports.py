"""Cold-path imports: no specbox call loads scipy, which only the tests use,
no README command loads numpy.ma, each README command executes only the
specbox modules it uses, and a README command prints the same bytes under
the benchmark's tracer as without it.

Every check runs in a fresh interpreter, because this test process has
already imported scipy through other tests.  Only module sets and outputs
are asserted, never timings.
"""

import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = ROOT / "sample-config.json"


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter with ``src`` on the path; it prints
    one JSON object on its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
# the specbox modules executed so far: a registered module that has not been
# executed is still a ``_LazyModule``
_EXECUTED = ("sorted(name for name, mod in sys.modules.items() if name.split('.')[0] == 'specbox'"
             " and not isinstance(mod, importlib.util._LazyModule))")


def test_import_loads_no_scipy():
    out = _run(f"""
        import json, sys
        import specbox
        after_package = {_SCIPY}
        import specbox.cli
        print(json.dumps({{"package": after_package, "cli": {_SCIPY}}}))
    """)
    assert out == {"package": [], "cli": []}


def test_production_commands_load_no_scipy():
    out = _run(f"""
        import contextlib, io, json, sys
        from specbox.cli import main
        cfg = {str(SAMPLE)!r}
        commands = [
            ["validate", "--config", cfg],
            ["greens", "--config", cfg, "--grid", "-3:3:7"],
            ["classify", "--config", cfg, "--grid", "-3:3:7"],
            ["density", "--config", cfg, "--grid", "1.1:1.9:3"],
            ["certify", "--config", cfg, "--grid", "1.05:1.95:3"],
            ["scenario", "remark2", "--nodes", "20"],
        ]
        codes = []
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(argv))
        print(json.dumps({{"codes": codes, "scipy": {_SCIPY}}}))
    """)
    assert out == {"codes": [0] * 6, "scipy": []}


def test_average_loads_no_scipy():
    out = _run(f"""
        import contextlib, io, json, sys
        from specbox.cli import main
        argv = ["average", "--config", {str(SAMPLE)!r}, "--grid", "1.2:1.8:7"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        print(json.dumps({{"code": code, "scipy": {_SCIPY}}}))
    """)
    assert out == {"code": 0, "scipy": []}


def test_oracle_loads_no_scipy():
    out = _run(f"""
        import contextlib, io, json, sys
        from specbox.cli import main
        from specbox.config import build_run_config, load_config
        from specbox.resolvent import discretize, green_oracle_all
        model = build_run_config(load_config({str(SAMPLE)!r})).model
        pairs = green_oracle_all(discretize(model, 40), (0.7, -1.1), 0.3 + 0.2j)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["scenario", "remark2", "--nodes", "20"])
        print(json.dumps({{"pairs": len(pairs), "code": code, "scipy": {_SCIPY}}}))
    """)
    assert out == {"pairs": 16, "code": 0, "scipy": []}


(QUICKSTART_NAMES,) = re.findall(r"from specbox import \((.*?)\)",
                                 (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
QUICKSTART_NAMES = [name.strip() for name in QUICKSTART_NAMES.split(",") if name.strip()]

README_COMMANDS = [
    shlex.split(line)[1:]
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    if line.startswith("specbox ")
]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_loads_no_numpy_ma(argv):
    # np.unique imports numpy.ma on its first call; the production path
    # dedupes without it
    assert len(README_COMMANDS) == 7
    out = _run(f"""
        import contextlib, io, json, sys
        from specbox.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main({argv!r})
        print(json.dumps({{"code": code, "ma": "numpy.ma" in sys.modules}}))
    """)
    assert out == {"code": 0, "ma": False}


def test_benchmark_names_resolve_after_cli_import():
    # perfbench/spans.py patches these names and reads their modules from
    # sys.modules right after ``import specbox.cli``.  A module registered
    # there that executes on first use is fine; a renamed name, or a module
    # missing from sys.modules, would otherwise show only as a failed
    # benchmark set-up
    out = _run(f"""
        import functools, json, sys
        import specbox.cli
        loaded = set(sys.modules)
        sys.path.insert(0, {str(ROOT / "perfbench")!r})
        from spans import FUNCTIONS, METHODS
        missing = [f"{{mod}}.{{attr}}" for mod, attr, *_ in FUNCTIONS
                   if mod not in loaded or not hasattr(sys.modules[mod], attr)]
        missing += [f"{{mod}}.{{cls}}.{{attr}}" for mod, cls, attr, *_ in METHODS
                    if mod not in loaded or attr not in vars(getattr(sys.modules[mod], cls))]
        prop = sys.modules["specbox.blackbox"].BlackBoxModel.__dict__["exceptional_sets"]
        print(json.dumps({{"missing": missing, "count": len(FUNCTIONS) + len(METHODS),
                          "cached": isinstance(prop, functools.cached_property)}}))
    """)
    assert out["count"] > 0
    assert out["missing"] == []
    assert out["cached"]


def test_import_executes_no_submodule():
    # the package's public names are read from their modules on first use;
    # ``dir`` lists them, and reading one executes only the modules it needs
    out = _run(f"""
        import importlib.util, json, sys, types
        import specbox

        after_import = {_EXECUTED}
        from specbox import SpectralMeasure
        after_measure = {_EXECUTED}
        public = sorted(name for name in dir(specbox) if not name.startswith("_")
                        and not isinstance(getattr(specbox, name), types.ModuleType))
        print(json.dumps({{"import": after_import, "measure": after_measure,
                          "public": public, "all": sorted(specbox.__all__)}}))
    """)
    assert out["import"] == ["specbox"]
    assert out["public"] == out["all"] == sorted(QUICKSTART_NAMES)
    assert out["measure"] == ["specbox", "specbox.errors", "specbox.measures"]


# The specbox modules each README command executes (``specbox`` registers
# its submodules lazily), by the command's first word.
_VALIDATE = {"specbox", "specbox.cli", "specbox.errors", "specbox.config",
             "specbox.blackbox", "specbox.measures", "specbox.emit"}
_BOUNDARY = _VALIDATE | {"specbox.resolvent", "specbox.boundary"}
EXECUTED = {
    "validate": _VALIDATE,
    "greens": _VALIDATE | {"specbox.resolvent"},
    "classify": _BOUNDARY,
    "density": _BOUNDARY,
    "average": _BOUNDARY | {"specbox.averaging"},
    "certify": _BOUNDARY | {"specbox.certify"},
    "scenario": _BOUNDARY | {"specbox.certify"},
}

_CALL = """
    import contextlib, importlib.util, io, json, sys

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = specbox.cli.main(argv)
        return [code, out.getvalue(), err.getvalue()]

    def tracer():
        sys.path.insert(0, {perfbench!r})
        import spans

        t = spans.Tracer()
        t.install()
        t.enabled = True
"""


@pytest.fixture(scope="module", params=README_COMMANDS, ids=lambda argv: argv[0])
def readme_runs(request):
    """One README command run the ways the benchmark runs it, in two fresh
    interpreters.  The first runs it untraced, lists the specbox modules that
    run executed, then installs the tracer and runs it again, as the
    in-process workloads install it after an untraced pass.  The second
    installs the tracer right after ``import specbox.cli``, as cli_cold's
    child does, so the install itself executes the registered modules."""
    argv = request.param
    call = textwrap.dedent(_CALL.format(perfbench=str(ROOT / "perfbench")))
    untraced_first = _run(call + textwrap.dedent(f"""
        import specbox.cli

        untraced = call({argv!r})
        executed = {_EXECUTED}
        polynomial = "numpy.polynomial" in sys.modules
        tracer()
        print(json.dumps({{"untraced": untraced, "executed": executed,
                          "polynomial": polynomial, "traced": call({argv!r})}}))
    """))
    traced_first = _run(call + textwrap.dedent(f"""
        import specbox.cli

        tracer()
        print(json.dumps({{"traced": call({argv!r})}}))
    """))
    return argv, untraced_first, traced_first


def test_readme_command_executes_only_its_modules(readme_runs):
    argv, runs, _ = readme_runs
    assert runs["untraced"][0] == 0
    assert set(runs["executed"]) == EXECUTED[argv[0]]
    assert runs["polynomial"] == (argv[:2] == ["scenario", "remark2"])


def test_traced_readme_command_prints_the_same_bytes(readme_runs):
    # exit code, stdout and stderr, for both install orders of the benchmark
    _, runs, traced_first = readme_runs
    assert runs["traced"] == runs["untraced"]
    assert traced_first["traced"] == runs["untraced"]
