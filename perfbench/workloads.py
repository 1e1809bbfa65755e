"""The three workloads: inputs, one request at a time, and each request's check.

A workload object holds ``requests``; ``run(i)`` performs request ``i`` and
returns its outcome, ``(exit_code, stdout, stderr)`` for CLI requests;
``fingerprint(i, outcome)`` is what must repeat byte for byte, and
``check(i, outcome)`` returns ``(problems, unresolved, records)`` from
``checks``.  Requests run one
after another from a single client (a closed loop), and every pass repeats
the same fixed input.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

GRID_SCAN_PER_COMMAND = 25  # 4 commands -> 100 requests per pass
AVG_SCANS, AVG_DUELS, AVG_ORACLES = 8, 100, 100
AVG_MODELS = 25          # the sample model and 24 stratified draws


class CliCold:
    """The README's seven commands, each a fresh process on the sample config."""

    name = "cli_cold"

    def __init__(self, seed, tmp, env):
        rng = np.random.default_rng(seed)
        self.dir = tmp
        gen.copy_sample_config(tmp)
        order = list(gen.README_COMMANDS)
        rng.shuffle(order)
        self.requests = order
        self.env = env
        self.seed = seed

    def command(self, i):
        return self.requests[i]

    @staticmethod
    def fingerprint(i, outcome):
        return outcome[:2]

    def warm(self):
        """The untimed first command (``validate``), so that the timed ones do
        not read a cold page cache."""
        code, _, err = self._run(gen.README_COMMANDS["validate"], self.env)
        if code != 0:
            raise RuntimeError(f"validate exited {code}: {err[-300:]}")

    def import_info(self, trace_out):
        """The import time and module count of one traced ``validate``."""
        self._run(gen.README_COMMANDS["validate"],
                  {**self.env, "PERFBENCH_TRACE_OUT": trace_out})
        with open(trace_out, encoding="utf-8") as fh:
            info = json.load(fh)
        return info["import_s"], info["import_modules"]

    def _run(self, args, env):
        proc = subprocess.run([sys.executable, CHILD] + args, cwd=self.dir, env=env,
                              capture_output=True, timeout=170, check=False)
        return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")

    def run(self, i, trace_out=None):
        env = self.env if trace_out is None else {**self.env, "PERFBENCH_TRACE_OUT": trace_out}
        return self._run(gen.README_COMMANDS[self.requests[i]], env)

    def check(self, i, outcome):
        code, text = outcome[:2]
        name = self.requests[i]
        argv = gen.README_COMMANDS[name]
        if name == "validate":
            return checks.check_validate(code, text)
        if name == "average":
            return checks.check_average(code, text, quad_tol=1e-9)
        if name == "remark2":
            return checks.check_remark2(code, text, lam=1.0, nu=1.0)
        from specbox import config

        doc = gen.sample_config()
        cfg = config.build_run_config(doc)
        grid = config.parse_grid_flag(argv[argv.index("--grid") + 1])
        strict = "--strict" in argv
        fmt = "csv" if "csv" in argv else "json"
        if name == "classify":
            return checks.check_classify(doc, grid, strict, code, text, fmt)
        if name == "density":
            return checks.check_density(doc, grid, strict, code, text, fmt,
                                        cfg.model, cfg.coupling)
        if name == "certify":
            return checks.check_certify(doc, grid, strict, code, text, fmt,
                                        cfg.model, cfg.coupling)
        return checks.check_greens(grid, cfg.greens_im_z, code, text, fmt, cfg.model,
                                   cfg.coupling, np.random.default_rng(self.seed))


def _call_cli(main, argv):
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class GridScan:
    """In-process CLI calls over seeded models and grids."""

    name = "grid_scan"

    def __init__(self, seed, tmp):
        import specbox.cli

        self.main = specbox.cli.main
        self.requests = gen.grid_scan_inputs(np.random.default_rng([seed, 0]),
                                             GRID_SCAN_PER_COMMAND)
        self.paths = gen.write_configs(tmp, [r["doc"] for r in self.requests])
        self.seed = seed

    def command(self, i):
        return self.requests[i]["command"]

    @staticmethod
    def fingerprint(i, outcome):
        return outcome[:2]

    def run(self, i):
        return _call_cli(self.main, self.requests[i]["argv"] + ["--config", self.paths[i]])

    def check(self, i, outcome):
        from specbox import config

        code, text = outcome[:2]
        req = self.requests[i]
        cfg = config.build_run_config(req["doc"])
        grid = req["doc"]["grid"]["list"]
        args = (req["doc"], grid, req["strict"], code, text, req["format"])
        if req["command"] == "classify":
            return checks.check_classify(*args)
        if req["command"] == "density":
            return checks.check_density(*args, cfg.model, cfg.coupling)
        if req["command"] == "certify":
            return checks.check_certify(*args, cfg.model, cfg.coupling)
        return checks.check_greens(grid, cfg.greens_im_z, code, text, req["format"],
                                   cfg.model, cfg.coupling,
                                   np.random.default_rng([self.seed, i]))


class AvgVerify:
    """Averaged-ladder scans, quadrature duels and oracle solves, in process."""

    name = "avg_verify"

    def __init__(self, seed, tmp):
        from specbox import averaging, config, resolvent

        self.averaging, self.resolvent = averaging, resolvent
        pool, self.requests = gen.avg_verify_inputs(
            np.random.default_rng([seed, 1]), AVG_SCANS, AVG_DUELS, AVG_ORACLES, AVG_MODELS)
        tmp = os.path.join(tmp, "avg")
        os.makedirs(tmp)
        self.models = [config.build_run_config(config.load_config(path)).model
                       for path in gen.write_configs(tmp, [{"model": m} for m in pool])]
        for model in self.models:
            model.exceptional_sets
        used = {r["model"] for r in self.requests if r["kind"] == "oracle"}
        self.discs = {k: resolvent.discretize(self.models[k], checks.ORACLE_NODES[0]) for k in used}

    def command(self, i):
        return self.requests[i]["kind"]

    def run(self, i):
        r = self.requests[i]
        model = self.models[r["model"]]
        if r["kind"] == "scan":
            report = self.averaging.verify_abs_continuity(model, r["nu"], r["grid"])
            return 0, report
        if r["kind"] == "duel":
            closed = self.averaging.averaged_poisson_closed(model, r["nu"], r["phi"],
                                                            r["E"], r["eps"])
            quadr = self.averaging.averaged_poisson_quadrature(model, r["nu"], r["phi"],
                                                               r["E"], r["eps"])
            return 0, (closed, quadr)
        cp = self.resolvent.CouplingParams(r["lam"], r["nu"])
        oracle = self.resolvent.green_oracle_all(self.discs[r["model"]], cp, r["z"])
        closed = self.resolvent.green_all(model, cp, r["z"])
        return 0, (oracle, closed)

    @staticmethod
    def fingerprint(i, outcome):
        """A byte-comparable rendering of an in-process result."""
        code, value = outcome
        if hasattr(value, "to_dict"):
            return code, json.dumps(value.to_dict())
        if isinstance(value[0], dict):
            return code, repr(sorted(value[0].items())) + repr(value[1].tolist())
        return code, repr(value)

    def check(self, i, outcome):
        r = self.requests[i]
        model = self.models[r["model"]]
        _, value = outcome
        if r["kind"] == "scan":
            return checks.check_scan(value, model, r["nu"], r["grid"])
        if r["kind"] == "duel":
            return checks.check_duel(*value, 1e-9, model.res_l, r["E"], r["eps"])
        cp = self.resolvent.CouplingParams(r["lam"], r["nu"])
        return checks.check_oracle(*value, model, cp, r["z"])


WORKLOADS = {w.name: w for w in (CliCold, GridScan, AvgVerify)}
