"""specbox benchmark: one workload, end-to-end metrics or a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli_cold,grid_scan,avg_verify} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from spans around the program's public functions.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with its
unit and sample count, the environment, and (traced) the layers the JSON
line leaves out.  See perfbench/README.md.
"""

import os

# Pinned before numpy is imported anywhere, and inherited by every child.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3          # set-ups per run; setup_s is their median
# Calibration kernel runs (speed.py) before and after each set-up, and before
# each request.  A request's speed factor comes from the kernel times within
# KERNEL_WINDOW requests of it.
SETUP_KERNELS = 21
REQUEST_KERNELS = {"cli_cold": 5, "grid_scan": 2, "avg_verify": 2}
KERNEL_WINDOW = 10
# The one failure the seed's program is known to have on valid input (see
# perfbench/README.md): counted in ``failed``, but not a wrong answer.
KNOWN_FAILURE = (3, "ArithmeticError: d(E) acquired an imaginary part")
WORKLOAD_NAMES = ("cli_cold", "grid_scan", "avg_verify")

# End-to-end metrics in the JSON line.  req_p90_ms is printed but left out of
# it: over ten seeds its IQR/median reached 21-29%, beyond any usable bound.
END_TO_END = ["setup_s", "wall_s", "req_p50_ms", "peak_rss_mb"]
UNITS = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms",
         "peak_rss_mb": "MB"}
# Per-layer metrics in the JSON line: every count, and the layer times that
# every workload exercises.  A time a workload never exercises would read 0
# on every run; the other times are printed above the JSON line.
PER_LAYER_JSON = {
    "cli.import_s": "s", "cli.import_modules": "count",
    "measures.borel.calls": "count", "measures.borel.points": "count",
    "measures.borel.self_s": "s",
    "blackbox.green.calls": "count", "blackbox.green.points": "count",
    "blackbox.green.self_s": "s",
    "resolvent.g0basics.calls": "count", "resolvent.g0basics.self_s": "s",
    "resolvent.solve.calls": "count", "resolvent.solve.points": "count",
    "resolvent.solve.self_s": "s",
    "resolvent.oracle.solves": "count",
    "boundary.ladders": "count", "boundary.ladder.self_s": "s",
    "boundary.f_calls_per_ladder": "calls/ladder", "boundary.fallback_frac": "ratio",
    "boundary.undetermined": "count",
    "boundary.atom_scan.candidates": "count", "boundary.atom_scan.dropped": "count",
    "averaging.closed.calls": "count", "averaging.quad.calls": "count",
    "averaging.quad.integrand_evals": "count",
    "certify.points": "count", "emit.bytes": "count",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- set-up --------------------------------------------------------------------

def setup_in_process(name, seed, tmp):
    """Import, input generation and model build, timed; returns (workload,
    seconds, import seconds, modules imported)."""
    t0 = time.perf_counter()
    n0 = len(sys.modules)
    import specbox.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - n0
    import workloads

    workload = workloads.WORKLOADS[name](seed, tmp)
    return workload, time.perf_counter() - t0, import_s, modules


def probe_setup(name, seed):
    """Set-up timing in a fresh process (``--probe-setup``)."""
    with scratch_dir() as tmp:
        _, seconds, import_s, modules = setup_in_process(name, seed, tmp)
    print(json.dumps({"setup_s": seconds, "import_s": import_s, "import_modules": modules}))


def run_probe(name, seed):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        env=child_env(), capture_output=True, timeout=170, check=True)
    return json.loads(proc.stdout.decode().splitlines()[-1])


def timed_setup(fn):
    """``fn()`` between two batches of calibration kernels, all in this
    process; returns (its result, its seconds, the speed factor)."""
    import speed

    before = speed.samples(SETUP_KERNELS)
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    return result, seconds, speed.factor(before + speed.samples(SETUP_KERNELS))


def scratch_dir():
    """A temporary directory inside the checkout, removed when the run ends."""
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


# -- passes ------------------------------------------------------------------

class Pass:
    def __init__(self):
        self.wall = 0.0
        self.latencies = []
        self.kernels = []          # calibration kernel times before each request
        self.outcomes = []
        self.layers = None
        self.spans = None          # (spans, counts) of a traced in-process pass
        self.children = []         # per-layer files of a traced cli_cold pass


def run_pass(workload, kernels, tracer=None, trace_dir=None):
    """Every request once, in order, one at a time, each after ``kernels``
    calibration kernel runs.  With a tracer, its wrappers are in place for
    this pass only."""
    import speed

    p = Pass()
    if tracer is not None:
        tracer.install()
        tracer.enabled = True
    t_pass = time.perf_counter()
    for i in range(len(workload.requests)):
        trace_out = None
        if trace_dir is not None:
            trace_out = os.path.join(trace_dir, f"req{i}.json")
        p.kernels.append(speed.samples(kernels))
        t = time.perf_counter()
        try:
            outcome = workload.run(i) if trace_out is None else workload.run(i, trace_out)
        except Exception as exc:  # a raising request is a failed request
            outcome = ("raised", f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t
        p.latencies.append(latency)
        p.outcomes.append(outcome)
        if trace_out is not None:
            with open(trace_out, encoding="utf-8") as fh:
                p.children.append(json.load(fh))
    p.wall = time.perf_counter() - t_pass
    if tracer is not None:
        tracer.enabled = False
        tracer.uninstall()
        p.spans = tracer.take()
    return p


def run_passes(workload, seconds, kernels, tracer=None, trace_dir=None):
    """Passes until the next one would end after ``seconds``.  Untraced runs
    make at least one pass; traced runs alternate untraced and traced passes
    (so drift in machine speed hits both alike) and make at least two."""
    passes = []
    start = time.perf_counter()
    tracing = tracer is not None or trace_dir is not None
    while True:
        traced = tracing and len(passes) % 2 == 1
        p = run_pass(workload, kernels, tracer if traced else None,
                     trace_dir if traced else None)
        passes.append(p)
        elapsed = time.perf_counter() - start
        enough = not tracing or len(passes) >= 2
        if enough and elapsed + p.wall > seconds:
            return passes


# -- checks ------------------------------------------------------------------

def check_passes(workload, passes):
    """(failed, wrong, unresolved, records, problems) over the workload's
    requests.  A request fails when it raises, exits 1 or 3, or its output
    is wrong in any pass.  It is wrong when it answered (exit 0 or 2) and the
    answer fails its check, when a later pass answered differently, or when
    it failed in any other way than KNOWN_FAILURE.  ``failed`` counts each
    request once, however many passes ran it, so it depends on the seed only
    and not on how many passes fit in the run."""
    failed = wrong = unresolved = records = 0
    problems = []
    first = passes[0].outcomes
    first_bad = []
    for i, outcome in enumerate(first):
        code = outcome[0]
        if code not in (0, 2):
            first_bad.append(True)
            known = code == KNOWN_FAILURE[0] and KNOWN_FAILURE[1] in outcome[-1]
            wrong += not known
            problems.append(f"{workload.command(i)}#{i}: exit {code}"
                            f"{' (known failure)' if known else ''}: {str(outcome[-1])[-300:]}")
            continue
        try:
            found, unres, recs = workload.check(i, outcome)
        except (ValueError, KeyError, TypeError) as exc:
            found, unres, recs = [f"output does not parse: {exc!r}"], 0, 0
        unresolved += unres
        records += recs
        first_bad.append(bool(found))
        if found:
            wrong += 1
            problems.extend(f"{workload.command(i)}#{i}: {m}" for m in found[:3])
    for i, bad in enumerate(first_bad):
        changed = any(workload.fingerprint(i, p.outcomes[i]) != workload.fingerprint(i, first[i])
                      for p in passes[1:])
        if changed:
            wrong += 1
            problems.append(f"{workload.command(i)}#{i}: output differs between passes")
        failed += bad or changed
    return failed, wrong, unresolved, records, problems


# -- metrics -----------------------------------------------------------------

def factors(p):
    """Each request's speed factor in pass ``p``: from the kernel times
    within KERNEL_WINDOW requests of it."""
    import speed

    n = len(p.kernels)
    return [speed.factor([k for ks in p.kernels[max(0, i - KERNEL_WINDOW):i + KERNEL_WINDOW + 1]
                          for k in ks]) for i in range(n)]


def median_latencies(passes, scaled=True):
    """Each request's median latency over ``passes``, in reference seconds
    (see speed.py) or, with ``scaled=False``, in seconds as measured."""
    per_pass = [[lat * f for lat, f in zip(p.latencies, factors(p))] if scaled else p.latencies
                for p in passes]
    return [statistics.median(lats) for lats in zip(*per_pass)]


def pass_factor(p):
    import speed

    return speed.factor([k for ks in p.kernels for k in ks])


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(import_modules):
    import numpy
    import scipy
    import speed
    from importlib.metadata import version

    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older numpy prints instead of returning a dict
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             timeout=10, check=True).stdout.decode().strip()
    except (OSError, subprocess.SubprocessError):
        sha = "not a git checkout"
    digest = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(os.path.join(SRC, "specbox"))):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    digest.update(f.encode() + fh.read())
    return {
        "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "click": version("click"), "blas": blas,
        "blas_threads": int(THREADS), "nproc": os.cpu_count(), "cpu": cpu,
        "pinned_cpus": sorted(os.sched_getaffinity(0)), "speed_ref_s": speed.REF_S,
        "cli.import_modules": import_modules,
    }


def median_layers(passes):
    keys = passes[0].layers.keys()
    return {k: statistics.median(p.layers[k] for p in passes) for k in keys}


def child_layers(workload, p):
    """Sum the children's per-layer metrics of one cli_cold pass."""
    import spans

    total = spans.layer_metrics([], {})
    for k in total:
        if k == "boundary.f_calls_per_ladder" or k == "boundary.fallback_frac":
            continue
        total[k] = sum(c["layers"][k] for c in p.children)
    calls = sum(c["layers"]["boundary.ladders"] for c in p.children)
    if calls:
        total["boundary.f_calls_per_ladder"] = sum(
            c["layers"]["boundary.f_calls_per_ladder"] * c["layers"]["boundary.ladders"]
            for c in p.children) / calls
        total["boundary.fallback_frac"] = sum(
            c["layers"]["boundary.fallback_frac"] * c["layers"]["boundary.ladders"]
            for c in p.children) / calls
    for i, c in enumerate(p.children):
        total[f"cli.cmd.{workload.command(i)}_s"] = p.latencies[i]
    total["cli.import_s"] = statistics.median(c["import_s"] for c in p.children)
    total["cli.import_modules"] = p.children[0]["import_modules"]
    return total


def scaled_layers(layers, factor):
    """The layer metrics with every time (``*_s``) in reference seconds."""
    return {k: v * factor if k.endswith("_s") else v for k, v in layers.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "specbox", "cli.py")):
        fail(f"no specbox sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return

    name, seed = args.workload, args.seed
    # One CPU for the benchmark and its children, so that the calibration
    # kernel runs where the requests run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with scratch_dir() as tmp:
        # setup_s: the median of several set-ups, each as (seconds, speed factor)
        if name == "cli_cold":
            import workloads

            def setup():
                workload = workloads.CliCold(seed, tmp, child_env())
                workload.warm()
                return workload

            samples = []
            for _ in range(SETUP_SAMPLES):
                workload, seconds, factor = timed_setup(setup)
                samples.append((seconds, factor))
            import_s, import_modules = workload.import_info(os.path.join(tmp, "import.json"))
            import_s *= factor
        else:
            # the run's own set-up, then fresh-process ones that are timed
            workload = setup_in_process(name, seed, tmp)[0]
            probes = [timed_setup(lambda: run_probe(name, seed)) for _ in range(SETUP_SAMPLES)]
            samples = [(probe["setup_s"], factor) for probe, _, factor in probes]
            import_s = statistics.median(probe["import_s"] * factor for probe, _, factor in probes)
            import_modules = probes[0][0]["import_modules"]

        tracer = trace_dir = None
        if args.trace:
            if name == "cli_cold":
                trace_dir = tmp
            else:
                import spans

                tracer = spans.Tracer()
        passes = run_passes(workload, args.seconds, REQUEST_KERNELS[name], tracer, trace_dir)
        rss = peak_rss_mb(name)
        failed, wrong, unresolved, records, problems = check_passes(workload, passes)

    attempted = len(workload.requests)
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)

    print("env " + json.dumps(environment(import_modules)))
    print(f"workload {name} seed {seed} passes {len(passes)} "
          f"requests/pass {len(workload.requests)} closed loop, 1 client")
    print("pass_walls_s " + " ".join(f"{p.wall:.4g}" for p in passes))
    print("pass_speed_factors " + " ".join(f"{pass_factor(p):.4g}" for p in passes))
    print("setup_samples_s " + " ".join(f"{t:.4g}" for t, _ in samples)
          + " factors " + " ".join(f"{f:.4g}" for _, f in samples))
    print("times below are in reference seconds (see perfbench/speed.py)")

    if not args.trace:
        latencies = median_latencies(passes)
        setups = [t * f for t, f in samples]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(latencies),
            "req_p50_ms": 1e3 * statistics.median(latencies),
            "req_p90_ms": 1e3 * percentile(latencies, 90),
            "peak_rss_mb": rss,
        }
        raw = {"setup_s": statistics.median(t for t, _ in samples),
               "wall_s": sum(median_latencies(passes, scaled=False))}
        per_request = f"n={len(latencies)} requests, each the median of {len(passes)} passes"
        counts = {"setup_s": f"n={len(samples)} set-ups",
                  "wall_s": f"sum over {per_request}",
                  "req_p50_ms": per_request, "req_p90_ms": per_request, "peak_rss_mb": "n=1 run"}
        for k in values:
            note = f"; {raw[k]:.6g} s as measured" if k in raw else ""
            print(f"metric {k} {values[k]:.6g} {UNITS[k]} ({counts[k]}{note})")
        print(f"metric fail_frac {failed / attempted:.6g} ({failed}/{attempted} requests)")
        print(f"metric unresolved_frac {unresolved / max(records, 1):.6g} "
              f"({unresolved}/{records} records)")
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in END_TO_END}
    else:
        traced, untraced = passes[1::2], passes[0::2]
        if name == "cli_cold":
            for p in traced:
                p.layers = child_layers(workload, p)
        else:
            import spans

            for p in traced:
                p.layers = spans.layer_metrics(*p.spans)
                by_cmd = {}
                for i, lat in enumerate(p.latencies):
                    by_cmd.setdefault(workload.command(i), []).append(lat)
                for cmd, lats in by_cmd.items():
                    if cmd in ("classify", "density", "certify", "greens"):
                        p.layers[f"cli.cmd.{cmd}_s"] = statistics.median(lats)
        for p in traced:
            p.layers = scaled_layers(p.layers, pass_factor(p))
            if name != "cli_cold":
                p.layers["cli.import_s"] = import_s
                p.layers["cli.import_modules"] = import_modules
        layers = median_layers(traced)
        untraced_wall = sum(median_latencies(untraced))
        traced_wall = sum(median_latencies(traced))
        for k in sorted(layers):
            print(f"layer {k} {layers[k]:.6g}")
        print(f"trace untraced_wall_s {untraced_wall:.6g} s (median of {len(untraced)} passes); "
              f"traced_wall_s {traced_wall:.6g} s (median of {len(traced)} passes); "
              f"overhead_s {traced_wall - untraced_wall:.6g} s")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_JSON.items()}

    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
