"""One CLI command as a fresh process, the way a user runs it.

Usage: ``python3 perfbench/child.py <specbox arguments>`` with ``src`` on
``PYTHONPATH``.  With ``PERFBENCH_TRACE_OUT`` set, the child also traces the
command and writes its per-layer metrics, import time and module count to
that path as JSON; its stdout is the same either way.
"""

import os
import sys
import time

if __name__ == "__main__":
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    t0 = time.perf_counter()
    n0 = len(sys.modules)
    import specbox.cli

    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - n0
    if not trace_out:
        sys.exit(specbox.cli.main(sys.argv[1:]))

    import json

    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        code = specbox.cli.main(sys.argv[1:])
    finally:
        tracer.enabled = False
    sys.stdout.flush()
    layers = spans.layer_metrics(tracer.spans, tracer.counts)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "import_modules": modules, "layers": layers}, fh)
    sys.exit(code)
