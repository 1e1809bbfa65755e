"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper, in its
defining module and in every ``specbox`` module that imported it by name,
and each traced method on its class.  A span records its name, start, end,
parent and the number of points (z values or energies) it handled; spans
stay in memory until the run ends.  Wrappers only record while the tracer is
enabled, so untimed reference checks leave no spans.  Results pass through
unchanged: a traced run must print the same bytes as an untraced one.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute, span name, how many points a call handles)
FUNCTIONS = [
    ("specbox.resolvent", "green", "resolvent.solve", "z"),
    ("specbox.resolvent", "green_all", "resolvent.solve", "z"),
    ("specbox.resolvent", "green_closed", "resolvent.solve", "z"),
    ("specbox.resolvent", "green_from_basics", "resolvent.solve", "basics"),
    ("specbox.resolvent", "green_oracle_all", "resolvent.oracle", None),
    ("specbox.resolvent", "discretize", "resolvent.discretize", None),
    ("specbox.boundary", "boundary_value", "boundary.ladder", None),
    ("specbox.boundary", "point_mass", "boundary.point_mass", None),
    ("specbox.boundary", "point_mass_scan", "boundary.atom_scan", None),
    ("specbox.boundary", "classify_energy", "boundary.classify", None),
    ("specbox.certify", "certify_no_sc", "certify", "grid"),
    ("specbox.averaging", "averaged_poisson_closed", "averaging.closed", None),
    ("specbox.averaging", "averaged_poisson_quadrature", "averaging.quad", None),
    ("specbox.averaging", "verify_abs_continuity", "averaging.scan", None),
    ("specbox.config", "load_config", "config", None),
    ("specbox.config", "build_run_config", "config", None),
    ("specbox.emit", "render_csv", "emit", "text"),
    ("specbox.emit", "render_json", "emit", "text"),
    ("specbox.emit", "write_output", "emit", None),
]
# (module, class, attribute, span name, points)
METHODS = [
    ("specbox.measures", "SpectralMeasure", "borel", "measures.borel", "z"),
    ("specbox.blackbox", "SystemBlock", "green", "blackbox.green", "z"),
    ("specbox.resolvent", "G0Basics", "at", "resolvent.g0basics", "z"),
]


def _size(value):
    return int(np.size(value))


def _points(kind, args, kwargs, result):
    """How many points a call handled, from its arguments or result."""
    if kind == "z":
        z = kwargs.get("z", args[-1])
        return _size(z)
    if kind == "basics":
        return _size(args[0].l)
    if kind == "grid":
        return _size(kwargs.get("grid", args[2]))
    if kind == "text":
        return len(result)
    return 0


class Span:
    __slots__ = ("name", "start", "end", "parent", "points", "error", "child_s", "attrs")

    def __init__(self, name, start, parent):
        self.name, self.start, self.parent = name, start, parent
        self.end = start
        self.points = 0
        self.error = None
        self.child_s = 0.0
        self.attrs = {}

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts = Counter()
        self.enabled = False
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        sp = Span(name, time.perf_counter(), parent)
        self.stack.append(sp)
        return sp

    def _close(self, sp):
        sp.end = time.perf_counter()
        self.stack.pop()
        if sp.parent is not None:
            sp.parent.child_s += sp.end - sp.start
        self.spans.append(sp)

    def _wrap(self, fn, name, kind):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if name == "boundary.ladder":
                args, counter = _count_f_calls(args)
            sp = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                sp.error = type(exc).__name__
                raise
            finally:
                tracer._close(sp)
            sp.points = _points(kind, args, kwargs, result)
            if name == "boundary.ladder":
                sp.attrs = {"f_calls": counter[0], "status": result.status}
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every traced function and method; ``uninstall`` undoes it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "specbox" or name.startswith("specbox.")]
        for mod_name, attr, name, kind in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name, kind)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapper)
        for mod_name, cls_name, attr, name, kind in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name, kind)))
            else:
                self._set(cls, attr, self._wrap(raw, name, kind))
        blackbox = sys.modules["specbox.blackbox"]
        prop = blackbox.BlackBoxModel.__dict__["exceptional_sets"]
        traced = functools.cached_property(
            self._wrap(prop.func, "blackbox.exceptional_sets", None))
        traced.__set_name__(blackbox.BlackBoxModel, "exceptional_sets")
        self._set(blackbox.BlackBoxModel, "exceptional_sets", traced)
        averaging = sys.modules["specbox.averaging"]
        self._set(averaging, "quad", _counting_quad(averaging.quad, self))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def _count_f_calls(args):
    """Wrap the ladder's ``f`` so its evaluations are counted."""
    counter = [0]
    f = args[0]

    def counted(z):
        counter[0] += 1
        return f(z)

    return (counted,) + tuple(args[1:]), counter


def _counting_quad(quad, tracer):
    """scipy's ``quad`` as the averaging module sees it, counting integrand
    evaluations while the tracer records."""

    @functools.wraps(quad)
    def wrapper(func, *args, **kwargs):
        if not tracer.enabled:
            return quad(func, *args, **kwargs)

        def counted(x):
            tracer.counts["averaging.quad.integrand_evals"] += 1
            return func(x)

        return quad(counted, *args, **kwargs)

    return wrapper


# -- per-layer metrics -------------------------------------------------------

def layer_metrics(spans, counts):
    """Per-layer totals over one group of spans (one pass)."""
    m = Counter()
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def total_self(name):
        return sum(sp.self_s for sp in by_name.get(name, ()))

    for layer in ("measures.borel", "blackbox.green"):
        m[f"{layer}.calls"] = len(by_name.get(layer, ()))
        m[f"{layer}.points"] = sum(sp.points for sp in by_name.get(layer, ()))
        m[f"{layer}.self_s"] = total_self(layer)
    m["blackbox.exceptional_sets.self_s"] = total_self("blackbox.exceptional_sets")
    m["resolvent.g0basics.calls"] = len(by_name.get("resolvent.g0basics", ()))
    m["resolvent.g0basics.self_s"] = total_self("resolvent.g0basics")
    # a green* call made from inside another green* call is not a new solve
    top = [sp for sp in by_name.get("resolvent.solve", ())
           if sp.parent is None or sp.parent.name != "resolvent.solve"]
    m["resolvent.solve.calls"] = len(top)
    m["resolvent.solve.points"] = sum(sp.points for sp in top)
    m["resolvent.solve.self_s"] = total_self("resolvent.solve")
    m["resolvent.oracle.solves"] = len(by_name.get("resolvent.oracle", ()))
    m["resolvent.oracle.self_s"] = total_self("resolvent.oracle")
    m["resolvent.discretize.self_s"] = total_self("resolvent.discretize")

    ladders = by_name.get("boundary.ladder", ())
    m["boundary.ladders"] = len(ladders)
    m["boundary.ladder.self_s"] = total_self("boundary.ladder")
    f_calls = [sp.attrs.get("f_calls", 0) for sp in ladders]
    m["boundary.f_calls_per_ladder"] = sum(f_calls) / len(f_calls) if f_calls else 0.0
    m["boundary.fallback_frac"] = sum(c > 1 for c in f_calls) / len(f_calls) if f_calls else 0.0
    m["boundary.undetermined"] = sum(sp.attrs.get("status") == "UNDETERMINED" for sp in ladders)
    m["boundary.atom_scan.self_s"] = total_self("boundary.atom_scan")
    scan_pm = [sp for sp in by_name.get("boundary.point_mass", ())
               if sp.parent is not None and sp.parent.name == "boundary.atom_scan"]
    m["boundary.atom_scan.candidates"] = len(scan_pm)
    m["boundary.atom_scan.dropped"] = sum(sp.error == "UndeterminedLimitError" for sp in scan_pm)

    m["averaging.scan.self_s"] = total_self("averaging.scan")
    m["averaging.closed.calls"] = len(by_name.get("averaging.closed", ()))
    m["averaging.closed.self_s"] = total_self("averaging.closed")
    m["averaging.quad.calls"] = len(by_name.get("averaging.quad", ()))
    m["averaging.quad.integrand_evals"] = counts.get("averaging.quad.integrand_evals", 0)
    m["averaging.quad.self_s"] = total_self("averaging.quad")

    cert = by_name.get("certify", ())
    m["certify.points"] = sum(sp.points for sp in cert)
    m["certify.self_s"] = total_self("certify")
    m["config.self_s"] = total_self("config")
    m["emit.self_s"] = total_self("emit")
    m["emit.bytes"] = sum(sp.points for sp in by_name.get("emit", ()))
    return m
