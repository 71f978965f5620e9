"""Spans recorded from outside the program.

``install`` wraps each traced module's public functions (plus the methods
named in ``METHODS``) and patches the wrapper in wherever the original is
bound: module attributes of every loaded ``parcay`` module and registries
such as ``acceptance.CRITERIA``.  A span records its name, start, end and
parent; spans stay in memory until the run writes them out, and self time
is computed from them afterwards.  ``uninstall`` restores the originals,
so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types

MODULES = ("cli", "acceptance", "builder", "graph", "decompose", "extract",
           "infmatch", "presentation", "constructions")

# Public methods traced in addition to module-level functions.  A dataclass
# is traced through its __init__ under the class's own name.
METHODS = {
    "graph": {"ColouredGraph": ("degree", "out_darts")},
    "builder": {"CosetTable": ("run", "is_closed", "to_graph")},
    "infmatch": {"Exhaustion": ("__init__",)},
}

# Helpers called once per dart, whose spans would cost more than the work
# they time.
SKIP = {"decompose.canonical"}


def _coset_graph(args, graph):
    stats = graph.meta.get("stats", {})
    return (graph.n, stats.get("rows", 0), stats.get("scans", 0),
            stats.get("coincidences", 0))


def _window_size(args, matching):
    return args[0].graph.n


# Values kept with a span, computed from its arguments and result.
EXTRAS = {
    "builder.CosetTable.to_graph": _coset_graph,
    "infmatch.maximal_matching_wrt_miss": _window_size,
}


class Tracer:

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []     # [name id, start, end, parent index, extra]
        self._stack = []
        self.absent = []

    def wrap(self, fn, name):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        extra = EXTRAS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[4] = extra(args, result)
            return result

        return traced

    # -- results ---------------------------------------------------------

    def summary(self):
        """Per name: inclusive seconds (spans with no ancestor of the same
        name), self seconds and calls."""
        n = len(self.spans)
        child = [0.0] * n
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in self.names}
        for i, rec in enumerate(self.spans):
            entry = out[self.names[rec[0]]]
            dur = rec[2] - rec[1]
            entry["calls"] += 1
            entry["self_s"] += dur - child[i]
            if not self._has_ancestor(i, rec[0]):
                entry["s"] += dur
        return out

    def _has_ancestor(self, i, nid):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == nid:
                return True
            p = self.spans[p][3]
        return False

    def extras(self, name):
        nid = self._ids.get(name)
        return [rec[4] for rec in self.spans if rec[0] == nid]

    def count_within(self, name, ancestor):
        """Spans of ``name`` that run inside a span of ``ancestor``."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        return sum(1 for i, rec in enumerate(self.spans)
                   if rec[0] == nid and self._has_ancestor(i, aid))

    def to_json(self):
        return {"names": self.names,
                "spans": [rec[:4] for rec in self.spans],
                "absent": self.absent}


class Installation:
    """The patches one ``install`` made, so they can be undone."""

    def __init__(self):
        self.undo = []

    def set(self, obj, attr, value):
        self.undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def set_item(self, seq, i, value):
        self.undo.append((seq, i, seq[i]))
        seq[i] = value

    def uninstall(self):
        for obj, key, old in reversed(self.undo):
            if isinstance(key, int):
                obj[key] = old
            else:
                setattr(obj, key, old)
        self.undo.clear()


def _public_functions(mod, short):
    for attr, obj in vars(mod).items():
        if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                and not attr.startswith("_") and f"{short}.{attr}" not in SKIP
                and not inspect.isgeneratorfunction(obj)):
            yield attr, obj


def install(tracer, expected=(), package="parcay"):
    """Wrap and patch; names in ``expected`` that no longer exist in the
    program are recorded in ``tracer.absent`` rather than raising.  Tests
    pass a stand-in ``package``."""
    inst = Installation()
    wrappers = {}           # id(original) -> (original, wrapper)
    found = set()
    for short in MODULES:
        try:
            mod = importlib.import_module(f"{package}.{short}")
        except ImportError:
            continue
        for attr, fn in _public_functions(mod, short):
            name = f"{short}.{attr}"
            wrappers[id(fn)] = (fn, tracer.wrap(fn, name))
            found.add(name)
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(mod, cls_name, None)
            for meth in methods:
                name = f"{short}.{cls_name}" + ("" if meth == "__init__" else f".{meth}")
                fn = vars(cls).get(meth) if isinstance(cls, type) else None
                if isinstance(fn, types.FunctionType):
                    inst.set(cls, meth, tracer.wrap(fn, name))
                    found.add(name)

    def wrapped(obj):
        hit = wrappers.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    for mod in list(sys.modules.values()):
        mod_name = getattr(mod, "__name__", "")
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            new = wrapped(obj)
            if new is not None:
                inst.set(mod, attr, new)
            elif isinstance(obj, list):
                for i, item in enumerate(obj):
                    if isinstance(item, tuple) and any(map(wrapped, item)):
                        inst.set_item(obj, i, tuple(wrapped(x) or x for x in item))
    tracer.absent = sorted(set(expected) - found)
    return inst
