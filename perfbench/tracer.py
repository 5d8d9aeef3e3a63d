"""Layer spans recorded around qgca's public functions, from outside ``src/``.

``Tracer.install()`` wraps every public function, method, classmethod and
``cached_property`` builder defined in the layer modules, then rebinds each
wrapper in every ``qgca`` module namespace (and module-level list) that holds
the original.  ``fiber_preimages`` is bound in both ``automaton`` and
``measure``, and ``is_bipermutative`` in ``automaton``, ``measure`` and
``eca``; a single stat ``automaton.is_bipermutative`` counts them all.
Generator functions are left unwrapped, so their time is the caller's.

Every span updates per-name aggregates (calls, inclusive time, self time),
where self time is the span's duration minus the time its child spans
cover.  Spans themselves (id, name, start, end, parent id) are kept in
memory for the op roots and for every span of at least ``KEEP_SPAN_S``;
shorter ones live on only in the aggregates, which bounds memory at a few
million calls per pass.  ``spans()`` returns them when the pass ends.

For the layers in ``PEAK_LAYERS`` an outermost span of the layer that sets
a new process high-water mark of the resident set records its peak rise: the
high-water mark at exit minus the RSS at entry.  A span that stays below an
earlier mark is not measured, because the kernel's mark cannot tell its own
peak.  So the layer's figure is the largest measured rise, a lower bound on
its true peak rise that depends on the order of the ops in the pass.
``tracemalloc`` would give allocation peaks, but it makes the dense-measure
pass about five times slower.
"""
from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
import time
import weakref
from contextlib import contextmanager
from functools import cached_property

LAYERS = ("quasigroup", "automaton", "measure", "groups", "matfp", "eca",
          "fixtures", "cli", "suite")
KEEP_SPAN_S = 1e-3
PEAK_LAYERS = ("measure", "groups", "eca")
_PAGE = os.sysconf("SC_PAGE_SIZE")


class Distinct:
    """Counts distinct (object, key) pairs without keeping objects alive."""

    def __init__(self):
        self.count = 0
        self._seen: dict[int, tuple[weakref.ref, set]] = {}

    def add(self, obj, key=None) -> None:
        entry = self._seen.get(id(obj))
        if entry is None or entry[0]() is not obj:
            entry = self._seen[id(obj)] = (weakref.ref(obj), set())
        if key not in entry[1]:
            entry[1].add(key)
            self.count += 1


def _rule_key(args, result):
    return args[0], None


def _closure_key(args, result):
    return args[0], result


# stats whose useful_ratio is (distinct outcomes) / calls
USEFUL = {"automaton.is_bipermutative": _rule_key,
          "quasigroup.closure": _closure_key}


def _rss() -> int:
    """Current resident set size in bytes, from /proc/self/statm."""
    with open("/proc/self/statm", "rb") as f:
        return int(f.read().split()[1]) * _PAGE


def _maxrss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, incl_s, self_s]
        self.errors = dict.fromkeys(LAYERS, 0)
        self.peak_rss_rise = dict.fromkeys(PEAK_LAYERS, 0)
        self.distinct = {name: Distinct() for name in USEFUL}
        self.op_calls: dict[str, dict[str, int]] = {}
        self._spans: list[tuple] = []
        self._stack: list[list] = []   # open spans: [id, layer, child_s]
        self._next_id = 0
        self._depth = dict.fromkeys(LAYERS, 0)

    # -- span bookkeeping -------------------------------------------------

    def wrap(self, name: str, layer: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        distinct = self.distinct.get(name)
        key = USEFUL.get(name)
        stack, spans, depth = self._stack, self._spans, self._depth
        errors, clock, tracer = self.errors, time.perf_counter, self
        peak = layer in PEAK_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            outermost = depth[layer] == 0
            depth[layer] += 1
            if outermost and peak:
                rss_in, maxrss_in = _rss(), _maxrss()
            frame = [sid, layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent is None or parent[1] != layer:
                    errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                took = end - start
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[2]
                if parent is not None:
                    parent[2] += took
                if took >= KEEP_SPAN_S or parent is None:
                    spans.append((sid, name, start, end,
                                  -1 if parent is None else parent[0]))
                if outermost and peak:
                    top = _maxrss()
                    if top > maxrss_in:
                        rises = tracer.peak_rss_rise
                        rises[layer] = max(rises[layer], top - rss_in)
            if distinct is not None:
                distinct.add(*key(args, result))
            return result

        return traced

    @contextmanager
    def root(self, name: str):
        """A root span around one op; layer spans inside get it as parent.

        The op's call count of every traced function goes to ``op_calls``.
        """
        before = {k: v[0] for k, v in self.stats.items()}
        sid = self._next_id
        self._next_id = sid + 1
        frame = [sid, "op", 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._spans.append((sid, name, start, end, -1))
            self.op_calls[name] = {k: v[0] - before[k]
                                   for k, v in self.stats.items()
                                   if v[0] != before[k]}

    def spans(self) -> list[tuple]:
        return sorted(self._spans)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            __import__(f"qgca.{layer}")
        wrappers: dict = {}
        for layer in LAYERS:
            mod = sys.modules[f"qgca.{layer}"]
            for attr, value in vars(mod).items():
                if attr.startswith("_") or getattr(value, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(layer, value)
                elif inspect.isfunction(value) \
                        and not inspect.isgeneratorfunction(value):
                    wrappers[value] = self.wrap(f"{layer}.{attr}", layer,
                                                value)
        for modname, mod in list(sys.modules.items()):
            if modname != "qgca" and not modname.startswith("qgca."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                elif isinstance(value, list):
                    value[:] = [wrappers.get(v, v) if inspect.isfunction(v)
                                else v for v in value]

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, cached_property):
                prop = cached_property(self.wrap(name, layer, member.func))
                prop.__set_name__(cls, attr)
                setattr(cls, attr, prop)
            elif isinstance(member, classmethod):
                setattr(cls, attr,
                        classmethod(self.wrap(name, layer, member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr,
                        staticmethod(self.wrap(name, layer, member.__func__)))
            elif inspect.isfunction(member) \
                    and not inspect.isgeneratorfunction(member):
                setattr(cls, attr, self.wrap(name, layer, member))
