"""Span tracer for the traced benchmark runs.

The tracer wraps, from outside the package, every public function and every
public method (plus ``__init__`` and ``__call__``) of the measured howlkit
modules, and patches each wrapped function under every name it is looked up
by: ``howlkit.loop.convolve_batch`` gets the same wrapper as
``howlkit.rooms.convolve_batch``.  Methods are patched on their class, which
every caller shares.  Properties, private names and generator functions are
left alone; their time counts towards the public span that calls them.

A span is (name, start, end, parent).  Spans are kept in flat in-memory
arrays while the run goes on and written out once at the end.

``LstmNet`` methods carry the net's role in the span name
(``nets.LstmNet.step[mask]``), read from the ``bench_label`` attribute the
benchmark sets on each net, so the three nets can be told apart.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("signals", "rooms", "loop", "fdkf", "nets", "ahs", "training", "metrics")
LABEL_ATTR = "bench_label"
_LABELLED_CLASSES = ("LstmNet",)
_DUNDERS = ("__init__", "__call__")


def label_nets(nets):
    """Tag each net of a make_default_nets bundle with its role."""
    for role, net in nets.items():
        setattr(net, LABEL_ATTR, role)
    return nets


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._undo = []

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, labelled=False):
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        nid = self._intern(name)
        by_label = {}
        intern = self._intern

        def traced(*args, **kwargs):
            if labelled:
                label = getattr(args[0], LABEL_ATTR, None)
                sid = by_label.get(label)
                if sid is None:
                    sid = by_label[label] = intern(name if label is None else f"{name}[{label}]")
            else:
                sid = nid
            i = len(starts)
            ids.append(sid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _wrap_class(self, cls, layer):
        labelled = cls.__name__ in _LABELLED_CLASSES
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                wrapped = self._wrap(raw, name, labelled)
            else:
                continue
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, raw))

    def install(self, extra_modules=()):
        """Wrap the measured layers and patch every lookup site."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules[f"howlkit.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    replacements[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        sites = [m for n, m in list(sys.modules.items())
                 if n == "howlkit" or n.startswith("howlkit.")]
        for mod in sites + list(extra_modules):
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    @property
    def count(self):
        return len(self.start)

    def save(self, path, marks):
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start_ns=np.asarray(self.start),
                 end_ns=np.asarray(self.end),
                 **{f"mark_{k}": np.array(v) for k, v in marks.items()})

    def span_cost_s(self, calls=100000):
        """Measured cost of recording one span: a traced empty call minus an
        untraced one, recorded into a scratch tracer."""
        scratch = Tracer()

        def noop():
            return None

        traced = scratch._wrap(noop, "noop")
        times = []
        for fn in (noop, traced):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return max(times[1] - times[0], 0.0) / calls

    def analyse(self):
        return SpanTable(self.names, np.asarray(self.name_id), np.asarray(self.parent),
                         np.asarray(self.start), np.asarray(self.end))


class SpanTable:
    """Per-span durations and self times.

    ``own`` is a span's duration minus its direct children's.  ``layer_self``
    adds to a span's ``own`` that of every descendant reached without
    leaving the span's layer: the time spent in that layer's own code below
    the span, so ``ClosedLoop.step_frame``'s includes its delay line but not
    the room convolution or the suppressor.  Spans are recorded when they
    start, so a parent's index is always below its children's.
    """

    def __init__(self, names, name_id, parent, start, end):
        n = self.count = len(name_id)
        self.names = list(names)
        self.name_id = name_id
        self.dur = (end - start) * 1e-9
        has_parent = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.own = self.dur - child
        name_layer = np.array([LAYERS.index(nm.split(".")[0]) for nm in self.names], dtype=np.int64)
        self.layer = name_layer[name_id] if n else np.zeros(0, dtype=np.int64)
        depth = np.zeros(n, dtype=np.int64)
        up = parent.copy()
        while np.any(up >= 0):
            depth += up >= 0
            up = np.where(up >= 0, parent[np.maximum(up, 0)], -1)
        safe_parent = np.maximum(parent, 0)
        folds = has_parent & (self.layer[safe_parent] == self.layer)
        self.layer_self = self.own.copy()
        for level in range(int(depth.max(initial=0)), 0, -1):
            sel = np.nonzero(folds & (depth == level))[0]
            np.add.at(self.layer_self, parent[sel], self.layer_self[sel])

    def select(self, name, lo=0):
        """Indices of spans called ``name`` recorded from index ``lo`` on."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.nonzero(self.name_id[lo:] == self.names.index(name))[0] + lo
