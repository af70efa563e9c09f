"""Span tracing of certrec's layers from outside the program.

`Tracer.installed()` wraps every public function of each certrec module and
rebinds every module attribute that refers to one, so calls made through a
`from .x import f` binding are seen too. Each call records a span (name,
start, end, parent, run id) in memory; `write` saves them once the run is
over. Self time is a span's duration minus the part its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import time
from dataclasses import dataclass

LAYERS = ("ratings", "base_rec", "ensemble", "bounds", "certify", "metrics",
          "oracle", "cli")

# called per item or per bisection step (millions of times in one sweep);
# spanning them would swamp the trace, so their counts are derived instead
UNTRACED = {"bounds.cp_lower", "bounds.cp_upper", "bounds.incomplete_beta",
            "bounds.round_lower_star", "bounds.round_upper_star"}

# vote-file I/O: the first argument is the path, whose size the tracer adds up
FILE_ARG = {"ensemble.load_votes", "ensemble.save_votes"}


@dataclass(frozen=True)
class Span:
    name: str
    start: int   # ns, perf_counter clock
    end: int
    parent: int  # index into the span list, -1 for a root
    run: int     # numbers the root calls; a span shares its root's number


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            yield attr, obj


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self._names: list[str] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._parent: list[int] = []
        self._run: list[int] = []
        self.file_bytes: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        names, start, end, parent, run = (self._names, self._start, self._end,
                                          self._parent, self._run)
        stack = self._stack
        clock = time.perf_counter_ns
        sized = name in FILE_ARG

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            if stack:
                parent.append(stack[-1])
                run.append(run[stack[-1]])
            else:
                parent.append(-1)
                run.append(run[-1] + 1 if run else 0)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if sized and args and os.path.exists(args[0]):
                    self.file_bytes[name] = (self.file_bytes.get(name, 0)
                                             + os.path.getsize(args[0]))
        return traced

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap the layers' public functions for the duration of the block."""
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in _public_functions(mod):
                name = f"{layer}.{attr}"
                if name not in UNTRACED:
                    wrappers[id(fn)] = (fn, self.wrap(name, fn))
        patched = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def spans(self) -> list[Span]:
        return [Span(*row) for row in zip(self._names, self._start, self._end,
                                          self._parent, self._run)]

    def write(self, path: str) -> None:
        """Gzipped TSV: index, name, start_ns, end_ns, parent, run."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\trun\n")
            for i, row in enumerate(zip(self._names, self._start, self._end,
                                        self._parent, self._run)):
                fh.write(f"{i}\t" + "\t".join(map(str, row)) + "\n")


def span_cost_ns(calls: int = 20_000, rounds: int = 7) -> float:
    """Median extra time one traced call costs over the bare call, in ns.

    Bare and traced loops alternate, so drift in machine speed hits both.
    """
    def probe():
        return None

    traced = Tracer().wrap("probe", probe)
    clock = time.perf_counter_ns
    extra = []
    for _ in range(rounds):
        t0 = clock()
        for _ in range(calls):
            probe()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        extra.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(extra)[rounds // 2]


def self_times(spans) -> list[int]:
    """Per span: duration minus the union of its children's intervals (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for idx, sp in enumerate(spans):
        covered, cursor = 0, sp.start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, cursor), min(hi, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(sp.end - sp.start - covered)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def summarize(spans) -> dict:
    """name -> {calls, ms, self_ms, durations_ms} over all spans."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for sp, own in zip(spans, selfs):
        agg = out.setdefault(sp.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                       "durations_ms": []})
        dur = (sp.end - sp.start) / 1e6
        agg["calls"] += 1
        agg["ms"] += dur
        agg["self_ms"] += own / 1e6
        agg["durations_ms"].append(dur)
    return out
