"""Spans around the calls into each engine layer, recorded from outside.

The tracer wraps public entry points of each layer (class methods and
the pipeline functions as bound in ``repro.smt.solver``) and keeps one
span per outermost call in memory: id, parent id, name, start, end and
self time (duration minus the time covered by child spans).  A call
re-entering the span it is already inside (recursive bit-blasting,
``execute_from`` delegating to ``execute``) does not open a new span.

Forked pool workers inherit the wrappers; wrapping the worker entry
makes each worker write its spans to a spool file when it returns, so a
worker that dies leaves a file missing rather than a layer at zero.
"""

from __future__ import annotations

import json
import os
import time

#: (owner path, attribute, span name); owner path is module[:class].
SPAN_POINTS = (
    ("repro.core.executor:BinSymExecutor", "execute", "core.executor"),
    ("repro.core.executor:BinSymExecutor", "execute_from", "core.executor"),
    ("repro.smt.solver:CachingSolver", "check", "smt.solver.check"),
    ("repro.smt.solver:QueryCache", "lookup", "smt.solver.lookup"),
    ("repro.smt.solver", "slice_conditions", "smt.preprocess.slice"),
    ("repro.smt.solver", "rewrite_slice", "smt.preprocess.rewrite"),
    ("repro.smt.solver", "analyze_slice", "smt.intervals"),
    ("repro.smt.bitblast:BitBlaster", "lit", "smt.bitblast"),
    ("repro.smt.sat:SatSolver", "solve", "smt.sat"),
    ("repro.core.store:ArtifactStore", "load_query", "core.store.load"),
    ("repro.core.store:ArtifactStore", "save_query", "core.store.save"),
)

#: Span name of one exploration, opened by the benchmark itself.
ROOT = "core.explorer"
WORKER = "core.parallel.worker"
_SAT_WORK = ("propagations", "decisions", "conflicts", "trail_reused_lits")


def _resolve(path: str):
    import importlib

    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        #: Cumulative per-instance layer counters, (kind, id) -> value;
        #: read at span exit so pooled workers report them too.
        self.gauges = {}
        self._patched = []
        #: Where forked workers write their spans; set before each
        #: exploration, read by the worker when it is forked.
        self.spool_dir = None

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1][1] if self._stack else -1
        frame = [name, self._next_id, parent, time.perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame) -> int:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - frame[3]
        self.spans.append(
            (frame[1], frame[2], frame[0], frame[3], end, duration - frame[4])
        )
        if self._stack:
            self._stack[-1][4] += duration
        return duration

    def _wrap(self, original, name: str, gauge):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == name:
                return original(*args, **kwargs)
            frame = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(frame)
                if gauge is not None:
                    gauge(tracer.gauges, args[0])

        traced.__wrapped__ = original
        return traced

    def install(self) -> list:
        """Wrap every span point and the pool worker entry; returns the
        span points this engine does not have."""
        gauges = {"smt.sat": _sat_gauge, "smt.bitblast": _blaster_gauge}
        missing = []
        for path, attr, name in SPAN_POINTS:
            try:
                owner = _resolve(path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, gauges.get(name)))
            self._patched.append((owner, attr, original))
        from repro.core import parallel

        entry = getattr(parallel, "_worker_main", None)
        if entry is None:
            missing.append("repro.core.parallel._worker_main")
        else:
            parallel._worker_main = self._worker_entry(entry)
            self._patched.append((parallel, "_worker_main", entry))
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _worker_entry(self, entry):
        tracer = self

        def traced_worker(*args, **kwargs):
            # Forked: drop the parent's spans and open frames.
            spool_dir = tracer.spool_dir
            tracer.spans = []
            tracer._stack = []
            tracer.gauges = {}
            frame = tracer.open(WORKER)
            try:
                return entry(*args, **kwargs)
            finally:
                tracer.close(frame)
                tracer.dump(os.path.join(spool_dir, f"worker-{os.getpid()}.json"))

        return traced_worker

    # -- output --------------------------------------------------------

    def take(self, mark: int):
        """Spans recorded since ``mark`` plus the gauges, then reset gauges."""
        spans = self.spans[mark:]
        gauges = summed_gauges(self.gauges)
        self.gauges = {}
        return spans, gauges

    def dump(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(
                {
                    "pid": os.getpid(),
                    "spans": self.spans,
                    "gauges": summed_gauges(self.gauges),
                },
                handle,
            )
        os.replace(tmp, path)


def _sat_gauge(gauges: dict, sat) -> None:
    key = id(sat)
    stats = sat.statistics
    for name in _SAT_WORK:
        gauges[("sat." + name, key)] = stats.get(name, 0)
    gauges[("sat.vars", key)] = sat.num_vars


def _blaster_gauge(gauges: dict, blaster) -> None:
    gauges[("bitblast.network_reuse", id(blaster))] = sum(
        blaster.network_hits.values()
    )


def summed_gauges(gauges: dict) -> dict:
    totals = {}
    for (kind, _instance), value in gauges.items():
        totals[kind] = totals.get(kind, 0) + value
    return totals


def read_spool(spool_dir: str):
    """Spans and gauges written by pool workers; (spans, gauges, files)."""
    spans, gauges, files = [], {}, 0
    if not os.path.isdir(spool_dir):
        return spans, gauges, files
    for name in sorted(os.listdir(spool_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(spool_dir, name)) as handle:
            data = json.load(handle)
        files += 1
        spans.extend([data["pid"], *span] for span in data["spans"])
        for kind, value in data["gauges"].items():
            gauges[kind] = gauges.get(kind, 0) + value
    return spans, gauges, files
