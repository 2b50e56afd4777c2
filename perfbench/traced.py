"""Traced pass of one workload, run in its own process.

    python3 perfbench/traced.py WORKLOAD SEED RESULT_FILE

Warms up, installs the tracer, runs one pass (cold and warm
explorations) exactly as the untraced runs do, writes every span to
``.bench_out/trace-WORKLOAD.jsonl`` and pickles the pass's explorations,
with their span aggregates attached, to RESULT_FILE for the parent run.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import sys

import harness
import tracer as tracing

#: Spans whose individual durations are kept for percentiles.
SAMPLED = ("smt.solver.check", "smt.sat")


def aggregate(spans) -> dict:
    """Per span name: count, inclusive and self nanoseconds; plus the
    inclusive durations of the sampled span names."""
    layers, samples = {}, {name: [] for name in SAMPLED}
    for span in spans:
        name, start, end, self_ns = span[-4:]
        entry = layers.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_ns
        if name in samples:
            samples[name].append(end - start)
    return {"layers": layers, "samples": samples}


class TraceHooks(harness.Hooks):
    def __init__(self, tracer, spool_root):
        self.tracer = tracer
        self.spool_root = spool_root
        self.all_spans = []
        self._frame = None
        self._mark = 0

    def begin(self, program, mode):
        spool = os.path.join(self.spool_root, f"{program}-{mode}")
        shutil.rmtree(spool, ignore_errors=True)
        os.makedirs(spool)
        self.tracer.spool_dir = spool
        self._mark = len(self.tracer.spans)
        self._frame = self.tracer.open(tracing.ROOT)

    def stop(self):
        self.traced_wall_ns = self.tracer.close(self._frame)

    def end(self, exploration):
        pid = os.getpid()
        spans, gauges = self.tracer.take(self._mark)
        spans = [[pid, *span] for span in spans]
        worker_spans, worker_gauges, files = tracing.read_spool(self.tracer.spool_dir)
        for kind, value in worker_gauges.items():
            gauges[kind] = gauges.get(kind, 0) + value
        expected = 0
        if exploration.pooled:
            expected = exploration.stats["workers"] + exploration.health["worker_deaths"]
        exploration.stats.update(
            aggregate(spans + worker_spans),
            traced_wall_s=self.traced_wall_ns / 1e9,
            gauges=gauges,
            worker_traces=files,
            worker_traces_expected=expected,
            spans=len(spans) + len(worker_spans),
        )
        tag = f"{exploration.program}/{exploration.mode}"
        self.all_spans.extend([tag, *span] for span in spans + worker_spans)


def main(argv) -> int:
    workload_name, seed, result_file = argv[1], int(argv[2]), argv[3]
    workload = harness.WORKLOADS[workload_name]
    _isa, images = harness.setup(workload)
    harness.warm_up(workload, seed)
    tracer = tracing.Tracer()
    missing = tracer.install()
    spool_root = os.path.join(harness.OUT, f"spool-{workload_name}")
    hooks = TraceHooks(tracer, spool_root)
    try:
        _cold, _warm, explorations = harness.run_pass(
            workload, images, seed, tag=f"traced-{workload_name}", hooks=hooks
        )
    finally:
        tracer.uninstall()
        shutil.rmtree(spool_root, ignore_errors=True)
    trace_path = os.path.join(harness.OUT, f"trace-{workload_name}.jsonl")
    with open(trace_path, "w") as handle:
        for span in hooks.all_spans:
            tag, pid, span_id, parent, name, start, end, self_ns = span
            handle.write(
                json.dumps(
                    {
                        "exploration": tag,
                        "pid": pid,
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "start_ns": start,
                        "end_ns": end,
                        "self_ns": self_ns,
                    }
                )
                + "\n"
            )
    with open(result_file, "wb") as handle:
        pickle.dump(
            {
                "explorations": explorations,
                "missing_points": missing,
                "trace_file": os.path.relpath(trace_path, harness.ROOT),
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
