"""Per-layer metrics from a traced pass.

Every metric describes the traced pass's cold explorations, except the
store's loads, hits and ``warm_solves``, which describe its warm ones.
Layers are named after the engine's modules; a layer's ``self_s`` is the
self time of its spans, summed over processes.  ``core.explorer.self_s``
is the self time of the exploration spans themselves: on the in-process
driver, the traced ``explore_s`` minus every other layer's self time; on
the pool, the coordinator's wall time.  Metrics whose spans could not be
collected are returned in ``missing`` instead of as numbers.
"""

from __future__ import annotations

import statistics

import tracer as tracing

#: name -> unit, in report order (the per_layer list of BENCHMARK.json).
METRICS = {
    "core.explorer.self_s": "s",
    "core.explorer.frontier_peak": "count",
    "core.explorer.pruned_queries": "count",
    "core.executor.calls": "count",
    "core.executor.self_s": "s",
    "core.executor.instructions": "count",
    "core.executor.instr_per_s": "1/s",
    "core.snapshots.resumed_runs": "count",
    "core.snapshots.saved_instructions": "count",
    "core.snapshots.pool_hit_ratio": "ratio",
    "spec.superblock.hits": "count",
    "spec.superblock.coverage": "ratio",
    "smt.solver.checks": "count",
    "smt.solver.self_s": "s",
    "smt.solver.check_p50_ms": "ms",
    "smt.solver.check_p99_ms": "ms",
    "smt.solver.check_samples": "count",
    "smt.solver.lookup_s": "s",
    "smt.solver.cache_hit_ratio": "ratio",
    "smt.solver.integrity_checks": "count",
    "smt.solver.model_reuse_hits": "count",
    "smt.solver.subsumption_hits": "count",
    "smt.preprocess.slice_s": "s",
    "smt.preprocess.rewrite_s": "s",
    "smt.preprocess.slices_per_query": "ratio",
    "smt.intervals.calls": "count",
    "smt.intervals.self_s": "s",
    "smt.intervals.answers": "count",
    "smt.intervals.answer_ratio": "ratio",
    "smt.bitblast.self_s": "s",
    "smt.bitblast.sat_vars": "count",
    "smt.bitblast.network_reuse": "count",
    "smt.sat.solves": "count",
    "smt.sat.self_s": "s",
    "smt.sat.solve_p99_ms": "ms",
    "smt.sat.solve_samples": "count",
    "smt.sat.propagations": "count",
    "smt.sat.decisions": "count",
    "smt.sat.conflicts": "count",
    "smt.sat.trail_reused_lits": "count",
    "smt.sat.props_per_solve": "ratio",
    "core.parallel.workers": "count",
    "core.parallel.worker_cpu_s": "s",
    "core.parallel.parent_cpu_s": "s",
    "core.parallel.utilisation": "ratio",
    "core.parallel.redundant_solve_ratio": "ratio",
    "core.parallel.worker_deaths": "count",
    "core.store.loads": "count",
    "core.store.load_s": "s",
    "core.store.saves": "count",
    "core.store.save_s": "s",
    "core.store.hits": "count",
    "core.store.bytes": "B",
    "core.store.warm_solves": "count",
    "trace.explore_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "trace.missing_worker_traces": "count",
}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values, q: int):
    """The q-th percentile (1..99) of at least two values, else None."""
    if len(values) < 2:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def _summed_layers(explorations) -> dict:
    """Span name -> [count, inclusive ns, self ns], summed."""
    summed = {}
    for exploration in explorations:
        for name, entry in exploration.stats["layers"].items():
            merged = summed.setdefault(name, [0, 0, 0])
            for i in range(3):
                merged[i] += entry[i]
    return summed


def compute(traced, untraced_explore_s: float, serial_solves: dict):
    """Return ``(metrics, missing)`` for one traced pass.

    ``serial_solves`` maps program to the serial exploration's SAT-core
    solves, the base of the redundant-solve ratio.
    """
    cold = [e for e in traced if e.mode == "cold"]
    warm = [e for e in traced if e.mode == "warm1"]
    layers, warm_layers = _summed_layers(cold), _summed_layers(warm)
    samples, gauges = {"smt.solver.check": [], "smt.sat": []}, {}
    for exploration in cold:
        for name, values in exploration.stats["samples"].items():
            samples[name].extend(values)
        for kind, value in exploration.stats["gauges"].items():
            gauges[kind] = gauges.get(kind, 0) + value

    def count(name, runs=layers):
        return runs.get(name, (0, 0, 0))[0]

    def self_s(*names, runs=layers):
        return sum(runs.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def total(key, runs=cold):
        return sum(e.counters.get(key, 0) for e in runs)

    def ms(values, q):
        value = _percentile(values, q)
        return None if value is None else value / 1e6

    explore_s = sum(e.stats["traced_wall_s"] for e in cold)
    executed = total("executed_instructions")
    executor_s = self_s("core.executor")
    snap_hits = total("snapshots.snap_pool_hits")
    snap_misses = total("snapshots.snap_pool_misses")
    cache_hits, cache_misses = total("solver.cache_hits"), total("solver.cache_misses")
    interval_answers = total("solver.interval_unsat") + total("solver.interval_sat")
    solves = count("smt.sat")
    workers = max(e.stats["workers"] for e in cold)
    pooled = any(e.pooled for e in cold)
    parent_cpu = sum(e.stats["parent_cpu_s"] for e in cold)
    # On the in-process driver the exploring process is the one worker.
    worker_cpu = sum(e.stats["children_cpu_s"] for e in cold) if pooled else parent_cpu
    serial_base = sum(serial_solves.get(e.program, 0) for e in cold)
    missing_traces = sum(
        e.stats["worker_traces_expected"] - e.stats["worker_traces"]
        for e in traced
        if e.pooled
    )

    # From ExplorationResult, rusage and the benchmark's own spans.
    counted = {
        "core.explorer.self_s": self_s(tracing.ROOT),
        "core.explorer.frontier_peak": max(e.counters["frontier_peak"] for e in cold),
        "core.explorer.pruned_queries": total("pruned_queries"),
        "core.executor.instructions": executed,
        "core.snapshots.resumed_runs": total("snapshots.snap_resumed_runs"),
        "core.snapshots.saved_instructions": total("snapshots.snap_saved_instructions"),
        "core.snapshots.pool_hit_ratio": _ratio(snap_hits, snap_hits + snap_misses),
        "spec.superblock.hits": total("superblock.sb_hits"),
        "spec.superblock.coverage": _ratio(
            total("superblock.sb_block_instructions"), executed
        ),
        "smt.solver.cache_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "smt.solver.integrity_checks": total("solver.cache_integrity_checks"),
        "smt.solver.model_reuse_hits": total("solver.cache_model_reuse_hits"),
        "smt.solver.subsumption_hits": total("solver.cache_subsumption_hits"),
        "smt.preprocess.slices_per_query": _ratio(
            total("solver.slices"), total("solver.queries")
        ),
        "smt.intervals.answers": interval_answers,
        "core.parallel.workers": workers,
        "core.parallel.worker_cpu_s": worker_cpu,
        "core.parallel.parent_cpu_s": parent_cpu,
        "core.parallel.utilisation": _ratio(worker_cpu, workers * explore_s),
        "core.parallel.redundant_solve_ratio": _ratio(total("sat_solves"), serial_base),
        "core.parallel.worker_deaths": sum(e.health["worker_deaths"] for e in cold),
        "core.store.hits": total("solver.store_hits", warm),
        "core.store.bytes": sum(e.stats.get("store_bytes", 0) for e in cold),
        "core.store.warm_solves": total("sat_solves", warm),
        "trace.explore_s": explore_s,
        "trace.overhead_frac": _ratio(explore_s, untraced_explore_s) - 1.0,
        "trace.spans": sum(e.stats["spans"] for e in traced),
        "trace.missing_worker_traces": missing_traces,
    }
    # From the layer spans and gauges, which pool workers write on exit.
    spanned = {
        "core.executor.calls": count("core.executor"),
        "core.executor.self_s": executor_s,
        "core.executor.instr_per_s": _ratio(executed, executor_s),
        "smt.solver.checks": count("smt.solver.check"),
        "smt.solver.self_s": self_s("smt.solver.check", "smt.solver.lookup"),
        "smt.solver.check_p50_ms": ms(samples["smt.solver.check"], 50),
        "smt.solver.check_p99_ms": ms(samples["smt.solver.check"], 99),
        "smt.solver.check_samples": len(samples["smt.solver.check"]),
        "smt.solver.lookup_s": self_s("smt.solver.lookup"),
        "smt.preprocess.slice_s": self_s("smt.preprocess.slice"),
        "smt.preprocess.rewrite_s": self_s("smt.preprocess.rewrite"),
        "smt.intervals.calls": count("smt.intervals"),
        "smt.intervals.self_s": self_s("smt.intervals"),
        "smt.intervals.answer_ratio": _ratio(interval_answers, count("smt.intervals")),
        "smt.bitblast.self_s": self_s("smt.bitblast"),
        "smt.bitblast.sat_vars": gauges.get("sat.vars"),
        "smt.bitblast.network_reuse": gauges.get("bitblast.network_reuse"),
        "smt.sat.solves": solves,
        "smt.sat.self_s": self_s("smt.sat"),
        "smt.sat.solve_p99_ms": ms(samples["smt.sat"], 99),
        "smt.sat.solve_samples": len(samples["smt.sat"]),
        "smt.sat.propagations": gauges.get("sat.propagations"),
        "smt.sat.decisions": gauges.get("sat.decisions"),
        "smt.sat.conflicts": gauges.get("sat.conflicts"),
        "smt.sat.trail_reused_lits": gauges.get("sat.trail_reused_lits"),
        "smt.sat.props_per_solve": _ratio(gauges.get("sat.propagations", 0), solves),
        "core.store.loads": count("core.store.load", warm_layers),
        "core.store.load_s": self_s("core.store.load", runs=warm_layers),
        "core.store.saves": count("core.store.save"),
        "core.store.save_s": self_s("core.store.save"),
    }
    if missing_traces:
        # A worker never wrote its spans: these would read low, so none
        # of them is reported.
        spanned = dict.fromkeys(spanned)
    values = {**counted, **spanned}
    metrics = {n: values[n] for n in METRICS if values.get(n) is not None}
    missing = [n for n in METRICS if values.get(n) is None]
    return metrics, missing
