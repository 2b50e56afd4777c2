"""Workloads and timed passes of the engine benchmark.

A *pass* explores every program of one workload twice: a cold
exploration (fresh ISA caches, empty term interner, empty query cache or
fresh artifact store) and a warm exploration that reuses what the cold
one left behind (see README.md).  Everything here drives the engine only
through its public API: ``Explorer``, ``BinSymExecutor``,
``ExplorationResult`` and the solver statistics.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (stores, trace files, counter record).
OUT = os.path.join(ROOT, ".bench_out")


def engine_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "core", "explorer.py"))


def import_engine() -> None:
    """Put the checkout's ``src`` first on the import path."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _base64_paths(k: int) -> int:
    """Closed form of base64-encode's path count (5 classes per full
    output character; 2 or 3 reachable classes in a padded tail)."""
    full, rest = divmod(k, 3)
    return 5 ** (4 * full) * {0: 1, 1: 5 * 2, 2: 5 * 5 * 3}[rest]


@dataclass(frozen=True)
class Program:
    name: str
    scale: int
    #: Reference path count: a closed form, or a pinned count that the
    #: BINSEC-like DBA engine re-derives every run (``cross_check``).
    expected_paths: int
    cross_check: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    programs: tuple
    #: Worker processes; 1 runs the in-process driver.
    pooled: bool = False
    #: Warm explorations per cold one; short warm explorations are
    #: repeated so that each pass times a comparable amount of warm work.
    warm_repeats: int = 1
    #: Passes per run at least, however short ``--seconds``.  Pooled
    #: wall time swings with the host's CPU steal, so the campaign takes
    #: the median of three.
    min_passes: int = 2

    def jobs(self) -> int:
        return min(2, os.cpu_count() or 1) if self.pooled else 1


_BUBBLE = Program("bubble-sort", 6, math.factorial(6))
_BASE64 = Program("base64-encode", 4, _base64_paths(4))

WORKLOADS = {
    "sorts": Workload(
        "sorts",
        (_BUBBLE, Program("insertion-sort", 6, math.factorial(6))),
        warm_repeats=3,
    ),
    "parsers": Workload(
        "parsers",
        (
            _BASE64,
            Program("uri-parser", 6, 24, cross_check=True),
            Program("clif-parser", 7, 179, cross_check=True),
        ),
    ),
    "campaign": Workload("campaign", (_BUBBLE, _BASE64), pooled=True, min_passes=3),
}

#: Flags that are zero on a run without deadline, budget, faults or
#: certify mode; any non-zero value is a failed operation.
HEALTH_FLAGS = (
    "unknown_queries",
    "incomplete_paths",
    "worker_deaths",
    "hung_workers",
    "degradations",
    "deadline_expired",
    "store_quarantines",
    "store_disabled",
)


def setup(workload: Workload):
    """Imports, ``rv32im()`` and the assembled images: the set-up a user
    pays once per process before the first exploration."""
    import_engine()
    # Imported here so that set-up pays for them, as a user's process does.
    from repro.core import BinSymExecutor, Explorer  # noqa: F401
    from repro.eval.workloads import build
    from repro.spec.isa import rv32im

    isa = rv32im()
    images = {p.name: build(p.name, p.scale) for p in workload.programs}
    return isa, images


#: Scale of the untimed warm-up explorations (see :func:`warm_up`).
WARM_UP_SCALE = 3


def warm_up(workload: Workload, seed: int) -> None:
    """Explore every program once at a small scale, untimed, so that
    lazy imports and first-call set-up inside the engine (and, pooled,
    the first worker fork) are not charged to the first timed pass."""
    from repro.core import BinSymExecutor, Explorer
    from repro.eval.workloads import build
    from repro.spec.isa import rv32im

    store = os.path.join(OUT, "store-warm-up") if workload.pooled else None
    for program in workload.programs:
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
            os.makedirs(store)
        image = build(program.name, min(program.scale, WARM_UP_SCALE))
        Explorer(
            BinSymExecutor(rv32im(), image),
            use_cache=True,
            seed=seed,
            jobs=workload.jobs(),
            **({"store_dir": store} if store is not None else {}),
        ).explore()
    if store is not None:
        shutil.rmtree(store, ignore_errors=True)


@dataclass
class Exploration:
    """What one exploration reported, reduced to plain data."""

    program: str
    mode: str  # "cold", "warm<n>" or "serial-ref"
    pooled: bool
    wall_s: float
    #: One (inputs, halt_reason, exit_code, instret, stdout) per path.
    paths: list
    path_set: set
    health: dict
    #: Work counters; compared exactly between runs for serial modes.
    counters: dict
    stats: dict = field(default_factory=dict)


def path_record(path) -> tuple:
    inputs = []
    for variable, value in path.assignment.values.items():
        name = str(variable.payload)
        # Input bytes are named ``in_<address>`` by the engine; anything
        # else cannot be replayed and is reported as a mismatch.
        address = int(name[3:], 16) if name.startswith("in_") else -1
        inputs.append((address, value & 0xFF))
    return (
        tuple(sorted(inputs)),
        path.halt_reason,
        path.exit_code,
        path.instret,
        bytes(path.stdout),
    )


def _counters(result, solver) -> dict:
    counters = {
        "paths": result.num_paths,
        "total_instructions": result.total_instructions,
        "executed_instructions": result.executed_instructions,
        "sat_solves": result.sat_solves,
        "cache_hits": result.cache_hits,
        "fast_path_answers": result.fast_path_answers,
        "pruned_queries": result.pruned_queries,
        "frontier_peak": result.frontier_peak,
    }
    for prefix, stats in (
        ("solver.", result.solver_stats),
        ("snapshots.", result.snapshot_stats),
        ("superblock.", result.superblock_stats),
    ):
        for key, value in stats.items():
            counters[prefix + key] = value
    if solver is not None:
        for key, value in solver.statistics.items():
            counters["sat." + key] = value
    return counters


def summarize(result, program, mode, pooled, wall_s, solver=None) -> Exploration:
    health = {name: int(getattr(result, name, 0)) for name in HEALTH_FLAGS}
    return Exploration(
        program=program,
        mode=mode,
        pooled=pooled,
        wall_s=wall_s,
        paths=[path_record(p) for p in result.paths],
        path_set=result.path_set(),
        health=health,
        counters=_counters(result, solver),
        stats={"workers": result.workers},
    )


def fresh_state() -> None:
    """Start an exploration as a fresh process would: no interned terms,
    no garbage from the previous exploration pending collection."""
    from repro.smt import terms

    terms.reset_interner()
    gc.collect()


def rusage() -> tuple:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest (reaped) child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Hooks:
    """Callbacks around each timed exploration (the tracer overrides):
    ``begin`` and ``stop`` bracket the timed region, ``end`` receives
    the exploration's summary."""

    def begin(self, program: str, mode: str) -> None:
        pass

    def stop(self) -> None:
        pass

    def end(self, exploration: Exploration) -> None:
        pass


def run_pass(workload: Workload, images: dict, seed: int, tag: str, hooks=None):
    """One cold and ``warm_repeats`` warm explorations of every program.

    Returns ``(explore_s, warm_samples, explorations)``: the cold wall
    time summed over the programs, and one such sum per warm repetition.
    Only the executor construction and ``Explorer(...).explore()`` are
    inside the timed regions.
    """
    from repro.core import BinSymExecutor, Explorer
    from repro.spec.isa import rv32im

    hooks = hooks if hooks is not None else Hooks()
    jobs = workload.jobs()
    explorations = []
    store = os.path.join(OUT, f"store-{tag}") if workload.pooled else None
    if store is not None:
        shutil.rmtree(store, ignore_errors=True)
        os.makedirs(store)
    modes = ["cold"] + [f"warm{i + 1}" for i in range(workload.warm_repeats)]
    if workload.pooled:
        # A cold campaign over both programs, then warm ones.
        order = [(m, p) for m in modes for p in workload.programs]
    else:
        # Warm explorations right after their cold one: the next cold
        # exploration resets the interner its query cache is keyed on.
        order = [(m, p) for p in workload.programs for m in modes]
    totals = dict.fromkeys(modes, 0.0)
    cold_state = None  # (isa, solver) of the program's cold exploration
    for mode, program in order:
        image = images[program.name]
        if mode == "cold" or workload.pooled:
            isa = rv32im()
            fresh_state()
            solver = None
        else:
            # Warm serial exploration: same ISA caches, same interned
            # terms and the cold exploration's query cache.
            isa, solver = cold_state
            gc.collect()
        hooks.begin(program.name, mode)
        cpu_before = rusage()
        start = time.perf_counter()
        explorer = Explorer(
            BinSymExecutor(isa, image),
            solver=solver,
            use_cache=True,
            seed=seed,
            jobs=jobs,
            **({"store_dir": store} if store is not None else {}),
        )
        result = explorer.explore()
        wall = time.perf_counter() - start
        hooks.stop()
        cpu_after = rusage()
        totals[mode] += wall
        summary = summarize(
            result,
            program.name,
            mode,
            workload.pooled,
            wall,
            solver=None if workload.pooled else explorer.solver,
        )
        summary.stats["parent_cpu_s"] = cpu_after[0] - cpu_before[0]
        summary.stats["children_cpu_s"] = cpu_after[1] - cpu_before[1]
        if store is not None and mode == "cold":
            summary.stats["store_bytes"] = _tree_bytes(store)
        hooks.end(summary)
        explorations.append(summary)
        if mode == "cold":
            cold_state = (isa, explorer.solver)
        del explorer, result
    if store is not None:
        shutil.rmtree(store, ignore_errors=True)
    return totals["cold"], [totals[m] for m in modes[1:]], explorations


def serial_reference(workload: Workload, images: dict, seed: int) -> list:
    """Serial exploration of a pooled workload's programs (outside any
    timed region): the path sets both pooled passes must equal, and the
    solve counts the redundant-solve ratio divides by."""
    from repro.core import BinSymExecutor, Explorer
    from repro.spec.isa import rv32im

    explorations = []
    for program in workload.programs:
        fresh_state()
        explorer = Explorer(
            BinSymExecutor(rv32im(), images[program.name]), use_cache=True, seed=seed
        )
        start = time.perf_counter()
        result = explorer.explore()
        explorations.append(
            summarize(
                result,
                program.name,
                "serial-ref",
                False,
                time.perf_counter() - start,
                solver=explorer.solver,
            )
        )
    return explorations


def _tree_bytes(root: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(folder, name))
            except OSError:
                pass
    return total
