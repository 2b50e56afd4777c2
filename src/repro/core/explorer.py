"""Offline dynamic symbolic execution: the path exploration driver.

Implements the paper's exploration configuration (Sect. III-B): an
*offline executor* that repeatedly restarts the SUT with fresh inputs
obtained from the solver — dynamic symbolic execution with pluggable
path selection and address concretization.

The driver is engine-neutral: anything satisfying the executor
interface (``execute(assignment) -> RunResult``, ``input_variables()``)
can be explored, which is how the angr-, BINSEC- and SymEx-VP-style
baseline engines share the exact same search and solver infrastructure
— the comparison then isolates the *translation* methodology, like the
paper's evaluation intends.

Scheduling (frontier policies, branch-flip expansion) lives in
:mod:`repro.core.scheduler`.  One coordinator loop owns the frontier
and the campaign state (checkpoints, deadline, hotness feedback, flip
dedup, certify replay) and dispatches work items to *seats*: with
``jobs=1`` (or a caller-supplied solver) one in-process seat runs each
item synchronously; ``Explorer(executor, jobs=N)`` forks ``N``
supervised seats (:mod:`repro.core.parallel`).  Either kind runs the
same per-run step (:class:`SeatRunner`) and reports one
:class:`RunRecord` per item.  ``use_cache=True`` puts a cross-path
:class:`repro.smt.solver.QueryCache` in front of each seat's solver.

Every layer's work counters travel as one flat, name-keyed dict: a
seat reports its cumulative counters (:meth:`SeatRunner.counters`),
and the coordinator sums the seats' dicts by name into the journal at
each checkpoint and into :attr:`ExplorationResult.counters` at finish.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..arch.hart import HaltReason
from ..smt.preprocess import PreprocessConfig
from ..smt.solver import CachingSolver, Solver
from ..spec.superblock import BRANCH_HOT_HITS
from .parallel import (
    DEFAULT_HANG_TIMEOUT,
    ForkedSeats,
    default_jobs,
    from_wire_fields,
    wire_fields,
)
from .scheduler import Frontier, RunStats, WorkItem, expand_run, query_digest
from .state import ExploredPrefixTrie, InputAssignment

__all__ = [
    "PathInfo",
    "ExplorationResult",
    "Explorer",
    "ProcessPoolExplorer",
    "RunRecord",
    "SeatRunner",
    "make_solver",
    "install_fault_hooks",
]

#: Key prefixes of the executor-side and governor layers in a seat's
#: counters; every other key is the solver's.
_SEAT_LAYERS = ("snap_", "sb_", "gov_")


def make_solver(
    use_cache: bool,
    preprocess: Optional[PreprocessConfig],
    store_dir: Optional[str] = None,
):
    """Build the exploration solver for one explorer (or one forked seat).

    ``use_cache`` selects the pipelined :class:`CachingSolver`; without
    it the plain :class:`Solver` still honours the solver-layer knobs
    (trail reuse) carried by the preprocess config, so the ablation
    flags behave identically in cached and uncached runs.

    ``store_dir`` (``--store DIR``) attaches the persistent artifact
    tier behind the query cache — each explorer/seat owns its own
    :class:`repro.core.store.ArtifactStore` handle on the shared
    directory (reads are per-call, writes single-writer-per-process),
    so the handle is safe to construct before a fork.  A store implies
    the query layer: persisting answers requires the cache pipeline, so
    ``store_dir`` selects :class:`CachingSolver` even when ``use_cache``
    is off (asking to persist answers that are never collected would be
    a silent no-op).
    """
    if use_cache or store_dir is not None:
        solver = CachingSolver(preprocess=preprocess)
        if store_dir is not None:
            from .store import ArtifactStore

            certify = bool(preprocess is not None and preprocess.certify)
            solver.cache.attach_store(ArtifactStore(store_dir, certify=certify))
        return solver
    if preprocess is None:
        return Solver()
    return Solver(
        trail_reuse=preprocess.trail_reuse,
        conflict_budget=preprocess.conflict_budget,
        propagation_budget=preprocess.propagation_budget,
        wall_budget=preprocess.wall_budget,
        core_budget=preprocess.core_budget,
        certify=preprocess.certify,
        proof_log=preprocess.certify and preprocess.proof_log,
    )


def install_fault_hooks(solver, faults, scope) -> None:
    """Attach one seat's fault schedule to its solver (and cache).

    Used identically by the in-process seat and every forked seat:
    ``unknown=`` give-ups go to the CDCL fault hook, ``corrupt=``
    poisoning to the query cache's corruptor seam (a solver without a
    cache simply has nothing to poison).
    """
    if faults is None:
        return
    hook = faults.solver_hook(scope)
    if hook is not None and hasattr(solver, "set_fault_hook"):
        solver.set_fault_hook(hook)
    corruptor = faults.corruptor(scope)
    cache = getattr(solver, "cache", None)
    if corruptor is not None and cache is not None:
        cache.set_corruptor(corruptor)
    store = getattr(cache, "store", None)
    if store is not None:
        store_hook = faults.store_hook(scope)
        if store_hook is not None:
            store.set_fault_hook(store_hook)
        if corruptor is not None:
            store.set_corruptor(corruptor)


@dataclass
class PathInfo:
    """Summary of one fully executed path."""

    index: int
    halt_reason: Optional[str]
    exit_code: Optional[int]
    instret: int
    trace_length: int
    assignment: InputAssignment
    stdout: bytes
    final_pc: int = 0
    #: Order-sensitive digest chain of the path's branch conditions and
    #: assumptions (certify mode only; ``None`` otherwise) — the logical
    #: path identity a certificate replay re-derives and compares.
    condition_digest: Optional[int] = None

    @property
    def is_assertion_failure(self) -> bool:
        return self.halt_reason == HaltReason.EBREAK


@dataclass
class ExplorationResult:
    """All paths found plus exploration statistics.

    Query accounting is exact in both execution modes: ``sat_checks``
    and ``unsat_checks`` count queries the SAT core actually solved
    (summed over all workers in parallel mode), ``sat_solves`` the raw
    per-slice CDCL invocations behind them, while ``cache_hits``,
    ``fast_path_answers`` and ``pruned_queries`` count work the query
    cache, the preprocessing pipeline and the explored-prefix trie
    avoided.  ``counters`` carries every layer's cumulative work
    counters, summed by name across seats (see :meth:`SeatRunner.counters`).
    """

    paths: list[PathInfo] = field(default_factory=list)
    sat_checks: int = 0
    unsat_checks: int = 0
    cache_hits: int = 0
    fast_path_answers: int = 0
    sat_solves: int = 0
    pruned_queries: int = 0
    #: Flip queries the solver abandoned (work budget exhausted or
    #: injected give-up).  Together with ``incomplete_paths`` this
    #: accounts for every path a degraded run did not explore — the
    #: fault-tolerance contract: ``path_set()`` shrinks only by
    #: explicitly counted causes, never silently.
    unknown_queries: int = 0
    #: Work items abandoned after repeated worker deaths, plus frontier
    #: items drained when a ``--deadline`` expired (each is one
    #: unexplored path plus its would-be subtree).
    incomplete_paths: int = 0
    #: Worker processes that died mid-item and were respawned.
    worker_deaths: int = 0
    #: Worker seats the heartbeat watchdog declared hung and killed
    #: (each also counts as a worker death once the kill lands).
    hung_workers: int = 0
    #: The global ``--deadline`` fired: the frontier was drained into
    #: ``incomplete_paths`` and the run checkpointed for ``--resume``.
    #: Not persisted — a resumed run gets a fresh deadline.
    deadline_expired: bool = False
    #: Exploration ended by Ctrl-C (or an injected interrupt) — the
    #: result is a valid partial campaign, resumable via checkpoints.
    interrupted: bool = False
    total_instructions: int = 0
    #: Instructions actually interpreted: ``total_instructions`` minus
    #: the prefixes snapshot resumption skipped (equal when snapshots
    #: are off — ``total_instructions`` always counts full path lengths).
    executed_instructions: int = 0
    wall_time: float = 0.0
    solver_time: float = 0.0
    truncated: bool = False
    #: Number of worker processes that executed runs (1 = in-process).
    workers: int = 1
    #: Largest frontier size observed during the exploration.
    frontier_peak: int = 0
    #: PCs of symbolic branches seen during exploration (branch coverage).
    covered_branches: set = field(default_factory=set)
    #: Every layer's cumulative work counters in one flat, name-keyed
    #: dict, exactly summed over every seat: the solver's cache,
    #: pipeline, CDCL, certify and store counters plus the ``snap_*``
    #: (snapshot pool), ``sb_*`` (superblocks) and ``gov_*`` (memory
    #: governor) layers, each present only when its layer is active.
    counters: dict = field(default_factory=dict)
    #: Certify-mode replay accounting: paths whose certificates checked
    #: under the reference evaluator, and paths with at least one
    #: mismatching field (see :mod:`repro.core.certificates`).
    certified_paths: int = 0
    certificate_failures: int = 0
    #: One :class:`repro.core.certificates.PathCertificate` per recorded
    #: path (certify mode only), in path order.
    certificates: list = field(default_factory=list)
    #: Human-readable mismatch messages from the certify replay.
    certificate_errors: list = field(default_factory=list)

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    @property
    def num_queries(self) -> int:
        """Queries the SAT core actually solved."""
        return self.sat_checks + self.unsat_checks

    @property
    def assertion_failures(self) -> list[PathInfo]:
        return [p for p in self.paths if p.is_assertion_failure]

    @property
    def exit_codes(self) -> set[int]:
        return {p.exit_code for p in self.paths if p.exit_code is not None}

    def path_set(self) -> set:
        """Order-independent identity of the discovered paths.

        Parallel exploration records paths in completion order, so
        comparisons across execution modes go through this set.
        """
        return {
            (p.halt_reason, p.exit_code, p.trace_length, p.stdout, p.final_pc)
            for p in self.paths
        }

    def merge_run_stats(self, stats: RunStats) -> None:
        """Fold one run's solver accounting into the totals."""
        self.sat_checks += stats.sat_checks
        self.unsat_checks += stats.unsat_checks
        self.cache_hits += stats.cache_hits
        self.fast_path_answers += stats.fast_path_answers
        self.sat_solves += stats.sat_solves
        self.pruned_queries += stats.pruned_queries
        self.unknown_queries += stats.unknown_queries
        self.solver_time += stats.solver_time
        self.covered_branches |= stats.covered_pcs

    def layer(self, prefix: str) -> dict:
        """One layer's counters: the ``snap_``, ``sb_`` or ``gov_`` keys,
        or for ``""`` the solver's (every key outside those three)."""
        if prefix:
            return {k: v for k, v in self.counters.items() if k.startswith(prefix)}
        return {
            k: v for k, v in self.counters.items() if not k.startswith(_SEAT_LAYERS)
        }

    # Read-only layer views for readers that predate the flat registry.
    solver_stats = property(lambda self: self.layer(""))
    snapshot_stats = property(lambda self: self.layer("snap_"))
    superblock_stats = property(lambda self: self.layer("sb_"))

    @property
    def degradations(self) -> int:
        """Memory-governor ladder rungs applied under RSS pressure, summed
        over every process.  Non-zero means the run traded speed (cache
        capacity, snapshot reuse) for memory — never paths."""
        return self.counters.get("gov_rungs_applied", 0)

    @property
    def superblock_hits(self) -> int:
        """Step-loop dispatches that executed a superblock."""
        return self.counters.get("sb_hits", 0)

    @property
    def superblock_instructions(self) -> int:
        """Instructions retired inside superblocks (of total_instructions)."""
        return self.counters.get("sb_block_instructions", 0)

    @property
    def store_hits(self) -> int:
        """Verified warm hits served by the persistent store (``--store``)."""
        return self.counters.get("store_hits", 0)

    @property
    def store_quarantines(self) -> int:
        """Store files that failed verification and were renamed aside."""
        return self.counters.get("store_quarantines", 0)

    @property
    def store_disabled(self) -> int:
        """Processes whose store tier disabled itself after an I/O failure."""
        return self.counters.get("store_disabled", 0)

    @property
    def resumed_runs(self) -> int:
        """Runs that resumed from a snapshot instead of ``pc = entry``."""
        return self.counters.get("snap_resumed_runs", 0)

    @property
    def saved_instructions(self) -> int:
        """Prefix instructions snapshot resumption did not re-execute."""
        return self.counters.get("snap_saved_instructions", 0)

    def summary(self) -> str:
        text = (
            f"{self.num_paths} paths "
            f"({len(self.assertion_failures)} assertion failures), "
            f"{self.num_queries} solver queries "
            f"({self.sat_checks} sat / {self.unsat_checks} unsat, "
            f"{self.solver_time:.2f}s in solver), "
            f"{self.total_instructions} instructions, "
            f"{self.wall_time:.2f}s"
        )
        if self.cache_hits or self.fast_path_answers or self.pruned_queries:
            text += (
                f" [{self.cache_hits} cache hits, "
                f"{self.fast_path_answers} fast-path, "
                f"{self.pruned_queries} pruned]"
            )
        if self.resumed_runs:
            text += (
                f" [{self.resumed_runs} resumed runs, "
                f"{self.saved_instructions} instructions skipped]"
            )
        if self.workers > 1:
            text += f" [{self.workers} workers]"
        if self.unknown_queries or self.incomplete_paths:
            text += (
                f" [degraded: {self.unknown_queries} unknown queries, "
                f"{self.incomplete_paths} incomplete paths]"
            )
        if self.worker_deaths:
            text += f" [{self.worker_deaths} worker deaths]"
        if self.hung_workers:
            text += f" [{self.hung_workers} hung workers]"
        if self.degradations:
            text += f" [{self.degradations} memory degradations]"
        if self.store_hits or self.store_quarantines or self.store_disabled:
            text += (
                f" [store: {self.store_hits} warm hits, "
                f"{self.store_quarantines} quarantined, "
                f"{self.store_disabled} disabled]"
            )
        if self.deadline_expired:
            text += " [deadline expired]"
        if self.certified_paths or self.certificate_failures:
            text += (
                f" [certified: {self.certified_paths} paths, "
                f"{self.certificate_failures} failures]"
            )
        if self.interrupted:
            text += " [interrupted]"
        return text


def sum_counters(*registries) -> dict:
    """Key-wise sum of flat counter dicts (a missing key counts 0)."""
    total: dict = {}
    for registry in registries:
        for key, value in registry.items():
            total[key] = total.get(key, 0) + value
    return total


@dataclass
class RunRecord:
    """What one seat reports for one executed work item.

    ``path.index`` is assigned when the coordinator records the path.
    ``counters`` is filled on forked seats only: their replies carry the
    incarnation's cumulative counters, and the coordinator keeps the
    latest per ``seat`` uid.  That is exact — a seat accrues counters
    only while producing records, so its last record carries its final
    totals (work lost to a mid-item death is requeued, so attribution
    stays a lower bound).  The in-process seat's counters are read
    directly, at checkpoint and at finish.
    """

    path: PathInfo
    #: Prefix instructions snapshot resumption skipped on this run.
    resumed_instret: int
    #: Flip children, each snapshot reference tagged ``(seat, handle)``.
    children: list
    stats: RunStats
    #: Uid of the seat (its fault scope) that executed the item.
    seat: object
    counters: Optional[dict] = None

    def __reduce__(self):
        # A forked seat's reply crosses its pipe as builtins only (see
        # repro.core.parallel.wire_fields).
        return _record_from_wire, (
            wire_fields(self.path),
            self.resumed_instret,
            [wire_fields(child) for child in self.children],
            vars(self.stats),
            self.seat,
            self.counters,
        )


def _record_from_wire(path, resumed_instret, children, stats, seat, counters):
    return RunRecord(
        from_wire_fields(PathInfo, path),
        resumed_instret,
        [from_wire_fields(WorkItem, child) for child in children],
        RunStats(**stats),
        seat,
        counters,
    )


class SeatRunner:
    """The per-run step of one seat, over the state the seat owns.

    A seat owns its solver (and query cache), its explored-prefix trie,
    its memory governor, its fault scope ``uid`` and run ordinal, and
    the superblock hot-PC set already applied to its executor.  The
    in-process seat runs under scope ``"serial"``; forked seats under
    their incarnation uids — the keys of every seeded fault schedule.

    Snapshot handles are process-local, so an item's snapshot reference
    ``(seat uid, handle)`` is only honoured by the seat that captured
    it; other seats re-execute from the entry point, which discovers
    the identical path (counted as ``snap_cross_worker_items``).
    """

    def __init__(self, explorer, uid, solver, compute_digests: bool):
        executor = explorer.executor
        self.uid = uid
        self.executor = executor
        self.solver = solver
        self.faults = explorer.faults
        install_fault_hooks(solver, self.faults, uid)
        self.trie = ExploredPrefixTrie() if explorer.dedup_flips else None
        self.snapshots = explorer.snapshots
        self.certify = explorer.certify
        self.compute_digests = compute_digests
        # Anytime layer: the governor reads/flips ``capture_state`` — its
        # bottom rung disables snapshot capture, which run() re-reads
        # every item, so degradation takes effect immediately.  RSS is
        # per-process, so every forked seat walks its own ladder.
        self.capture_state = {"snapshots": self.snapshots}
        self.governor = None
        if explorer.memory_budget_mb is not None:
            from .governor import build_exploration_governor

            self.governor = build_exploration_governor(
                explorer.memory_budget_mb, executor, solver, self.capture_state
            )
        self.purge = getattr(executor, "purge_snapshots", None)
        self.note_hot = getattr(executor, "note_hot_pcs", None)
        self.memhog_leaks: list = []  # memhog= ballast, kept until the seat closes
        #: Items started so far: the ordinal of every fault decision.
        self.ordinal = 0
        #: Prefix of the coordinator's append-only hot-PC tuple applied.
        self.hot_applied = 0
        self.cross_seat_items = 0

    def run(self, item: WorkItem, hot_pcs: tuple) -> RunRecord:
        """Execute one item and expand its branch flips."""
        ordinal = self.ordinal
        self.ordinal += 1
        executor = self.executor
        faults = self.faults
        if self.note_hot is not None and len(hot_pcs) > self.hot_applied:
            # The coordinator's hot set is global across seats; apply
            # the part this seat's executor has not seen yet.
            self.note_hot(hot_pcs[self.hot_applied :])
            self.hot_applied = len(hot_pcs)
        capturing = self.capture_state["snapshots"]
        if faults is not None:
            if capturing and self.purge is not None:
                if faults.should_evict(self.uid, ordinal):
                    self.purge()
            ballast = faults.memhog_bytes(self.uid, ordinal)
            if ballast:
                self.memhog_leaks.append(bytearray(ballast))
        if capturing:
            resume = None
            if item.snapshot is not None:
                origin, handle = item.snapshot
                if origin == self.uid:
                    resume = handle
                else:
                    self.cross_seat_items += 1
            run = executor.execute_from(
                resume, item.assignment, capture_from=item.bound
            )
        else:
            run = executor.execute(item.assignment)
        if self.governor is not None:
            self.governor.maybe_step()
        stats = RunStats()
        children = expand_run(
            run,
            item.bound,
            self.solver,
            executor.input_variables(),
            stats,
            self.trie,
            compute_digests=self.compute_digests,
            snapshots=run.snapshots if self.snapshots else None,
        )
        for child in children:
            if child.snapshot is not None:
                child.snapshot = (self.uid, child.snapshot)
        path = PathInfo(
            index=-1,
            halt_reason=run.halt_reason,
            exit_code=run.exit_code,
            instret=run.instret,
            trace_length=len(run.trace),
            assignment=run.assignment,
            stdout=run.stdout,
            final_pc=run.final_pc,
            condition_digest=(
                query_digest(run.trace.conditions()) if self.certify else None
            ),
        )
        return RunRecord(path, run.resumed_instret, children, stats, self.uid)

    def counters(self) -> dict:
        """A copy of the seat's cumulative counters, one flat dict.

        The solver's keys (``cache_*``, ``sat_*``, ``store_*``,
        ``certified_*`` and the pipeline's) never collide with the
        executor's ``snap_*`` / ``sb_*`` or the governor's ``gov_*``
        keys, so seats and journals sum the dict by name.
        """
        stats = getattr(self.solver, "pipeline_statistics", None)
        if stats is None:
            counters = {"sat_core_solves": self.solver.num_solves}
        else:
            counters = dict(stats)
        executor = self.executor
        if self.snapshots:
            counters.update(executor.snapshot_statistics)
            counters["snap_cross_worker_items"] = self.cross_seat_items
        if getattr(executor, "superblocks_enabled", False):
            counters.update(executor.superblock_statistics)
        if self.governor is not None:
            counters.update(self.governor.statistics)
        return counters


class _InProcessSeat:
    """The single seat of an in-process exploration.

    Runs each item synchronously at dispatch, so exceptions propagate
    raw, and hands the record back untouched: no pickling and no
    per-run counter copies.
    """

    def __init__(self, runner: SeatRunner):
        self.runner = runner
        self.task_id: Optional[int] = None
        self._reply = None

    def idle(self):
        return (self,) if self.task_id is None else ()

    def dispatch(self, seat, task_id, item, hot_pcs) -> None:
        self.task_id = task_id
        self._reply = (task_id, self.runner.run(item, hot_pcs))

    def wait(self, result, frontier, in_flight, deadline_at) -> list:
        reply, self._reply = self._reply, None
        return [reply]

    def done(self, task_id, record) -> None:
        self.task_id = None

    def counters(self):
        return (self.runner.counters(),)

    def close(self) -> None:
        del self.runner.memhog_leaks[:]


class Explorer:
    """Drives an executor through all feasible paths of the SUT.

    ``jobs > 1`` fans the runs out over forked seats (each owns its own
    solver and query cache); ``use_cache`` enables the cross-path query
    cache, and ``preprocess`` configures the query pipeline in front of
    it (independence slicing, then the cache, then one joint CDCL
    solve; slicing is on by default).  An explicitly supplied
    ``solver`` pins the exploration to the in-process seat, since a
    user-provided facade (e.g. the query-complexity recorder) cannot be
    replicated onto workers; so does a platform without ``fork``, which
    discovers the identical path set.

    Robustness knobs: ``checkpoint_dir`` arms the crash-safe journal
    (:mod:`repro.core.checkpoint`; ``resume=True`` additionally reloads
    it before exploring), and ``faults`` injects a deterministic
    failure schedule (:class:`repro.core.faults.FaultPlan`) for chaos
    testing.  ``KeyboardInterrupt`` is caught and returns the partial
    result with ``interrupted=True``.
    """

    def __init__(
        self,
        executor,
        solver: Optional[Solver] = None,
        strategy: str = "dfs",
        max_paths: int = 1_000_000,
        seed: int = 0,
        jobs: int = 1,
        use_cache: bool = False,
        dedup_flips: bool = True,
        preprocess: Optional[PreprocessConfig] = None,
        staging: Optional[bool] = None,
        superblocks: Optional[bool] = None,
        snapshots: bool = True,
        checkpoint_dir: Optional[str] = None,
        checkpoint_interval: int = 1,
        resume: bool = False,
        faults=None,
        deadline: Optional[float] = None,
        memory_budget_mb: Optional[int] = None,
        hang_timeout: float = DEFAULT_HANG_TIMEOUT,
        store_dir: Optional[str] = None,
    ):
        self._solver_provided = solver is not None
        #: Persistent artifact store directory (``--store DIR``); every
        #: seat attaches its own handle on the shared tree.
        self.store_dir = store_dir
        if solver is None:
            solver = make_solver(use_cache, preprocess, store_dir)
        self.executor = executor
        self.solver = solver
        self.strategy_name = strategy
        self.max_paths = max_paths
        self.seed = seed
        self.jobs = jobs
        self.use_cache = use_cache
        self.dedup_flips = dedup_flips
        self.preprocess = preprocess
        # The staged-semantics and superblock ablations (--no-staging,
        # --no-superblocks) are applied before any run — and before the
        # fork, so forked seats inherit the setting.  The staged
        # plan/decode caches are pure per-word memos, so each seat's
        # copy-on-write copy stays coherent as it grows independently
        # (see repro.spec.isa).  ``None`` leaves the executor's own
        # configuration untouched.
        if staging is not None and hasattr(executor, "set_staging"):
            executor.set_staging(staging)
        if superblocks is not None and hasattr(executor, "set_superblocks"):
            executor.set_superblocks(superblocks)
        # Snapshot-resumed runs (--no-snapshots ablation): only engines
        # advertising support participate; the rest execute every run
        # from the entry point exactly as before.
        self.snapshots = snapshots and getattr(
            executor, "supports_snapshots", False
        )
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = checkpoint_interval
        self.resume = resume
        self.faults = faults if faults is not None and faults.active else None
        #: Anytime knobs (PR 9): a global wall-clock deadline in seconds
        #: (frontier drains into ``incomplete_paths`` when it fires, the
        #: checkpoint stays resumable), a per-process RSS budget in MB
        #: driving the degradation ladder, and the missed-heartbeat
        #: threshold after which the seat supervisor kills a forked seat.
        self.deadline = deadline
        self.memory_budget_mb = memory_budget_mb
        self.hang_timeout = hang_timeout
        #: Certify mode (``--certify``): record per-path condition
        #: digests during exploration and replay-verify every path
        #: under the reference evaluator once exploration finishes.
        self.certify = preprocess is not None and preprocess.certify

    def explore(self) -> ExplorationResult:
        """Run the full exploration; returns all discovered paths."""
        forked = (
            self.jobs > 1
            and not self._solver_provided
            and "fork" in multiprocessing.get_all_start_methods()
        )
        result = ExplorationResult(workers=self.jobs if forked else 1)
        start = time.perf_counter()
        frontier = Frontier(self.strategy_name, self.seed)
        manager, restored = self._make_checkpoint()
        # Flip-query digests of children already enqueued.  Forked seats'
        # tries are per-process, so when diverged runs on *different*
        # seats re-derive the same flip, the duplicate is caught here —
        # same path set as one shared trie.  Digests are restart-stable,
        # so with checkpointing on the persisted set also suppresses
        # re-deriving children a pre-crash run already enqueued.  (The
        # in-process seat's trie dedups everything within one process
        # lifetime, so it computes digests only when checkpointing.)
        seen_digests: Optional[set] = (
            set() if forked or manager is not None else None
        )
        if restored is not None:
            restored.restore_result(result)
            seen_digests = restored.digests
            for item in restored.frontier_items():
                frontier.push(item)
        else:
            frontier.push(WorkItem(InputAssignment(), 0))
        if restored is None or not restored.complete:
            if forked:
                seats = ForkedSeats(self)
            else:
                seats = _InProcessSeat(
                    SeatRunner(self, "serial", self.solver, seen_digests is not None)
                )
            self._coordinate(result, frontier, seats, manager, seen_digests)
        if self.certify:
            # Restored paths are replayed too: a certificate is evidence
            # about the executor at hand, not about the run that found
            # the path.  In forked mode the parent never executed the
            # SUT, so its executor is a pristine replay vehicle.
            from .certificates import verify_result

            verify_result(result, self.executor)
            self._persist_certificates(result)
        result.wall_time = time.perf_counter() - start
        return result

    def _make_checkpoint(self):
        """Build the journal manager (and load prior state on resume)."""
        if self.checkpoint_dir is None:
            return None, None
        from .checkpoint import CheckpointManager

        manager = CheckpointManager(
            self.checkpoint_dir,
            strategy=self.strategy_name,
            seed=self.seed,
            interval=self.checkpoint_interval,
        )
        state = manager.load() if self.resume else None
        return manager, state

    def _coordinate(self, result, frontier, seats, manager, seen_digests) -> None:
        """The exploration loop: dispatch items to seats, fold records.

        ``seats`` is the in-process seat or the forked ones
        (:class:`repro.core.parallel.ForkedSeats`); both expose
        ``idle()``, ``dispatch()``, ``wait()``, ``done()``,
        ``counters()`` and ``close()``.  A seat is busy from dispatch
        until its record is folded, so each fold's children are pushed
        before the seat that produced them (and holds their snapshots)
        pops its next item.
        """
        faults = self.faults
        deadline_at = (
            time.monotonic() + self.deadline if self.deadline is not None else None
        )
        next_task = 0
        dropped = False
        #: task id -> WorkItem currently held by some seat.
        in_flight: dict[int, WorkItem] = {}
        pending: deque = deque()
        # Superblock hotness feedback: per-PC flippable-branch executions
        # accumulate across all seats' runs; PCs crossing the threshold
        # are appended to a cumulative tuple sent with every dispatch, so
        # late-started and revived seats converge on the same hot set.
        track_hot = getattr(self.executor, "superblocks_enabled", False)
        hot_counts: dict = {}
        hot_pcs: tuple = ()
        try:
            while frontier or in_flight or pending:
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    result.interrupted = True
                    result.deadline_expired = True
                    break
                for seat in seats.idle():
                    if not frontier:
                        break
                    if result.num_paths + len(in_flight) >= self.max_paths:
                        break
                    item = frontier.pop()
                    in_flight[next_task] = item
                    seats.dispatch(seat, next_task, item, hot_pcs)
                    next_task += 1
                if not in_flight and not pending:
                    break  # path budget exhausted with work left over
                if not pending:
                    pending.extend(seats.wait(result, frontier, in_flight, deadline_at))
                    if not pending:
                        continue  # a seat died, or the deadline passed
                task_id, record = pending.popleft()
                in_flight.pop(task_id, None)
                seats.done(task_id, record)
                if result.num_paths < self.max_paths:
                    path = record.path
                    path.index = len(result.paths)
                    result.paths.append(path)
                    result.total_instructions += path.instret
                    result.executed_instructions += (
                        path.instret - record.resumed_instret
                    )
                else:
                    dropped = True
                stats = record.stats
                if track_hot:
                    for pc, count in stats.pc_hits.items():
                        total = hot_counts.get(pc, 0) + count
                        hot_counts[pc] = total
                        if total >= BRANCH_HOT_HITS and total - count < BRANCH_HOT_HITS:
                            hot_pcs += (pc,)
                novelty = len(stats.covered_pcs - result.covered_branches)
                result.merge_run_stats(stats)
                for child in record.children:
                    if seen_digests is not None and child.digest is not None:
                        if child.digest in seen_digests:
                            result.pruned_queries += 1
                            continue
                        seen_digests.add(child.digest)
                    child.novelty = novelty
                    frontier.push(child)
                if manager is not None and manager.due(result):
                    manager.save(
                        result,
                        frontier.items() + list(in_flight.values()),
                        seen_digests,
                        complete=False,
                        counters=sum_counters(result.counters, *seats.counters()),
                    )
                if faults is not None and faults.interrupt_after is not None:
                    if result.num_paths >= faults.interrupt_after:
                        raise KeyboardInterrupt
        except KeyboardInterrupt:
            result.interrupted = True
        finally:
            seats.close()
        result.truncated = dropped or bool(frontier)
        result.frontier_peak = max(frontier.peak, result.frontier_peak)
        result.counters = sum_counters(result.counters, *seats.counters())
        if manager is not None:
            manager.save(
                result,
                frontier.items() + list(in_flight.values()),
                seen_digests,
                complete=not frontier and not in_flight and not result.interrupted,
                counters=result.counters,
            )
        if result.deadline_expired:
            # Anytime accounting: drained frontier plus still-in-flight
            # items are the explicitly counted unexplored paths.  Added
            # only AFTER the final checkpoint save — ``--resume``
            # restores those items and re-explores them, so persisting
            # the count too would double-book them.
            result.incomplete_paths += len(frontier.drain()) + len(in_flight)

    def _persist_certificates(self, result: ExplorationResult) -> None:
        """Write replay-checked certificates to the persistent store.

        Only certificates that just *passed* replay are persisted — the
        store holds evidence, not claims.  Content-addressed, so
        re-running the same campaign rewrites nothing.  Goes through
        this explorer's own solver handle: forked seats only persist
        query verdicts; certificates are a campaign artifact.
        """
        store = getattr(getattr(self.solver, "cache", None), "store", None)
        if store is None or not result.certificates:
            return
        from .certificates import certificate_to_state

        if result.certificate_failures:
            return
        for cert in result.certificates:
            store.save_certificate(certificate_to_state(cert))


class ProcessPoolExplorer(Explorer):
    """An :class:`Explorer` whose ``jobs`` defaults to one forked seat
    per CPU (:func:`repro.core.parallel.default_jobs`)."""

    def __init__(self, executor, jobs: Optional[int] = None, **kwargs):
        super().__init__(
            executor, jobs=default_jobs() if jobs is None else jobs, **kwargs
        )
