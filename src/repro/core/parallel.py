"""Forked exploration seats: supervised worker processes.

The offline executor restarts the SUT once per path, and the runs are
independent given their input assignments — which makes the exploration
loop embarrassingly parallel apart from the frontier.  The coordinator
loop (:meth:`repro.core.explorer.Explorer.explore`) keeps the frontier
(and the chosen search strategy) in the parent; with ``jobs > 1`` it
dispatches to the :class:`ForkedSeats` of this module:

* the parent sends ``(task_id, work_item, hot_pcs)`` over a per-seat
  task queue (the item as :func:`wire_fields`),
* each worker owns its *own* :class:`~repro.core.explorer.SeatRunner`
  (solver, query cache, explored-prefix trie), executes the run,
  performs the branch-flip expansion locally, and ships back one
  :class:`~repro.core.explorer.RunRecord`: the path, the newly
  discovered frontier entries, exact per-run solver stats and the
  seat's cumulative counters as one flat name-keyed dict,
* the coordinator records paths, sums the seats' counter dicts by name,
  scores coverage novelty against the global covered-branch set, and
  pushes the new work items — exactly as it does for the in-process seat.

**Supervision.**  Task queues are per-worker so the parent always
knows which item each worker holds.  A worker that dies mid-item (OOM
kill, segfault, injected fault) no longer aborts the campaign: the
parent requeues the lost item (its snapshot reference, if any, still
names the *capturing* worker, so it resumes or falls back to full
re-execution per the PR 5 eviction contract), respawns the worker
under a fresh incarnation uid with a small backoff, and abandons an
item only after :data:`MAX_ITEM_FAILURES` deaths *while holding it* —
recorded as an ``incomplete_paths`` count, never a silent loss.  Fresh
uids matter twice: a stale ``(uid, handle)`` snapshot reference can
never alias the respawned worker's pool, and the dead incarnation's
last cumulative counter dict is preserved rather than overwritten.

Workers are created with the ``fork`` start method so they inherit the
:class:`~repro.core.explorer.Explorer` (executor, ISA, image,
interpreter, configuration) without pickling — interned terms cannot
round-trip through pickle, and the formal-spec layer has no reason to
be serializable.  Input assignments cross the process boundary by
variable *name* (see :class:`repro.core.state.InputAssignment`).  On
platforms without ``fork`` the explorer uses its in-process seat,
which discovers the identical path set.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
import time
import traceback
from multiprocessing import connection as mp_connection
from typing import Optional

from .faults import KILL_EXIT_CODE
from .scheduler import WorkItem, deserialize_assignment, serialize_assignment

__all__ = [
    "ForkedSeats",
    "default_jobs",
    "wire_fields",
    "from_wire_fields",
    "MAX_ITEM_FAILURES",
    "HEARTBEAT_INTERVAL",
    "DEFAULT_HANG_TIMEOUT",
]

#: Worker deaths while holding the *same* item before the supervisor
#: abandons it as an ``incomplete`` path instead of retrying.
MAX_ITEM_FAILURES = 3

#: Seconds between worker liveness beats on the private reply pipe.
#: Sent from a daemon thread, so a worker grinding through a long run
#: (or a long CDCL solve) keeps beating — only a *wedged process* (hung
#: syscall, C-level spin, injected ``hang=`` fault) goes silent.
HEARTBEAT_INTERVAL = 0.25

#: Seconds of heartbeat silence before the supervisor declares a live
#: seat hung and kills it (>> HEARTBEAT_INTERVAL, so scheduler jitter
#: on a loaded machine never trips it).
DEFAULT_HANG_TIMEOUT = 5.0

#: First element of a liveness message on the reply pipe.  Real replies
#: lead with an integer task id, so the tag can never collide.
_HEARTBEAT = "__heartbeat__"


def default_jobs() -> int:
    """Worker count when none is requested: one per CPU, capped at 8."""
    return min(os.cpu_count() or 1, 8)


def _backoff_delay(seed: int, uid: int, respawns: int) -> float:
    """Respawn delay for a seat's ``respawns``-th revival (seconds).

    Exponential in the respawn count (capped at 2s) with deterministic
    multiplicative jitter in [0.5, 1.5) derived from ``(seed, uid,
    respawns)`` — crash loops back off fast without every seat of a
    mass-death event retrying in lockstep, and the schedule is
    reproducible for a given campaign seed.
    """
    if respawns <= 0:
        return 0.0
    base = min(0.02 * (2 ** (respawns - 1)), 2.0)
    digest = hashlib.blake2b(
        f"backoff|{seed}|{uid}|{respawns}".encode("ascii"), digest_size=8
    ).digest()
    jitter = 0.5 + int.from_bytes(digest, "big") / 2**64
    return base * jitter


def wire_fields(item) -> dict:
    """The fields of a dataclass holding an ``assignment``, as builtins.

    What work items and run records cross a seat's pipes as: the
    assignment goes by name, and the message names no class — every
    pipe message resolves the classes it names afresh, which costs more
    than the coordinator's whole fold of a record.
    """
    fields = dict(vars(item))
    fields["assignment"] = serialize_assignment(item.assignment)
    return fields


def from_wire_fields(cls, fields: dict):
    """Rebuild a :func:`wire_fields` dict as a ``cls`` instance."""
    fields["assignment"] = deserialize_assignment(fields["assignment"])
    return cls(**fields)


def _worker_main(explorer, worker_uid, task_queue, reply_conn):
    """Worker loop: run one :class:`SeatRunner` over the seat's tasks.

    Replies are ``(task_id, RunRecord)`` on success or ``(task_id,
    traceback_text)`` on failure, sent over this incarnation's
    *private* reply pipe.  A shared reply queue would hold a
    cross-process write lock during puts — a worker dying at the wrong
    instant (mp.Queue even writes from a background feeder thread)
    would leave it locked and wedge every other worker; with one pipe
    per incarnation a crash can only ever truncate that worker's own
    stream, which the supervisor treats as a lost item.  ``None`` on
    the task queue shuts the worker down.  Every record carries the
    incarnation's cumulative counter dict (see
    :class:`~repro.core.explorer.RunRecord`).

    The explorer's ``faults`` (a :class:`repro.core.faults.FaultPlan`
    or None) drives deterministic chaos.  The process-level faults are
    decided here: a scheduled *kill* exits the process the moment the
    task is received (the parent requeues it), a *hang* stops the
    heartbeat thread and parks the worker in an infinite sleep (a
    wedged process the watchdog must detect and kill), and *hiccups*
    stall the reply briefly to widen the reply/death race window the
    supervisor must tolerate.  *Memhogs*, *evictions* and *give-ups*
    act inside the runner, exactly as on the in-process seat.

    **Liveness.**  A daemon thread beats every
    :data:`HEARTBEAT_INTERVAL` seconds on the reply pipe (tagged
    :data:`_HEARTBEAT`, distinguishable from replies by its string
    first element).  The GIL guarantees the thread gets scheduled even
    while the main thread grinds through pure-Python work, so a long
    run never reads as a hang — only a genuinely wedged process goes
    silent.  Both threads send under one lock so messages never
    interleave on the pipe.
    """
    from .explorer import SeatRunner, make_solver

    solver = make_solver(explorer.use_cache, explorer.preprocess, explorer.store_dir)
    runner = SeatRunner(explorer, worker_uid, solver, compute_digests=True)
    faults = explorer.faults
    send_lock = threading.Lock()
    hb_stop = threading.Event()

    def _heartbeat_loop():
        while not hb_stop.wait(HEARTBEAT_INTERVAL):
            try:
                with send_lock:
                    reply_conn.send((_HEARTBEAT, worker_uid))
            except (OSError, ValueError, BrokenPipeError):
                return  # parent went away; the process is exiting

    threading.Thread(target=_heartbeat_loop, daemon=True).start()
    while True:
        task = task_queue.get()
        if task is None:
            hb_stop.set()
            return
        ordinal = runner.ordinal
        if faults is not None and faults.should_kill(worker_uid, ordinal):
            os._exit(KILL_EXIT_CODE)
        if faults is not None and faults.should_hang(worker_uid, ordinal):
            # Simulate a fully wedged process (hung syscall, C-level
            # spin): heartbeats stop, the task is never answered, and
            # only the supervisor's watchdog can recover the seat.
            hb_stop.set()
            while True:
                time.sleep(60)
        task_id, item_fields, hot_pcs = task
        try:
            record = runner.run(from_wire_fields(WorkItem, item_fields), hot_pcs)
            record.counters = runner.counters()
            if faults is not None:
                delay = faults.hiccup_delay(worker_uid, ordinal)
                if delay:
                    time.sleep(delay)
            with send_lock:
                reply_conn.send((task_id, record))
        except Exception:
            with send_lock:
                reply_conn.send((task_id, traceback.format_exc()))


class _WorkerSlot:
    """Parent-side bookkeeping for one worker seat.

    A *seat* survives its process: when the incarnation dies, the seat
    is revived with a fresh uid, a fresh task queue (a task the dead
    worker never consumed must not leak to its successor — the parent
    requeues it instead), a fresh reply pipe, and the respawn count for
    backoff.
    """

    __slots__ = (
        "uid",
        "process",
        "queue",
        "reply",
        "task_id",
        "respawns",
        "last_beat",
    )

    def __init__(self, uid, process, queue, reply):
        self.uid = uid
        self.process = process
        self.queue = queue
        #: Parent's receive end of the incarnation's private reply pipe.
        self.reply = reply
        #: Task id the seat's worker currently holds (None = idle).
        self.task_id: Optional[int] = None
        self.respawns = 0
        #: Monotonic time of the incarnation's last message (heartbeat
        #: or reply); seeded at spawn so a fresh seat gets a full
        #: hang-timeout window before the watchdog may judge it.
        self.last_beat = time.monotonic()


class ForkedSeats:
    """``explorer.jobs`` supervised forked seats for the coordinator.

    The parent process never executes the SUT, so executor-side state
    (e.g. the interpreter's discovered symbolic inputs) stays untouched
    in the parent; everything the caller needs is in the result.
    Workers are forked on construction.
    """

    def __init__(self, explorer):
        self.explorer = explorer
        self.context = multiprocessing.get_context("fork")
        self._next_uid = explorer.jobs - 1
        self.slots = [self._spawn(uid) for uid in range(explorer.jobs)]
        # Latest cumulative counter dict per incarnation uid.  Keyed
        # by uid, so a respawned seat never overwrites its dead
        # predecessor's final totals.
        self._counters: dict = {}

    # ------------------------------------------------------------------
    # The seat interface the coordinator drives
    # ------------------------------------------------------------------

    def idle(self) -> list:
        return [slot for slot in self.slots if slot.task_id is None]

    def dispatch(self, slot, task_id, item, hot_pcs) -> None:
        slot.task_id = task_id
        slot.queue.put((task_id, wire_fields(item), hot_pcs))

    def done(self, task_id, record) -> None:
        """Free the seat that held ``task_id``; keep its counters."""
        self._counters[record.seat] = record.counters
        for slot in self.slots:
            if slot.task_id == task_id:
                slot.task_id = None
                break

    def counters(self):
        return self._counters.values()

    def close(self) -> None:
        """Bounded shutdown escalation: a cooperative join first, then
        SIGTERM, then SIGKILL — close() can never hang the parent on a
        worker wedged past its shutdown sentinel."""
        for slot in self.slots:
            slot.queue.put(None)
        for slot in self.slots:
            slot.process.join(timeout=5)
        for slot in self.slots:
            if slot.process.is_alive():  # pragma: no cover - defensive
                slot.process.terminate()
                slot.process.join(timeout=2)
            if slot.process.is_alive():  # pragma: no cover - defensive
                slot.process.kill()
                slot.process.join(timeout=5)
            slot.reply.close()

    def wait(self, result, frontier, in_flight, deadline_at) -> list:
        """Block until replies arrive, a seat dies, or the deadline passes.

        Returns the ``(task_id, RunRecord)`` replies received (empty
        after a death or at the deadline), after reviving every dead
        seat.  ``_worker_main`` converts in-task exceptions into error
        replies, raised here as ``RuntimeError``; a hard-killed worker
        (OOM killer, segfault) posts nothing — without a liveness check
        the parent would wait forever on a reply that can never arrive.
        Each incarnation replies on its own pipe, so a crash can only
        truncate that worker's stream: complete replies racing the
        death are drained and returned, a torn trailing message is
        discarded (its item will be requeued), and no shared lock
        exists for a dying writer to wedge the survivors with.

        **Watchdog.**  Every drained message (heartbeat or reply)
        refreshes the seat's ``last_beat``; a *live* seat silent for
        longer than ``hang_timeout`` is declared hung: the supervisor
        kills it (SIGKILL — a wedged process may ignore SIGTERM),
        counts it in ``hung_workers``, and lets the ordinary death path
        requeue its item and respawn the seat.  The global deadline is
        also checked here, since heartbeats keep this loop turning
        even when no worker ever finishes its task.
        """
        while True:
            if deadline_at is not None and time.monotonic() >= deadline_at:
                return []
            ready = mp_connection.wait(
                [slot.reply for slot in self.slots], timeout=0.2
            )
            now = time.monotonic()
            replies = []
            for slot in self.slots:
                if slot.reply not in ready:
                    continue
                try:
                    while slot.reply.poll():
                        message = slot.reply.recv()
                        slot.last_beat = now
                        if message[0] != _HEARTBEAT:
                            replies.append(message)
                except (EOFError, OSError):
                    pass  # EOF or torn message: the death check decides
            for task_id, record in replies:
                if isinstance(record, str):
                    raise RuntimeError(f"exploration worker failed:\n{record}")
            for slot in self.slots:
                if slot.process.exitcode is not None:
                    continue
                if now - slot.last_beat > self.explorer.hang_timeout:
                    result.hung_workers += 1
                    slot.process.kill()
                    slot.process.join()
            dead = [
                slot for slot in self.slots if slot.process.exitcode is not None
            ]
            replied_ids = {reply[0] for reply in replies}
            for slot in dead:
                self._revive(slot, replied_ids, in_flight, frontier, result)
            if replies or dead:
                return replies
            if ready:
                # A pipe signalled EOF but the exit code is not posted
                # yet: yield briefly instead of spinning on wait().
                time.sleep(0.005)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, uid) -> _WorkerSlot:
        """Start one incarnation on fresh task/reply channels."""
        task_queue = self.context.SimpleQueue()
        recv_conn, send_conn = self.context.Pipe(duplex=False)
        # ``_worker_main`` is resolved as a module global at every spawn,
        # so a wrapper installed on this module (a tracer) reaches every
        # incarnation, revived ones included.
        process = self.context.Process(
            target=_worker_main,
            args=(self.explorer, uid, task_queue, send_conn),
            daemon=True,
        )
        process.start()
        # The child inherited the send end; dropping the parent's copy
        # makes the pipe EOF as soon as the incarnation dies.
        send_conn.close()
        return _WorkerSlot(uid, process, task_queue, recv_conn)

    def _revive(self, slot, replied_ids, in_flight, frontier, result) -> None:
        """Recover one dead seat: requeue or abandon its item, respawn.

        An item whose reply already arrived (``replied_ids``) completed
        before the death — it is *not* requeued; the pending reply will
        account for it.  Otherwise the item is lost mid-run: it goes
        back to the frontier with ``failures`` bumped, or — after
        :data:`MAX_ITEM_FAILURES` deaths while holding it — is recorded
        as an ``incomplete`` path.  The requeued item keeps its snapshot
        reference: it names the *capturing* worker's uid, which either
        still lives (resume works) or never matches again (full
        re-execution — the same sound fallback as a pool eviction).
        """
        slot.process.join()
        slot.reply.close()
        task_id = slot.task_id
        if task_id is not None and task_id not in replied_ids:
            slot.task_id = None
            item = in_flight.pop(task_id, None)
            if item is not None:
                result.worker_deaths += 1
                item.failures += 1
                if item.failures >= MAX_ITEM_FAILURES:
                    result.incomplete_paths += 1
                else:
                    frontier.push(item)
        # Seeded-jitter exponential backoff per seat: repeated respawns
        # slow down (capped), one-off crashes restart almost
        # immediately, and simultaneous seat deaths desynchronize.
        delay = _backoff_delay(self.explorer.seed, slot.uid, slot.respawns)
        if delay:
            time.sleep(delay)
        slot.respawns += 1
        self._next_uid += 1
        fresh = self._spawn(self._next_uid)
        slot.uid = fresh.uid
        slot.process = fresh.process
        slot.queue = fresh.queue
        slot.reply = fresh.reply
        slot.last_beat = fresh.last_beat
