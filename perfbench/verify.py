"""Correctness checks of the engine benchmark, run outside timed regions.

Every check marks the explorations it concerns as failed; ``failed`` over
``attempted`` explorations is the run's failed fraction.

* path counts equal the closed forms (6! for the sorts, 6,250 for
  base64-encode@4) or the pinned parser counts, which the BINSEC-like
  DBA engine (no lifter shared with BinSym) re-derives;
* every reported path's inputs are replayed on the unstaged reference
  interpreter: exit code, ``instret`` and stdout must match, and the
  replayed control flows of one exploration must be pairwise distinct;
* the health flags of :data:`harness.HEALTH_FLAGS` are all zero;
* pooled path sets (cold and warm) equal the serial path set, explored
  once per source tree (see :func:`serial_reference`);
* serial work counters repeat exactly: between the passes of a run,
  against the first run of the same source tree, and (in traced runs)
  under a second hash seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys

import harness

#: Paths per replay task.
_CHUNK = 400


class Ledger:
    """Explorations attempted, and the failure messages of each."""

    def __init__(self):
        self.explorations = []
        self.errors = {}

    def add(self, explorations) -> None:
        self.explorations.extend(explorations)

    def fail(self, exploration, message: str) -> None:
        self.errors.setdefault(id(exploration), []).append(
            f"{exploration.program}/{exploration.mode}: {message}"
        )

    @property
    def attempted(self) -> int:
        return len(self.explorations)

    @property
    def failed(self) -> int:
        return len(self.errors)

    def messages(self) -> list:
        return [m for messages in self.errors.values() for m in messages]


def check_counts_and_health(ledger: Ledger, workload) -> None:
    expected = {p.name: p.expected_paths for p in workload.programs}
    for exploration in ledger.explorations:
        want = expected[exploration.program]
        got = len(exploration.paths)
        if got != want:
            ledger.fail(exploration, f"{got} paths, expected {want}")
        for flag, value in exploration.health.items():
            if value:
                ledger.fail(exploration, f"health flag {flag} = {value}")


def cross_check_pinned(ledger: Ledger, workload, isa, images, seed: int) -> None:
    """Re-derive the pinned parser path counts on the DBA engine."""
    from repro.core import Explorer
    from repro.eval.engines import make_engine

    for program in workload.programs:
        if not program.cross_check:
            continue
        result = Explorer(
            make_engine("binsec", isa, images[program.name]), use_cache=True, seed=seed
        ).explore()
        if result.num_paths != program.expected_paths:
            for exploration in ledger.explorations:
                if exploration.program == program.name:
                    ledger.fail(
                        exploration,
                        f"BINSEC-like engine finds {result.num_paths} paths, "
                        f"pinned count is {program.expected_paths}",
                    )


def serial_reference(explore) -> tuple:
    """The serial explorations a pooled workload is checked against.

    They are deterministic, so the first run of the same sources explores
    them (``explore()``) and keeps them in a file named after
    :func:`source_digest`; later runs load them.  Returns
    ``(explorations, fresh)``; fresh explorations still need checking.
    """
    path = os.path.join(harness.OUT, f"serial-{source_digest()}.pickle")
    if os.path.exists(path):
        # Written by an earlier run of this benchmark, below.
        with open(path, "rb") as handle:
            return pickle.load(handle), False
    explorations = explore()
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(explorations, handle)
    os.replace(tmp, path)
    return explorations, True


def check_pooled_path_sets(ledger: Ledger, reference: list) -> None:
    path_sets = {e.program: e.path_set for e in reference}
    for exploration in ledger.explorations:
        if exploration.pooled and exploration.path_set != path_sets.get(
            exploration.program
        ):
            ledger.fail(exploration, "path set differs from the serial path set")


def _replay_chunk(program: str, scale: int, records: list) -> list:
    """Replay ``records`` of one program; one (error, flow digest) each."""
    harness.import_engine()
    from repro.concrete import ConcreteInterpreter
    from repro.eval.workloads import build
    from repro.spec.isa import rv32im

    class Replay(ConcreteInterpreter):
        """Reference interpreter fed with one path's input bytes; records
        every conditional-branch outcome as the path's control flow."""

        def __init__(self, isa, inputs):
            super().__init__(isa, staging=False, superblocks=False)
            self.inputs = dict(inputs)
            self.outcomes = bytearray()

        def make_symbolic(self, base, length):
            for address in range(base, base + length):
                if address in self.inputs:
                    self.memory.write_byte(address, self.inputs[address])

        def branch(self, cond):
            taken = super().branch(cond)
            self.outcomes.append(taken)
            return taken

    isa = rv32im()
    image = build(program, scale)
    replies = []
    for inputs, halt_reason, exit_code, instret, stdout in records:
        interp = Replay(isa, inputs)
        interp.load_image(image)
        hart = interp.run()
        got = (hart.halt_reason, hart.exit_code, hart.instret, bytes(interp.platform.stdout))
        want = (halt_reason, exit_code, instret, stdout)
        error = None
        if any(address < 0 for address, _ in inputs):
            error = f"unreplayable input names in {inputs}"
        elif got != want:
            error = f"replay of {inputs} gives {got[:3]}, path reports {want[:3]}"
        digest = hashlib.blake2b(bytes(interp.outcomes), digest_size=16).digest()
        replies.append((error, digest))
    return replies


def _replay_tasks(tasks: list, workers: int) -> list:
    """Run ``_replay_chunk`` over ``tasks`` in ``workers`` fresh Python
    processes, dealt round-robin; returns the replies in task order."""
    shares = [tasks[i::workers] for i in range(workers)]
    processes = []
    for i, share in enumerate(shares):
        base = os.path.join(harness.OUT, f"replay-{i}")
        with open(base + ".in", "wb") as handle:
            pickle.dump(share, handle)
        command = [sys.executable, os.path.abspath(__file__), base]
        processes.append((base, subprocess.Popen(command, cwd=harness.ROOT)))
    codes = [process.wait() for _base, process in processes]
    if any(codes):
        raise RuntimeError(f"replay processes exited with {codes}")
    replies = [None] * len(tasks)
    for i, (base, _process) in enumerate(processes):
        # Written by the replay process started above.
        with open(base + ".out", "rb") as handle:
            replies[i::workers] = pickle.load(handle)
        os.remove(base + ".in")
        os.remove(base + ".out")
    return replies


def _record_key(program: str, record: tuple) -> str:
    return hashlib.blake2b(repr((program, record)).encode(), digest_size=16).hexdigest()


def replay_paths(ledger: Ledger, workload) -> int:
    """Replay each distinct path record once, on ``min(2, nproc)`` fresh
    processes (this file run as a script); returns the number of records
    replayed.

    A record's replay depends only on the record and the sources, so
    records that replayed cleanly are kept, with their control-flow
    digest, in a file named after :func:`source_digest`; a later run of
    the same sources takes their verdict from there instead of replaying
    them.  Serial explorations report the same records on every run;
    pooled ones report other inputs on every run, but later runs revisit
    a growing share of them."""
    scales = {p.name: p.scale for p in workload.programs}
    path = os.path.join(harness.OUT, f"replayed-{source_digest()}.json")
    verified = {}
    if os.path.exists(path):
        with open(path) as handle:
            verified = json.load(handle)
    unique = {}
    for exploration in ledger.explorations:
        for record in exploration.paths:
            key = (exploration.program, record)
            if key not in unique:
                known = verified.get(_record_key(*key))
                unique[key] = None if known is None else (None, bytes.fromhex(known))
    by_program = {}
    for (program, record), reply in unique.items():
        if reply is None:
            by_program.setdefault(program, []).append(record)
    tasks = []
    for program, records in by_program.items():
        for start in range(0, len(records), _CHUNK):
            tasks.append((program, scales[program], records[start : start + _CHUNK]))
    workers = min(2, os.cpu_count() or 1)
    for (program, _scale, records), replies in zip(tasks, _replay_tasks(tasks, workers)):
        for record, reply in zip(records, replies):
            unique[(program, record)] = reply
    replayed = sum(len(records) for records in by_program.values())
    for exploration in ledger.explorations:
        for record in exploration.paths:
            error, digest = unique[(exploration.program, record)]
            if error is None:
                verified[_record_key(exploration.program, record)] = digest.hex()
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(verified, handle)
    os.replace(tmp, path)
    for exploration in ledger.explorations:
        seen = set()
        for record in exploration.paths:
            error, digest = unique[(exploration.program, record)]
            if error is not None:
                ledger.fail(exploration, error)
            if digest in seen:
                ledger.fail(exploration, f"duplicate control flow for {record[0]}")
            seen.add(digest)
    return replayed


def counter_key(exploration) -> str:
    return f"{exploration.program}/{exploration.mode}"


def check_counters_repeat(ledger: Ledger, explorations, reference: dict, why: str):
    """Fail serial explorations whose counters differ from ``reference``."""
    for exploration in explorations:
        if exploration.pooled:
            continue
        want = reference.get(counter_key(exploration))
        if want is None:
            continue
        drift = sorted(
            key
            for key in set(want) | set(exploration.counters)
            if want.get(key) != exploration.counters.get(key)
        )
        if drift:
            shown = ", ".join(
                f"{k}: {want.get(k)} -> {exploration.counters.get(k)}" for k in drift[:6]
            )
            ledger.fail(exploration, f"counters drift {why}: {shown}")


def source_digest() -> str:
    """Digest of the engine's and the benchmark's sources, naming the
    counter record: a changed program starts a new record."""
    digest = hashlib.blake2b(digest_size=12)
    for top in (harness.SRC, os.path.dirname(os.path.abspath(__file__))):
        for folder, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, harness.ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def check_counters_across_runs(ledger: Ledger, workload_name: str, explorations):
    """First run of a source tree records the serial counters; later runs
    of the same tree must reproduce them exactly.  Returns the counters
    of this run's first pass."""
    serial = [e for e in explorations if not e.pooled]
    first = {}
    for exploration in serial:
        first.setdefault(counter_key(exploration), exploration.counters)
    check_counters_repeat(ledger, serial, first, "between passes")
    path = os.path.join(harness.OUT, f"counters-{source_digest()}.json")
    record = {}
    if os.path.exists(path):
        with open(path) as handle:
            record = json.load(handle)
    if workload_name in record:
        check_counters_repeat(ledger, serial, record[workload_name], "since the first run")
        return first
    record[workload_name] = first
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(record, handle, sort_keys=True)
    os.replace(tmp, path)
    return first


if __name__ == "__main__":
    # Replay process: BASE.in holds (program, scale, records) tasks.
    with open(sys.argv[1] + ".in", "rb") as handle:
        tasks = pickle.load(handle)
    replies = [_replay_chunk(*task) for task in tasks]
    with open(sys.argv[1] + ".out", "wb") as handle:
        pickle.dump(replies, handle)
