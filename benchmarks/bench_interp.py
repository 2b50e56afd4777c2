"""Staged-semantics throughput: instructions/sec staged vs unstaged.

``BENCH_PR2.json`` showed SUT re-execution dominating exploration wall
time once the solver side was cached and preprocessed.  PR 3's staging
layer (:mod:`repro.spec.staged`) attacks exactly that: the benchmarks
here measure *instructions per second* of the specification-derived
interpreters with staging on vs off, on the Fig. 6 workload set —
first pure SUT re-execution over the workload's discovered path inputs
(the explorer's inner loop), then a concrete straight-line loop (the
interpreter ceiling).  Identity contracts are asserted on every
comparison: staged and unstaged execution must retire the same
instruction counts, discover the same path sets, and attribute solver
queries identically, serially and on a worker pool.  Timings and
derived instructions/sec land in ``extra_info`` for the CI benchmark
JSON artifact (compare against ``BENCH_PR3.json``).

PR 6 stacks superblock trace compilation (:mod:`repro.spec.superblock`)
on top of the staging plan cache and adds its contract here: concrete
*replay* of each Fig. 6 program over a fixed worst-case input with
superblocks on vs off (the dispatch-bound regime where stitching pays
— compare against ``BENCH_PR6.json``), plus the superblock analogue of
the staging ablation (path sets and query attribution must be
superblock-invariant, serially and on a worker pool).  The replay
benchmarks assert instret/exit-code/stdout identity between modes and
that blocks actually cover the steady-state run; the deterministic
counters (instructions, block hits, block-retired instructions) land in
``extra_info`` where ``tools/bench_compare.py`` pins them against the
committed baseline.
"""

import multiprocessing
import time

import pytest

from repro.asm import assemble
from repro.concrete import ConcreteInterpreter
from repro.concrete.syscalls import SYS_MAKE_SYMBOLIC, HostPlatform
from repro.core import BinSymExecutor, Explorer
from repro.eval.workloads import TABLE1_WORKLOADS, WORKLOADS
from repro.spec import rv32im

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

_A0, _A1, _A7 = 10, 11, 17


class ReplayPlatform(HostPlatform):
    """Host platform that replays a fixed concrete input.

    ``make_symbolic(buf, len)`` writes the replay bytes into the buffer
    instead of marking it symbolic — the concrete interpreter then runs
    the exact path a discovered input assignment (or a worst case
    chosen by hand) would take, with no solver in the loop.
    """

    def __init__(self, data: bytes):
        super().__init__()
        self.data = data

    def ecall(self, machine) -> None:
        if machine.read_register_int(_A7) == SYS_MAKE_SYMBOLIC:
            base = machine.read_register_int(_A0)
            length = machine.read_register_int(_A1)
            machine.memory.write_bytes(base, self.data[:length])
        else:
            super().ecall(machine)


#: Fig. 6 replay configurations: scale and a deterministic input that
#: drives a long concrete run (reverse-sorted arrays for the sorts =
#: maximal swap work; an accepted scheme/link for the parsers = the
#: full scan loop instead of an early reject).
FIG6_REPLAYS = {
    "bubble-sort": (64, bytes(range(64, 0, -1))),
    "insertion-sort": (64, bytes(range(64, 0, -1))),
    "base64-encode": (96, bytes(range(96))),
    "uri-parser": (256, b"a" * 255 + b":"),
    "clif-parser": (256, b"<" + b"ab" * 60 + b">" + b";a=1" * 33 + b"x"),
}

_CONCRETE_LOOP = """\
_start:
    li t0, 5000
    li t1, 0
loop:
    addi t1, t1, 3
    xor t2, t1, t0
    slli t3, t2, 1
    sub t4, t3, t1
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    li a0, 0
    ecall
"""


@pytest.fixture(scope="module")
def isa():
    return rv32im()


def _discover_paths(isa, name):
    """Explore a workload; return its image, path inputs and instret.

    Called inside each test (not a shared fixture): input assignments
    are keyed by identity-interned variable terms, and the autouse
    ``fresh_interner`` fixture resets the interner between tests.
    """
    image = WORKLOADS[name].image()
    result = Explorer(BinSymExecutor(isa, image), use_cache=True).explore()
    return image, [path.assignment for path in result.paths], result.total_instructions


@pytest.mark.parametrize("staging", [True, False], ids=["staged", "unstaged"])
@pytest.mark.parametrize("name", TABLE1_WORKLOADS)
def test_sut_reexecution(benchmark, isa, name, staging):
    """Re-execute every discovered path of a workload once (the SUT
    side of the exploration loop, no solver involved)."""
    benchmark.group = f"interp:reexec:{name}"
    image, assignments, expected_instret = _discover_paths(isa, name)

    def run():
        executor = BinSymExecutor(isa, image, staging=staging)
        return sum(executor.execute(a).instret for a in assignments)

    start = time.perf_counter()
    instret = benchmark.pedantic(run, rounds=3, iterations=1)
    elapsed = (time.perf_counter() - start) / 3
    # Identity contract: staging must not change what executes.
    assert instret == expected_instret
    benchmark.extra_info["paths"] = len(assignments)
    benchmark.extra_info["instructions"] = instret
    benchmark.extra_info["instructions_per_second"] = round(instret / elapsed)


@pytest.mark.parametrize("staging", [True, False], ids=["staged", "unstaged"])
def test_concrete_loop_throughput(benchmark, isa, staging):
    """Interpreter ceiling: a concrete arithmetic loop, no symbolic data."""
    benchmark.group = "interp:concrete-loop"
    image = assemble(_CONCRETE_LOOP)

    def run():
        interp = ConcreteInterpreter(isa, staging=staging)
        interp.load_image(image)
        return interp.run().instret

    start = time.perf_counter()
    instret = benchmark.pedantic(run, rounds=3, iterations=1)
    elapsed = (time.perf_counter() - start) / 3
    assert instret > 30_000
    benchmark.extra_info["instructions"] = instret
    benchmark.extra_info["instructions_per_second"] = round(instret / elapsed)


@pytest.mark.parametrize("name", TABLE1_WORKLOADS)
def test_staging_ablation_contract(benchmark, isa, name):
    """Full-exploration identity: path sets and exact solver-query
    attribution are staging-invariant, serially and on a worker pool."""
    benchmark.group = "interp:contract"
    image = WORKLOADS[name].image(3)

    def explore(staging, jobs):
        return Explorer(
            BinSymExecutor(isa, image),
            jobs=jobs,
            use_cache=True,
            staging=staging,
        ).explore()

    def run():
        staged = explore(True, 1)
        unstaged = explore(False, 1)
        assert staged.path_set() == unstaged.path_set()
        assert staged.total_instructions == unstaged.total_instructions
        assert staged.num_queries == unstaged.num_queries
        assert staged.sat_solves == unstaged.sat_solves
        assert staged.cache_hits == unstaged.cache_hits
        assert staged.fast_path_answers == unstaged.fast_path_answers
        assert staged.pruned_queries == unstaged.pruned_queries
        assert staged.layer("") == unstaged.layer("")
        if HAS_FORK:
            # Parallel mode: per-worker caches make the solved-query
            # split differ from serial (as since PR 1), but staged vs
            # unstaged must still agree mode-for-mode.
            parallel_staged = explore(True, 4)
            parallel_unstaged = explore(False, 4)
            assert parallel_staged.path_set() == staged.path_set()
            assert parallel_unstaged.path_set() == staged.path_set()
            assert (
                parallel_staged.total_instructions
                == parallel_unstaged.total_instructions
            )
        return staged.num_paths

    paths = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["paths"] = paths


def _replay(isa, name, superblocks):
    """One deterministic concrete replay run; returns the interpreter.

    A fresh interpreter runs the workload twice: the first run warms
    the plan cache and promotes the loop headers, the second executes
    through the stitched blocks — counters read after it are exactly
    reproducible (no wall-clock dependence).
    """
    scale, data = FIG6_REPLAYS[name]
    image = WORKLOADS[name].image(scale)
    interp = ConcreteInterpreter(
        isa, platform=ReplayPlatform(data), superblocks=superblocks
    )
    for _ in range(2):
        interp.load_image(image)
        interp.run()
    return interp


@pytest.mark.parametrize(
    "superblocks", [True, False], ids=["superblocks", "per-instruction"]
)
@pytest.mark.parametrize("name", TABLE1_WORKLOADS)
def test_superblock_replay_throughput(benchmark, isa, name, superblocks):
    """Concrete replay of a Fig. 6 program, superblocks on vs off.

    This is the dispatch-bound regime the translation layer targets:
    no solver, no term construction — per-instruction plan lookup and
    step-loop overhead dominate, and stitching hot straight-line runs
    into superblocks removes most of it (>= 1.5x instructions/sec on
    this set, see BENCH_PR6.json).
    """
    benchmark.group = f"interp:superblock-replay:{name}"
    scale, data = FIG6_REPLAYS[name]
    image = WORKLOADS[name].image(scale)
    interp = ConcreteInterpreter(
        isa, platform=ReplayPlatform(data), superblocks=superblocks
    )
    interp.load_image(image)
    reference = interp.run()  # warm run: plan cache + block promotion

    def run():
        interp.load_image(image)
        return interp.run().instret

    rounds = 5
    start = time.perf_counter()
    instret = benchmark.pedantic(run, rounds=rounds, iterations=1)
    elapsed = (time.perf_counter() - start) / rounds

    # Identity contract: superblocks must not change what executes.
    other = _replay(isa, name, not superblocks)
    assert instret == reference.instret == other.hart.instret
    assert interp.hart.exit_code == other.hart.exit_code
    assert interp.platform.stdout == other.platform.stdout

    # Deterministic coverage counters from a fixed two-run replay (the
    # timed interpreter's counters depend on the round count).
    probe = _replay(isa, name, superblocks)
    if superblocks:
        # Blocks must cover the bulk of the steady-state run.
        assert probe.sb_instructions > instret
    else:
        assert probe.sb_instructions == 0
    benchmark.extra_info["instructions"] = instret
    benchmark.extra_info["instructions_per_second"] = round(instret / elapsed)
    benchmark.extra_info["sb_hits"] = probe.sb_hits
    benchmark.extra_info["sb_block_instructions"] = probe.sb_instructions


@pytest.mark.parametrize("name", TABLE1_WORKLOADS)
def test_superblock_ablation_contract(benchmark, isa, name):
    """Full-exploration identity: path sets and exact solver-query
    attribution are superblock-invariant, serially and on a worker
    pool — stitching only changes how instructions are dispatched."""
    benchmark.group = "interp:contract"
    image = WORKLOADS[name].image(3)

    def explore(superblocks, jobs):
        return Explorer(
            BinSymExecutor(isa, image),
            jobs=jobs,
            use_cache=True,
            superblocks=superblocks,
        ).explore()

    def run():
        on = explore(True, 1)
        off = explore(False, 1)
        assert on.path_set() == off.path_set()
        assert on.total_instructions == off.total_instructions
        assert on.num_queries == off.num_queries
        assert on.sat_solves == off.sat_solves
        assert on.cache_hits == off.cache_hits
        assert on.fast_path_answers == off.fast_path_answers
        assert on.pruned_queries == off.pruned_queries
        assert on.layer("") == off.layer("")
        # The layer actually engaged, and everything it dispatched is
        # accounted inside the unchanged architectural totals.
        assert on.counters.get("sb_hits", 0) > 0
        assert off.layer("sb_") == {}
        assert 0 < on.superblock_instructions <= on.total_instructions
        if HAS_FORK:
            parallel_on = explore(True, 4)
            parallel_off = explore(False, 4)
            assert parallel_on.path_set() == on.path_set()
            assert parallel_off.path_set() == on.path_set()
            assert (
                parallel_on.total_instructions
                == parallel_off.total_instructions
            )
            assert parallel_on.counters.get("sb_hits", 0) > 0
        return on.num_paths

    paths = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["paths"] = paths
