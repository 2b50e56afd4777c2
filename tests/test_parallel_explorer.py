"""Tests for multi-process exploration (core.parallel).

The load-bearing property: the flip-expansion rules fully determine the
reachable (assignment, bound) tree, so parallel exploration must
discover exactly the serial path set — only completion order may vary.
"""

import multiprocessing

import pytest

from repro.asm import assemble
from repro.core import BinSymExecutor, Explorer, FaultPlan, ProcessPoolExplorer
from repro.core.explorer import ExplorationResult, SeatRunner
from repro.core.parallel import MAX_ITEM_FAILURES, default_jobs
from repro.core.scheduler import WorkItem
from repro.core.state import InputAssignment
from repro.eval.engines import make_engine
from repro.eval.query_stats import RecordingSolver
from repro.eval.workloads import WORKLOADS
from repro.spec import rv32im
from tests.test_faults import mark_forked_seats

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")

# The quickstart example's PIN check: 5 paths, one per matched prefix.
PIN_CHECK = """\
_start:
    li a0, 0x30000
    li a1, 4
    li a7, 1337
    ecall
    li s0, 0x30000
    la s1, secret
    li t0, 0
check:
    li t1, 4
    beq t0, t1, unlocked
    add t2, s0, t0
    lbu t3, 0(t2)
    add t2, s1, t0
    lbu t4, 0(t2)
    bne t3, t4, locked
    addi t0, t0, 1
    j check
unlocked:
    li a0, 1
    li a7, 93
    ecall
locked:
    li a0, 0
    li a7, 93
    ecall
.data
secret:
    .byte 0x13, 0x37, 0x42, 0x99
"""

FAILING = """\
_start:
    li a0, 0x30000
    li a1, 1
    li a7, 1337
    ecall
    li t0, 0x30000
    lbu t1, 0(t0)
    li t2, 7
    beq t1, t2, lucky
    li a0, 0
    li a7, 93
    ecall
lucky:
    ebreak
"""


def build_executor(source):
    return BinSymExecutor(rv32im(), assemble(source))


@needs_fork
class TestParallelMatchesSerial:
    def compare(self, executor_factory, jobs=2, **kwargs):
        serial = Explorer(executor_factory(), **kwargs).explore()
        parallel = Explorer(executor_factory(), jobs=jobs, **kwargs).explore()
        assert parallel.workers == jobs
        assert parallel.num_paths == serial.num_paths
        assert parallel.path_set() == serial.path_set()
        return serial, parallel

    def test_quickstart_pin_check(self):
        serial, parallel = self.compare(lambda: build_executor(PIN_CHECK))
        assert serial.num_paths == 5
        assert parallel.exit_codes == {0, 1}

    def test_base64_workload(self):
        image = WORKLOADS["base64-encode"].image(1)
        expected = WORKLOADS["base64-encode"].expected_paths(1)
        serial, parallel = self.compare(
            lambda: BinSymExecutor(rv32im(), image)
        )
        assert parallel.num_paths == expected

    def test_assertion_failures_found(self):
        _, parallel = self.compare(lambda: build_executor(FAILING))
        assert len(parallel.assertion_failures) == 1

    @pytest.mark.parametrize("strategy", ["dfs", "bfs", "random", "coverage"])
    def test_all_strategies(self, strategy):
        self.compare(lambda: build_executor(PIN_CHECK), strategy=strategy, seed=3)

    def test_baseline_engine_gets_parallelism(self):
        image = WORKLOADS["bubble-sort"].image(3)
        isa = rv32im()
        self.compare(lambda: make_engine("binsec", isa, image))


@needs_fork
class TestParallelStats:
    def test_worker_stats_aggregate_exactly(self):
        serial = Explorer(build_executor(PIN_CHECK), use_cache=False).explore()
        parallel = Explorer(
            build_executor(PIN_CHECK), jobs=2, use_cache=False
        ).explore()
        # Same exploration tree => same total work, regardless of which
        # worker performed it.
        assert parallel.num_queries == serial.num_queries
        assert parallel.sat_checks == serial.sat_checks
        assert parallel.unsat_checks == serial.unsat_checks
        assert parallel.total_instructions == serial.total_instructions
        assert parallel.solver_time > 0.0
        assert parallel.wall_time > 0.0

    def test_max_paths_truncates(self):
        result = Explorer(build_executor(PIN_CHECK), jobs=2, max_paths=2).explore()
        assert result.num_paths <= 2
        assert result.truncated

    def test_summary_mentions_workers(self):
        result = Explorer(build_executor(FAILING), jobs=2).explore()
        assert "[2 workers]" in result.summary()


class TestFallbacks:
    def test_jobs_one_stays_in_process(self):
        result = Explorer(build_executor(FAILING), jobs=1).explore()
        assert result.workers == 1
        assert result.num_paths == 2

    def test_pool_explorer_fallback_path(self):
        result = ProcessPoolExplorer(build_executor(FAILING), jobs=1).explore()
        assert result.workers == 1
        assert result.num_paths == 2

    def test_explicit_solver_pins_serial(self):
        solver = RecordingSolver()
        result = Explorer(build_executor(FAILING), solver=solver, jobs=4).explore()
        assert result.workers == 1
        assert solver.stats.queries == result.num_queries
        assert result.num_paths == 2

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


@needs_fork
class TestWorkerFailure:
    def test_worker_exception_propagates(self):
        class ExplodingExecutor:
            def execute(self, assignment):
                raise RuntimeError("boom")

            def input_variables(self):
                return []

        with pytest.raises(RuntimeError, match="worker failed"):
            ProcessPoolExplorer(ExplodingExecutor(), jobs=2).explore()

    def test_hard_killed_worker_recovered(self):
        """A worker that dies without replying must neither hang nor
        crash the campaign: the supervisor retries its item, and — since
        this executor dies on *every* run — abandons it after the retry
        budget as an explicitly counted incomplete path."""
        import os

        class DyingExecutor:
            def execute(self, assignment):
                os._exit(3)

            def input_variables(self):
                return []

        result = ProcessPoolExplorer(DyingExecutor(), jobs=2).explore()
        assert result.num_paths == 0
        assert result.incomplete_paths == 1
        assert result.worker_deaths == MAX_ITEM_FAILURES
        assert "incomplete" in result.summary()

    def test_worker_death_mid_campaign_recovers_full_path_set(self):
        """Killing a worker once, mid-campaign, loses no paths: the held
        item is requeued and a respawned worker completes it."""
        import os

        from repro.core import BinSymExecutor
        from repro.spec import rv32im

        isa = rv32im()

        class KillOnceExecutor(BinSymExecutor):
            def execute(self, assignment, capture_from=None, resume=None):
                flag = os.environ.get("_TEST_KILL_ONCE")
                if flag and not os.path.exists(flag):
                    with open(flag, "w") as handle:
                        handle.write("dead")
                    os._exit(9)
                return super().execute(
                    assignment, capture_from=capture_from, resume=resume
                )

        import tempfile

        baseline = Explorer(build_executor(PIN_CHECK), jobs=1).explore()
        with tempfile.TemporaryDirectory() as tmp:
            os.environ["_TEST_KILL_ONCE"] = os.path.join(tmp, "killed")
            try:
                executor = KillOnceExecutor(isa, assemble(PIN_CHECK, isa=isa))
                result = ProcessPoolExplorer(executor, jobs=2).explore()
            finally:
                del os.environ["_TEST_KILL_ONCE"]
        assert result.path_set() == baseline.path_set()
        assert result.worker_deaths == 1
        assert result.incomplete_paths == 0


@needs_fork
class TestForkTargetSeam:
    @pytest.mark.parametrize("kill_rate", [0, 100])
    def test_every_seat_enters_through_module_worker_main(
        self, kill_rate, monkeypatch, tmp_path
    ):
        """Seats are spawned with ``repro.core.parallel._worker_main``
        looked up at spawn time, so a wrapper installed on the module
        (as the benchmark tracer does) reaches every incarnation —
        revived seats included.  ``kill=100`` kills every task, so the
        root item is abandoned after MAX_ITEM_FAILURES revivals."""
        mark_forked_seats(monkeypatch, str(tmp_path))
        result = Explorer(
            build_executor(PIN_CHECK),
            jobs=2,
            faults=FaultPlan(kill_rate=kill_rate),
        ).explore()
        expected_deaths = MAX_ITEM_FAILURES if kill_rate else 0
        assert result.worker_deaths == expected_deaths
        assert len(list(tmp_path.iterdir())) == result.workers + expected_deaths


@needs_fork
class TestQueryDigest:
    def test_digest_stable_across_fork(self):
        """Terms interned *after* the fork must digest identically in
        parent and child — the property cross-worker dedup relies on."""
        import multiprocessing as mp

        from repro.core.scheduler import query_digest
        from repro.smt import terms as T

        def fresh_query():
            x = T.bv_var("digest_probe", 16)
            return [T.ult(x, T.bv(0x1234, 16)), T.eq(x, T.bv(7, 16))]

        context = mp.get_context("fork")
        parent_conn, child_conn = context.Pipe()

        def child_main(conn):
            conn.send(query_digest(fresh_query()))
            conn.close()

        process = context.Process(target=child_main, args=(child_conn,))
        process.start()
        child_digest = parent_conn.recv()
        process.join(timeout=10)
        assert child_digest == query_digest(fresh_query())

    def test_digest_distinguishes_order_and_structure(self):
        from repro.core.scheduler import query_digest
        from repro.smt import terms as T

        x = T.bv_var("digest_probe2", 8)
        a, b = T.ult(x, T.bv(3, 8)), T.eq(x, T.bv(1, 8))
        assert query_digest([a, b]) != query_digest([b, a])
        assert query_digest([a]) != query_digest([b])
        assert query_digest([a, b]) == query_digest([a, b])


class TestCounterRegistry:
    def test_layer_keys_are_disjoint(self, tmp_path):
        """Seats and journals sum one flat counter dict by name, so the
        layers' key sets must never overlap (a collision would silently
        add two unrelated counters), and each layer keeps its prefix."""
        explorer = Explorer(
            build_executor(PIN_CHECK),
            use_cache=True,
            memory_budget_mb=0,
            store_dir=str(tmp_path),
        )
        runner = SeatRunner(explorer, "serial", explorer.solver, False)
        runner.run(WorkItem(InputAssignment(), 0), ())
        runner.governor.check_interval = 1
        for _ in range(3):
            runner.governor.maybe_step()
        executor = explorer.executor
        layers = {
            "": set(explorer.solver.pipeline_statistics),
            "snap_": set(executor.snapshot_statistics) | {"snap_cross_worker_items"},
            "sb_": set(executor.superblock_statistics),
            "gov_": set(runner.governor.statistics),
        }
        assert any(key.startswith("store_") for key in layers[""])
        assert any(key.startswith("gov_rung_") for key in layers["gov_"])
        names = [key for keys in layers.values() for key in keys]
        assert len(names) == len(set(names))
        result = ExplorationResult(counters=runner.counters())
        assert set(result.counters) == set(names)
        for prefix, keys in layers.items():
            assert set(result.layer(prefix)) == keys
