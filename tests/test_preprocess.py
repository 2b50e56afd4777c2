"""Tests for the query pipeline: slice → cache → CDCL.

Covers the independence slicer, the pipelined :class:`CachingSolver`
(per-slice caching, model stitching, attribution), a seeded
differential of the pipeline against a fresh plain :class:`Solver`
over explorer-shaped query sequences, and the end-to-end ablation
property: every ``--no-*`` configuration must discover the same path
sets as the full pipeline on the tier-1 workloads, serial and parallel
alike.
"""

import multiprocessing
import random

import pytest

from repro.core import BinSymExecutor, Explorer
from repro.eval.workloads import WORKLOADS
from repro.smt import terms as T
from repro.smt.evalbv import evaluate
from repro.smt.preprocess import PreprocessConfig, slice_conditions
from repro.smt.solver import CachingSolver, Result, Solver
from repro.spec import rv32im
from random_terms import random_term

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def bvv(name, width=8):
    return T.bv_var(name, width)


#: Every on/off switch of the pipeline and the solver layer cleared.
ALL_OFF = PreprocessConfig(slicing=False, unsat_cores=False, trail_reuse=False)


class TestSliceConditions:
    def test_independent_variables_split(self):
        x, y = bvv("sx"), bvv("sy")
        a = T.ult(x, T.bv(4, 8))
        b = T.eq(y, T.bv(2, 8))
        assert slice_conditions([a, b]) == [[a], [b]]

    def test_shared_variable_merges(self):
        x, y = bvv("sx2"), bvv("sy2")
        a = T.ult(x, T.bv(4, 8))
        b = T.eq(T.add(x, y), T.bv(9, 8))
        c = T.ult(y, T.bv(7, 8))
        assert slice_conditions([a, b, c]) == [[a, b, c]]

    def test_transitive_connection_through_linker(self):
        x, y, z = bvv("sx3"), bvv("sy3"), bvv("sz3")
        a = T.ult(x, T.bv(4, 8))
        b = T.ult(z, T.bv(4, 8))
        link = T.eq(T.add(x, z), y)  # connects all three
        assert slice_conditions([a, b, link]) == [[a, b, link]]

    def test_single_slice_degenerate_case(self):
        x = bvv("sx4")
        conds = [T.ult(x, T.bv(9, 8)), T.ugt(x, T.bv(1, 8))]
        assert slice_conditions(conds) == [conds]

    def test_order_stability(self):
        x, y, z = bvv("sx5"), bvv("sy5"), bvv("sz5")
        a = T.eq(y, T.bv(1, 8))
        b = T.ult(x, T.bv(4, 8))
        c = T.ult(z, y)
        # Slices appear in first-conjunct order: {a, c} then {b}.
        assert slice_conditions([a, b, c]) == [[a, c], [b]]

    def test_empty_input(self):
        assert slice_conditions([]) == []


class TestPipelinedSolver:
    def queries(self, tag):
        x, y, z = bvv(f"x{tag}"), bvv(f"y{tag}"), bvv(f"z{tag}")
        return [
            [T.ult(x, T.bv(10, 8))],
            [T.ult(x, T.bv(10, 8)), T.ugt(x, T.bv(20, 8))],
            [T.eq(T.add(x, y), T.bv(5, 8))],
            [T.eq(x, T.bv(3, 8)), T.eq(y, T.bv(4, 8)), T.ult(z, T.bv(9, 8))],
            [T.ult(x, y), T.ult(y, z), T.ult(z, x)],          # cyclic UNSAT
            [T.ult(x, y), T.ult(y, z)],                        # chain SAT
            [T.eq(T.mul(x, x), T.bv(4, 8)), T.ult(y, T.bv(3, 8))],
            [T.slt(x, T.bv(0, 8)), T.eq(y, T.bv(1, 8))],
            [T.ne(x, T.bv(0, 8)), T.eq(T.urem(y, T.bv(3, 8)), T.bv(1, 8))],
        ]

    @pytest.mark.parametrize(
        "config",
        [PreprocessConfig(), PreprocessConfig(slicing=False), ALL_OFF],
        ids=["full", "no-slicing", "off"],
    )
    def test_matches_plain_solver_with_valid_models(self, config):
        solver = CachingSolver(preprocess=config)
        for query in self.queries(f"m{id(config) % 97}"):
            reference = Solver()
            expected = reference.check(query)
            assert solver.check(query) is expected, query
            if expected is Result.SAT:
                model = solver.model()
                assignment = dict(model.items())
                for term in query:
                    for var in term.variables():
                        assignment.setdefault(var, 0)
                assert all(evaluate(term, assignment) for term in query), query

    def test_model_stitching_across_slices(self):
        solver = CachingSolver()
        x, y, z = bvv("stx"), bvv("sty"), bvv("stz")
        query = [
            T.eq(T.add(x, y), T.bv(200, 8)),   # slice 1: needs the core
            T.eq(T.mul(z, z), T.bv(16, 8)),    # slice 2: needs the core
        ]
        assert solver.check(query) is Result.SAT
        model = solver.model()
        assert (model[x] + model[y]) % 256 == 200
        assert (model[z] * model[z]) % 256 == 16
        # Both slices decided by one joint CDCL call.
        assert solver.num_solves == 1
        assert solver.pipeline_stats["joint_solves"] == 1

    def test_slice_reuse_across_different_queries(self):
        """The slicing payoff: a repeated independent fragment hits the
        cache even when the *rest* of the query is new."""
        solver = CachingSolver()
        x, y = bvv("srx"), bvv("sry")
        hard_x = T.eq(T.mul(x, x), T.bv(4, 8))
        assert solver.check([hard_x]) is Result.SAT
        solves_before = solver.num_solves
        # New query: same x-fragment + an unrelated y-fragment.  The x
        # slice must come from the cache (exact hit) and the y slice
        # from model reuse (y = 0 completes the pooled x model).
        assert solver.check([hard_x, T.ult(y, T.bv(9, 8))]) is Result.SAT
        assert solver.num_solves == solves_before
        assert solver.cache.exact_hits >= 1

    def test_division_by_zero_slice(self):
        """SMT-LIB division semantics survive the pipeline (Fig. 2)."""
        x, y = bvv("dvx"), bvv("dvy")
        # x < x/y is only satisfiable because y == 0 makes x/y all-ones.
        query = [T.ult(x, T.udiv(x, y))]
        solver = CachingSolver()
        assert solver.check(query) is Result.SAT
        model = solver.model()
        assignment = {x: model[x], y: model[y]}
        assert evaluate(query[0], assignment)

    def test_tainted_solver_bypasses_pipeline(self):
        solver = CachingSolver()
        x = bvv("tnx")
        solver.add(T.ult(x, T.bv(4, 8)))
        assert solver.check([T.ugt(x, T.bv(9, 8))]) is Result.UNSAT
        assert solver.pipeline_stats["queries"] == 0
        assert len(solver.cache) == 0

    def test_pipeline_statistics_shape(self):
        solver = CachingSolver()
        stats = solver.pipeline_statistics
        assert "sat_core_solves" in stats
        assert "cache_hits" in stats and "cache_misses" in stats
        assert "fast_path_queries" in stats and "slices" in stats


_COMPARISONS = (T.ult, T.ule, T.slt, T.sle, T.eq)


class TestPipelineDifferential:
    """Seeded differential of the whole pipeline against a fresh plain
    :class:`Solver`, over the query sequences exploration issues: each
    query is a prefix of some already-explored path plus its negated
    flip, and every SAT answer seeds a new path through its model.

    Every verdict must match the reference, every SAT model must satisfy
    its query under the reference evaluator, and every UNSAT set the
    cache registered for subsumption must itself be UNSAT.
    """

    @staticmethod
    def grow(rng, variables, guards, prefix, point, length):
        """``prefix`` extended by ``length`` conditions that all hold at
        ``point`` — the path a concrete run at ``point`` takes.  Like a
        loop guard, a condition is often one an earlier path already
        branched on (drawn from ``guards``), so UNSAT cores recur under
        different prefixes."""
        path = list(prefix)
        while len(path) < len(prefix) + length:
            if guards and rng.random() < 0.4:
                cond = rng.choice(guards)
            else:
                lhs = random_term(rng, variables, 8, 1)
                rhs = random_term(rng, variables, 8, 1)
                cond = rng.choice(_COMPARISONS)(lhs, rhs)
                if cond.is_const:
                    continue
                guards.append(cond)
            path.append(cond if evaluate(cond, point) else T.bnot(cond))
        return path

    @pytest.mark.parametrize("certify", [False, True], ids=["plain", "certify"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_fresh_solver(self, seed, certify):
        rng = random.Random(1400 + seed)
        variables = [bvv(f"pd{seed}_{i}") for i in range(rng.choice((2, 3)))]
        solver = CachingSolver(preprocess=PreprocessConfig(certify=certify))
        point = {var: rng.randrange(256) for var in variables}
        guards: list = []
        paths = [self.grow(rng, variables, guards, [], point, 4)]
        verdicts = set()
        for _ in range(24):
            base = rng.choice(paths)
            flip = rng.randrange(len(base))
            query = base[:flip] + [T.bnot(base[flip])]
            expected = Solver().check(query)
            assert solver.check(query) is expected, query
            verdicts.add(expected)
            if expected is not Result.SAT:
                continue
            model = solver.model()
            point = {var: model.get(var, 0) for var in variables}
            assert all(evaluate(term, point) for term in query), query
            paths.append(self.grow(rng, variables, guards, query, point, 3))
        assert verdicts == {Result.SAT, Result.UNSAT}
        for conds in solver.cache._unsat_sets.values():
            assert Solver().check(list(conds)) is Result.UNSAT, conds
        assert solver.certify_failures == 0


WORKLOAD_CONFIGS = [PreprocessConfig(), PreprocessConfig(slicing=False), ALL_OFF]
CONFIG_IDS = ["full", "no-slicing", "off"]


class TestExplorationAblations:
    """`--no-*` flags must never change what exploration discovers."""

    @pytest.fixture(scope="class")
    def reference(self):
        image = WORKLOADS["bubble-sort"].image(3)
        result = Explorer(
            BinSymExecutor(rv32im(), image), use_cache=False
        ).explore()
        return image, result

    @pytest.mark.parametrize("config", WORKLOAD_CONFIGS, ids=CONFIG_IDS)
    def test_bubble_sort_path_set_invariant(self, reference, config):
        image, expected = reference
        result = Explorer(
            BinSymExecutor(rv32im(), image),
            use_cache=True,
            preprocess=config,
        ).explore()
        assert result.path_set() == expected.path_set()
        assert result.num_paths == 6  # 3!

    def test_uri_parser_signed_comparisons(self):
        """Signed-comparison-heavy workload: pipeline on == pipeline off."""
        image = WORKLOADS["uri-parser"].image(2)
        plain = Explorer(
            BinSymExecutor(rv32im(), image), use_cache=False
        ).explore()
        piped = Explorer(
            BinSymExecutor(rv32im(), image), use_cache=True
        ).explore()
        assert piped.path_set() == plain.path_set()

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_parallel_with_preprocessing_matches_serial(self):
        image = WORKLOADS["bubble-sort"].image(3)
        serial = Explorer(
            BinSymExecutor(rv32im(), image), use_cache=True
        ).explore()
        parallel = Explorer(
            BinSymExecutor(rv32im(), image), jobs=2, use_cache=True
        ).explore()
        assert parallel.path_set() == serial.path_set()
        assert parallel.workers == 2

    def test_stats_attribution_is_exhaustive(self):
        """solved + cached + fast-path + pruned covers every flip query.

        Scale 4: bubble-sort@3 issues 7 queries and none recurs, so the
        cache has nothing to answer there.
        """
        image = WORKLOADS["bubble-sort"].image(4)
        result = Explorer(
            BinSymExecutor(rv32im(), image), use_cache=True
        ).explore()
        answered = (
            result.num_queries + result.cache_hits + result.fast_path_answers
        )
        assert answered > 0
        assert result.counters["queries"] == answered
        # Fewer core solves than answered queries: the cache earns rent.
        assert result.counters["sat_core_solves"] == result.sat_solves
        assert result.sat_solves < answered

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_parallel_solver_stats_sum_exactly(self):
        image = WORKLOADS["bubble-sort"].image(3)
        result = Explorer(
            BinSymExecutor(rv32im(), image), jobs=2, use_cache=True
        ).explore()
        answered = (
            result.num_queries + result.cache_hits + result.fast_path_answers
        )
        assert result.counters["queries"] == answered
        assert result.counters["sat_core_solves"] == result.sat_solves
