"""Query-cone activation in the CDCL core.

``Solver.check`` activates only the gate clauses in the fan-in cone of
its assumptions plus the *roots* (the constant, division constraints,
``add`` assertions and scope selectors), and ``SatSolver`` propagates
and decides over that set alone.  The differential tests answer random
width-4 QF_BV workloads that mix every construct creating roots and
check each verdict against brute force, each SAT model with ``evalbv``
and each UNSAT core by brute force.  The white-box tests pin what the
restriction means: gates outside the cone stay unassigned, unread bits
read as their saved phase, and a clause falsified while inactive is
caught when a kept trail activates it.
"""

import itertools
import random

import pytest

from repro.smt import terms as T
from repro.smt.evalbv import evaluate
from repro.smt.sat import SAT, UNSAT, SatSolver
from repro.smt.solver import Result, Solver

X = T.bv_var("cone_x", 3)
Y = T.bv_var("cone_y", 3)
Z = T.bv_var("cone_z", 2)
VARS = (X, Y, Z)
#: Every assignment of the 8 input bits, in a fixed order.
ASSIGNMENTS = [
    {X: x, Y: y, Z: z}
    for x, y, z in itertools.product(range(8), range(8), range(4))
]


def random_bv(rng, depth):
    """A random 4-bit term; leaves read a random subset of the inputs."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(
            (
                lambda: T.zext(X, 1),
                lambda: T.zext(Y, 1),
                lambda: T.concat(Z, Z),
                lambda: T.concat(T.extract(X, 2, 1), Z),
                lambda: T.concat(T.extract(Y, 0, 0), X),
                lambda: T.bv(rng.randrange(16), 4),
            )
        )()
    a = random_bv(rng, depth - 1)
    b = random_bv(rng, depth - 1)
    op = rng.choice(
        ("add", "sub", "and", "xor", "udiv", "urem", "ite", "concat", "mul")
    )
    if op == "ite":
        return T.ite(random_bool(rng, depth - 1), a, b)
    if op == "concat":
        return T.concat(T.extract(a, 1, 0), T.extract(b, 3, 2))
    return {
        "add": T.add, "sub": T.sub, "and": T.and_, "xor": T.xor,
        "udiv": T.udiv, "urem": T.urem, "mul": T.mul,
    }[op](a, b)


def random_bool(rng, depth):
    """A random comparison, possibly negated or combined."""
    if depth > 0 and rng.random() < 0.2:
        combine = rng.choice((T.band, T.bor))
        return combine(random_bool(rng, depth - 1), random_bool(rng, depth - 1))
    compare = rng.choice((T.eq, T.ult, T.ule, T.slt, T.ne))
    term = compare(random_bv(rng, depth), random_bv(rng, depth))
    return T.bnot(term) if rng.random() < 0.3 else term


class BruteForce:
    """Satisfying-assignment sets of terms, as bitsets over ASSIGNMENTS."""

    def __init__(self):
        self._sets = {}

    def models(self, conds) -> int:
        mask = (1 << len(ASSIGNMENTS)) - 1
        for cond in conds:
            bits = self._sets.get(cond)
            if bits is None:
                bits = 0
                for index, assignment in enumerate(ASSIGNMENTS):
                    if evaluate(cond, assignment):
                        bits |= 1 << index
                self._sets[cond] = bits
            mask &= bits
        return mask


@pytest.fixture(scope="module")
def oracle():
    """One brute-force table for the module: seeds share their terms."""
    return BruteForce()


def check_answer(solver, oracle, asserted, assumptions):
    verdict = solver.check(assumptions)
    expected = oracle.models(asserted + assumptions)
    assert verdict is (Result.SAT if expected else Result.UNSAT)
    if verdict is Result.SAT:
        model = solver.model()
        assignment = {var: model.get(var, 0) for var in VARS}
        for cond in asserted + assumptions:
            assert evaluate(cond, assignment), cond
    elif solver.last_core is not None:
        assert set(solver.last_core) <= set(assumptions)
        assert not oracle.models(asserted + list(solver.last_core))
    return verdict


@pytest.mark.parametrize("trail_reuse", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_random_workloads_agree_with_brute_force(seed, trail_reuse, oracle):
    rng = random.Random(seed)
    solver = Solver(trail_reuse=trail_reuse, unsat_cores=True)
    scopes = [[]]  # assertions per open scope, outermost first
    path = []  # explorer-style path condition: checks share its prefix
    answers = set()
    for _ in range(40):
        action = rng.random()
        if action < 0.08:
            solver.push()
            scopes.append([])
        elif action < 0.14 and len(scopes) > 1:
            solver.pop()
            scopes.pop()
        elif action < 0.22:
            cond = random_bool(rng, 1)
            solver.add(cond)
            scopes[-1].append(cond)
        else:
            asserted = [cond for scope in scopes for cond in scope]
            if path and rng.random() < 0.4:
                path.pop()
            flip = random_bool(rng, 2)
            verdict = check_answer(
                solver, oracle, asserted, path + [T.bnot(flip)]
            )
            answers.add(verdict)
            if oracle.models(asserted + path + [flip]):
                path.append(flip)
    assert Result.SAT in answers


def test_query_over_x_leaves_y_gates_unassigned():
    solver = Solver()
    y_query = T.eq(T.add(Y, T.bv(3, 3)), T.bv(1, 3))
    assert solver.check([y_query]) is Result.SAT
    assert solver.model()[Y] == 6
    x_query = T.ult(T.add(X, T.bv(1, 3)), T.bv(2, 3))
    assert solver.check([x_query]) is Result.SAT
    sat = solver._sat
    blaster = solver._blaster
    # The x query's cone is assigned; y's gates and bits are not.
    assert all(sat._assign[abs(lit)] for lit in blaster.bits(X))
    assert sat._assign[abs(blaster.lit(y_query))] == 0
    assert not any(sat._assign[abs(lit)] for lit in blaster.bits(Y))
    # Bits the query never read come back as their saved phase: the
    # value the y query's answer left, not zero.
    assert solver.value_of(Y) == 6
    assert solver.model()[X] in (0, 7)


def test_unmasked_solve_assigns_every_variable():
    sat = SatSolver()
    a, b, g = (sat.new_var() for _ in range(3))
    sat.add_clause([-a, -b, g])
    assert sat.solve([a]) is SAT
    assert all(sat._assign[v] for v in (a, b, g))


def test_clause_falsified_while_inactive_is_caught_on_activation():
    sat = SatSolver()
    a, b, g = (sat.new_var() for _ in range(3))
    # Watched on -a and -b: both fall while g (its top) is inactive.
    sat.add_clause([-a, -b, g])
    cone_ab = (1 << a) | (1 << b)
    assert sat.solve([a, b], active=cone_ab) is SAT
    assert sat._assign[g] == 0
    # The kept [a, b] prefix now activates the clause: it must imply g,
    # so assuming -g is UNSAT with every assumption in the core.
    assert sat.solve([a, b, -g], active=cone_ab | (1 << g)) is UNSAT
    assert sat.statistics["trail_reused_lits"] > 0
    assert sorted(sat.unsat_core()) == sorted([a, b, -g])
