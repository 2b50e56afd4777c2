"""Word-level query preprocessing: independence slicing.

The one word-level stage between :class:`repro.smt.solver.CachingSolver`
and the bit-blaster partitions each query's assertion set into
connected components by shared variables (union-find over each
conjunct's cached free-variable set).  Components are looked up and
cached *per slice*: flipping one branch never re-solves unrelated
constraints, and :class:`repro.smt.solver.QueryCache` keys shrink to
slice-sized sets that recur across paths and workers.  Slicing is a
partition, so the conjunction of the slices is the original query, and
every slice is decided by the cache or by the bit-blasted CDCL core —
no hand-written word-level procedure answers a query.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PreprocessConfig", "slice_conditions"]


@dataclass(frozen=True)
class PreprocessConfig:
    """Which stages of the query pipeline are active.

    Mirrors the CLI ablation flags: ``--no-slicing`` clears the one
    word-level stage, and the caching solver then keys whole queries
    and hands each cache miss straight to the bit-blaster.

    The solver-layer knobs ride along in the same config object
    because it is what already crosses the process boundary to every
    exploration worker: ``unsat_cores`` (``--no-unsat-cores``) controls
    assumption-level UNSAT core extraction + minimal-core caching, and
    ``trail_reuse`` (``--no-trail-reuse``) the CDCL core's
    shared-assumption-prefix trail retention between queries.

    The *budget* knobs bound worst-case solver work per query, for
    sound degradation under adversarial branch-flip queries
    (``--conflict-budget`` / ``--propagation-budget``, None =
    unlimited): an exhausted budget makes ``check`` answer UNKNOWN,
    which the exploration layer counts explicitly instead of flipping
    the branch.  ``wall_budget`` (``--solver-wall-budget``, seconds)
    bounds *wall time* per CDCL ``solve`` the same way — the anytime
    guarantee for queries whose conflict count stays low while each
    propagation round is expensive.  ``core_budget`` (``--core-budget``)
    caps the extra solves :meth:`repro.smt.sat.SatSolver.minimize_core`
    may spend shrinking an UNSAT core.  Fork inheritance keeps serial
    and parallel budget behaviour identical.

    The *evidence* knobs control the certification layer:
    ``certify`` (``--certify``) turns on the checks — every UNSAT core
    is validated by the independent RUP checker in
    :mod:`repro.smt.drat` and every SAT model is evaluated against the
    original conjuncts before anything is cached or reported.  A failed
    check is never trusted: the answer is downgraded to UNKNOWN and the
    failure counted.
    Under ``certify`` the CDCL core keeps a DRAT-style clause log
    (learned additions + deletions) so UNSAT answers carry a checkable
    derivation; ``proof_log=False`` (``--no-proof-log``) drops it and
    UNSAT answers then pass unverified.  Without ``certify`` nothing
    reads the log, so none is kept whatever ``proof_log`` says.
    """

    slicing: bool = True
    unsat_cores: bool = True
    trail_reuse: bool = True
    conflict_budget: "int | None" = None
    propagation_budget: "int | None" = None
    wall_budget: "float | None" = None
    core_budget: int = 8
    certify: bool = False
    proof_log: bool = True


# ---------------------------------------------------------------------------
# Independence slicing
# ---------------------------------------------------------------------------


def slice_conditions(conditions: list) -> list:
    """Partition conjuncts into variable-connected components.

    Two conjuncts land in the same slice iff they are connected through
    shared free variables (transitively).  The partition is order-stable:
    slices appear in order of their first conjunct, and conjuncts keep
    their relative order within a slice — so a degenerate fully-connected
    query yields exactly ``[conditions]``.

    Variable-free conjuncts (which the smart constructors fold to
    constants in practice) each form their own singleton slice.
    """
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] is not root:
            root = parent[root]
        while parent[x] is not root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra is not rb:
            parent[rb] = ra

    anchors = []  # per condition: a representative variable or None
    for cond in conditions:
        variables = cond.free_vars()
        anchor = None
        for var in variables:
            if var not in parent:
                parent[var] = var
            if anchor is None:
                anchor = var
            else:
                union(anchor, var)
        anchors.append(anchor)

    groups: dict = {}
    order: list = []
    for cond, anchor in zip(conditions, anchors):
        key = object() if anchor is None else find(anchor)
        bucket = groups.get(key)
        if bucket is None:
            bucket = groups[key] = []
            order.append(key)
        bucket.append(cond)
    return [groups[key] for key in order]
