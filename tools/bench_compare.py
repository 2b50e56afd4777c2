#!/usr/bin/env python3
"""Benchmark-regression gate: diff a bench.json against the baseline.

CI's timed benchmark step emits a pytest-benchmark JSON report whose
``extra_info`` blocks carry *deterministic* counters next to the
timings: discovered path counts, retired instruction counts, superblock
dispatch/coverage counters, the CDCL core's work counters and the query
cache's per-tier hits.  Timings vary run to run; the counters must
not — a drifted counter means exploration, staging, superblock
stitching, the SAT search or the query cache changed behaviour, which
is a correctness regression even when every assertion still passes
(e.g. a hotness tweak that silently halves block coverage).

This tool loads the newest committed ``BENCH_PR*.json`` baseline that
carries a ``ci_counters`` section (older snapshots predate the gate and
are ignored), matches its benchmarks by name against the fresh report,
and fails on any counter mismatch.  Only counters from a fixed
allowlist participate — wall-clock-derived values such as
``instructions_per_second`` are never compared.

Usage::

    python tools/bench_compare.py bench.json [--baseline FILE]
    python tools/bench_compare.py bench.json --self-test

``--self-test`` perturbs one baseline counter in memory and asserts the
comparison then fails — proving the gate can actually trip (a gate that
cannot fail gates nothing).
"""

from __future__ import annotations

import argparse
import copy
import json
import re
from pathlib import Path

#: extra_info keys that must be bit-for-bit reproducible across runs,
#: machines and Python versions.  Everything else (timings, derived
#: rates) is informational only.
DETERMINISTIC_KEYS = (
    "paths",
    "instructions",
    "sb_hits",
    "sb_block_instructions",
    # Anytime counters (PR 9): all exactly zero on a healthy run with
    # no deadline / memory budget / fault schedule — any non-zero value
    # in a CI benchmark means the run degraded and must not pass as a
    # performance baseline.
    "deadline_expired",
    "degradations",
    "hung_workers",
    # Persistent-store health (PR 10): benchmarks run without --store,
    # so both are exactly zero on a healthy run — any non-zero value
    # means a store tier leaked into the benchmark configuration or an
    # artifact failed verification mid-benchmark.
    "store_quarantines",
    "store_disabled",
    # CDCL work counters of the serial pipeline benchmarks: exact under
    # a pinned PYTHONHASHSEED, so a SAT-core change that alters search
    # shows here even when wall time hides in the noise.
    "sat_propagations",
    "sat_decisions",
    "sat_conflicts",
    "sat_solves",
    # Query-cache tier hits of the same serial pipeline benchmarks
    # (exact under the pinned PYTHONHASHSEED): which tier answered a
    # query is behaviour, so a drift here is a pipeline change.
    "cache_exact_hits",
    "cache_subsumption_hits",
    "cache_model_reuse_hits",
)

_BASELINE_PATTERN = re.compile(r"BENCH_PR(\d+)\.json$")


def find_baseline(root: Path) -> Path | None:
    """Newest BENCH_PR*.json under ``root`` that has ``ci_counters``."""
    candidates = []
    for path in root.glob("BENCH_PR*.json"):
        match = _BASELINE_PATTERN.match(path.name)
        if match:
            candidates.append((int(match.group(1)), path))
    for _, path in sorted(candidates, reverse=True):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if "ci_counters" in data:
            return path
    return None


def extract_counters(report: dict) -> dict[str, dict[str, int]]:
    """benchmark name -> {allowlisted counter -> value} from a report."""
    out: dict[str, dict[str, int]] = {}
    for bench in report.get("benchmarks", ()):
        extra = bench.get("extra_info") or {}
        counters = {
            key: extra[key] for key in DETERMINISTIC_KEYS if key in extra
        }
        if counters:
            out[bench["name"]] = counters
    return out


def compare(
    baseline: dict[str, dict[str, int]],
    current: dict[str, dict[str, int]],
) -> list[str]:
    """All drift between the baseline and a fresh report, as messages.

    Every baseline benchmark must be present with identical counters;
    benchmarks new in the report (no baseline yet) are allowed — they
    get pinned the next time the baseline is regenerated.
    """
    problems = []
    for name in sorted(baseline):
        if name not in current:
            problems.append(f"missing benchmark: {name}")
            continue
        for key, expected in sorted(baseline[name].items()):
            got = current[name].get(key)
            if got != expected:
                problems.append(
                    f"{name}: {key} = {got!r}, baseline {expected!r}"
                )
    return problems


def self_test(baseline: dict[str, dict[str, int]], report: dict) -> int:
    """Prove the gate trips: perturb one counter, expect failure."""
    current = extract_counters(report)
    clean = compare(baseline, current)
    if clean:
        print("self-test inconclusive: report already drifts from baseline:")
        for problem in clean:
            print(f"  {problem}")
        return 1
    perturbed = copy.deepcopy(baseline)
    name = next(iter(sorted(perturbed)))
    key = next(iter(sorted(perturbed[name])))
    perturbed[name][key] += 1
    problems = compare(perturbed, current)
    if not problems:
        print(
            f"self-test FAILED: perturbing {name}:{key} was not detected"
        )
        return 1
    print(
        f"self-test ok: perturbed {name}:{key} detected "
        f"({len(problems)} drift message(s))"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path, help="fresh bench.json")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline snapshot (default: newest BENCH_PR*.json with "
        "a ci_counters section, searched next to this script's repo)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the gate trips on a perturbed baseline counter",
    )
    args = parser.parse_args(argv)

    baseline_path = args.baseline
    if baseline_path is None:
        baseline_path = find_baseline(Path(__file__).resolve().parent.parent)
    if baseline_path is None:
        print("no BENCH_PR*.json baseline with ci_counters found")
        return 1
    baseline = json.loads(baseline_path.read_text())["ci_counters"]
    report = json.loads(args.report.read_text())

    if args.self_test:
        return self_test(baseline, report)

    problems = compare(baseline, extract_counters(report))
    if problems:
        print(f"benchmark counter drift vs {baseline_path.name}:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    compared = sum(len(counters) for counters in baseline.values())
    print(
        f"ok: {compared} deterministic counters across "
        f"{len(baseline)} benchmarks match {baseline_path.name}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
