"""The engine benchmark: one workload, timed end to end or per layer.

    python3 perfbench/run.py --workload {sorts,parsers,campaign} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The run re-executes itself under
``PYTHONHASHSEED=0``, measures the set-up time of fresh processes,
repeats timed passes over the workload (closed loop, one client) for S
seconds, then checks every reported path (see verify.py).  With
``--trace 1`` a traced pass runs in a separate process under
``PYTHONHASHSEED=1`` and the per-layer metrics are reported instead of
the end-to-end ones.  The last line of standard output is the result as
one JSON object.  README.md documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time

import harness

#: Fresh processes whose set-up time is measured per run (median taken).
SETUP_PROBES = 11
#: Hash seed of the traced pass: counters must not depend on it.
TRACE_HASH_SEED = "1"

END_TO_END = {"setup_s": "s", "explore_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    return env


def measure_setup(workload) -> list:
    """Wall time from starting a fresh interpreter to its "ready" line."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, probe, workload.name],
            stdout=subprocess.PIPE,
            env=child_env("0"),
            cwd=harness.ROOT,
            text=True,
        ) as process:
            line = process.stdout.readline()
            elapsed = time.perf_counter() - start
            process.stdout.read()
            code = process.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        samples.append(elapsed)
    return samples


def run_traced(workload, seed: int) -> dict:
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced.py")
    result_file = os.path.join(harness.OUT, f"traced-{workload.name}.pickle")
    subprocess.run(
        [sys.executable, script, workload.name, str(seed), result_file],
        env=child_env(TRACE_HASH_SEED),
        cwd=harness.ROOT,
        check=True,
        timeout=150,
    )
    # Written by our own child process above.
    with open(result_file, "rb") as handle:
        traced = pickle.load(handle)
    os.remove(result_file)
    return traced


def main(argv) -> int:
    args = parse_args(argv)
    if not harness.engine_present():
        print(f"no engine sources under {harness.SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        script = os.path.abspath(__file__)
        os.execve(sys.executable, [sys.executable, script, *argv], child_env("0"))
    import verify

    workload = harness.WORKLOADS[args.workload]
    os.makedirs(harness.OUT, exist_ok=True)

    setup_samples = measure_setup(workload)
    isa, images = harness.setup(workload)
    harness.warm_up(workload, args.seed)
    passes = []
    durations = []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or (
        # Start another pass only if it should end nearer to --seconds
        # than stopping now, so that a run measures about --seconds
        # whatever the pass length.
        time.perf_counter() - start + statistics.median(durations) / 2 <= args.seconds
    ):
        tag = f"{workload.name}-{args.seed}-{len(passes)}"
        began = time.perf_counter()
        passes.append(harness.run_pass(workload, images, args.seed, tag))
        durations.append(time.perf_counter() - began)
        if len(passes) == 1:
            # Sampled before later passes add the benchmark's own records
            # of every path to this process.
            peak_rss = harness.peak_rss_mb()

    ledger = verify.Ledger()
    own = [e for _cold, _warm, explorations in passes for e in explorations]
    reference = []
    if workload.pooled:
        reference, fresh = verify.serial_reference(
            lambda: harness.serial_reference(workload, images, args.seed)
        )
        if fresh:
            own.extend(reference)
    ledger.add(own)
    traced = run_traced(workload, args.seed) if args.trace else None
    if traced is not None:
        ledger.add(traced["explorations"])
    verify.check_counts_and_health(ledger, workload)
    verify.cross_check_pinned(ledger, workload, isa, images, args.seed)
    verify.check_pooled_path_sets(ledger, reference)
    replayed = verify.replay_paths(ledger, workload)
    first = verify.check_counters_across_runs(ledger, workload.name, own)
    if traced is not None:
        verify.check_counters_repeat(
            ledger,
            traced["explorations"],
            first,
            f"under PYTHONHASHSEED={TRACE_HASH_SEED}",
        )

    explore_s = statistics.median(cold for cold, _warm, _e in passes)
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "explore_s": explore_s,
        "warm_s": statistics.median(w for _cold, warm, _e in passes for w in warm),
        "peak_rss_mb": peak_rss,
    }
    for message in ledger.messages()[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    failed_frac = ledger.failed / ledger.attempted
    print(
        f"{workload.name}: {len(passes)} passes, {ledger.attempted} explorations, "
        f"{replayed} paths replayed, failed_frac {failed_frac:.4f}"
    )
    print("  cold passes (s): " + ", ".join(f"{cold:.3f}" for cold, _w, _e in passes))
    for name, value in end_to_end.items():
        print(f"  {name} = {value:.4f} {END_TO_END[name]}")
    if traced is None:
        metrics = {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, value in end_to_end.items()
        }
    else:
        import layers

        serial_solves = {
            e.program: e.counters["sat_solves"]
            for e in own + reference
            if not e.pooled and e.mode in ("cold", "serial-ref")
        }
        values, missing = layers.compute(
            traced["explorations"], explore_s, serial_solves
        )
        missing = list(traced["missing_points"]) + missing
        if missing:
            print(f"  missing: {', '.join(missing)}")
        print(f"  spans written to {traced['trace_file']}")
        for name, value in values.items():
            print(f"  {name} = {value:.6g} {layers.METRICS[name]}")
        metrics = {
            name: {"value": value, "unit": layers.METRICS[name]}
            for name, value in values.items()
        }
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
