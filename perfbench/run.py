"""Benchmark of pocgraph: one workload per run, or all three in turn.

    python3 perfbench/run.py --workload agreement|sweeps|large|all \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout; the program is imported from ./src and
from nowhere else. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import loading
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

# Seconds one block of each workload takes on the reference machine (2 cores,
# Python 3.11); the run's operation list holds as many blocks as fit in
# --seconds. sweeps also has a fixed part: every graph on n <= 5 and the
# multipartite cases.
SECONDS_PER_BLOCK = {"agreement": 0.26, "sweeps": 0.22, "large": 3.2}
FIXED_SECONDS = {"agreement": 0.0, "sweeps": 3.3, "large": 0.0}

# Fresh interpreters started per untraced run to time set-up; setup_s is
# their median.
SETUP_PROBES = 5

# Module attributes wrapped in a traced run. The sweeps reach chi_poc_exact
# and find_max_spaths through these attributes, so nested calls are counted.
TRACED = {
    "graph_core": ("parse_wpoc", "serialize_wpoc"),
    "poc_engine": (
        "greedy_poc", "is_valid_poc", "build_good_orientation",
        "greedy_poc_from_orientation", "dag_longest_path",
    ),
    "oracles": (
        "chi_poc_exact", "ell_prime_orientation", "chromatic_number", "f_argmax",
        "chi_poc_t_argmax", "longest_path_exact", "has_hamiltonian_path",
    ),
    "multipartite": ("h_argmax", "find_max_spaths"),
}
# find_max_spaths is traced only to count the MOCs that h_argmax tries;
# enumerate_graphs is a generator, so set-up puts a span round its consumption.
SELF_TIME_METRICS = [
    f"{module}.{attr}" for module, attrs in TRACED.items() for attr in attrs
    if attr != "find_max_spaths"
] + ["oracles.enumerate_graphs"]
NESTED_COUNTS = {
    "oracles.f_argmax.weightings": ("oracles.f_argmax", "oracles.chi_poc_exact"),
    "oracles.chi_poc_t_argmax.weightings": ("oracles.chi_poc_t_argmax", "oracles.chi_poc_exact"),
    "multipartite.h_argmax.mocs": ("multipartite.h_argmax", "multipartite.find_max_spaths"),
}


def blocks_for(workload: str, seconds: float, size: str) -> int:
    if size == "tiny":
        return 1
    return max(1, round((seconds - FIXED_SECONDS[workload]) / SECONDS_PER_BLOCK[workload]))


def tail(times: list[float]) -> float:
    """The highest percentile with ten operations beyond it: the 11th largest
    (the largest, in runs too short to have one)."""
    ordered = sorted(times)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def probe_setup(inputs_path: Path, expected: int) -> float:
    """Seconds from starting a fresh interpreter to its inputs being loaded."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "load.py"), str(inputs_path)],
        capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    done, count = proc.stdout.split()
    if int(count) != expected:
        raise RuntimeError(f"set-up probe loaded {count} instances, expected {expected}")
    return float(done) - start


def measure(wl, tracer: Tracer | None) -> dict:
    """Run every operation once, timing only the call into the program, and
    check each output after its timer stops."""
    times, failed, wrong = [], 0, 0
    op_span = tracer.span if tracer else loading.no_span
    for i in range(len(wl)):
        if tracer:
            tracer.current_op = i
        try:
            start = time.perf_counter()
            with op_span("op"):
                out = wl.run(i)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # CapExceeded and any other fault fail the operation
            failed += 1
            print(f"operation {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        problem = wl.check(i, out)
        if problem:
            failed += 1
            wrong += 1
            print(f"operation {i} wrong: {problem}", file=sys.stderr)
            continue
        times.append(elapsed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": len(wl), "failed": failed, "wrong": wrong, "times": times,
        "peak_rss_mb": peak_rss_mb,
    }


def end_to_end(result: dict) -> dict:
    times = result["times"]
    if not times:
        return {}
    return {
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(times) * 1000.0, "unit": "ms"},
        "op_tail_ms": {"value": tail(times) * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(tracer: Tracer) -> dict:
    self_s = tracer.self_times()
    metrics = {f"{name}.s": {"value": self_s.get(name, 0.0), "unit": "s"} for name in SELF_TIME_METRICS}
    parse_s = self_s.get("graph_core.parse_wpoc", 0.0)
    parsed_mb = tracer.units.get("graph_core.parse_wpoc", 0) / 1e6
    metrics["graph_core.parse_wpoc.mb_per_s"] = {
        "value": parsed_mb / parse_s if parse_s else 0.0, "unit": "MB/s"
    }
    for metric, (parent, child) in NESTED_COUNTS.items():
        metrics[metric] = {"value": tracer.child_counts(parent, child), "unit": "count"}
    return metrics


def run_workload(args) -> dict:
    pg = loading.import_program()
    blocks = blocks_for(args.workload, args.seconds, args.size)
    wl = WORKLOADS[args.workload](args.seed, blocks, args.size)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    inputs = wl.inputs()
    inputs_path = RESULTS / f"{stem}.inputs.json"
    inputs_path.write_text(json.dumps(inputs))

    tracer = None
    metrics: dict = {}
    if args.trace:
        tracer = Tracer()
        for module, attrs in TRACED.items():
            for attr in attrs:
                units = (lambda text: len(text.encode())) if attr == "parse_wpoc" else None
                tracer.wrap(getattr(pg, module), attr, units)
    else:
        probes = [probe_setup(inputs_path, len(inputs["texts"])) for _ in range(SETUP_PROBES)]
        metrics["setup_s"] = {"value": statistics.median(probes), "unit": "s"}

    loaded = loading.load(pg, inputs, tracer.span if tracer else loading.no_span)
    wl.bind(pg, loaded)
    del loaded
    setup_problem = getattr(wl, "setup_problem", lambda: None)()
    if setup_problem:
        print(f"set-up wrong: {setup_problem}", file=sys.stderr)
    result = measure(wl, tracer)
    e2e = end_to_end(result)
    if tracer is not None:
        tracer.unwrap_all()
        metrics = per_layer(tracer)
        tracer.dump(RESULTS / f"{stem}.trace.json", {"end_to_end_traced": e2e, "blocks": blocks})
    else:
        metrics.update(e2e)
    summary = {
        "correct": setup_problem is None and result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.result.json").write_text(
        json.dumps({**summary, "blocks": blocks, "op_seconds": result["times"]})
    )
    return summary


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    combined = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"{name} {line}")
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        summary = run_workload(args)
    except loading.ProgramMissing as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    for name, metric in summary["metrics"].items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(f"operations attempted {summary['attempted']} failed {summary['failed']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
