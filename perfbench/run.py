"""Closed-loop benchmark of the dK-series pipeline, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload dk_series_search --seed 1 --seconds 55 --trace 0

One client in one process runs the workload's op back to back (a closed
loop) for ``--seconds`` seconds and checks every op's output.  Workloads and
why each was chosen are in ``BENCHMARK.json``; their code in ``perfbench/workloads.py``.

``--trace 0`` measures with tracing off and reports the end-to-end metrics.
``--trace 1`` alternates an untraced and a traced run of each op (same
seeds), derives the per-layer metrics from the traced spans, and reports the
tracing overhead and the share of op time the layer spans cover.  It also
writes a Chrome trace and a self-time table under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, workload parameters, every metric) goes to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: set-up (build + extract + one warm-up op) is repeated and its median kept
SETUP_REPEATS = 4

#: metric names and units, declared once in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: per-layer "_s" values are per-op sums, reported as the median over ops
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}

#: span name -> the per-layer time it adds to (sweeps are split by plan kind)
SPAN_TIMES = {
    "topologies.build": "topologies.build_s",
    "core.extract": "core.extract_s",
    "generators.rewire": "generators.rewire_s",
    "generators.target3k": "generators.target3k_s",
    "generators.explore": "generators.explore_s",
    "intermediate.spectrum": "metrics.spectrum_s",
    "measure.gcc": "measure.gcc_s",
    "intermediate.triangles": "measure.triangles_s",
    "intermediate.edge_moments": "measure.moments_s",
    "intermediate.second_order": "measure.moments_s",
    "workloads.scenario": "workloads.scenario_s",
    "rescaling.rescale": "rescaling.rescale_s",
    "generators.stream": "generators.stream_s",
    "store.put": "store.put_s",
    "store.get": "store.get_s",
    "measure.plan": "measure.plan_s",
}

#: chain span -> its rate metric (explorations have no accepted-move target)
CHAIN_RATES = {
    "generators.rewire": "generators.rewire_accepted_per_s",
    "generators.target3k": "generators.target3k_accepted_per_s",
    "generators.explore": "generators.explore_attempts_per_s",
}

#: the plan's intermediates; what the plan spends beyond them is its residual
PLAN_PARTS = (
    "measure.gcc_s",
    "measure.sweep_s",
    "measure.brandes_s",
    "measure.triangles_s",
    "measure.moments_s",
    "metrics.spectrum_s",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_threads() -> dict[str, str]:
    """Size BLAS/OpenMP pools to the core count (before numpy is imported)."""
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    return {var: os.environ[var] for var in THREAD_VARS}


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(thread_caps) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "thread_caps": thread_caps,
        "platform": platform.platform(),
    }


class PeakRss:
    """Peak RSS over the timed ops, excluding the set-ups between them.

    ``pause`` keeps the VmHWM reached so far and ``resume`` resets it through
    ``/proc/self/clear_refs``.  Where that file cannot be written, falls back
    to the process-lifetime ``ru_maxrss`` and says so in ``source``.
    """

    def __init__(self):
        self.source = "vmhwm"
        self.best = 0.0

    def resume(self) -> None:
        try:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            self.source = "ru_maxrss (lifetime; clear_refs unavailable)"

    def pause(self) -> None:
        self.best = max(self.best, self._current_mb())

    def peak_mb(self) -> float:
        self.pause()
        return self.best

    def _current_mb(self) -> float:
        if self.source == "vmhwm":
            with open("/proc/self/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_signature() -> dict[str, float]:
    from repro.telemetry import counter_value
    from workloads import CACHE_KINDS

    return {
        f"{kind}:{outcome}": counter_value(
            "repro_intermediate_total", kind=kind, outcome=outcome
        )
        for kind in CACHE_KINDS
        for outcome in ("hit", "miss")
    }


def run_op(workload, i):
    """Run op ``i``: wall time, CPU time, outputs and cache-counter deltas."""
    before = cache_signature()
    cpu = time.process_time()
    start = time.perf_counter()
    outputs = workload.op(i)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    after = cache_signature()
    delta = {key: after[key] - before[key] for key in after}
    return wall, cpu, outputs, delta


def checked(workload, outputs, delta, reference) -> list[str]:
    """The op's own checks plus cache isolation against the warm-up op.

    Within one op the planner legitimately re-reads intermediates it just
    computed, so hits are expected; an op matches the warm-up op's hit and
    miss counts exactly unless it reused (or skipped) work another op did.
    """
    problems = workload.check(outputs)
    if reference is not None and delta != reference:
        problems.append(f"cache counters moved differently from warm-up: {delta} vs {reference}")
    return problems


def setup_workload(make, rep, traced):
    """One timed set-up: a fresh workload built, extracted and warmed up.

    Returns the workload, the seconds it took, the warm-up op's cache
    counter deltas (the isolation reference) and, when traced, its events.
    """
    from repro.telemetry import disable_tracing, enable_tracing, span, take_events

    if traced:
        enable_tracing()
    start = time.perf_counter()
    with span("setup"):
        workload = make()
        workload.setup()
        with span("setup.warmup"):
            _wall, _cpu, outputs, delta = run_op(workload, 1_000_000 + rep)
    took = time.perf_counter() - start
    events = take_events() if traced else []
    disable_tracing()
    problems = workload.check(outputs)
    workload.cleanup(outputs)
    if problems:
        raise RuntimeError(f"warm-up op failed its checks: {problems}")
    return workload, took, delta, events


def span_totals(events) -> dict[str, float]:
    """Per-layer values of one traced op (or set-up), from its span events."""
    totals = {name: 0.0 for name in PER_LAYER_UNITS}
    moves = {name: [0, 0] for name in CHAIN_RATES}  # accepted, attempted
    pending_sweeps = []
    in_plan = 0.0  # intermediate time since the last plan closed
    for event in events:  # recorded on exit: children precede their parent
        name, dur, args = event["name"], event["dur"] / 1e6, event["args"]
        if name in SPAN_TIMES:
            totals[SPAN_TIMES[name]] += dur
            if SPAN_TIMES[name] in PLAN_PARTS:
                in_plan += dur
        if name in moves:
            moves[name][0] += args["accepted"]
            moves[name][1] += args["attempted"]
            if args.get("d") == 3:
                totals["generators.rewire_d3_s"] += dur
        elif name == "generators.stream":
            totals["generators.stream_edges"] += args["edges"]
        elif name == "store.put":
            totals["store.bytes_written"] += args["bytes"]
        elif name == "intermediate.sweep":
            pending_sweeps.append((dur, args.get("sources", 0)))
            in_plan += dur
        elif name == "measure.plan":
            kind = "brandes" if args["brandes"] else "sweep"
            for sweep_dur, sources in pending_sweeps:
                totals[f"measure.{kind}_s"] += sweep_dur
                totals[f"measure.{kind}_sources"] += sources
            if args["brandes"]:
                # routing plans: load finalization and the congestion formulas
                totals["workloads.congestion_s"] += dur - in_plan
            pending_sweeps, in_plan = [], 0.0
    for kind in ("sweep", "brandes"):
        sources = totals[f"measure.{kind}_sources"]
        if sources:
            totals[f"measure.{kind}_us_per_source"] = 1e6 * totals[f"measure.{kind}_s"] / sources
    totals["measure.plan_residual_s"] = totals["measure.plan_s"] - sum(
        totals[part] for part in PLAN_PARTS
    )
    for name, rate in CHAIN_RATES.items():
        accepted, attempted = moves[name]
        totals[f"{name}_attempted"] = attempted
        if attempted:
            totals[f"{name}_accept_ratio"] = accepted / attempted
        if totals[f"{name}_s"]:
            done = attempted if rate.endswith("attempts_per_s") else accepted
            totals[rate] = done / totals[f"{name}_s"]
    if totals["generators.stream_s"]:
        totals["generators.stream_edges_per_s"] = (
            totals["generators.stream_edges"] / totals["generators.stream_s"]
        )
    return totals


def self_times(events) -> dict[str, list[float]]:
    """Span name -> [count, total self seconds] (duration minus direct children)."""
    table: dict[str, list[float]] = {}
    child_time: dict[tuple, float] = {}
    for event in events:  # children are recorded before their parent
        lane = (event["pid"], event["tid"])
        depth = event["args"]["depth"]
        dur = event["dur"] / 1e6
        own = dur - child_time.pop((lane, depth + 1), 0.0)
        child_time[(lane, depth)] = child_time.get((lane, depth), 0.0) + dur
        entry = table.setdefault(event["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return table


def coverage(events) -> float:
    """Share of the ``op`` span covered by its direct child (layer) spans."""
    op = [e for e in events if e["name"] == "op"][-1]
    children = sum(
        e["dur"] for e in events if e["args"]["depth"] == op["args"]["depth"] + 1
    )
    return children / op["dur"] if op["dur"] else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    args = parse_args(argv)
    thread_caps = cap_threads()
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"no repro sources under {source}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(source))
    import_start = time.perf_counter()
    import workloads as workloads_module
    from repro.exceptions import RewiringConvergenceWarning
    from repro.telemetry import disable_tracing, enable_tracing, span, take_events
    from repro.telemetry.core import write_chrome_trace

    import_s = time.perf_counter() - import_start
    if args.workload not in workloads_module.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads_module.WORKLOADS)}", file=sys.stderr)
        return 2
    # fixed-budget 3K targeting stops short of distance 0 by design
    warnings.simplefilter("ignore", RewiringConvergenceWarning)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    all_events: list[dict] = []
    parts = workloads_module.WORKLOADS[args.workload]

    def make():
        return workloads_module.Pipeline(args.workload, parts, args.seed, OUT_DIR / "work")

    workload, took, reference, events = setup_workload(make, 0, traced)
    setup_times, setup_events = [took], [events]
    all_events.extend(events)
    rss = PeakRss()
    rss.resume()

    walls, cpus, traced_walls, layer_rows, coverages = [], [], [], [], []
    attempted = failed = 0
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    # The other set-ups are spread over the run, so that their median sees
    # the same drift in host speed as the ops; their time is not op time.
    setup_due = [loop_start + args.seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
    i = 0
    while time.perf_counter() < deadline:
        if setup_due and time.perf_counter() >= setup_due[0]:
            setup_due.pop(0)
            rss.pause()
            workload = None
            gc.collect()
            workload, took, reference, events = setup_workload(make, len(setup_times), traced)
            setup_times.append(took)
            setup_events.append(events)
            all_events.extend(events)
            gc.collect()
            rss.resume()
            continue
        # the untraced and traced runs of op i swap order every op, so that
        # neither side always runs second on what the other left warm
        passes = ((False, True) if i % 2 == 0 else (True, False)) if traced else (False,)
        for tracing in passes:
            attempted += 1
            outputs = None
            gc.collect()  # collect the previous op's garbage outside the timing
            try:
                if tracing:
                    enable_tracing()
                    with span("op", workload=args.workload, op=i):
                        wall, cpu, outputs, delta = run_op(workload, i)
                    events = take_events()
                    disable_tracing()
                else:
                    wall, cpu, outputs, delta = run_op(workload, i)
                problems = checked(workload, outputs, delta, reference)
                workload.cleanup(outputs)
            except Exception:  # a failed op is counted, and the loop goes on
                disable_tracing()
                traceback.print_exc()
                failed += 1
                continue
            if problems:
                print(f"op {i}: {'; '.join(problems)}", file=sys.stderr)
                failed += 1
                continue
            if tracing:
                traced_walls.append(wall)
                layer_rows.append(span_totals(events))
                coverages.append(coverage(events))
                all_events.extend(events)
            else:
                walls.append(wall)
                cpus.append(cpu)
        i += 1
    peak_mb = rss.peak_mb()

    if not walls or (traced and not layer_rows):
        print("no op completed", file=sys.stderr)
        return 1
    tail_value, tail_pct = tail(walls)
    setup_s = import_s + statistics.median(setup_times)
    end_to_end = {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(walls),
        "op_s_tail": tail_value,
        "ops_per_s": len(walls) / math.fsum(walls),
        "op_cpu_s_p50": statistics.median(cpus),
        "peak_rss_mb": peak_mb,
    }
    record = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "loop": "closed, 1 client, 1 process",
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(thread_caps),
        "params": workload.params,
        "ops": len(walls),
        "op_s": walls,
        "ops_failed_frac": failed / attempted if attempted else 0.0,
        "op_s_tail_percentile": tail_pct,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "peak_rss_source": rss.source,
        "end_to_end": end_to_end,
    }
    for name, value in end_to_end.items():
        print(f"{name:>16} {value:12.6g} {END_TO_END_UNITS[name]}")
    print(f"{'ops_failed_frac':>16} {record['ops_failed_frac']:12.6g} ratio "
          f"({failed}/{attempted}; tail = p{tail_pct:.1f} of {len(walls)} ops; "
          f"peak RSS from {rss.source})")

    if traced:
        metrics = per_layer(layer_rows, setup_events, traced_walls, walls, coverages)
        record["per_layer"] = metrics
        stem = f"{args.workload}-seed{args.seed}"
        write_chrome_trace(str(OUT_DIR / f"{stem}.trace.json"), all_events)
        table = self_time_table(all_events)
        (OUT_DIR / f"{stem}.selftime.txt").write_text(table + "\n")
        print(table)
        print(f"tracing overhead {metrics['trace.overhead_s']:+.4f} s per op; "
              f"layer spans cover {100 * metrics['trace.span_coverage']:.1f}% of traced op time")
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end
        units = END_TO_END_UNITS
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def per_layer(layer_rows, setup_events, traced_walls, walls, coverages) -> dict[str, float]:
    """Median over traced ops of each per-layer value, plus the trace figures."""
    metrics = {
        name: statistics.median(row[name] for row in layer_rows) for name in PER_LAYER_UNITS
    }
    setup_rows = [span_totals(events) for events in setup_events]
    for name in ("topologies.build_s", "core.extract_s"):
        metrics[name] = statistics.median(row[name] for row in setup_rows)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    metrics["trace.span_coverage"] = statistics.median(coverages)
    return metrics


def self_time_table(events) -> str:
    table = self_times(events)
    total = sum(entry[1] for entry in table.values()) or 1.0
    lines = [f"{'span':<28} {'count':>7} {'self_s':>10} {'share':>7}"]
    for name, (count, own) in sorted(table.items(), key=lambda item: -item[1][1]):
        lines.append(f"{name:<28} {count:>7d} {own:>10.4f} {100 * own / total:>6.1f}%")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
