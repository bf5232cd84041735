"""pocketrag benchmark: one seeded workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload desk-repeat --seed 1 --seconds 10 --trace 0

Run from the repository root (or anywhere: paths resolve from this file).
With ``--trace 0`` it measures the end-to-end metrics with tracing off. With
``--trace 1`` it alternates untraced rounds with the same rounds run with
every library call site wrapped by ``spans.Tracer``, and reports the
per-layer metrics plus the tracing overhead.

Every op is checked for correctness; a failed check counts against
``ok_ratio`` and makes the command exit 1. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record (environment, tail percentile, every traced layer) goes to
``perfbench/out/``, which is not committed; so are the span files.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = 1

# (name, unit, better); bounds live in BENCHMARK.json
END_TO_END = [
    ("tasks_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("planner_calls_per_task", "count", "lower"),
    ("mobile_steps_per_task", "count", "lower"),
]

PER_LAYER = [
    ("embedding.embed.calls", "calls/op", "lower"),
    ("embedding.embed.self_ms", "ms/op", "lower"),
    ("embedding.embed.distinct_ratio", "ratio", "higher"),
    ("app_index.build.self_ms", "ms/op", "lower"),
    ("app_index.retrieve.calls", "calls/op", "lower"),
    ("app_index.retrieve.p50_us", "us", "lower"),
    ("app_index.retrieve.self_ms", "ms/op", "lower"),
    ("app_index.retrieve.found_ratio", "ratio", "higher"),
    ("app_index.register.self_ms", "ms/op", "lower"),
    ("agent.select_and_open_app.store_ratio", "ratio", "lower"),
    ("task_memory.lookup.p50_us", "us", "lower"),
    ("task_memory.lookup.self_ms", "ms/op", "lower"),
    ("task_memory.lookup.exact", "calls/op", "higher"),
    ("task_memory.lookup.similar", "calls/op", "higher"),
    ("task_memory.lookup.none", "calls/op", "lower"),
    ("task_memory.commit.self_ms", "ms/op", "lower"),
    ("task_memory.replay.self_ms", "ms/op", "lower"),
    ("task_memory.replay.completed_ratio", "ratio", "higher"),
    ("simulator.execute.self_ms", "ms/op", "lower"),
    ("simulator.observe.self_ms", "ms/op", "lower"),
    ("planning.plan.self_ms", "ms/op", "lower"),
    ("planning.render_context.self_ms", "ms/op", "lower"),
    ("planning.reflect.self_ms", "ms/op", "lower"),
    ("agent.run_task.self_ms", "ms/op", "lower"),
    ("web_search.search.self_ms", "ms/op", "lower"),
    ("metrics.compute_metrics.self_ms", "ms/op", "lower"),
    ("bench.load_pack.self_ms", "ms/setup", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# layers whose calls happen in set-up, so they are reported per set-up
SETUP_LAYERS = {"bench.load_pack"}
# which labelled calls a ratio counts, over all calls of its span
RATIO_LABELS = {
    "found_ratio": lambda label: label.endswith(":found"),
    "store_ratio": lambda label: label == "store",
    "completed_ratio": lambda label: label == "completed",
}
# spans whose p50 is taken over some calls only: retrieval over the store index
P50_LABELS = {"app_index.retrieve": lambda label: label.startswith("store:")}


@dataclass
class Measurement:
    """Everything one pass of rounds produced."""

    op_seconds: list[float] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)  # workloads.OpResult per op
    round_ends: list[int] = field(default_factory=list)  # op count after each round
    rounds: int = 0

    @property
    def failed(self) -> int:
        return sum(result.error is not None for result in self.results)


def run_round(workload, m: Measurement, tracer=None) -> None:
    """Set up afresh, run the workload's op list once, check it; append to ``m``.

    Only op calls are timed as ops; set-up is timed on its own and checks
    run outside both. A full collection before set-up leaves every round
    the same garbage-collector state to start from.
    """
    from workloads import OpResult
    from spans import OUTSIDE, SETUP

    gc.collect()
    if tracer is not None:
        tracer.op = SETUP
    t0 = time.perf_counter()
    state = workload.setup()
    m.setup_seconds.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.op = OUTSIDE
    ops = list(workload.ops(state))
    outputs, first = [], len(m.results)
    for op in ops:
        op_id = len(m.op_seconds)
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                output = tracer.run_op(op_id, workload.run_op, state, op)
            else:
                output = workload.run_op(state, op)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        m.op_seconds.append(time.perf_counter() - t0)
        if output is not None:
            try:
                result = workload.check(state, op, output)
            except Exception as exc:
                result = OpResult(0, 0, 0, 0, f"check raised {type(exc).__name__}: {exc}")
        else:
            result = OpResult(0, 0, 0, 0, error)
        outputs.append(output)
        m.results.append(result)
    for i, error in workload.check_round(state, ops, outputs).items():
        if m.results[first + i].error is None:
            m.results[first + i].error = error
    m.round_ends.append(len(m.op_seconds))
    m.rounds += 1


def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile). Below eleven samples no percentile has ten
    beyond it, and the maximum is returned instead.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def upper_quartile_per_op(m: Measurement) -> list[float]:
    """Each op's upper-quartile time over the rounds of the run.

    Rounds repeat the same ops, so every op is timed once per round: the
    time it meets in three rounds out of four. On a shared machine that
    runs slow most of the time and fast in bursts, this reading moves less
    from run to run than the op's median or its best time.
    """
    size = m.round_ends[0]
    times = [m.op_seconds[i::size] for i in range(size)]
    if m.rounds == 1:
        return [samples[0] for samples in times]
    return [statistics.quantiles(samples, n=4, method="inclusive")[2] for samples in times]


def end_to_end(m: Measurement) -> tuple[dict, dict]:
    tasks = sum(r.tasks for r in m.results)
    succeeded = sum(r.succeeded for r in m.results if r.error is None)
    typical = upper_quartile_per_op(m)
    slow, percentile = tail(m.op_seconds)
    values = {
        "tasks_per_s": succeeded / m.rounds / sum(typical),
        "op_ms_p50": statistics.median(typical) * 1e3,
        "op_ms_tail": slow * 1e3,
        "setup_s": statistics.median(m.setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (len(m.results) - m.failed) / len(m.results),
        "planner_calls_per_task": sum(r.planner_calls for r in m.results) / max(tasks, 1),
        "mobile_steps_per_task": sum(r.mobile_steps for r in m.results) / max(tasks, 1),
    }
    detail = {
        "ops": len(m.op_seconds),
        "rounds": m.rounds,
        "tasks": tasks,
        "measured_s": sum(m.op_seconds),
        "tail_percentile": percentile,
        "tail_beyond": min(10, len(m.op_seconds) - 1),
        "setups": len(m.setup_seconds),
    }
    return values, detail


def per_layer(tracer, ops: int, rounds: int, overhead: float) -> tuple[dict, dict]:
    """Named per-layer metrics from a traced pass, plus the table of every span.

    ``distinct_ratio`` is distinct texts over calls within one round: rounds
    repeat the same inputs, so counting across rounds would only measure how
    many rounds fit.
    """
    rows = tracer.summary(ops, rounds)
    empty = {"calls_per_op": 0.0, "self_ms_per_op": 0.0, "p50_us": 0.0, "setup_self_ms_per_setup": 0.0}
    values = {}
    for name, _, _ in PER_LAYER:
        span, stat = name.rsplit(".", 1)
        row = rows.get(span, empty)
        calls = tracer.label_count(span)
        if name == "trace.overhead_ratio":
            value = overhead
        elif stat == "calls":
            value = row["calls_per_op"]
        elif stat == "self_ms":
            value = row["setup_self_ms_per_setup" if span in SETUP_LAYERS else "self_ms_per_op"]
        elif stat == "p50_us":
            value = tracer.p50_us(span, P50_LABELS.get(span))
        elif stat == "distinct_ratio":
            value = tracer.distinct_labels(span) * rounds / calls if calls else 0.0
        elif stat in RATIO_LABELS:
            value = tracer.label_count(span, RATIO_LABELS[stat]) / calls if calls else 0.0
        else:  # a lookup outcome, counted per op
            value = tracer.label_count(span, lambda label: label == stat) / ops
        values[name] = value
    return values, rows


def blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np

    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        git_sha = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pocketrag").glob("*.py")):
        source.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 thread",
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, out_dir: Path | None = OUT) -> dict:
    """Generate, measure and check one workload; returns the full record."""
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[workload_name](seed, tiny=tiny)
    record: dict = {}
    start = time.perf_counter()
    if not trace:
        m = Measurement()
        while m.rounds == 0 or time.perf_counter() - start < seconds:
            run_round(workload, m)
        record["metrics"], record["detail"] = end_to_end(m)
        passes = [m]
    else:
        # untraced and traced rounds alternate, so both see the same stretches
        # of a machine whose speed drifts
        base, traced, tracer = Measurement(), Measurement(), Tracer()
        while base.rounds == 0 or time.perf_counter() - start < seconds:
            run_round(workload, base)
            tracer.install()
            try:
                run_round(workload, traced, tracer)
            finally:
                tracer.uninstall()
        overhead = sum(traced.op_seconds) / sum(base.op_seconds)
        record["metrics"], record["layers"] = per_layer(
            tracer, len(traced.op_seconds), traced.rounds, overhead
        )
        record["detail"] = {"ops": len(traced.op_seconds), "rounds": traced.rounds}
        if out_dir is not None:
            tracer.write(out_dir / f"{workload_name}-seed{seed}.spans.npz")
        passes = [base, traced]
    record["attempted"] = sum(len(p.results) for p in passes)
    record["failed"] = sum(p.failed for p in passes)
    record["errors"] = [r.error for p in passes for r in p.results if r.error][:10]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["desk-repeat", "store-fallback", "memory-large"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "pocketrag" / "__init__.py").is_file():
        print(f"pocketrag sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    OUT.mkdir(exist_ok=True)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["env"] = env
    units = {name: unit for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)}
    for name, value in record["metrics"].items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    detail = record["detail"]
    if not args.trace:
        print(
            f"op_ms_tail: p{detail['tail_percentile']:.2f} of {detail['ops']} ops, "
            f"{detail['tail_beyond']} samples beyond it; {detail['rounds']} rounds"
        )
    else:
        print("traced layers by self time (ms/op):")
        for span, row in sorted(record["layers"].items(), key=lambda kv: -kv[1]["self_ms_per_op"]):
            print(f"  {span:32s} {row['self_ms_per_op']:10.4f} ms/op {row['calls_per_op']:10.3f} calls/op")
    for error in record["errors"]:
        print(f"failed op: {error}")
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str), encoding="utf-8"
    )
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
