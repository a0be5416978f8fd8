"""Benchmark for sandwichbeam: one workload per run, one client, closed loop.

Usage (from the repository root):

    python3 benchmarks/run.py --workload control --seed 0 --seconds 35 --trace 0

Workloads are ``control``, ``decay`` and ``grid-ladder`` (see README.md).
A run first times ``SETUP_PROBES`` set-up probes, then repeats the
workload's commands for as many whole repetitions as fit in ``--seconds``
(at least one); each probe and each repetition is a fresh Python process
with BLAS pinned to one thread.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced repetition and reports the per-layer metrics.  The
last line of standard output is the result as one JSON object; the full
record (environment, every sample, quartiles) goes to
``.bench_runs/<run>/result.json`` beside the generated scenario documents.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
RUNS_DIR = ROOT / ".bench_runs"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
# every process this run starts must end before this many seconds have passed
RUN_BUDGET_S = 170.0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Runner:
    """Starts worker processes one at a time and keeps every sample."""

    def __init__(self, run_dir, deadline):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0

    def spawn(self, plan):
        """Run one worker to completion; returns (wall seconds, result or None)."""
        self.count += 1
        plan_path = self.run_dir / f"p{self.count:03d}-{plan['mode']}.plan.json"
        result_path = plan_path.with_suffix("").with_suffix(".result.json")
        plan_path.write_text(json.dumps(plan, indent=1))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(plan_path), str(result_path), repr(t0)],
            env=self.env,
            cwd=ROOT,
            stdout=sys.stderr,
        )
        try:
            code = proc.wait(timeout=max(self.deadline - t0, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        wall = time.perf_counter() - t0
        if code != 0:
            print(f"worker {plan_path.name} ended with {code}", file=sys.stderr)
            return wall, None
        return wall, json.loads(result_path.read_text())


def _stats(values):
    values = sorted(values)
    if not values:
        return None
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _repetition(runner, commands, trace, run_id):
    plan = {
        "mode": "commands",
        "root": str(ROOT),
        "commands": commands,
        "trace": trace,
        "run_id": run_id,
        "spans_path": str(runner.run_dir / f"{run_id}.spans.csv.gz"),
    }
    wall, result = runner.spawn(plan)
    if result is None:
        records = [dict(c, seconds=None, ok=False, reason="worker failed") for c in commands]
        result = {"commands": records, "peak_rss_mb": None}
    result["wall_s"] = wall
    result["run_id"] = run_id
    return result


def _read_first(path, default=None):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def environment(env):
    import numpy as np
    import scipy

    cpu_model = None
    for line in (_read_first("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.partition(":")[2].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read_first(index / "level"), _read_first(index / "type")
        caches[f"L{level} {kind}"] = _read_first(index / "size")
    commit = None
    head = _read_first(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        commit = _read_first(ROOT / ".git" / head[5:])
    elif head:
        commit = head
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "git_commit": commit,
    }


def end_to_end(workload, probes, reps, n_ok, n_ops):
    label, mode = workloads.MAIN_COMMAND[workload]
    if mode == "per_invocation":
        main_times = [
            c["seconds"]
            for r in reps
            for c in r["commands"]
            if c["label"] == label and c["seconds"] is not None
        ]
    else:
        main_times = [
            sum(c["seconds"] for c in r["commands"] if c["label"] == label)
            for r in reps
            if all(c["seconds"] is not None for c in r["commands"])
        ]
    return {
        "wall_s": _stats([r["wall_s"] for r in reps]),
        "setup_s": _stats(probes),
        "peak_rss_mb": _stats([r["peak_rss_mb"] for r in reps if r["peak_rss_mb"] is not None]),
        "pass_ratio": dict(_stats([n_ok / n_ops]), n=n_ops),
        "command_s": _stats(main_times),
    }


def per_layer(untraced, traced):
    measured = [r["layers"] for r in traced if "layers" in r]
    names = measured[0].keys() if measured else ()
    stats = {name: _stats([layers[name] for layers in measured]) for name in names}
    ratios = []
    for plain, tr in zip(untraced, traced):
        plain_s = [c["seconds"] for c in plain["commands"]]
        traced_s = [c["seconds"] for c in tr["commands"]]
        if None not in plain_s and None not in traced_s:
            ratios.append(sum(traced_s) / sum(plain_s))
    stats["trace.overhead"] = _stats(ratios)
    return stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    needed = [ROOT / "src" / "sandwichbeam" / "cli.py", ROOT / "configs", ROOT / "BENCHMARK.json"]
    missing = [str(p) for p in needed if not p.exists()]
    if missing:
        print(f"not a sandwichbeam checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    run_dir = RUNS_DIR / name
    run_dir.mkdir(parents=True)
    docs = workloads.scenarios(
        args.workload, str(ROOT), args.seed, str(run_dir / "scenarios"), str(run_dir / "out")
    )
    commands = workloads.commands(args.workload, docs, args.seed)
    runner = Runner(run_dir, started + RUN_BUDGET_S)

    probes, n_ops, n_ok = [], 0, 0
    if not args.trace:
        setup_doc = workloads.setup_document(args.workload, docs)
        for _ in range(SETUP_PROBES):
            _, result = runner.spawn({"mode": "setup", "root": str(ROOT), "config": setup_doc})
            n_ops += 1
            if result is not None:
                n_ok += 1
                probes.append(result["ready_s"])

    untraced, traced, checks = [], [], []
    measure_start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        untraced.append(_repetition(runner, commands, False, f"{name}-r{len(untraced)}"))
        if args.trace:
            tr = _repetition(runner, commands, True, f"{name}-t{len(traced)}")
            traced.append(tr)
            # the traced count of CG iterations must match what hum.json reports
            hum_json = sum(c.get("details", {}).get("iterations", 0) for c in tr["commands"])
            checks.append("layers" in tr and tr["layers"]["hum.cg_iterations"] == hum_json)
        # stop when another repetition as long as the last would overrun
        now = time.perf_counter()
        next_end = 2 * now - rep_start
        if next_end - measure_start > args.seconds or next_end > runner.deadline:
            break

    for rep in untraced + traced:
        n_ops += len(rep["commands"])
        n_ok += sum(c["ok"] for c in rep["commands"])
    if args.trace:
        stats = per_layer(untraced, traced)
    else:
        stats = end_to_end(args.workload, probes, untraced, n_ok, n_ops)
    metrics = {}
    for m in declared:
        s = stats.get(m["name"])
        if s is None:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": s["median"], "unit": m["unit"]}
    if set(stats) != set(metrics):
        undeclared = sorted(set(stats) - set(metrics))
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    correct = n_ok == n_ops and all(checks)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(runner.env),
        "scenarios": docs,
        "correct": correct,
        "attempted": n_ops,
        "failed": n_ops - n_ok,
        "stats": stats,
        "command_stats": {
            key: _stats(
                [
                    c["seconds"]
                    for r in untraced
                    for c in r["commands"]
                    if c["key"] == key and c["seconds"] is not None
                ]
            )
            for key in dict.fromkeys(c["key"] for c in commands)
        },
        "setup_probes": probes,
        "repetitions": untraced,
        "traced_repetitions": traced,
        "cg_iteration_checks": checks,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1, default=str))
    for key, s in {**stats, **record["command_stats"]}.items():
        if s:
            print(
                f"{key:32s} median {s['median']:.6g} "
                f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}",
                file=sys.stderr,
            )
    print(f"record: {run_dir / 'result.json'}", file=sys.stderr)
    result = {"correct": correct, "attempted": n_ops, "failed": n_ops - n_ok, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
