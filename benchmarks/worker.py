"""One fresh benchmark process: a set-up probe or one repetition of commands.

Usage: python3 worker.py PLAN.json RESULT.json SPAWNED_AT

The plan names a mode.  ``setup`` imports the CLI entry point, loads the
scenario document, builds the system and the initial state, and reports
the time since SPAWNED_AT (a ``time.perf_counter`` reading the parent took
just before starting this process; on Linux that clock is CLOCK_MONOTONIC,
which all processes share).  ``commands`` runs each
command through ``sandwichbeam.cli.main`` in this process, times it, then
applies its correctness gate; with ``trace`` set, the commands run under
the span tracer and the result carries the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback


def _dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def _import_cli(root):
    """Import the CLI from the checkout's own source tree, nowhere else."""
    import sandwichbeam.cli

    source = os.path.join(root, "src")
    if not os.path.abspath(sandwichbeam.cli.__file__).startswith(source + os.sep):
        raise RuntimeError(f"sandwichbeam imported from {sandwichbeam.cli.__file__}, not {source}")
    return sandwichbeam.cli


def run_setup(plan, spawned_at):
    _import_cli(plan["root"])
    from sandwichbeam.config import load_config

    cfg = load_config(plan["config"])
    sys_ = cfg.build_system()
    cfg.build_initial(sys_)
    return {"ready_s": time.perf_counter() - spawned_at}


def run_commands(plan):
    cli = _import_cli(plan["root"])
    # benchmark modules load here, not at the top, so set-up probes time only
    # what a user's process loads
    import workloads

    tracer = None
    if plan["trace"]:
        import layers
        from tracer import Tracer

        tracer = Tracer(plan["run_id"], layers.EXTRACTORS)
        tracer.install("sandwichbeam")
    records = []
    for command in plan["commands"]:
        shutil.rmtree(command["outdir"], ignore_errors=True)
        error = None
        t0 = time.perf_counter()
        try:
            code = cli.main(command["argv"])  # looked up here, so the traced one runs
        except Exception as exc:  # LookupBeforeHistory and any other escape count as failures
            code = None
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        seconds = time.perf_counter() - t0
        ok, reason, details = False, error, {}
        if error is None:
            try:
                ok, reason, details = workloads.check(command, code)
            except (OSError, KeyError, ValueError) as exc:
                reason = f"output unreadable: {type(exc).__name__}: {exc}"
        if not ok:
            print(f"FAILED {' '.join(command['argv'])}: {reason}", file=sys.stderr)
        records.append(
            {
                "label": command["label"],
                "key": command["key"],
                "argv": command["argv"],
                "seconds": seconds,
                "exit_code": code,
                "ok": ok,
                "reason": reason,
                "details": details,
                "bytes_written": _dir_bytes(command["outdir"]),
            }
        )
    result = {"commands": records}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layers.layer_metrics(tracer, records)
        tracer.write_spans(plan["spans_path"])
    return result


def main(argv):
    plan_path, result_path, spawned_at = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    if plan["mode"] == "setup":
        result = run_setup(plan, float(spawned_at))
    else:
        result = run_commands(plan)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
