"""The benchmark's workloads: generated scenario documents, command plans and
the correctness gate of each command.

Scenario documents are the shipped ``configs/*.ini`` with the edits listed
in ``scenarios``; the workload seed is written into ``[initial] seed`` and
``[observability] seed``, and every document points its output into the
run's own directory, never into the tracked ``out/``.  Why each workload
exists is recorded in ``benchmarks/README.md``.
"""

from __future__ import annotations

import json
import math
import os
import re

WORKLOADS = ("control", "decay", "grid-ladder")

GRID_LADDER = (128, 512, 1024)
GRID_LADDER_STEPS = 100
# every repetition sweeps the same consecutive seeds, so repetitions repeat
# identical work, as they do in the other workloads
DECAY_SEEDS = 8

# Which command's time is the workload's `command_s`, and whether it is
# taken per invocation (decay: per seed) or summed over a repetition
# (grid-ladder: the whole ladder of simulate runs).
MAIN_COMMAND = {
    "control": ("hum", "per_invocation"),
    "decay": ("decay-report", "per_invocation"),
    "grid-ladder": ("simulate", "per_repetition"),
}

HUM_TERMINAL_TOL = 1e-3
HUM_MAXIT = 200
SIMULATE_MAX_DRIFT = 1e-6


def edit_ini(text, section, key, value):
    """Set ``key = value`` in ``[section]``, adding the key or the section if
    absent; comments and the other lines are kept."""
    lines = text.splitlines()
    header = re.compile(r"\s*\[([^\]]+)\]")
    start = end = None
    for i, line in enumerate(lines):
        m = header.match(line)
        if m and start is None and m.group(1) == section:
            start = i
        elif m and start is not None and end is None:
            end = i
    if start is None:
        return text.rstrip("\n") + f"\n\n[{section}]\n{key} = {value}\n"
    end = len(lines) if end is None else end
    for i in range(start + 1, end):
        if re.match(rf"\s*{re.escape(key)}\s*=", lines[i]):
            lines[i] = f"{key} = {value}"
            return "\n".join(lines) + "\n"
    lines.insert(start + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _document(root, shipped, edits, seed, outdir):
    with open(os.path.join(root, "configs", shipped)) as fh:
        text = fh.read()
    for section, key, value in edits:
        text = edit_ini(text, section, key, value)
    text = edit_ini(text, "initial", "seed", seed)
    text = edit_ini(text, "observability", "seed", seed)
    return edit_ini(text, "output", "dir", outdir)


def scenarios(workload, root, seed, scen_dir, out_dir):
    """Write the workload's scenario documents; returns {label: {path, outdir}}."""
    if workload == "control":
        specs = {"control": ("control.ini", [("hum", "cg_tol", "5e-4")])}
    elif workload == "decay":
        law = "exp_floor floor=0.5 initial=1.5 rate=2"
        specs = {"decay": ("decay.ini", [("damping", "a1", law)])}
    elif workload == "grid-ladder":
        dt = 0.001
        specs = {
            f"n{n}": (
                "control.ini",
                [
                    ("grid", "n", n),
                    ("scheme", "dt", dt),
                    ("scheme", "t", GRID_LADDER_STEPS * dt),
                    ("scheme", "stride", GRID_LADDER_STEPS),
                ],
            )
            for n in GRID_LADDER
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(scen_dir, exist_ok=True)
    docs = {}
    for label, (shipped, edits) in specs.items():
        path = os.path.join(scen_dir, f"{workload}-{label}.ini")
        outdir = os.path.join(out_dir, label)
        with open(path, "w") as fh:
            fh.write(_document(root, shipped, edits, seed, outdir))
        docs[label] = {"path": path, "outdir": outdir}
    return docs


def setup_document(workload, docs):
    """The document whose set-up `setup_s` times: the largest grid for the ladder."""
    label = f"n{GRID_LADDER[-1]}" if workload == "grid-ladder" else workload
    return docs[label]["path"]


def commands(workload, docs, seed):
    """Commands of one repetition, each ``{label, key, argv, outdir}``; the key
    names the command's timing series in the result file."""

    def cmd(label, doc, *extra, key=None):
        argv = [label, "--config", docs[doc]["path"], "--quiet", *extra]
        return {"label": label, "key": key or label, "argv": argv, "outdir": docs[doc]["outdir"]}

    if workload == "control":
        plan = [cmd("hum", "control"), cmd("observability", "control")]
    elif workload == "decay":
        plan = [cmd("validate", "decay")]
        plan += [
            cmd("decay-report", "decay", "--seed", str(s))
            for s in range(seed, seed + DECAY_SEEDS)
        ]
    else:
        plan = [cmd("simulate", f"n{n}", key=f"simulate.n{n}") for n in GRID_LADDER]
    return plan


def _read(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def check(command, exit_code):
    """Correctness gate of one finished command: (ok, reason, details)."""
    label, outdir = command["label"], command["outdir"]
    if exit_code != 0:
        return False, f"exit code {exit_code}", {}
    if label == "hum":
        d = _read(outdir, "hum.json")
        rel, iterations = d["terminal_rel_norm"], d["iterations"]
        details = {"iterations": iterations, "terminal_rel_norm": rel}
        if not rel <= HUM_TERMINAL_TOL:
            return False, f"terminal_rel_norm {rel!r} > {HUM_TERMINAL_TOL}", details
        if not iterations <= HUM_MAXIT:
            return False, f"iterations {iterations} > {HUM_MAXIT}", details
        return True, "", details
    if label == "observability":
        d = _read(outdir, "observability.json")
        lo, hi = d["min_rayleigh"], d["max_rayleigh"]
        details = {"min_rayleigh": lo, "max_rayleigh": hi}
        if not (math.isfinite(hi) and lo > 0.0):
            return False, f"rayleigh range [{lo!r}, {hi!r}] not finite and positive", details
        return True, "", details
    if label == "validate":
        if not _read(outdir, "hypotheses.json")["all_pass"]:
            return False, "hypotheses all_pass is false", {}
        return True, "", {}
    if label == "simulate":
        drift = _read(outdir, "manifest.json")["invariants"]["relative_drift"]
        details = {"relative_drift": drift}
        if not drift <= SIMULATE_MAX_DRIFT:
            return False, f"relative_drift {drift!r} > {SIMULATE_MAX_DRIFT}", details
        return True, "", details
    # decay-report's own exit code covers monotone energy, Lyapunov
    # equivalence, bound violations, the fitted rate and the trace bounds
    return True, "", {}
