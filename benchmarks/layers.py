"""Per-layer metrics of one traced repetition, computed from its spans.

A layer is a module of the package; a span's layer is the part of its name
before the dot.  Layer times are sums of self time, so a layer's number
never includes the layers it calls.  scipy calls are their own spans
(``timestep.cho_solve``) and are reported apart from their caller's self
time.  ``trace.overhead`` needs an untraced repetition and is added by
``run.py``.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracer import summarize
from workloads import GRID_LADDER


def _system_arg(args, kwargs):
    return kwargs["sys_"] if "sys_" in kwargs else args[1]


# span name -> (args, kwargs, result) -> attrs kept on the span
EXTRACTORS = {
    "timestep.simulate": lambda a, kw, r: {
        "steps": r.n_steps,
        "N": _system_arg(a, kw).grid.N,
    },
    "discretize.build_system": lambda a, kw, r: {"k_bytes": r.K.nbytes, "N": r.grid.N},
    "hum.compute_null_control": lambda a, kw, r: {
        "iterations": r.iterations,
        "terminal_rel_norm": r.terminal_rel_norm,
    },
}


def _has_ancestor(spans, i, name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer, records):
    """{metric name: value} for every per-layer metric but trace.overhead."""
    spans = tracer.spans
    durations, self_times = summarize(spans)
    calls = Counter()
    inclusive = defaultdict(float)
    layer_self = defaultdict(float)
    presets_outer = 0.0
    for i, (name, _, _, parent, _) in enumerate(spans):
        calls[name] += 1
        inclusive[name] += durations[i]
        layer = name.partition(".")[0]
        if name not in tracer.external:
            layer_self[layer] += self_times[i]
        if layer == "presets" and (parent < 0 or not spans[parent][0].startswith("presets.")):
            presets_outer += durations[i]

    steps = 0
    sims_under_hum = 0
    per_n = defaultdict(lambda: [0.0, 0])
    k_bytes = 0
    cg_iterations = 0
    terminal_rel_norm = 0.0
    for i, (name, _, _, _, attrs) in enumerate(spans):
        if attrs is None:
            continue
        if name == "timestep.simulate":
            steps += attrs["steps"]
            per_n[attrs["N"]][0] += durations[i]
            per_n[attrs["N"]][1] += attrs["steps"]
            sims_under_hum += _has_ancestor(spans, i, "hum.compute_null_control")
        elif name == "discretize.build_system":
            k_bytes = max(k_bytes, attrs["k_bytes"])
        elif name == "hum.compute_null_control":
            cg_iterations += attrs["iterations"]
            terminal_rel_norm = max(terminal_rel_norm, attrs["terminal_rel_norm"])

    def step_us(seconds, n_steps):
        return 1e6 * seconds / n_steps if n_steps else 0.0

    factor_calls = calls["timestep.cho_factor"]
    solve_calls = calls["timestep.cho_solve"]
    metrics = {
        "timestep.simulate_calls": calls["timestep.simulate"],
        "timestep.steps": steps,
        "timestep.self_s": layer_self["timestep"],
        "timestep.step_us": step_us(inclusive["timestep.simulate"], steps),
        "timestep.factor_calls": factor_calls,
        "timestep.factor_s": inclusive["timestep.cho_factor"],
        "timestep.solve_calls": solve_calls,
        "timestep.solve_s": inclusive["timestep.cho_solve"],
        "timestep.solves_per_factor": solve_calls / factor_calls if factor_calls else 0.0,
        "discretize.build_s": inclusive["discretize.build_system"],
        "discretize.k_bytes": k_bytes,
        "delayline.eval_calls": calls["delayline.eval_delayed"],
        "delayline.profile_calls": calls["delayline.z_profile"],
        "delayline.push_calls": calls["delayline.push"],
        "delayline.s": layer_self["delayline"],
        "hum.cg_iterations": cg_iterations,
        "hum.adjoint_calls": calls["hum.solve_adjoint"],
        "hum.sims_per_iteration": sims_under_hum / cg_iterations if cg_iterations else 0.0,
        "hum.self_s": layer_self["hum"],
        "hum.terminal_rel_norm": terminal_rel_norm,
        "decay.s": layer_self["decay"],
        "hypotheses.s": layer_self["hypotheses"],
        "config.load_s": inclusive["config.load_config"],
        "presets.initial_s": presets_outer,
        "cli.self_s": layer_self["cli"],
        "cli.bytes_written": sum(r["bytes_written"] for r in records),
    }
    for n in GRID_LADDER:
        metrics[f"timestep.step_us.n{n}"] = step_us(*per_n.get(n, (0.0, 0)))
    return metrics
