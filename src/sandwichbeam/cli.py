"""Command-line front end.

Commands: validate | simulate | decay-report | hum | observability |
convergence.  Exit codes: 0 ok, 1 hypothesis or criterion failure,
2 configuration error, 3 solver failure or a null control that misses
its terminal tolerance.  All
numeric output uses shortest round-trip decimals, so identical configs
and seeds produce byte-identical files within one numpy/BLAS build and
BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, load_config
from .decay import (
    check_dissipation_identity,
    check_theoretical_bound,
    check_trace_estimates,
    lyapunov_trace,
)
from .discretize import VARIANT_CONTROLLED, VARIANT_STABILIZED, Grid1D, build_system
from .hypotheses import InfeasibleRates, decay_bound, scenario_report, select_mus
from .hum import compute_null_control, observability
from .lapack import BLAS_CONFIG
from .presets import make_histories
from .timestep import IntegrationError, SchemeConfig, delayed_step_error, simulate

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _fmt(x):
    return repr(float(x))


def _write_csv(path, header, columns):
    # each column becomes Python floats once, written as _fmt writes them
    columns = [np.asarray(col, dtype=float).tolist() for col in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(map(repr, row)) + "\n")
    return path


def _write_json(path, payload):
    # strict JSON: a value a command may leave undefined is None (null), and
    # a NaN or infinity anywhere else raises ValueError
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def _manifest(cfg, extra):
    payload = {
        "config_hash": cfg.config_hash,
        "versions": {
            "sandwichbeam": __version__,
            "numpy": np.__version__,
            "blas": BLAS_CONFIG,
        },
    }
    payload.update(extra)
    return payload


def _say(args, msg):
    if not args.quiet:
        print(msg)


def cmd_validate(cfg, args):
    rows = scenario_report(cfg.params, cfg.gains, cfg.delays, cfg.damping)
    failing = [row["condition_id"] for row in rows if not row["pass"]]
    # a delay slope bound d_i >= 1 is a failed row of the report, but the
    # step rule is no hypothesis: with every slope bound below 1, a step the
    # delayed feedback cannot take is refused before anything is written,
    # as the commands that run refuse it
    if not any(c.startswith("delay_slope_") for c in failing):
        _check_delayed_step(cfg, cfg.scheme.step)
    payload = {"conditions": rows, "all_pass": not failing}
    os.makedirs(cfg.outdir, exist_ok=True)
    path = _write_json(os.path.join(cfg.outdir, "hypotheses.json"), _manifest(cfg, payload))
    _say(args, f"wrote {path}; all_pass={payload['all_pass']}")
    return EXIT_OK if payload["all_pass"] else EXIT_HYPOTHESIS


def _check_delayed_step(cfg, step):
    """Refuse, before anything is written, a step the delayed feedback cannot take."""
    if cfg.variant == VARIANT_STABILIZED and cfg.gains.any_delayed:
        if reason := delayed_step_error(step, cfg.delays):
            raise ConfigError(reason)


def _run_simulation(cfg, sys_, scheme, state):
    """The run of the scenario on ``sys_`` under ``scheme``, from ``state``."""
    if cfg.variant == VARIANT_STABILIZED:
        histories = make_histories(sys_, state, cfg.delays) if cfg.gains.any_delayed else None
        return simulate(
            state,
            sys_,
            scheme,
            gains=cfg.gains,
            delays=cfg.delays,
            damping=cfg.damping,
            histories=histories,
        )
    return simulate(state, sys_, scheme)


def _endpoint_scheme(dt, T):
    """A scheme that samples only the initial and the final state."""
    return SchemeConfig(dt=dt, T=T, stride=max(int(round(T / dt)), 1))


def _monotone_energy(out):
    """No per-step energy increase beyond roundoff of the initial energy."""
    return bool(out.max_energy_increase() <= 1e-10 * max(out.energy[0], 1e-300))


def _order_rows(errors, steps):
    """(observed order, non-monotone flag) for each level of an error ladder
    with mesh sizes ``steps``: log(e_i / e_i+1) / log(h_i / h_i+1); the
    finest level has no successor, so its order is nan."""
    pairs = zip(errors, errors[1:], steps, steps[1:])
    rows = [(np.log2(a / b) / np.log2(ha / hb), int(not a > b)) for a, b, ha, hb in pairs]
    return rows + [(float("nan"), 0)]


def _trajectory_columns(out):
    header = ["t", "E", "E_field", "trace1", "trace2", "trace3"]
    cols = [
        out.times,
        out.energy,
        out.field_energy,
        out.trace_velocities[:, 0],
        out.trace_velocities[:, 1],
        out.trace_velocities[:, 2],
    ]
    if out.delayed_traces is not None:
        header += ["z1", "z2", "z3"]
        cols += [out.delayed_traces[:, i] for i in range(3)]
    if out.displacement_traces is not None:
        header += ["u_L", "v_L", "w_L"]
        cols += [out.displacement_traces[:, i] for i in range(3)]
    return header, cols


def cmd_simulate(cfg, args):
    # a step or a mode the run cannot take is refused before anything is written
    _check_delayed_step(cfg, cfg.scheme.step)
    sys_ = cfg.build_system()
    state = cfg.build_initial(sys_)
    os.makedirs(cfg.outdir, exist_ok=True)
    try:
        out = _run_simulation(cfg, sys_, cfg.scheme, state)
        # the columns include the delay-line series, checked when computed
        header, cols = _trajectory_columns(out)
    except IntegrationError as exc:
        _write_json(
            os.path.join(cfg.outdir, "manifest.json"),
            _manifest(cfg, {"status": "failed", "error": str(exc), "partial": True}),
        )
        _say(args, f"integration failed: {exc}")
        return EXIT_SOLVER
    csv_path = _write_csv(os.path.join(cfg.outdir, "trajectory.csv"), header, cols)
    invariants = {
        "relative_drift": out.relative_drift(),
        "max_energy_increase": out.max_energy_increase(),
        "monotone_energy": _monotone_energy(out),
        "finite": all(bool(np.all(np.isfinite(col))) for col in cols),
    }
    man_path = _write_json(
        os.path.join(cfg.outdir, "manifest.json"),
        _manifest(cfg, {"status": "ok", "invariants": invariants, "n_steps": out.n_steps}),
    )
    _say(args, f"wrote {csv_path} and {man_path}")
    return EXIT_OK


def cmd_decay_report(cfg, args):
    if cfg.variant != VARIANT_STABILIZED:
        raise ConfigError("decay-report needs variant = stabilized_delayed")
    # the rate search reads every channel's delay and damping law
    for section, laws in (("delays", cfg.delays), ("damping", cfg.damping)):
        if laws is None:
            raise ConfigError(f"decay-report needs a [{section}] section")
    window = (cfg.fit_window[0] * cfg.scheme.T, cfg.fit_window[1] * cfg.scheme.T)
    times = cfg.scheme.times
    if np.count_nonzero((times >= window[0]) & (times <= window[1])) < 2:
        raise ConfigError(f"the [fit] window {window} holds fewer than two step times")
    _check_delayed_step(cfg, cfg.scheme.step)
    # a mode the grid does not hold, or initial data of zero energy, is
    # refused before anything is written or searched; the initial histories
    # extend the initial trace velocities, so E(0) > 0 exactly when the
    # field energy is
    sys_ = cfg.build_system()
    state = cfg.build_initial(sys_)
    if not sys_.field_energy(state.q, state.p) > 0.0:
        raise ConfigError("decay-report needs initial data of positive energy")
    os.makedirs(cfg.outdir, exist_ok=True)
    try:
        rates = select_mus(cfg.params, cfg.delays, cfg.damping, cfg.gains)
    except InfeasibleRates as exc:
        _say(args, f"rate search infeasible: {exc}")
        return EXIT_HYPOTHESIS
    try:
        out = _run_simulation(cfg, sys_, cfg.scheme, state)
        # the first read of the delay-line series, checked when computed
        resid = check_dissipation_identity(out, cfg.params, cfg.gains)
    except IntegrationError as exc:
        _say(args, f"integration failed: {exc}")
        return EXIT_SOLVER
    report = check_theoretical_bound(out, rates, window=window, dissipation_residual=resid)
    lyap = lyapunov_trace(out, sys_, rates, cfg.gains)
    e_samples = out.energy[out.samples]
    cushion = 1e-9 * np.maximum(e_samples, 1e-300)
    equivalence_ok = bool(
        np.all(lyap >= (1.0 - rates["mu4"]) * e_samples - cushion)
        and np.all(lyap <= (1.0 + rates["mu4"]) * e_samples + cushion)
    )
    traces = check_trace_estimates(out, sys_, cfg.gains, cfg.damping)
    t_samples = out.times[out.samples]
    bound = decay_bound(t_samples, out.energy[0], rates)
    resid_at_samples = np.concatenate([[0.0], resid])[out.samples]
    csv_path = _write_csv(
        os.path.join(cfg.outdir, "decay_series.csv"),
        ["t", "E", "L", "bound", "residual"],
        [t_samples, e_samples, lyap, bound, resid_at_samples],
    )
    payload = {
        "rates": rates,
        "decay_report": report,
        "lyapunov_equivalence": equivalence_ok,
        "monotone_energy": _monotone_energy(out),
        "trace_estimates": traces,
    }
    man_path = _write_json(os.path.join(cfg.outdir, "decay_report.json"), _manifest(cfg, payload))
    _say(args, f"wrote {csv_path} and {man_path}")
    passed = (
        payload["monotone_energy"]
        and equivalence_ok
        and report["violations"] == 0
        and report["fitted_rate"] >= 0.95 * rates["rate"]
        and traces["trace_bound"]["holds"]
        and traces["initial_bound"]["holds"]
    )
    return EXIT_OK if passed else EXIT_HYPOTHESIS


def cmd_hum(cfg, args):
    if cfg.variant != VARIANT_CONTROLLED:
        raise ConfigError("hum needs variant = controlled_conservative")
    sys_ = cfg.build_system()
    state = cfg.build_initial(sys_)
    os.makedirs(cfg.outdir, exist_ok=True)
    T = cfg.hum["T"]
    dt = cfg.hum["dt"] or T / (16 * cfg.n)
    run_cfg = _endpoint_scheme(dt, T)
    try:
        sol = compute_null_control(state, sys_, run_cfg, tol=cfg.hum["cg_tol"])
    except IntegrationError as exc:
        _say(args, f"control synthesis failed: {exc}")
        return EXIT_SOLVER
    csv_path = _write_csv(
        os.path.join(cfg.outdir, "controls.csv"),
        ["t", "f1", "f2", "f3"],
        [run_cfg.times, sol.controls[:, 0], sol.controls[:, 1], sol.controls[:, 2]],
    )
    # the final relative residual squared is the share of the initial
    # (completed) energy left in the dropped eigen-directions
    final_residual = sol.residuals[-1] / sol.residuals[0] if sol.residuals[0] > 0.0 else 0.0
    payload = {
        "rank": sol.iterations,
        # the retained rank under its earlier name, which readers still use
        "iterations": sol.iterations,
        "converged": sol.converged,
        "final_residual": final_residual,
        "residuals": [float(v) for v in sol.residuals],
        "terminal_rel_norm": sol.terminal_rel_norm,
        "control_cost": sol.control_cost,
        "rayleigh": {"min": sol.min_rayleigh, "max": sol.max_rayleigh},
        "T": T,
        # the step taken, which differs from the requested dt when it does
        # not divide T
        "dt": sol.dt,
    }
    man_path = _write_json(os.path.join(cfg.outdir, "hum.json"), _manifest(cfg, payload))
    _say(
        args,
        f"wrote {csv_path} and {man_path}; terminal_rel={sol.terminal_rel_norm:.3e} "
        f"with rank {sol.iterations} of {2 * sys_.ndof}, converged={sol.converged}, "
        f"final residual {final_residual:.3e}",
    )
    return EXIT_OK if sol.terminal_rel_norm <= cfg.hum["terminal_tol"] else EXIT_SOLVER


def cmd_observability(cfg, args):
    if cfg.variant != VARIANT_CONTROLLED:
        raise ConfigError("observability needs variant = controlled_conservative")
    sys_ = cfg.build_system()
    cutoff = cfg.observability["cutoff"]
    if not cutoff <= sys_.ndof:
        raise ConfigError(f"[observability] cutoff must be at most {sys_.ndof}, got {cutoff}")
    os.makedirs(cfg.outdir, exist_ok=True)
    T = cfg.observability["T"]
    scheme = _endpoint_scheme(cfg.observability["dt"] or T / (16 * cfg.n), T)
    qmin, unfiltered, qmax = observability(sys_, scheme, cutoff=cutoff)
    payload = {
        "min_rayleigh": qmin,
        "unfiltered_min": unfiltered,
        "max_rayleigh": qmax,
        "cutoff": cutoff,
        "T": T,
        "dt": scheme.step,
        "observable": qmin > 0.0,
    }
    path = _write_json(os.path.join(cfg.outdir, "observability.json"), _manifest(cfg, payload))
    _say(
        args,
        f"wrote {path}; min={qmin:.4g} on the lowest {cutoff} modes, "
        f"unfiltered min={unfiltered:.3g}, max={qmax:.4g}",
    )
    return EXIT_OK


def _error_to_reference(state, sys_, ref, ref_sys):
    """Mass-weighted L2 norm (no derivative weights: order estimates should
    not be polluted by marginally resolved modes) of ``state`` minus the
    reference ``ref`` restricted to the nested grid of ``sys_``: each node
    takes the values of the reference node at the same place."""
    ratio = ref_sys.grid.N // sys_.grid.N
    at = ref_sys.nodal[::ratio][sys_.nodal >= 0]
    dq, dp = state.q - ref.q[at], state.p - ref.p[at]
    return float(np.sqrt(sys_.field_weights.sum(axis=0) @ (dq ** 2 + dp ** 2)))


def cmd_convergence(cfg, args):
    conv = cfg.convergence
    # a run that takes no step ends where it starts, on every level alike
    if not conv["T"] > 0.0:
        raise ConfigError("convergence needs [convergence] t > 0")

    def run_at(n, dt):
        sys_ = build_system(Grid1D(N=n, L=cfg.params.L), cfg.params, cfg.variant)
        out = _run_simulation(cfg, sys_, _endpoint_scheme(dt, conv["T"]), cfg.build_initial(sys_))
        return sys_, out.final_state()

    # each study is (name, levels as (cells, step), reference level, mesh
    # sizes), and every ladder is checked before anything runs
    studies = []
    if conv["mode"] in ("spatial", "both"):
        ladder = sorted(conv["resolutions"])
        if len(ladder) < 3:
            raise ConfigError("spatial convergence needs at least 3 resolutions")
        # reference four refinements past the finest measured level keeps the
        # finite-reference bias of the order estimates below 0.1
        ref_n = 4 * ladder[-1]
        # the restriction to a level reads every (ref_n / n)-th reference node
        if len(set(ladder)) < len(ladder) or any(ref_n % n for n in ladder):
            raise ConfigError(
                f"spatial resolutions must be distinct and divide {ref_n} "
                f"(4 x the finest), got {ladder}"
            )
        hs = [cfg.params.L / n for n in ladder]
        studies.append(("spatial", [(n, conv["dt"]) for n in ladder], (ref_n, conv["dt"]), hs))
    if conv["mode"] in ("temporal", "both"):
        dts = sorted(conv["dts"], reverse=True)
        if len(dts) < 2:
            raise ConfigError("temporal convergence needs at least 2 steps")
        # the steps taken, which differ from the requested ones when they do
        # not divide T
        steps = [_endpoint_scheme(dt, conv["T"]).step for dt in dts]
        if any(not a > b for a, b in zip(steps, steps[1:])):
            raise ConfigError(f"temporal convergence needs distinct steps, got {steps}")
        # a temporal level is its own reference grid: restriction at ratio 1
        ref = (conv["n"], dts[-1] / conv["reference_divide"])
        ref_step = _endpoint_scheme(ref[1], conv["T"]).step
        if not ref_step < steps[-1]:
            raise ConfigError(
                f"the temporal reference step {ref_step} must be smaller than the finest step {steps[-1]}"
            )
        studies.append(("temporal", [(conv["n"], dt) for dt in dts], ref, steps))
    every_level = [level for _, levels, _, _ in studies for level in levels]
    # every level starts from the preset, and the coarsest has the fewest
    # modes: its initial data are built, or refused, before anything runs;
    # data of zero energy would leave every error zero
    coarsest = min(n for n, _ in every_level)
    sys_ = build_system(Grid1D(N=coarsest, L=cfg.params.L), cfg.params, cfg.variant)
    state = cfg.build_initial(sys_)
    if not sys_.field_energy(state.q, state.p) > 0.0:
        raise ConfigError("convergence needs initial data of positive energy")
    _check_delayed_step(cfg, max(_endpoint_scheme(dt, conv["T"]).step for _, dt in every_level))
    os.makedirs(cfg.outdir, exist_ok=True)

    rows = []
    for study, levels, ref, hs in studies:
        ref_sys, ref_state = run_at(*ref)
        errors = []
        for n, dt in levels:
            sys_n, final = run_at(n, dt)
            errors.append(_error_to_reference(final, sys_n, ref_state, ref_sys))
        for (n, _), h, err, (order, flag) in zip(levels, hs, errors, _order_rows(errors, hs)):
            rows.append((study, n, h, err, order, flag))

    path = os.path.join(cfg.outdir, "convergence.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("study,resolution,step,error,observed_order,non_monotone\n")
        for study, n, h, err, order, flag in rows:
            fh.write(f"{study},{n},{_fmt(h)},{_fmt(err)},{_fmt(order)},{flag}\n")
    _say(args, f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "decay-report": cmd_decay_report,
    "hum": cmd_hum,
    "observability": cmd_observability,
    "convergence": cmd_convergence,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sandwichbeam",
        description="Sandwich-beam laboratory: delayed boundary damping and boundary null control.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the scenario document")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="initial-data seed override")
    parser.add_argument("--stride", type=int, default=None, help="state decimation override")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(
            args.config,
            overrides={"seed": args.seed, "stride": args.stride, "outdir": args.out},
        )
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
