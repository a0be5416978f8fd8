import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sandwichbeam.cli import main
from sandwichbeam.config import ConfigError, load_config
from sandwichbeam.hypotheses import select_mus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STABILIZED_DOC = """
[model]
variant = stabilized_delayed
l = 1.0
rho1h1 = 1.0
e1h1 = 1.0
rho3h3 = 1.0
e3h3 = 1.0
rhoh = 1.0
ei = 1.0
k = 1.0
alpha = 1.0

[gains]
alpha1 = 1.0
beta1 = 0.2
alpha2 = 1.0
beta2 = -0.15
alpha3 = 1.0
beta3 = 0.1

[delays]
tau1 = sinusoidal base=0.1 amplitude=0.05 frequency=10.0
tau2 = sinusoidal base=0.1 amplitude=0.05 frequency=10.0
tau3 = sinusoidal base=0.1 amplitude=0.05 frequency=10.0

[damping]
a1 = constant 1.0
a2 = constant 1.0
a3 = constant 1.0

[grid]
n = 24

[scheme]
dt = 0.02
t = 2.0
stride = 5

[initial]
preset = random_smooth
seed = 7
cutoff = 5
prepared = true

[output]
dir = {out}
"""

CONTROLLED_DOC = """
[model]
variant = controlled_conservative
l = 1.0
rho1h1 = 1.0
e1h1 = 1.0
rho3h3 = 1.0
e3h3 = 1.0
rhoh = 1.0
ei = 1.0
k = 1.0
alpha = 1.0

[grid]
n = 16

[scheme]
dt = 0.005
t = 1.0
stride = 10

[initial]
preset = single_mode
field = u
mode = 1

[hum]
t = 4.0
dt = 0.0125
cg_tol = 1e-8
terminal_tol = 0.05

[observability]
t = 2.0
seed = 1

[convergence]
mode = temporal
dts = 0.02,0.01
reference_divide = 8
t = 0.5
n = 16

[output]
dir = {out}
"""


def write_doc(tmp_path, doc, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(doc.format(out=str(tmp_path / "out")))
    return str(path)


def test_load_config_roundtrip(tmp_path):
    path = write_doc(tmp_path, STABILIZED_DOC)
    cfg = load_config(path)
    assert cfg.variant == "stabilized_delayed"
    assert cfg.gains.beta2 == -0.15
    assert cfg.delays[0].slope_bound == pytest.approx(0.5)
    assert cfg.n == 24
    assert cfg.scheme.dt == 0.02
    with open(path) as fh:
        assert cfg.config_hash == hashlib.sha256(fh.read().encode()).hexdigest()


def test_unknown_key_is_config_error(tmp_path):
    doc = STABILIZED_DOC.replace("[grid]\nn = 24", "[grid]\nn = 24\nnn = 3")
    path = write_doc(tmp_path, doc)
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["validate", "--config", path, "--quiet"]) == 2


@pytest.mark.parametrize(
    "old, new",
    [
        ("[hum]\nt = 4.0", "[hum]\nt = 0"),
        ("[hum]\nt = 4.0", "[hum]\nt = -1.0"),
        ("dt = 0.0125", "dt = -0.1"),
        ("[observability]\nt = 2.0", "[observability]\nt = 0"),
        ("[observability]\nt = 2.0", "[observability]\nt = 2.0\ndt = -0.1"),
    ],
)
def test_nonpositive_hum_and_observability_horizon_is_config_error(tmp_path, old, new):
    assert CONTROLLED_DOC.count(old) == 1
    path = write_doc(tmp_path, CONTROLLED_DOC.replace(old, new))
    with pytest.raises(ConfigError):
        load_config(path)
    for command in ("hum", "observability"):
        assert main([command, "--config", path, "--quiet"]) == 2


def test_cli_import_leaves_sparse_and_io_unloaded(tmp_path):
    # the package binds its BLAS and LAPACK routines from the OpenBLAS numpy
    # has loaded, so neither importing the CLI nor running the commands that
    # step the beam or solve its dense eigenproblems loads any scipy module,
    # numpy.f2py, numpy.polynomial, numpy.ma (which np.unique imports, 12 ms
    # and about 1 MB) or a second OpenBLAS; simulate and hum
    # hash their document without loading OpenSSL (through hashlib); and
    # decay-report runs with numpy.linalg's dense solvers made to raise
    def runs(*pairs):
        return [(command, os.path.join(ROOT, "configs", name)) for command, name in pairs]

    code = (
        "import sys, numpy, sandwichbeam.cli\n"
        "def run(runs):\n"
        "    for command, config in runs:\n"
        f"        assert sandwichbeam.cli.main([command, '--config', config, '--out', {str(tmp_path)!r}, '--quiet']) == 0\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('numpy.linalg called')\n"
        f"run({runs(('simulate', 'control.ini'), ('hum', 'control.ini'))!r})\n"
        "print('_hashlib' in sys.modules)\n"
        f"run({runs(('observability', 'control.ini'))!r})\n"
        "for name in ('lstsq', 'eigh', 'solve', 'cholesky'):\n"
        "    setattr(numpy.linalg, name, refuse)\n"
        f"run({runs(('decay-report', 'decay.ini'))!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in ('numpy.f2py', 'numpy.polynomial', 'numpy.ma')))\n"
        "with open('/proc/self/maps') as fh:\n"
        "    paths = {line.split()[-1] for line in fh if len(line.split()) > 5}\n"
        "print(sorted(p for p in paths if 'openblas' in p.rpartition('/')[2]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    hashlib_after_hum, modules, libraries = result.stdout.strip().splitlines()
    assert (hashlib_after_hum, modules) == ("False", "[]")
    assert len(ast.literal_eval(libraries)) == 1, libraries
    for name in ("manifest.json", "hum.json", "observability.json", "decay_report.json"):
        assert (tmp_path / name).exists()


def test_unknown_section_is_config_error(tmp_path):
    path = write_doc(tmp_path, STABILIZED_DOC + "\n[extra]\nfoo = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_layer_input_and_consistency(tmp_path):
    doc = """
[model]
variant = controlled_conservative
l = 2.0
rho1 = 2.0
rho2 = 1.0
rho3 = 3.0
h1 = 0.1
h2 = 0.2
h3 = 0.3
e1 = 5.0
e3 = 7.0
i1 = 0.01
i3 = 0.02
k = 1.5

[grid]
n = 16
"""
    path = tmp_path / "layers.ini"
    path.write_text(doc)
    cfg = load_config(str(path))
    assert cfg.params.rho1h1 == pytest.approx(0.2)
    assert cfg.params.alpha == pytest.approx(0.4)


def test_validate_exit_codes(tmp_path):
    path = write_doc(tmp_path, STABILIZED_DOC)
    assert main(["validate", "--config", path, "--quiet"]) == 0
    # slope bound exactly 1: hypothesis failure, exit 1, condition id present
    doc = STABILIZED_DOC.replace(
        "tau1 = sinusoidal base=0.1 amplitude=0.05 frequency=10.0",
        "tau1 = sinusoidal base=1.1 amplitude=1.0 frequency=1.0",
    )
    path = write_doc(tmp_path, doc, "bad_slope.ini")
    assert main(["validate", "--config", path, "--quiet"]) == 1
    report = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
    failing = [c for c in report["conditions"] if not c["pass"]]
    assert any(c["condition_id"] == "delay_slope_channel_1" for c in failing)
    # the other channels' gain rows are still computed; channel 1 has no
    # threshold, so its row fails with a null rhs and margin
    rows = {c["condition_id"]: c for c in report["conditions"]}
    assert rows["gain_channel_2"]["pass"] and rows["gain_channel_3"]["pass"]
    assert not rows["gain_channel_1"]["pass"]
    assert rows["gain_channel_1"]["rhs"] is None and rows["gain_channel_1"]["margin"] is None


def test_simulate_writes_deterministic_csv(tmp_path):
    path = write_doc(tmp_path, STABILIZED_DOC)
    assert main(["simulate", "--config", path, "--quiet"]) == 0
    out = tmp_path / "out"
    first = (out / "trajectory.csv").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["invariants"]["monotone_energy"]
    assert manifest["config_hash"]
    assert main(["simulate", "--config", path, "--quiet"]) == 0
    assert (out / "trajectory.csv").read_bytes() == first
    # a different seed changes the trajectory
    assert main(["simulate", "--config", path, "--seed", "8", "--quiet"]) == 0
    assert (out / "trajectory.csv").read_bytes() != first


def test_simulate_zero_preset_all_zero(tmp_path):
    doc = STABILIZED_DOC.replace("preset = random_smooth", "preset = zero")
    path = write_doc(tmp_path, doc)
    assert main(["simulate", "--config", path, "--quiet"]) == 0
    rows = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()[1:]
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.all(values[:, 1:] == 0.0)


def test_a_horizon_under_half_a_step_runs_one_step(tmp_path, capsys):
    # t = 0.004 with dt = 0.02: one step of 0.004 reaches the horizon, and a
    # temporal ladder whose levels all take that one step has no order
    path = write_doc(tmp_path, STABILIZED_DOC.replace("t = 2.0", "t = 0.004"))
    assert main(["simulate", "--config", path, "--quiet"]) == 0
    rows = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.004]
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["n_steps"] == 1
    path = write_doc(tmp_path, CONTROLLED_DOC.replace("t = 0.5", "t = 0.004"), "ladder.ini")
    assert main(["convergence", "--config", path, "--quiet"]) == 2
    assert "needs distinct steps" in capsys.readouterr().err
    assert not (tmp_path / "out" / "convergence.csv").exists()


def test_decay_report_refuses_zero_energy_before_writing(tmp_path, monkeypatch):
    # zero initial data has nothing to decay: exit 2 before the output
    # directory, the rate search or the run
    import sandwichbeam.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("decay-report ran past its configuration checks")

    monkeypatch.setattr(cli, "select_mus", must_not_run)
    monkeypatch.setattr(cli, "simulate", must_not_run)
    doc = STABILIZED_DOC.replace("preset = random_smooth", "preset = zero")
    path = write_doc(tmp_path, doc)
    assert main(["decay-report", "--config", path, "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


def test_decay_report_cli(tmp_path):
    doc = STABILIZED_DOC.replace("t = 2.0", "t = 6.0")
    path = write_doc(tmp_path, doc)
    assert main(["decay-report", "--config", path, "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "decay_report.json").read_text())
    block = report["decay_report"]
    assert set(block) == {
        "fitted_rate", "intercept", "r_squared", "theoretical_rate", "zeta",
        "violations", "max_dissipation_residual", "window",
    }
    assert isinstance(block["window"], list) and len(block["window"]) == 2
    assert block["violations"] == 0
    assert report["lyapunov_equivalence"] is True
    series = (tmp_path / "out" / "decay_series.csv").read_text().splitlines()
    assert series[0] == "t,E,L,bound,residual"
    # the rates block is the rate search's result, key for key and value
    # for value
    cfg = load_config(path)
    assert report["rates"] == select_mus(cfg.params, cfg.delays, cfg.damping, cfg.gains)


def test_convergence_on_a_delayed_document_skips_the_window_pass(tmp_path, monkeypatch):
    # convergence reads only final states, so its delayed runs never
    # integrate their delay windows; decay-report on the same document does
    import sandwichbeam.delayline as delayline

    passes = []
    integrals = delayline._integrals
    monkeypatch.setattr(delayline, "_integrals", lambda *a: passes.append(1) or integrals(*a))
    doc = STABILIZED_DOC + "\n[convergence]\nmode = temporal\ndts = 0.02,0.01\nreference_divide = 2\nt = 0.5\nn = 16\n"
    path = write_doc(tmp_path, doc)
    assert main(["convergence", "--config", path, "--quiet"]) == 0
    assert len((tmp_path / "out" / "convergence.csv").read_text().splitlines()) == 3
    assert passes == []
    assert main(["decay-report", "--config", path, "--quiet"]) == 0
    assert len(passes) == 3


def test_decay_report_infeasible_exit(tmp_path):
    doc = STABILIZED_DOC.replace("alpha1 = 1.0", "alpha1 = 0.0")
    path = write_doc(tmp_path, doc)
    assert main(["decay-report", "--config", path, "--quiet"]) == 1


def test_hum_cli_and_failure_exit(tmp_path):
    path = write_doc(tmp_path, CONTROLLED_DOC)
    assert main(["hum", "--config", path, "--quiet"]) == 0
    payload = json.loads((tmp_path / "out" / "hum.json").read_text())
    assert payload["terminal_rel_norm"] <= 0.05
    controls = (tmp_path / "out" / "controls.csv").read_text().splitlines()
    assert controls[0] == "t,f1,f2,f3"
    # absurd terminal tolerance on a coarse grid: documented failure, exit 3
    doc = CONTROLLED_DOC.replace("terminal_tol = 0.05", "terminal_tol = 1e-12")
    path = write_doc(tmp_path, doc, "strict.ini")
    assert main(["hum", "--config", path, "--quiet"]) == 3


@pytest.mark.parametrize("cg_tol, rank, converged", [("1e-8", 179, False), ("5e-4", 123, True)])
def test_hum_rank_on_the_shipped_control_document(tmp_path, cg_tol, rank, converged):
    # control.ini as shipped, and at the tolerance of the benchmark's control run
    with open(os.path.join(ROOT, "configs", "control.ini")) as fh:
        doc = fh.read()
    assert doc.count("cg_tol = 1e-8") == 1
    path = tmp_path / "control.ini"
    path.write_text(doc.replace("cg_tol = 1e-8", f"cg_tol = {cg_tol}"))
    assert main(["hum", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    payload = json.loads((tmp_path / "out" / "hum.json").read_text())
    assert (payload["rank"], payload["converged"]) == (rank, converged)


def test_hum_and_observability_report_the_step_taken(tmp_path):
    # dt = 0.03 does not divide T = 4: the run takes 133 steps of 4/133
    doc = CONTROLLED_DOC.replace("dt = 0.0125", "dt = 0.03").replace(
        "[observability]\nt = 2.0", "[observability]\nt = 4.0\ndt = 0.03"
    )
    path = write_doc(tmp_path, doc)
    assert main(["hum", "--config", path, "--quiet"]) == 0
    assert main(["observability", "--config", path, "--quiet"]) == 0
    out = tmp_path / "out"
    for name in ("hum.json", "observability.json"):
        assert json.loads((out / name).read_text())["dt"] == 4.0 / 133, name
    rows = (out / "controls.csv").read_text().splitlines()[1:]
    assert len(rows) == 134
    assert float(rows[-1].split(",")[0]) == pytest.approx(4.0, rel=1e-12)


def test_observability_cli(tmp_path):
    path = write_doc(tmp_path, CONTROLLED_DOC)
    assert main(["observability", "--config", path, "--quiet"]) == 0
    payload = json.loads((tmp_path / "out" / "observability.json").read_text())
    assert payload["min_rayleigh"] > 0.0
    assert payload["observable"] is True


def test_convergence_cli(tmp_path):
    doc = CONTROLLED_DOC.replace("preset = single_mode", "preset = eigen_mode")
    path = write_doc(tmp_path, doc)
    assert main(["convergence", "--config", path, "--quiet"]) == 0
    rows = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert rows[0] == "study,resolution,step,error,observed_order,non_monotone"
    orders = [float(r.split(",")[4]) for r in rows[1:-1]]
    assert all(1.5 <= o <= 2.5 for o in orders)


# the exit code of every command on every shipped document
SHIPPED_EXIT_CODES = {
    "control.ini": {"validate": 0, "simulate": 0, "decay-report": 2, "hum": 0,
                    "observability": 0, "convergence": 2},
    "convergence.ini": {"validate": 0, "simulate": 0, "decay-report": 2, "hum": 0,
                        "observability": 0, "convergence": 0},
    "decay.ini": {"validate": 0, "simulate": 0, "decay-report": 0, "hum": 2,
                  "observability": 2, "convergence": 0},
}  # fmt: skip


def test_simulate_conserves_energy_on_the_finest_ladder_grid(tmp_path):
    # the benchmark's grid-ladder document at N = 1024: control.ini with
    # n = 1024, dt = 0.001 and T = 0.1.  Energies summed through K's band
    # rose by 9.9e-10 in one step of this conservative run (drift 7.9e-10);
    # the strain sum gives a drift of 2.6e-11
    with open(os.path.join(ROOT, "configs", "control.ini")) as fh:
        doc = fh.read()
    edits = [("[grid]\nn = 32", "[grid]\nn = 1024"), ("dt = 0.001\nt = 2.0", "dt = 0.001\nt = 0.1")]
    for old, new in edits:
        assert doc.count(old) == 1, old
        doc = doc.replace(old, new)
    path = tmp_path / "ladder.ini"
    path.write_text(doc)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["n_steps"] == 100
    invariants = manifest["invariants"]
    assert invariants["monotone_energy"], invariants
    assert invariants["relative_drift"] <= 1e-10, invariants


def strict_json(path):
    """The JSON document at ``path``, refusing NaN and Infinity."""

    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


@pytest.mark.parametrize("shipped", sorted(os.listdir(os.path.join(ROOT, "configs"))))
def test_every_command_on_every_shipped_document(tmp_path, shipped):
    path = os.path.join(ROOT, "configs", shipped)
    codes = {
        command: main([command, "--config", path, "--out", str(tmp_path / command), "--quiet"])
        for command in SHIPPED_EXIT_CODES[shipped]
    }
    assert codes == SHIPPED_EXIT_CODES[shipped]
    written = sorted(tmp_path.glob("*/*.json"))
    assert written
    for artifact in written:
        strict_json(artifact)


def test_hum_keeping_no_direction_writes_null_rayleigh_extremes(tmp_path):
    # cg_tol >= 1 is met with no direction kept: the free state is the
    # terminal state (exit 3), and there is no kept eigenvalue to report
    doc = CONTROLLED_DOC.replace("cg_tol = 1e-8", "cg_tol = 2")
    path = write_doc(tmp_path, doc)
    assert main(["hum", "--config", path, "--quiet"]) == 3
    payload = strict_json(tmp_path / "out" / "hum.json")
    assert payload["rank"] == 0
    assert payload["rayleigh"] == {"min": None, "max": None}


def test_a_run_that_blows_up_exits_3(tmp_path):
    # gains far past the hypotheses on decay.ini: the energy grows past the
    # largest double at t = 35.5 while the state stays finite; simulate used
    # to exit 0 with status ok, NaN drift and 2460 rows of inf and nan
    with open(os.path.join(ROOT, "configs", "decay.ini")) as fh:
        doc = fh.read()
    for pattern, line, lines in (
        (r"^(beta\d) = .*$", r"\1 = 3.0", 3),
        (r"^(tau\d) = .*$", r"\1 = constant 0.1", 3),
        (r"^n = .*$", "n = 32", 1),
        (r"^dt = .*$", "dt = 0.01", 1),
        (r"^t = .*$", "t = 60", 1),
    ):
        doc, count = re.subn(pattern, line, doc, flags=re.M)
        assert count == lines, pattern
    path = tmp_path / "blow_up.ini"
    path.write_text(doc)
    out = tmp_path / "out"
    # the checks report the overflow by its step, and no numpy warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 3
    manifest = strict_json(out / "manifest.json")
    assert manifest["status"] == "failed"
    error = re.fullmatch(r"non-finite field energy, trace or ledger value at step (\d+)", manifest["error"])
    assert error and 3000 < int(error[1]) < 6000, manifest["error"]
    assert not (out / "trajectory.csv").exists()


def test_missing_config_file():
    assert main(["validate", "--config", "/nonexistent/x.ini", "--quiet"]) == 2


@pytest.mark.parametrize(
    "ladder",
    [
        "mode = spatial\nresolutions = 12,16,32",
        "mode = spatial\nresolutions = 16,24,32",
        "mode = spatial\nresolutions = 4,16,32",
        "mode = spatial\nresolutions = 16,16,32",
        "mode = temporal\ndts = 0.02,0.02,0.01",
    ],
)
def test_convergence_ladder_must_nest_in_the_reference(tmp_path, ladder):
    # the spatial reference runs at 4 x the finest level and each level reads
    # every (4 x finest / n)-th of its nodes: a level that does not divide it,
    # one below 8 cells, or a repeated level is refused before anything runs;
    # so is a repeated step, which has no order
    doc = CONTROLLED_DOC.replace("mode = temporal", ladder).replace("dts = 0.02,0.01\n", "")
    path = write_doc(tmp_path, doc)
    assert main(["convergence", "--config", path, "--quiet"]) == 2
    assert not (tmp_path / "out" / "convergence.csv").exists()


@pytest.mark.parametrize(
    "old, new, reason",
    [
        ("reference_divide = 8", "reference_divide = 1", "must be smaller than the finest step"),
        ("preset = eigen_mode", "preset = zero", "initial data of positive energy"),
        ("t = 0.5\n", "t = 0.0\n", "t > 0"),
    ],
)
def test_convergence_refuses_a_ladder_without_errors_before_writing(tmp_path, monkeypatch, capsys, old, new, reason):
    # a temporal reference no finer than the finest level, initial data of
    # zero energy and a horizon with no step leave errors of zero, whose
    # ratios have no order: exit 2 before the output directory or any run
    import sandwichbeam.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("convergence ran past its configuration checks")

    monkeypatch.setattr(cli, "simulate", must_not_run)
    doc = CONTROLLED_DOC.replace("preset = single_mode", "preset = eigen_mode")
    assert doc.count(old) == 1
    path = write_doc(tmp_path, doc.replace(old, new))
    assert main(["convergence", "--config", path, "--quiet"]) == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_temporal_orders_use_the_steps_taken(tmp_path):
    # 0.03 does not divide t = 0.5: the run takes 17 steps of 0.5/17, so the
    # first level refines by 0.5/17/0.01, not by 2, and the row says so
    doc = (
        CONTROLLED_DOC.replace("preset = single_mode", "preset = eigen_mode")
        .replace("dts = 0.02,0.01", "dts = 0.03,0.01,0.005")
    )
    path = write_doc(tmp_path, doc)
    assert main(["convergence", "--config", path, "--quiet"]) == 0
    rows = [r.split(",") for r in (tmp_path / "out" / "convergence.csv").read_text().splitlines()[1:]]
    assert [float(r[2]) for r in rows] == [0.5 / 17, 0.01, 0.005]
    orders = [float(r[4]) for r in rows[:-1]]
    assert all(1.8 <= o <= 2.2 for o in orders), orders


def test_bad_overrides_and_negative_seed_are_config_errors(tmp_path):
    path = write_doc(tmp_path, STABILIZED_DOC)
    assert main(["simulate", "--config", path, "--quiet", "--stride", "0"]) == 2
    assert main(["decay-report", "--config", path, "--quiet", "--seed", "-1"]) == 2
    with pytest.raises(ConfigError):
        load_config(path, overrides={"seed": -1})
    negative = write_doc(tmp_path, STABILIZED_DOC.replace("seed = 7", "seed = -1"), "negative.ini")
    with pytest.raises(ConfigError):
        load_config(negative)
    assert main(["simulate", "--config", negative, "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


def test_history_key_is_unknown(tmp_path):
    # the initial trace history is always the constant extension of the
    # initial trace velocity; the former preset key is refused
    doc = STABILIZED_DOC.replace("prepared = true", "prepared = true\nhistory = zero")
    path = write_doc(tmp_path, doc)
    with pytest.raises(ConfigError, match="history"):
        load_config(path)
    assert main(["simulate", "--config", path, "--quiet"]) == 2
