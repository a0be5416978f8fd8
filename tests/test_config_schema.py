"""The key table of scenario documents.

``config._KEYS`` holds every key's parser, default and range.  A value that
fails them, and a document that breaks a rule spanning keys, is a
configuration error: ``ConfigError`` from ``load_config`` and exit 2 from
the command line, never a traceback, a hypothesis failure (exit 1) or a
solver failure (exit 3).
"""

import configparser
import contextlib
import io
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from sandwichbeam import cli, config
from sandwichbeam.cli import main
from sandwichbeam.config import ConfigError, load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the layer data of test_config_cli's layer document
LAYER_MODEL = {
    "rho1": "2.0", "rho2": "1.0", "rho3": "3.0", "h1": "0.1", "h2": "0.2", "h3": "0.3",
    "e1": "5.0", "e3": "7.0", "i1": "0.01", "i3": "0.02", "k": "1.5", "l": "2.0",
}  # fmt: skip
LAYER_ONLY = set(config._LAYER_KEYS) - {"k", "l"}
SIN = "sinusoidal base=0.1 amplitude=0.05 frequency=10.0"


def edited(shipped, edits, directory, model=None):
    """Write configs/<shipped> into ``directory`` with ``edits``, a dict
    {(section, key): text} where a text of None deletes the key, applied,
    and its [model] replaced by ``model`` when given; returns the path."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(os.path.join(ROOT, "configs", shipped))
    if model is not None:
        parser["model"] = model
    for (section, key), text in edits.items():
        if not parser.has_section(section):
            parser.add_section(section)
        if text is None:
            parser.remove_option(section, key)
        else:
            parser[section][key] = text
    path = os.path.join(directory, "scenario.ini")
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def run(argv):
    """(exit code, stderr) of one command-line run."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([*argv, "--quiet"])
    return code, stderr.getvalue()


def test_readme_lists_every_key():
    with open(os.path.join(ROOT, "README.md")) as fh:
        listed = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", fh.read(), flags=re.M)
    assert sorted(listed) == sorted((section, key) for section, key, *_ in config._KEYS)


# values on both sides of every boundary the table uses (0, 1 and 8), the
# non-finite numbers, non-numbers, and words, lists and laws that some keys take
TEXTS = [
    "-1", "0", "1e-9", "0.5", "1", "1.5", "7", "8", "8.0", "9", "2.5e3",
    "nan", "inf", "-inf", "abc", "", "50%", "true", "u", "zero", "single_mode", "both",
    "controlled_conservative", "16,32,64", "0.02,-0.01", "constant 1.0", "constant value=0.2",
    "constant inf", "constant 1.0 bogus=3", "exp_floor floor=0.5 initial=1.5 rate=2", SIN,
]  # fmt: skip


def refuses(row, text):
    """Whether the row's parser or its predicate refuses ``text``."""
    _, _, parse, _, ok, _ = row
    try:
        value = parse(text)
    except ValueError:
        return True
    return ok is not None and not ok(value)


@settings(max_examples=200, deadline=None, database=None)
@given(row=hs.sampled_from(config._KEYS), text=hs.sampled_from(TEXTS))
def test_a_value_is_refused_exactly_when_its_row_refuses_it(row, text):
    section, key = row[:2]
    edits = {(section, key): text}
    # the other end of the fit window sits at its far edge, so the window
    # rule holds whenever both ends pass their own ranges
    if key == "window_start":
        edits["fit", "window_end"] = "1.0"
    elif key == "window_end":
        edits["fit", "window_start"] = "0.0"
    # decay.ini gives composites; a layer key is drawn into layer data
    model = LAYER_MODEL if section == "model" and key in LAYER_ONLY else None
    with tempfile.TemporaryDirectory() as tmp:
        # no --out below: the flag would stand in for a drawn [output] dir
        edits.setdefault(("output", "dir"), os.path.join(tmp, "out"))
        path = edited("decay.ini", edits, tmp, model)
        if not refuses(row, text):
            load_config(path)
            return
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} = ")):
            load_config(path)
        code, stderr = run(["validate", "--config", path])
        assert code == 2
        assert stderr.startswith("configuration error:")


TEMPORAL = {("convergence", "mode"): "temporal"}
PROBES = [
    ("control.ini", {("grid", "n"): "inf"}, "simulate"),
    ("control.ini", {("scheme", "t"): "inf"}, "simulate"),
    ("control.ini", {("scheme", "stride"): "inf"}, "simulate"),
    ("convergence.ini", {**TEMPORAL, ("convergence", "n"): "4"}, "convergence"),
    ("convergence.ini", {**TEMPORAL, ("convergence", "reference_divide"): "0"}, "convergence"),
    ("convergence.ini", {("convergence", "dts"): "0.02,-0.01,0.005"}, "convergence"),
    ("convergence.ini", {**TEMPORAL, ("convergence", "dt"): "0"}, "convergence"),
    ("decay.ini", {("initial", "cutoff"): "-3"}, "simulate"),
    ("decay.ini", {("initial", "cutoff"): "0"}, "simulate"),
    ("control.ini", {("observability", "t"): "inf"}, "observability"),
    ("decay.ini", {("fit", "window_start"): "0.95"}, "decay-report"),
    ("decay.ini", {("fit", "window_end"): "3"}, "decay-report"),
    ("control.ini", {("initial", "preset"): "eigen_mode", ("initial", "mode"): "500"}, "hum"),
    ("control.ini", {("initial", "mode"): "0"}, "simulate"),
    ("control.ini", {("initial", "mode"): "500"}, "simulate"),
    ("decay.ini", {("gains", "alpha1"): "nan"}, "decay-report"),
    ("decay.ini", {("gains", "alpha1"): "nan"}, "simulate"),
    ("decay.ini", {("initial", "amplitude"): "nan"}, "simulate"),
    ("control.ini", {("hum", "terminal_tol"): "-1"}, "hum"),
    ("control.ini", {("hum", "cg_tol"): "-1"}, "hum"),
    ("decay.ini", {("delays", "tau1"): "constant inf"}, "validate"),
    ("decay.ini", {("delays", "tau1"): SIN.replace("0.1", "inf")}, "validate"),
    ("decay.ini", {("damping", "a1"): "exp_floor floor=0.5 initial=nan rate=2"}, "simulate"),
    ("decay.ini", {("scheme", "t"): "0"}, "decay-report"),
    ("decay.ini", {("scheme", "t"): "0.02"}, "decay-report"),
    ("decay.ini", {("scheme", "t"): "0.04"}, "decay-report"),
    ("decay.ini", {("initial", "preset"): "zero"}, "decay-report"),
]  # fmt: skip


@pytest.mark.parametrize("shipped, edits, command", PROBES)
def test_malformed_documents_exit_2(tmp_path, shipped, edits, command):
    # each of these exited 0, 1 or 3, most of them with a traceback
    path = edited(shipped, edits, str(tmp_path))
    code, stderr = run([command, "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2, stderr
    assert stderr.startswith("configuration error:")


@pytest.mark.parametrize(
    "key, law, params",
    [
        ("a1", "constant 1.0 5.0", "value"),
        ("a1", "constant 1.0 bogus=3", "value"),
        ("tau1", SIN + " phase=3", "base, amplitude, frequency"),
        ("tau1", SIN.replace("base=0.1", "base=0.1 base=0.1"), "base, amplitude, frequency"),
        ("tau1", SIN.replace(" frequency=10.0", ""), "base, amplitude, frequency"),
        ("tau1", "sinusoidal 0.1 0.05 10.0", "base, amplitude, frequency"),
    ],
)  # fmt: skip
def test_a_law_takes_exactly_its_parameters(tmp_path, key, law, params):
    section = "damping" if key == "a1" else "delays"
    path = edited("decay.ini", {(section, key): law}, str(tmp_path))
    with pytest.raises(ConfigError, match=re.escape(f"takes exactly {params}")):
        load_config(path)
    assert run(["validate", "--config", path, "--out", str(tmp_path / "out")])[0] == 2


def test_law_parameters_by_name_in_any_order(tmp_path):
    laws = (SIN, "sinusoidal frequency=10.0 amplitude=0.05 base=0.1")
    paths = [edited("decay.ini", {("delays", "tau1"): law}, str(tmp_path)) for law in laws]
    assert load_config(paths[0]).delays == load_config(paths[1]).delays
    # a bare number is the value of a constant law
    path = edited("decay.ini", {("damping", "a2"): "constant value=1.0"}, str(tmp_path))
    assert load_config(path).damping == load_config(paths[0]).damping


def test_fit_window_of_two_step_times_runs(tmp_path):
    # t = 0.06 in steps of 0.02: the window [0.012, 0.054] holds 0.02 and 0.04
    path = edited("decay.ini", {("scheme", "t"): "0.06"}, str(tmp_path))
    assert run(["decay-report", "--config", path, "--out", str(tmp_path / "out")])[0] in (0, 1)
    # simulate has no fit window: t = 0 is a valid run of no steps
    path = edited("decay.ini", {("scheme", "t"): "0"}, str(tmp_path))
    assert run(["simulate", "--config", path, "--out", str(tmp_path / "sim")])[0] == 0


SINGLE_MODE = {("initial", "preset"): "single_mode"}


@pytest.mark.parametrize(
    "edits, message",
    [
        ({("fit", "window_start"): "0.5", ("fit", "window_end"): "0.5"}, "start < window_end"),
        ({**SINGLE_MODE, ("initial", "mode"): "65"}, "mode <= [grid] n = 64"),
        ({**SINGLE_MODE, ("initial", "mode"): "0"}, "1 <= mode"),
        ({("delays", "tau3"): None}, "[delays] needs all of tau1, tau2, tau3"),
        ({("delays", f"tau{i}"): None for i in (1, 2, 3)}, "delayed gains need [delays]"),
        ({("damping", "a1"): None}, "[damping] needs all of a1, a2, a3"),
        ({("model", "rho1"): "1.0"}, "[model] is missing rho2"),
        ({("model", "rho1h1"): None}, "[model] is missing rho1h1"),
    ],
)  # fmt: skip
def test_rules_that_span_keys(tmp_path, edits, message):
    path = edited("decay.ini", edits, str(tmp_path))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)
    assert run(["validate", "--config", path, "--out", str(tmp_path / "out")])[0] == 2


def test_single_mode_accepts_every_mode_up_to_n(tmp_path):
    edits = {**SINGLE_MODE, ("initial", "mode"): "64"}
    assert load_config(edited("decay.ini", edits, str(tmp_path))).initial["mode"] == 64


class _Ran(Exception):
    """Raised by the stand-in for a simulation run."""


@pytest.mark.parametrize(
    "shipped, edits, message",
    [
        # [grid] n = 32, but the spatial ladder starts at 16 cells
        ("control.ini", {("initial", "mode"): "20", ("convergence", "mode"): "spatial",
                         ("convergence", "resolutions"): "16,32,64"}, "1 <= mode <= 16,"),
        # the temporal ladder runs on [convergence] n cells
        ("control.ini", {("initial", "mode"): "20", ("convergence", "mode"): "temporal",
                         ("convergence", "n"): "16"}, "1 <= mode <= 16,"),
        # 16 cells of the controlled variant carry 49 unknowns
        ("convergence.ini", {("initial", "mode"): "60", ("convergence", "mode"): "spatial"},
         "eigen_mode needs a mode below 49"),
    ],
)  # fmt: skip
def test_convergence_checks_the_mode_on_its_coarsest_level_before_any_run(
    tmp_path, monkeypatch, shipped, edits, message
):
    runs = []
    monkeypatch.setattr(cli, "_run_simulation", lambda *args: runs.append(args))
    path = edited(shipped, edits, str(tmp_path))
    code, stderr = run(["convergence", "--config", path, "--out", str(tmp_path / "out")])
    assert (code, runs) == (2, [])
    assert message in stderr


@pytest.mark.parametrize(
    "shipped, mode", [("control.ini", "16"), ("convergence.ini", "48")]
)  # fmt: skip
def test_convergence_runs_the_highest_mode_of_its_coarsest_level(tmp_path, monkeypatch, shipped, mode):
    def ran(*args):
        raise _Ran

    monkeypatch.setattr(cli, "_run_simulation", ran)
    edits = {("initial", "mode"): mode, ("convergence", "mode"): "spatial",
             ("convergence", "resolutions"): "16,32,64"}  # fmt: skip
    path = edited(shipped, edits, str(tmp_path))
    with pytest.raises(_Ran):
        main(["convergence", "--config", path, "--out", str(tmp_path / "out"), "--quiet"])


def test_convergence_on_a_mode_whose_largest_entries_tie(tmp_path):
    # eigen_mode 2 of the shipped document has two entries of equal magnitude;
    # a sign that flips between a level and its reference would put twice the
    # mode's norm into that level's error
    edits = {("initial", "mode"): "2", ("convergence", "mode"): "spatial"}
    path, out = edited("convergence.ini", edits, str(tmp_path)), tmp_path / "out"
    assert run(["convergence", "--config", path, "--out", str(out)])[0] == 0
    rows = [row.split(",") for row in (out / "convergence.csv").read_text().splitlines()[1:]]
    assert all(1.9 <= float(row[4]) <= 2.2 for row in rows[:-1]), rows
    assert [row[5] for row in rows] == ["0", "0", "0"]


# [grid] n = 8, but the spatial ladder runs 16, 32 and 64 cells
COARSE_GRID_SINGLE_MODE = {
    **SINGLE_MODE, ("grid", "n"): "8", ("convergence", "n"): "8",
    ("initial", "mode"): "12", ("convergence", "mode"): "spatial",
}  # fmt: skip


def test_single_mode_is_bounded_by_the_largest_grid_a_command_runs(tmp_path):
    path = edited("convergence.ini", COARSE_GRID_SINGLE_MODE, str(tmp_path))
    assert load_config(path).initial["mode"] == 12
    assert run(["convergence", "--config", path, "--out", str(tmp_path / "conv")])[0] == 0
    edits = {**COARSE_GRID_SINGLE_MODE, ("initial", "mode"): "65"}
    with pytest.raises(ConfigError, match=re.escape("mode <= the finest of [convergence] resolutions = 64")):
        load_config(edited("convergence.ini", edits, str(tmp_path)))


@pytest.mark.parametrize(
    "command, shipped, stand_in",
    [
        ("simulate", "convergence.ini", "simulate"),
        ("hum", "convergence.ini", "compute_null_control"),
        ("decay-report", "decay.ini", "select_mus"),
    ],
)
def test_a_command_refuses_a_mode_its_grid_lacks_before_it_starts(tmp_path, monkeypatch, command, shipped, stand_in):
    # [grid] n = 8 holds no mode 12, which the document's spatial ladder does
    path = edited(shipped, COARSE_GRID_SINGLE_MODE, str(tmp_path))
    calls = []
    monkeypatch.setattr(cli, stand_in, lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "out"
    code, stderr = run([command, "--config", path, "--out", str(out)])
    assert (code, calls, out.exists()) == (2, [], False)
    assert "1 <= mode <= 8, the cells of the grid" in stderr


BIG_STEP = {("scheme", "dt"): "0.2"}
STEEP_DELAY = {("delays", "tau1"): "sinusoidal base=0.3 amplitude=0.15 frequency=10"}
NO_DAMPING = {("damping", key): None for key in ("a1", "a2", "a3")}
# undelayed gains need no [delays] to load
NO_DELAYS = {
    **{("gains", f"beta{i}"): "0" for i in (1, 2, 3)},
    **{("delays", f"tau{i}"): None for i in (1, 2, 3)},
}


@pytest.mark.parametrize(
    "command, shipped, edits, message",
    [
        # 32 cells of the controlled variant carry 97 unknowns
        ("observability", "control.ini", {("observability", "cutoff"): "500"}, "at most 97, got 500"),
        # 24 does not divide the reference's 256 cells
        ("convergence", "convergence.ini", {("convergence", "resolutions"): "16,24,64"}, "divide 256"),
        # control.ini as shipped: its spatial ladder has two levels
        ("convergence", "control.ini", {}, "at least 3 resolutions"),
        # a step above decay.ini's smallest delay floor, 0.05, and a delay
        # slope bound of 1.5 on channel 1: no delayed run can take them
        *(
            (command, "decay.ini", edits, message)
            for edits, message in (
                (BIG_STEP, "dt = 0.2 exceeds the smallest delay floor 0.05"),
                (STEEP_DELAY, "delay slope bound >= 1"),
            )
            for command in ("simulate", "decay-report", "convergence")
        ),
        # validate reports the slope bound as a hypothesis, but refuses the step
        ("validate", "decay.ini", BIG_STEP, "dt = 0.2 exceeds the smallest delay floor 0.05"),
        # the rate search reads every channel's delay and damping law
        ("decay-report", "decay.ini", NO_DAMPING, "decay-report needs a [damping] section"),
        ("decay-report", "decay.ini", NO_DELAYS, "decay-report needs a [delays] section"),
    ],
    ids=[
        "observability-cutoff", "convergence-resolutions", "convergence-shipped-control",
        *(
            f"{command}-{case}"
            for case in ("big-step", "steep-delay")
            for command in ("simulate", "decay-report", "convergence")
        ),
        "validate-big-step", "decay-report-no-damping", "decay-report-no-delays",
    ],
)  # fmt: skip
def test_a_refused_command_leaves_no_output_directory(tmp_path, command, shipped, edits, message):
    path = edited(shipped, edits, str(tmp_path))
    out = tmp_path / "out"
    code, stderr = run([command, "--config", path, "--out", str(out)])
    assert (code, out.exists()) == (2, False)
    assert message in stderr


def test_layer_data_must_match_the_composites(tmp_path):
    # decay.ini's unit composites against layer data with rho1 h1 = 0.2
    composites = {key: "1.0" for key in config._COMPOSITE_KEYS}
    path = edited("decay.ini", {}, str(tmp_path), model={**composites, **LAYER_MODEL, "l": "1.0"})
    with pytest.raises(ConfigError, match="contradicts"):
        load_config(path)


def test_values_are_literal_text(tmp_path):
    # a % in a value is not an interpolation
    path = edited("decay.ini", {("output", "dir"): str(tmp_path / "50%")}, str(tmp_path))
    assert load_config(path).outdir == str(tmp_path / "50%")


def test_flags_are_read_through_their_keys(tmp_path):
    path = edited("decay.ini", {}, str(tmp_path))
    cfg = load_config(path, overrides={"seed": 3, "stride": 4, "outdir": "elsewhere"})
    assert (cfg.initial["seed"], cfg.scheme.stride, cfg.outdir) == (3, 4, "elsewhere")
    for flag, bad, key in (("seed", -1, "[initial] seed"), ("stride", 0, "[scheme] stride")):
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(path, overrides={flag: bad})
    with pytest.raises(ConfigError, match=re.escape("[output] dir")):
        load_config(path, overrides={"outdir": ""})
