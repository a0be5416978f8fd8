"""Scenario configuration: a strict key = value document.

The format is INI-style.  One table, ``_KEYS``, lists every key with its
parser, its default and the range it must lie in; one loop reads the
document through it, and the few rules that span keys are checked next to
the table.  Unknown sections or keys, values that do not parse and values
out of range are all ``ConfigError`` naming the section, the key and the
requirement, so typos never silently fall back to defaults.  Physical
coefficients are given either as composites (rho1h1, e1h1, ...) or per
layer (rho1, h1, e1, ...); when both appear they must agree.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

# CPython's builtin sha256 (``_sha2`` from 3.12, ``_sha256`` before) gives
# hashlib's digest without loading OpenSSL's libcrypto into the process
try:
    from _sha2 import sha256
except ImportError:
    from _sha256 import sha256

from .discretize import Grid1D, VARIANT_CONTROLLED, VARIANT_STABILIZED, build_system
from .params import (
    ConstantDamping,
    ConstantDelay,
    ExponentialDamping,
    GainConfig,
    PhysicalParams,
    SinusoidalDelay,
)
from .presets import (
    eigen_mode_state,
    random_smooth_state,
    single_mode_state,
    zero_state,
)
from .timestep import SchemeConfig

__all__ = ["ConfigError", "ScenarioConfig", "load_config"]


class ConfigError(ValueError):
    """Malformed configuration document."""


def _fail(msg):
    raise ConfigError(msg)


# PhysicalParams' field order
_COMPOSITE_KEYS = ("rho1h1", "e1h1", "rho3h3", "e3h3", "rhoh", "ei", "k", "alpha", "l")
_LAYER_KEYS = ("rho1", "rho2", "rho3", "h1", "h2", "h3", "e1", "e3", "i1", "i3", "k", "l")
# GainConfig's field order
_GAIN_KEYS = ("alpha1", "beta1", "alpha2", "beta2", "alpha3", "beta3")
_DELAY_KEYS = ("tau1", "tau2", "tau3")
_DAMPING_KEYS = ("a1", "a2", "a3")


def _law(laws):
    """Parser and syntax of one family of time laws: the law's name, then
    each of its parameters exactly once as name=value; a bare number is
    the value of a constant law."""

    def parse(text):
        name, *tokens = text.split() or [""]
        if name not in laws:
            raise ValueError(f"unknown law {name!r}")
        cls, params = laws[name]
        args = dict(tok.split("=", 1) if "=" in tok else ("value", tok) for tok in tokens)
        if len(args) != len(tokens) or set(args) != set(params):
            raise ValueError(f"{name} takes exactly {', '.join(params)}")
        return cls(*(float(args[p]) for p in params))

    syntax = " | ".join(law + "".join(f" {p}=" for p in ps) for law, (_, ps) in laws.items())
    return parse, syntax


_DELAY_LAW = _law(
    {
        "constant": (ConstantDelay, ("value",)),
        "sinusoidal": (SinusoidalDelay, ("base", "amplitude", "frequency")),
    }
)
_DAMPING_LAW = _law(
    {
        "constant": (ConstantDamping, ("value",)),
        "exp_floor": (ExponentialDamping, ("floor", "initial", "rate")),
    }
)


def _integer(text):
    value = float(text)
    if not value.is_integer():
        raise ValueError(f"{text!r} is not an integer")
    return int(value)


def _boolean(text):
    if text.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"{text!r} is not a boolean")
    return text.lower() in ("true", "yes", "1")


def _list_of(parse):
    return lambda text: tuple(parse(tok) for tok in text.split(",") if tok.strip())


def _one_of(*names):
    return names.__contains__, "one of " + ", ".join(names)


def _at_least(low):
    return (lambda n: n >= low), f"an integer >= {low}"


_FINITE = math.isfinite, "a finite number"
_POSITIVE = (lambda x: 0.0 < x < math.inf), "a finite number > 0"
_NONNEGATIVE = (lambda x: 0.0 <= x < math.inf), "a finite number >= 0"


def _hum_horizon(values):
    """Eight crossings of the slower wave layer: 8 L / c."""
    params = _physical_params(values)
    c1 = (params.E1h1 / params.rho1h1) ** 0.5
    c3 = (params.E3h3 / params.rho3h3) ** 0.5
    return 8.0 * params.L / min(c1, c3)


# (section, key, parser, default, predicate, requirement).  A default of
# None means absent; a callable default is derived from the keys above it
# and passes its predicate whenever they pass theirs.
_KEYS = (
    ("model", "variant", str, VARIANT_STABILIZED, *_one_of(VARIANT_STABILIZED, VARIANT_CONTROLLED)),
    *(
        ("model", key, float, None, *_POSITIVE)
        for key in dict.fromkeys(_COMPOSITE_KEYS + _LAYER_KEYS)
    ),
    *(("gains", key, float, 0.0, *_FINITE) for key in _GAIN_KEYS),
    *(("delays", key, _DELAY_LAW[0], None, None, _DELAY_LAW[1]) for key in _DELAY_KEYS),
    *(("damping", key, _DAMPING_LAW[0], None, None, _DAMPING_LAW[1]) for key in _DAMPING_KEYS),
    ("grid", "n", _integer, 64, *_at_least(8)),
    ("scheme", "dt", float, 0.01, *_POSITIVE),
    ("scheme", "t", float, 1.0, *_NONNEGATIVE),
    ("scheme", "stride", _integer, 1, *_at_least(1)),
    (
        "initial", "preset", str, "zero",
        *_one_of("zero", "single_mode", "random_smooth", "eigen_mode"),
    ),
    ("initial", "field", str, "u", *_one_of("u", "v", "w")),
    ("initial", "mode", _integer, 1, *_at_least(0)),
    ("initial", "amplitude", float, 1.0, *_FINITE),
    ("initial", "seed", _integer, 0, *_at_least(0)),
    ("initial", "cutoff", _integer, 6, *_at_least(1)),
    ("initial", "prepared", _boolean, True, None, "true or false"),
    ("fit", "window_start", float, 0.2, lambda x: 0.0 <= x < 1.0, "a number in [0, 1)"),
    ("fit", "window_end", float, 0.9, lambda x: 0.0 < x <= 1.0, "a number in (0, 1]"),
    ("hum", "t", float, _hum_horizon, *_POSITIVE),
    # dt = 0 derives the step from t
    ("hum", "dt", float, 0.0, *_NONNEGATIVE),
    ("hum", "cg_tol", float, 1e-8, *_NONNEGATIVE),
    ("hum", "terminal_tol", float, 1e-3, *_POSITIVE),
    ("observability", "t", float, lambda v: v["hum", "t"] / 2.0, *_POSITIVE),
    ("observability", "dt", float, 0.0, *_NONNEGATIVE),
    # the observability constant is exact, so nothing reads the seed; it
    # stays accepted for documents that still set it
    ("observability", "seed", _integer, 0, *_at_least(0)),
    ("observability", "cutoff", _integer, 8, *_at_least(1)),
    ("convergence", "mode", str, "both", *_one_of("spatial", "temporal", "both")),
    (
        "convergence", "resolutions", _list_of(_integer), (16, 32, 64),
        lambda ns: min(ns, default=8) >= 8, "a comma list of integers >= 8",
    ),
    (
        "convergence", "dts", _list_of(float), (0.02, 0.01, 0.005),
        lambda hs: all(0.0 < h < math.inf for h in hs), "a comma list of finite numbers > 0",
    ),
    ("convergence", "reference_divide", _integer, 16, *_at_least(1)),
    ("convergence", "t", float, lambda v: v["scheme", "t"], *_NONNEGATIVE),
    ("convergence", "dt", float, lambda v: v["scheme", "dt"], *_POSITIVE),
    ("convergence", "n", _integer, lambda v: v["grid", "n"], *_at_least(8)),
    ("output", "dir", str, "out", bool, "a non-empty path"),
)
_KNOWN = {(section, key) for section, key, *_ in _KEYS}
# command-line flags and the keys they set
_FLAGS = {"seed": ("initial", "seed"), "stride": ("scheme", "stride"), "outdir": ("output", "dir")}


def _physical_params(values):
    """[model] as PhysicalParams, from composites, layer data or both."""
    given = {key for (sec, key), value in values.items() if sec == "model" and value is not None}
    groups = [keys for keys in (_COMPOSITE_KEYS, _LAYER_KEYS) if given & (set(keys) - {"k", "l"})]
    if not groups:
        _fail("[model] needs composite coefficients (rho1h1, ...) or layer data (rho1, ...)")
    missing = [key for keys in groups for key in keys if key not in given]
    if missing:
        _fail(f"[model] is missing {', '.join(dict.fromkeys(missing))}")
    rho1, rho2, rho3, h1, h2, h3, e1, e3, i1, i3, k, L = (values["model", x] for x in _LAYER_KEYS)
    layers = dict(rho=(rho1, rho2, rho3), h=(h1, h2, h3), E=(e1, 0.0, e3), I=(i1, 0.0, i3))
    try:
        if groups == [_LAYER_KEYS]:
            return PhysicalParams.from_layers(k=k, L=L, **layers)
        params = PhysicalParams(*(values["model", key] for key in _COMPOSITE_KEYS))
        bad = params.check_layer_consistency(**layers) if len(groups) == 2 else []
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from None
    if bad:
        _fail(f"layer data contradicts composites: {bad}")
    return params


def _laws(values, section, keys):
    """The section's three laws as a tuple, or None when it sets none of them."""
    laws = tuple(values[section, key] for key in keys)
    if all(law is None for law in laws):
        return None
    if None in laws:
        _fail(f"[{section}] needs all of {', '.join(keys)}")
    return laws


def _section(values, name):
    """One section's values by key, the horizon t under the name T."""
    return {"T" if key == "t" else key: v for (sec, key), v in values.items() if sec == name}


@dataclass
class ScenarioConfig:
    path: str
    raw_text: str
    variant: str
    params: PhysicalParams
    gains: GainConfig
    delays: tuple  # three delay laws, or None
    damping: tuple  # three damping weights, or None
    n: int
    scheme: SchemeConfig
    initial: dict
    fit_window: tuple
    hum: dict
    observability: dict
    convergence: dict
    outdir: str

    @property
    def config_hash(self):
        return sha256(self.raw_text.encode()).hexdigest()

    def build_system(self):
        return build_system(Grid1D(N=self.n, L=self.params.L), self.params, self.variant)

    def build_initial(self, sys_):
        """The initial data on ``sys_``; an ``[initial] mode`` that names no
        mode of ``sys_`` is refused."""
        init = self.initial
        if init["preset"] == "zero":
            return zero_state(sys_)
        if init["preset"] == "single_mode":
            N = sys_.grid.N
            if not 1 <= init["mode"] <= N:
                _fail(f"[initial] single_mode needs 1 <= mode <= {N}, the cells of the grid, got {init['mode']}")
            return single_mode_state(sys_, init["field"], init["mode"], init["amplitude"])
        if init["preset"] == "eigen_mode":
            # the mode is a 0-based index into the eigenvectors of (K, M)
            if not init["mode"] < sys_.ndof:
                _fail(f"[initial] mode = {init['mode']}: eigen_mode needs a mode below {sys_.ndof}")
            return eigen_mode_state(sys_, init["mode"], init["amplitude"])
        return random_smooth_state(
            sys_,
            seed=init["seed"],
            cutoff=init["cutoff"],
            amplitude=init["amplitude"],
            prepared=init["prepared"],
        )


def load_config(path, overrides=None):
    """Parse and validate a scenario document; overrides is a dict like
    {'seed': 3, 'stride': 5, 'outdir': 'elsewhere'} from command-line flags,
    read as the values of the keys they set."""
    # values are literal text: a % in a path is not an interpolation
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path) as fh:
            raw = fh.read()
        parser.read_string(raw)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")

    sections = {section for section, _ in _KNOWN}
    for section in parser.sections():
        if section not in sections:
            _fail(f"unknown section [{section}]")
    texts = {(sec, key): parser[sec][key] for sec in parser.sections() for key in parser[sec]}
    for section, key in texts:
        if (section, key) not in _KNOWN:
            _fail(f"unknown key {key!r} in section [{section}]")
    for flag, value in (overrides or {}).items():
        if value is not None:
            texts[_FLAGS[flag]] = str(value)

    values = {}
    for section, key, parse, default, ok, needs in _KEYS:
        text = texts.get((section, key))
        if text is None:
            value = default(values) if callable(default) else default
        else:
            try:
                value = parse(text)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {text!r}: needs {needs} ({exc})") from None
        if value is not None and ok is not None and not ok(value):
            _fail(f"[{section}] {key} = {value if text is None else text!r}: needs {needs}")
        values[section, key] = value

    # the rules that span keys
    variant = values["model", "variant"]
    gains = GainConfig(*(values["gains", key] for key in _GAIN_KEYS))
    delays = _laws(values, "delays", _DELAY_KEYS)
    if delays is None and variant == VARIANT_STABILIZED and gains.any_delayed:
        _fail("delayed gains need [delays] tau1, tau2 and tau3")
    damping = _laws(values, "damping", _DAMPING_KEYS)
    fit_window = (values["fit", "window_start"], values["fit", "window_end"])
    if not fit_window[0] < fit_window[1]:
        _fail(f"[fit] needs window_start < window_end, got {fit_window}")
    initial = _section(values, "initial")
    n = values["grid", "n"]
    # refuse here only a mode that no grid of the document holds;
    # ``build_initial`` refuses a mode on each grid a command runs
    largest, source = max(
        (n, "[grid] n"),
        (max(values["convergence", "resolutions"], default=n), "the finest of [convergence] resolutions"),
        (values["convergence", "n"], "[convergence] n"),
        key=lambda bound: bound[0],
    )
    if initial["preset"] == "single_mode" and not 1 <= initial["mode"] <= largest:
        _fail(
            f"[initial] single_mode needs 1 <= mode <= {source} = {largest}, "
            f"the largest grid a command runs, got {initial['mode']}"
        )

    return ScenarioConfig(
        path=path,
        raw_text=raw,
        variant=variant,
        params=_physical_params(values),
        gains=gains,
        delays=delays,
        damping=damping,
        n=n,
        scheme=SchemeConfig(*(values["scheme", key] for key in ("dt", "t", "stride"))),
        initial=initial,
        fit_window=fit_window,
        hum=_section(values, "hum"),
        observability=_section(values, "observability"),
        convergence=_section(values, "convergence"),
        outdir=values["output", "dir"],
    )
