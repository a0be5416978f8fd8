"""Scenario configuration: a strict key = value document.

The format is INI-style with a fixed schema; unknown sections or keys are
hard errors so typos never silently fall back to defaults.  Physical
coefficients are given either as composites (rho1h1, E1h1, ...) or per
layer (rho1, h1, E1, ...); when both appear they must agree.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass

from .discretize import Grid1D, VARIANT_CONTROLLED, VARIANT_STABILIZED, build_system
from .params import (
    ConstantDamping,
    ConstantDelay,
    DampingSpec,
    DelaySpec,
    ExponentialDamping,
    GainConfig,
    PhysicalParams,
    SinusoidalDelay,
)
from .presets import (
    eigen_mode_state,
    make_histories,
    random_smooth_state,
    single_mode_state,
    zero_state,
)
from .timestep import SchemeConfig

__all__ = ["ConfigError", "ScenarioConfig", "load_config"]


class ConfigError(ValueError):
    """Malformed configuration document."""


_COMPOSITE_KEYS = ("rho1h1", "e1h1", "rho3h3", "e3h3", "rhoh", "ei", "k", "alpha", "l")
_LAYER_KEYS = ("rho1", "rho2", "rho3", "h1", "h2", "h3", "e1", "e3", "i1", "i3", "k", "l")

_SCHEMA = {
    "model": {"variant"} | set(_COMPOSITE_KEYS) | set(_LAYER_KEYS),
    "gains": {"alpha1", "beta1", "alpha2", "beta2", "alpha3", "beta3"},
    "delays": {"tau1", "tau2", "tau3"},
    "damping": {"a1", "a2", "a3"},
    "grid": {"n"},
    "scheme": {"dt", "t", "stride"},
    "initial": {"preset", "field", "mode", "amplitude", "seed", "cutoff", "prepared"},
    "fit": {"window_start", "window_end"},
    "hum": {"t", "dt", "cg_tol", "terminal_tol"},
    # the observability constant is exact, so nothing reads ``seed`` any
    # more; it stays accepted for documents that still set it
    "observability": {"t", "dt", "seed", "cutoff"},
    "convergence": {"mode", "resolutions", "dts", "reference_divide", "t", "dt", "n"},
    "output": {"dir"},
}

_VARIANTS = {
    "stabilized_delayed": VARIANT_STABILIZED,
    "controlled_conservative": VARIANT_CONTROLLED,
}


def _fail(msg):
    raise ConfigError(msg)


def _parse_law(text, kind):
    """Parse 'constant 0.5' / 'sinusoidal base=.1 amplitude=.05 frequency=10'
    / 'exp_floor floor=.5 initial=1.5 rate=2' delay or damping laws."""
    tokens = text.split()
    if not tokens:
        _fail(f"empty {kind} specification")
    name, args = tokens[0], tokens[1:]
    kv = {}
    positional = []
    for tok in args:
        if "=" in tok:
            key, _, val = tok.partition("=")
            kv[key] = float(val)
        else:
            positional.append(float(tok))
    try:
        if kind == "delay":
            if name == "constant":
                return ConstantDelay(positional[0] if positional else kv["value"])
            if name == "sinusoidal":
                return SinusoidalDelay(kv["base"], kv["amplitude"], kv["frequency"])
        else:
            if name == "constant":
                return ConstantDamping(positional[0] if positional else kv["value"])
            if name == "exp_floor":
                return ExponentialDamping(kv["floor"], kv["initial"], kv["rate"])
    except (KeyError, IndexError) as exc:
        _fail(f"{kind} law {name!r} missing parameter: {exc}")
    _fail(f"unknown {kind} law {name!r}")


@dataclass
class ScenarioConfig:
    path: str
    raw_text: str
    variant: str
    params: PhysicalParams
    gains: GainConfig
    delays: DelaySpec
    damping: DampingSpec
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
        return hashlib.sha256(self.raw_text.encode()).hexdigest()

    def build_system(self):
        return build_system(Grid1D(N=self.n, L=self.params.L), self.params, self.variant)

    def build_initial(self, sys_):
        preset = self.initial["preset"]
        if preset == "zero":
            return zero_state(sys_)
        if preset == "single_mode":
            return single_mode_state(
                sys_,
                self.initial["field"],
                self.initial["mode"],
                self.initial["amplitude"],
            )
        if preset == "eigen_mode":
            return eigen_mode_state(sys_, self.initial["mode"], self.initial["amplitude"])
        if preset == "random_smooth":
            return random_smooth_state(
                sys_,
                seed=self.initial["seed"],
                cutoff=self.initial["cutoff"],
                amplitude=self.initial["amplitude"],
                prepared=self.initial["prepared"],
            )
        _fail(f"unknown initial preset {preset!r}")

    def build_histories(self, sys_, state):
        if self.delays is None:
            return None
        return make_histories(sys_, state, self.delays)


def _get_float(sec, key, default=None):
    if key not in sec:
        if default is None:
            _fail(f"missing key {key!r}")
        return default
    try:
        return float(sec[key])
    except ValueError:
        _fail(f"key {key!r} is not a number: {sec[key]!r}")


def _get_int(sec, key, default=None):
    v = _get_float(sec, key, default)
    if v != int(v):
        _fail(f"key {key!r} must be an integer")
    return int(v)


def _get_bool(sec, key, default):
    if key not in sec:
        return default
    v = sec[key].strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    _fail(f"key {key!r} must be a boolean")


def load_config(path, overrides=None):
    """Parse and validate a scenario document; overrides is a dict like
    {'seed': 3, 'stride': 5, 'outdir': 'elsewhere'} from command-line flags."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            raw = fh.read()
        parser.read_string(raw)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")

    for section in parser.sections():
        if section not in _SCHEMA:
            _fail(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                _fail(f"unknown key {key!r} in section [{section}]")

    if "model" not in parser:
        _fail("missing [model] section")
    model = parser["model"]
    variant_name = model.get("variant", "stabilized_delayed")
    if variant_name not in _VARIANTS:
        _fail(f"unknown variant {variant_name!r}")
    variant = _VARIANTS[variant_name]

    has_composite = "rho1h1" in model
    has_layers = "rho1" in model
    if not has_composite and not has_layers:
        _fail("[model] needs composite coefficients (rho1h1, ...) or layer data (rho1, ...)")
    layer_args = None
    if has_layers:
        layer_args = dict(
            rho=(_get_float(model, "rho1"), _get_float(model, "rho2"), _get_float(model, "rho3")),
            h=(_get_float(model, "h1"), _get_float(model, "h2"), _get_float(model, "h3")),
            E=(_get_float(model, "e1"), 0.0, _get_float(model, "e3")),
            I=(_get_float(model, "i1"), 0.0, _get_float(model, "i3")),
        )
    try:
        if has_composite:
            params = PhysicalParams(
                rho1h1=_get_float(model, "rho1h1"),
                E1h1=_get_float(model, "e1h1"),
                rho3h3=_get_float(model, "rho3h3"),
                E3h3=_get_float(model, "e3h3"),
                rhoh=_get_float(model, "rhoh"),
                EI=_get_float(model, "ei"),
                k=_get_float(model, "k"),
                alpha=_get_float(model, "alpha"),
                L=_get_float(model, "l"),
            )
            if has_layers:
                bad = params.check_layer_consistency(**layer_args)
                if bad:
                    _fail(f"layer data contradicts composites: {bad}")
        else:
            params = PhysicalParams.from_layers(
                k=_get_float(model, "k"), L=_get_float(model, "l"), **layer_args
            )
    except ValueError as exc:
        raise ConfigError(str(exc))

    gains_sec = parser["gains"] if "gains" in parser else {}
    gains = GainConfig(
        alpha1=_get_float(gains_sec, "alpha1", 0.0),
        beta1=_get_float(gains_sec, "beta1", 0.0),
        alpha2=_get_float(gains_sec, "alpha2", 0.0),
        beta2=_get_float(gains_sec, "beta2", 0.0),
        alpha3=_get_float(gains_sec, "alpha3", 0.0),
        beta3=_get_float(gains_sec, "beta3", 0.0),
    )

    delays = None
    if "delays" in parser:
        dsec = parser["delays"]
        try:
            delays = DelaySpec(
                tuple(_parse_law(dsec.get(f"tau{i}", None) or _fail(f"missing tau{i}"), "delay") for i in (1, 2, 3))
            )
        except ValueError as exc:
            raise ConfigError(str(exc))
    elif variant == VARIANT_STABILIZED and gains.any_delayed:
        _fail("delayed gains need a [delays] section")

    damping = None
    if "damping" in parser:
        dsec = parser["damping"]
        try:
            damping = DampingSpec(
                tuple(_parse_law(dsec.get(f"a{i}", None) or _fail(f"missing a{i}"), "damping") for i in (1, 2, 3))
            )
        except ValueError as exc:
            raise ConfigError(str(exc))

    n = _get_int(parser["grid"], "n") if "grid" in parser else 64
    if n < 8:
        _fail("grid n must be >= 8")

    ssec = parser["scheme"] if "scheme" in parser else {}
    try:
        scheme = SchemeConfig(
            dt=_get_float(ssec, "dt", 0.01),
            T=_get_float(ssec, "t", 1.0),
            stride=_get_int(ssec, "stride", 1),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))

    isec = parser["initial"] if "initial" in parser else {}
    initial = {
        "preset": isec.get("preset", "zero") if isec else "zero",
        "field": isec.get("field", "u") if isec else "u",
        "mode": _get_int(isec, "mode", 1),
        "amplitude": _get_float(isec, "amplitude", 1.0),
        "seed": _get_int(isec, "seed", 0),
        "cutoff": _get_int(isec, "cutoff", 6),
        "prepared": _get_bool(isec, "prepared", True) if isec else True,
    }
    if initial["preset"] not in ("zero", "single_mode", "random_smooth", "eigen_mode"):
        _fail(f"unknown initial preset {initial['preset']!r}")
    if initial["field"] not in ("u", "v", "w"):
        _fail(f"unknown initial field {initial['field']!r}")

    fsec = parser["fit"] if "fit" in parser else {}
    fit_window = (_get_float(fsec, "window_start", 0.2), _get_float(fsec, "window_end", 0.9))

    hsec = parser["hum"] if "hum" in parser else {}
    hum = {
        "T": _get_float(hsec, "t", 8.0 * params.L / _slowest_wave_speed(params)),
        "dt": _get_float(hsec, "dt", 0.0) or None,
        "cg_tol": _get_float(hsec, "cg_tol", 1e-8),
        "terminal_tol": _get_float(hsec, "terminal_tol", 1e-3),
    }

    osec = parser["observability"] if "observability" in parser else {}
    observability = {
        "T": _get_float(osec, "t", hum["T"] / 2.0),
        "dt": _get_float(osec, "dt", 0.0) or None,
        "cutoff": _get_int(osec, "cutoff", 8),
    }
    for name, sec in (("hum", hum), ("observability", observability)):
        # dt = 0 (the default, stored as None) derives the step from t
        if not sec["T"] > 0.0 or (sec["dt"] is not None and not sec["dt"] > 0.0):
            _fail(f"[{name}] needs t > 0 and dt >= 0, got t = {sec['T']!r}, dt = {sec['dt']!r}")

    csec = parser["convergence"] if "convergence" in parser else {}
    convergence = {
        "mode": csec.get("mode", "both") if csec else "both",
        "resolutions": _parse_int_list(csec.get("resolutions", "16,32,64")) if csec else [16, 32, 64],
        "dts": _parse_float_list(csec.get("dts", "0.02,0.01,0.005")) if csec else [0.02, 0.01, 0.005],
        "reference_divide": _get_int(csec, "reference_divide", 16),
        "T": _get_float(csec, "t", scheme.T),
        "dt": _get_float(csec, "dt", scheme.dt),
        "n": _get_int(csec, "n", n),
    }
    if convergence["mode"] not in ("spatial", "temporal", "both"):
        _fail(f"unknown convergence mode {convergence['mode']!r}")

    outdir = parser["output"].get("dir", "out") if "output" in parser else "out"

    cfg = ScenarioConfig(
        path=path,
        raw_text=raw,
        variant=variant,
        params=params,
        gains=gains,
        delays=delays,
        damping=damping,
        n=n,
        scheme=scheme,
        initial=initial,
        fit_window=fit_window,
        hum=hum,
        observability=observability,
        convergence=convergence,
        outdir=outdir,
    )
    if overrides:
        if overrides.get("seed") is not None:
            cfg.initial["seed"] = int(overrides["seed"])
        if overrides.get("stride") is not None:
            try:
                cfg.scheme = SchemeConfig(
                    dt=cfg.scheme.dt, T=cfg.scheme.T, stride=int(overrides["stride"])
                )
            except ValueError as exc:
                raise ConfigError(str(exc))
        if overrides.get("outdir") is not None:
            cfg.outdir = overrides["outdir"]
    # a document's seed and the command-line one
    if cfg.initial["seed"] < 0:
        _fail(f"initial seed must be >= 0, got {cfg.initial['seed']}")
    return cfg


def _slowest_wave_speed(params):
    c1 = (params.E1h1 / params.rho1h1) ** 0.5
    c3 = (params.E3h3 / params.rho3h3) ** 0.5
    return min(c1, c3)


def _parse_int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        _fail(f"not an integer list: {text!r}")


def _parse_float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        _fail(f"not a number list: {text!r}")
