"""Configuration documents: parsing, validation, presets and canonical echo.

A config file is a JSON object with sections ``deployment``, ``radio``,
``channel``, ``policies`` and ``run``. Every key is optional (defaults
reproduce the reference parameterization); unknown keys are rejected by name.
The canonical echo emitted into result bundles parses back to an identical
:class:`~iabsim.simulate.SimConfig`.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

from .channel import ChannelParams, RadioConfig
from .errors import ConfigError, require_number
from .geometry import Region
from .policy import PolicyKind, WbfConfig, WbfKind
from .simulate import PolicySpec, SimConfig

WBF_PRESETS: dict[str, WbfConfig] = {
    "none": WbfConfig(),
    "aggressive_poly": WbfConfig(WbfKind.POLYNOMIAL, n_ht=1, k=3.0, gamma_gap_db=15.0, gamma_h_db=2.0),
    "conservative_poly": WbfConfig(WbfKind.POLYNOMIAL, n_ht=6, k=1.0, gamma_gap_db=5.0, gamma_h_db=2.0),
    "aggressive_exp": WbfConfig(WbfKind.EXPONENTIAL, n_ht=1, gamma=3.0, gamma_gap_db=15.0, gamma_h_db=2.0),
    "conservative_exp": WbfConfig(WbfKind.EXPONENTIAL, n_ht=6, gamma=1.5, gamma_gap_db=5.0, gamma_h_db=2.0),
}

_DEPLOYMENT_KEYS = {"lambda_g", "p_w", "lambda_ue", "region_width_m", "region_height_m"}
_RADIO_KEYS = {"B_hz", "ptx_dbm", "nf_db", "M", "S", "gamma_th_db"}
_CHANNEL_KEYS = {
    "los_alpha_db", "los_exponent", "los_sigma_db",
    "nlos_alpha_db", "nlos_exponent", "nlos_sigma_db",
    "outage_slope_per_m", "outage_intercept", "los_decay_per_m", "fading_sigma_db",
}
_RUN_KEYS = {"repetitions", "master_seed", "max_hops", "oracle"}
_POLICY_KEYS = {"policy", "wbf", "label"}
_WBF_KEYS = {"kind", "n_ht", "k", "gamma", "gamma_gap_db", "gamma_h_db"}
_SECTIONS = {"deployment", "radio", "channel", "policies", "run"}

_LABEL_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def _reject_unknown(section: str, doc: dict, allowed: set[str]) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(
                f"unknown key '{section}.{key}'; allowed keys: {sorted(allowed)}"
            )


def _section(doc: dict, name: str, allowed: set[str]) -> dict:
    """The object at section ``name`` of ``doc`` (empty when absent), checked for unknown keys."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' must be a JSON object, got {section!r}")
    _reject_unknown(name, section, allowed)
    return section


def _number(section: str, doc: dict, key: str, default, integer: bool = False):
    """The number at ``key``; with ``integer``, an integral float is returned as int.

    Finiteness, integrality and ranges are checked where the config
    dataclasses are built; an int too large for a float key is refused here,
    before it is converted.
    """
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{section}.{key}' must be a number, got {value!r}")
    if integer:
        return int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(value, int):
        require_number(f"{section}.{key}", value)  # refuses one beyond the float range
    return float(value)


def _parse_wbf(raw, where: str) -> WbfConfig:
    if raw is None:
        return WbfConfig()
    if isinstance(raw, str):
        preset = raw.lower()
        if preset not in WBF_PRESETS:
            raise ConfigError(
                f"unknown WBF preset '{raw}' at {where}; known presets: {sorted(WBF_PRESETS)}"
            )
        return WBF_PRESETS[preset]
    if not isinstance(raw, dict):
        raise ConfigError(f"'{where}.wbf' must be a preset name or an object, got {raw!r}")
    _reject_unknown(f"{where}.wbf", raw, _WBF_KEYS)
    kind_name = str(raw.get("kind", "none")).lower()
    try:
        kind = WbfKind(kind_name)
    except ValueError:
        raise ConfigError(
            f"'{where}.wbf.kind' must be one of {[k.value for k in WbfKind]}, got {raw.get('kind')!r}"
        ) from None
    defaults = WbfConfig()
    try:
        return WbfConfig(
            kind=kind,
            n_ht=_number(f"{where}.wbf", raw, "n_ht", defaults.n_ht, integer=True),
            k=_number(f"{where}.wbf", raw, "k", defaults.k),
            gamma=_number(f"{where}.wbf", raw, "gamma", defaults.gamma),
            gamma_gap_db=_number(f"{where}.wbf", raw, "gamma_gap_db", defaults.gamma_gap_db),
            gamma_h_db=_number(f"{where}.wbf", raw, "gamma_h_db", defaults.gamma_h_db),
        )
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _label_number(value: float) -> str:
    """``value`` as ``:g`` prints it when that is exact and has no '+'; otherwise its
    shortest round-trip form without the '+'. ``float`` of either gives ``value``
    back, so the numbers of an automatic label fix it, and it stays a legal label."""
    text = f"{value:g}"
    if "+" in text or float(text) != value:
        text = repr(float(value)).replace("+", "")
    return text


def _wbf_label(wbf: WbfConfig) -> str:
    for name, preset in WBF_PRESETS.items():
        if wbf == preset and name != "none":
            return name
    if wbf.kind == WbfKind.NONE:
        return ""
    shape = "poly" if wbf.kind == WbfKind.POLYNOMIAL else "exp"
    knob = f"k{_label_number(wbf.k)}" if wbf.kind == WbfKind.POLYNOMIAL else f"g{_label_number(wbf.gamma)}"
    return f"{shape}_nht{wbf.n_ht}_{knob}_gap{_label_number(wbf.gamma_gap_db)}_h{_label_number(wbf.gamma_h_db)}"


def _parse_policy_entry(raw, index: int) -> PolicySpec:
    where = f"policies[{index}]"
    if isinstance(raw, str):
        raw = {"policy": raw}
    if not isinstance(raw, dict):
        raise ConfigError(f"'{where}' must be a policy name or an object, got {raw!r}")
    _reject_unknown(where, raw, _POLICY_KEYS)
    name = str(raw.get("policy", "")).upper()
    try:
        kind = PolicyKind(name)
    except ValueError:
        raise ConfigError(
            f"'{where}.policy' must be one of {[p.value for p in PolicyKind]}, got {raw.get('policy')!r}"
        ) from None
    wbf = _parse_wbf(raw.get("wbf"), where)
    label = raw.get("label")
    if label is None:
        suffix = _wbf_label(wbf)
        label = kind.value if not suffix else f"{kind.value}_{suffix}"
    label = str(label)
    if not _LABEL_RE.match(label):
        raise ConfigError(
            f"'{where}.label' may only contain letters, digits, '._-', got {label!r}"
        )
    if label == "oracle":
        raise ConfigError(f"'{where}.label' must not be 'oracle' (reserved)")
    return PolicySpec(kind=kind, wbf=wbf, label=label)


def parse_config(source) -> SimConfig:
    """Build a validated SimConfig from a dict, a ``pathlib.Path`` to a JSON file, or a string.

    A string is JSON text when it starts with ``{`` and a file path otherwise;
    a file name that starts with ``{`` is read when given as a ``Path``. An
    empty document yields the full default parameterization.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        try:
            if isinstance(source, Path) or not text.lstrip().startswith("{"):
                text = Path(text).read_text(encoding="utf-8")
            doc = json.loads(text) if text.strip() else {}
        except ValueError as exc:  # bytes that are not UTF-8, JSONDecodeError, or an integer past the digit limit
            raise ConfigError(f"config document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _reject_unknown("config", doc, _SECTIONS)

    dep = _section(doc, "deployment", _DEPLOYMENT_KEYS)
    radio_doc = _section(doc, "radio", _RADIO_KEYS)
    chan = _section(doc, "channel", _CHANNEL_KEYS)
    run = _section(doc, "run", _RUN_KEYS)

    region = Region(
        width_m=_number("deployment", dep, "region_width_m", 1000.0),
        height_m=_number("deployment", dep, "region_height_m", 1000.0),
    )
    radio = RadioConfig(
        bandwidth_hz=_number("radio", radio_doc, "B_hz", 400e6),
        tx_power_dbm=_number("radio", radio_doc, "ptx_dbm", 30.0),
        noise_figure_db=_number("radio", radio_doc, "nf_db", 5.0),
        array_elements=_number("radio", radio_doc, "M", 64, integer=True),
        sectors=_number("radio", radio_doc, "S", 3, integer=True),
        snr_threshold_db=_number("radio", radio_doc, "gamma_th_db", 5.0),
    )
    channel_defaults = ChannelParams()
    channel = ChannelParams(
        **{
            key: _number("channel", chan, key, getattr(channel_defaults, key))
            for key in sorted(_CHANNEL_KEYS)
        }
    )

    raw_policies = doc.get("policies", ["HQF", "WF", "PA", "MLR"])
    if not isinstance(raw_policies, list) or not raw_policies:
        raise ConfigError("'policies' must be a nonempty list")
    policies = tuple(_parse_policy_entry(entry, i) for i, entry in enumerate(raw_policies))

    oracle = run.get("oracle", False)
    if not isinstance(oracle, bool):
        raise ConfigError(f"'run.oracle' must be a boolean, got {oracle!r}")

    return SimConfig(
        lambda_g=_number("deployment", dep, "lambda_g", 30.0),
        p_w=_number("deployment", dep, "p_w", 0.3),
        lambda_ue=_number("deployment", dep, "lambda_ue", 100.0),
        region=region,
        radio=radio,
        channel=channel,
        policies=policies,
        repetitions=_number("run", run, "repetitions", 1000, integer=True),
        master_seed=_number("run", run, "master_seed", 1, integer=True),
        max_hops=_number("run", run, "max_hops", 30, integer=True),
        oracle_enabled=oracle,
    )


def config_document(cfg: SimConfig) -> dict:
    """Canonical, fully explicit document; ``parse_config`` of it reproduces ``cfg``."""
    return {
        "deployment": {
            "lambda_g": cfg.lambda_g,
            "p_w": cfg.p_w,
            "lambda_ue": cfg.lambda_ue,
            "region_width_m": cfg.region.width_m,
            "region_height_m": cfg.region.height_m,
        },
        "radio": {
            "B_hz": cfg.radio.bandwidth_hz,
            "ptx_dbm": cfg.radio.tx_power_dbm,
            "nf_db": cfg.radio.noise_figure_db,
            "M": cfg.radio.array_elements,
            "S": cfg.radio.sectors,
            "gamma_th_db": cfg.radio.snr_threshold_db,
        },
        "channel": {key: getattr(cfg.channel, key) for key in sorted(_CHANNEL_KEYS)},
        "policies": [
            {
                "policy": spec.kind.value,
                "wbf": {
                    "kind": spec.wbf.kind.value,
                    "n_ht": spec.wbf.n_ht,
                    "k": spec.wbf.k,
                    "gamma": spec.wbf.gamma,
                    "gamma_gap_db": spec.wbf.gamma_gap_db,
                    "gamma_h_db": spec.wbf.gamma_h_db,
                },
                "label": spec.label,
            }
            for spec in cfg.policies
        ],
        "run": {
            "repetitions": cfg.repetitions,
            "master_seed": cfg.master_seed,
            "max_hops": cfg.max_hops,
            "oracle": cfg.oracle_enabled,
        },
    }
