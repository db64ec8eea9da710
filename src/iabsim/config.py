"""Configuration documents: parsing, validation, presets and canonical echo.

A config file is a JSON object with sections ``deployment``, ``radio``,
``channel``, ``policies`` and ``run``. Every key is optional (defaults
reproduce the reference parameterization); unknown keys are rejected by name.
The canonical echo emitted into result bundles parses back to an identical
:class:`~iabsim.simulate.SimConfig`.
"""
from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path

from .errors import ConfigError
from .policy import WBF_PRESETS, PolicyKind, WbfConfig
from .simulate import PolicySpec, SimConfig

def _reject_unknown(section: str, doc: dict, allowed) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(
                f"unknown key '{section}.{key}'; allowed keys: {sorted(allowed)}"
            )


def _section(doc: dict, name: str, allowed) -> dict:
    """The object at section ``name`` of ``doc`` (empty when absent), checked for unknown keys."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' must be a JSON object, got {section!r}")
    _reject_unknown(name, section, allowed)
    return section


def _read(sections: dict, f):
    """The value of ``param`` field ``f`` in its section of ``sections``, or the field's
    default when absent; an enum field's value, in any letter case, gives its member.
    The config dataclasses check each value where they are built, naming its key."""
    section, name = f.metadata["key"].split(".")
    if name not in sections[section]:
        return f.default
    value = sections[section][name]
    if isinstance(f.default, Enum):
        try:
            return type(f.default)(str(value).lower())
        except ValueError:
            return value  # no member: refused where the dataclass is built
    return value


def _build(cls, sections: dict, **given):
    """``cls`` with each ``param`` field read from its section in ``sections`` and each
    nested config dataclass built likewise; ``given`` fields are passed as they are."""
    for f in fields(cls):
        if "key" in f.metadata:
            given[f.name] = _read(sections, f)
        elif is_dataclass(f.default):
            given[f.name] = _build(type(f.default), sections)
    return cls(**given)


def _echo(obj, doc: dict) -> dict:
    """``doc`` with the value of each ``param`` field of ``obj`` and of its nested
    config dataclasses added at its key, in declaration order."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "key" in f.metadata:
            section, name = f.metadata["key"].split(".")
            doc.setdefault(section, {})[name] = value.value if isinstance(value, Enum) else value
        elif is_dataclass(value):
            _echo(value, doc)
    return doc


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
    _reject_unknown(f"{where}.wbf", raw, _DEFAULTS["policies"][0]["wbf"])
    try:
        return _build(WbfConfig, {"wbf": raw})
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_policy_entry(raw, index: int) -> PolicySpec:
    where = f"policies[{index}]"
    if isinstance(raw, str):
        raw = {"policy": raw}
    if not isinstance(raw, dict):
        raise ConfigError(f"'{where}' must be a policy name or an object, got {raw!r}")
    _reject_unknown(where, raw, _DEFAULTS["policies"][0])
    name = str(raw.get("policy", "")).upper()
    try:
        kind = PolicyKind(name)
    except ValueError:
        raise ConfigError(
            f"'{where}.policy' must be one of {[p.value for p in PolicyKind]}, got {raw.get('policy')!r}"
        ) from None
    label = raw.get("label")
    return PolicySpec(kind=kind, wbf=_parse_wbf(raw.get("wbf"), where), label="" if label is None else str(label))


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
    _reject_unknown("config", doc, _DEFAULTS)
    sections = {name: _section(doc, name, keys) for name, keys in _DEFAULTS.items() if name != "policies"}
    given = {}
    if "policies" in doc:
        raw_policies = doc["policies"]
        if not isinstance(raw_policies, list) or not raw_policies:
            raise ConfigError("'policies' must be a nonempty list")
        given["policies"] = tuple(_parse_policy_entry(entry, i) for i, entry in enumerate(raw_policies))
    return _build(SimConfig, sections, **given)


def config_document(cfg: SimConfig) -> dict:
    """Canonical, fully explicit document; ``parse_config`` of it reproduces ``cfg``.

    Keys are listed in the order their fields are declared."""
    doc = _echo(cfg, {})
    doc["policies"] = [{"policy": spec.kind.value, **_echo(spec.wbf, {}), "label": spec.label} for spec in cfg.policies]
    doc["run"] = doc.pop("run")  # after the policies, as in the README
    return doc


# The document of the defaults: its sections and their keys are the ones allowed.
_DEFAULTS = config_document(SimConfig())
