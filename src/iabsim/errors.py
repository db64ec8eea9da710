import math
import numbers
import sys
from dataclasses import field, fields, is_dataclass
from enum import Enum


class ConfigError(ValueError):
    """Invalid configuration value or document; message names the offending key."""


def param(key: str, default, **bounds):
    """A config dataclass field read from document key ``key`` (``section.name``).

    Its default is the document's default, and its kind follows from it: bool,
    enum or number. A number is held to the ``require_number`` ``bounds``
    (``integer``, ``at_least``, ``above``) by :func:`check_params`."""
    return field(default=default, metadata={"key": key, **bounds})


def check_params(obj) -> None:
    """Hold each field of ``obj`` declared by :func:`param`, or nesting a config dataclass, to the
    kind of its default: a bool, a member of the same enum, that dataclass, or a number that passes
    ``require_number``, which an integer field then holds as an int and any other as a float."""
    for f in fields(obj):
        value, kind = getattr(obj, f.name), type(f.default)
        if "key" in f.metadata and not issubclass(kind, (bool, Enum)):
            require_number(value=value, **f.metadata)
            object.__setattr__(obj, f.name, int(value) if f.metadata.get("integer") else float(value))
        elif ("key" in f.metadata or is_dataclass(kind)) and not isinstance(value, kind):
            wanted = f"one of {[k.value for k in kind]}" if issubclass(kind, Enum) else f"a {kind.__name__}"
            raise ConfigError(f"{f.metadata.get('key', f.name)} must be {wanted}, got {value!r}")


def key_of(obj, name: str) -> str:
    """The document key of field ``name`` of config dataclass ``obj``."""
    return obj.__dataclass_fields__[name].metadata["key"]


def require_number(key: str, value, *, integer: bool = False, at_least=None, above=None) -> None:
    """Raise a ConfigError naming ``key`` unless ``value`` is a number (not a bool) that is finite,
    integral when ``integer`` is set, ``>= at_least`` and ``> above`` (bounds that are given).

    A Python int is checked exactly, whatever its size; for a float key it must
    also fit in a float, and it must have no more decimal digits than Python
    prints (``sys.get_int_max_str_digits``), or the outputs that echo it fail."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if isinstance(value, int):
        if not integer and abs(value) > sys.float_info.max:
            raise ConfigError(f"{key} must be finite, got an integer beyond the float range")
    elif not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    if integer and value != int(value):
        raise ConfigError(f"{key} must be an integer, got {value}")
    if at_least is not None and value < at_least:
        raise ConfigError(f"{key} must be >= {at_least}, got {_shown(value)}")
    if above is not None and value <= above:
        raise ConfigError(f"{key} must be > {above}, got {_shown(value)}")
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if isinstance(value, int) and digits and value.bit_length() > 3 * digits and abs(value) >= 10**digits:
        raise ConfigError(f"{key} must have at most {digits} decimal digits, got {_shown(value)}")


def require_number_or_inf(key: str, value) -> None:
    """Raise a ConfigError naming ``key`` unless ``value`` is +inf, -inf or passes ``require_number``."""
    if not (isinstance(value, numbers.Real) and value in (math.inf, -math.inf)):
        require_number(key, value)


def _shown(value) -> str:
    """``value`` for an error message; an int too long to print in full is given by its size.

    Python refuses to print an int of more than 4300 digits by default."""
    if isinstance(value, int) and value.bit_length() > 256:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    return f"{value}"
