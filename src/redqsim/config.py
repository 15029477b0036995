"""Input fields: ConfigError and the one check every input dataclass runs.

Each input dataclass (red.RedParams, engine.FlowGroup, engine.Scenario,
droplaw.SizeStream) has one table of Field rows, next to the class.  A
row holds everything about one field that does not involve another
field: its scenario-file key, the attribute, the type, the conversion
from file text and a single-field rule.  Each __post_init__ runs
check_fields() over its table and then its own cross-field rules; the
scenario parser reads the same rows, so each key is spelled once.
"""

from __future__ import annotations

import enum
from math import isfinite
from typing import Any, Callable


class ConfigError(ValueError):
    """Invalid scenario input; names the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class Field:
    """One input field of a dataclass.

    key names the field in a scenario file and in every error; name is
    the attribute, key unless given.  kind is the field's type; a float
    field takes an int too, stored as given, and no field takes a bool.
    parse turns file text into the value, or is None for a field no file
    key sets.  rule, if any, must hold for the value; says is what it
    requires.  required says whether a file must give the key.
    """

    __slots__ = ("key", "name", "kind", "parse", "rule", "says", "required")

    def __init__(self, key: str, kind: type, parse: Callable[[str], Any] | None,
                 rule: Callable[[Any], bool] | None = None, says: str = "", *,
                 name: str = "", required: bool = True):
        self.key, self.name, self.kind, self.parse = key, name or key, kind, parse
        self.rule, self.says, self.required = rule, says, required


def kind_text(kind: type) -> str:
    """What a value of kind is called in an error."""
    if issubclass(kind, enum.Enum):
        return f"a {kind.__name__} ({', '.join(m.value for m in kind)})"
    return {int: "an integer", float: "a number"}.get(kind, f"a {kind.__name__}")


def check_fields(record, table: tuple[Field, ...], where: str = "") -> None:
    """Raise a ConfigError naming the key of the first field of record
    that breaks its row: a value of another type, a number that is not
    finite, or a broken rule.  where ends each message's first clause."""
    for row in table:
        value = getattr(record, row.name)
        kind, cls = row.kind, type(value)
        number = kind is float
        if cls is not kind and (cls is bool or not isinstance(value, (int, float) if number else kind)):
            raise ConfigError(row.key, f"must be {kind_text(kind)}{where}, got {value!r}")
        if number and not isfinite(value):
            raise ConfigError(row.key, f"must be finite{where}")
        rule = row.rule
        if rule is not None and not rule(value):
            raise ConfigError(row.key, row.says + where)
