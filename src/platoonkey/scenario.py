"""Declarative scenario files: `key = value` lines, `#` comments.

Every key has a typed default; unknown keys are rejected with the line
number.  ``serialize_scenario`` emits a canonical document (schema order,
repr-exact floats) that parses back to an equal scenario, and sweeps are
described by an axis name plus a value list.

The keys are the fields of ChannelParams, PlatoonGeometry,
ProtocolConfig and QuantizerConfig followed by those of Scenario itself;
``serialize_scenario(Scenario())`` lists every key with its default, in
document order.  A secret key holds ceil(log2(n_intervals)) bits a slot.

A sweep names one of ``SWEEP_AXES``.  The eavesdropper axis takes
``TAG:distance`` tokens (e.g. ``P1:3``); numeric axes take numbers.
Seeds accept comma lists and inclusive ``a..b`` ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace

from .channel import EAVESDROPPER_POSITIONS, ChannelParams, PlatoonGeometry
from .keygen import KeygenConfig
from .protocol import ProtocolConfig
from .quantizer import QuantizerConfig

__all__ = [
    "ParseError",
    "Scenario",
    "SWEEP_AXES",
    "parse_scenario",
    "serialize_scenario",
    "sweep_labels",
]

# sweep axis -> the one key it varies; "eavesdropper" varies two keys
_AXIS_KEYS = {
    "pair_distance": "pair_distance_m",
    "n_intervals": "n_intervals",
    "z_iterations": "z_iterations",
    "n_vehicles": "n_vehicles",
    "shadowing_common_fraction": "shadowing_common_fraction",
    "shadowing_autocorr": "shadowing_autocorr",
}
SWEEP_AXES = ("none", *_AXIS_KEYS, "eavesdropper")


class ParseError(ValueError):
    """Scenario document violates the schema."""

    def __init__(self, message: str, line: int | None = None,
                 fieldname: str | None = None):
        self.line = line
        self.fieldname = fieldname
        where = f" (line {line}" + (f", field '{fieldname}')" if fieldname else ")") \
            if line is not None else (f" (field '{fieldname}')" if fieldname else "")
        super().__init__(message + where)


def _check_seeds(seeds) -> None:
    """Documents' and Scenarios' seed rule: some seeds, none negative or repeated."""
    if not seeds:
        raise ValueError("at least one seed is required")
    ordered = sorted(seeds)
    if ordered[0] < 0:
        raise ValueError(f"seeds must be non-negative, got {ordered[0]}")
    # a repeated seed would plant its cycle's key twice in the corpus
    repeats = [a for a, b in zip(ordered, ordered[1:]) if a == b]
    if repeats:
        raise ValueError(f"seed {repeats[0]} is listed more than once")


def _check_distinct(values, labels) -> None:
    """Documents' and Scenarios' sweep rule: no value repeats an earlier one
    (it would run the same point twice); ``labels[i]`` names ``values[i]``."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"sweep value {labels[i]} repeats {labels[values.index(v)]}")


@dataclass(frozen=True)
class Scenario:
    """Fully resolved experiment description."""

    channel: ChannelParams = ChannelParams()
    geometry: PlatoonGeometry = PlatoonGeometry(n_vehicles=4, pair_distance_m=2.0)
    protocol: ProtocolConfig = ProtocolConfig()
    quantizer: QuantizerConfig = QuantizerConfig()
    keygen: KeygenConfig = KeygenConfig()  # sets no document key (see KeygenConfig)
    slots: int = 200
    sweep_axis: str = "none"
    sweep_values: tuple = ()
    seeds: tuple[int, ...] = tuple(range(100))

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"sweep_axis must be one of {SWEEP_AXES}")
        if self.sweep_axis != "none" and not self.sweep_values:
            raise ValueError("sweep_values required when sweep_axis is set")
        if self.sweep_axis == "none" and self.sweep_values:
            raise ValueError("sweep_values need a sweep_axis")
        if self.sweep_axis in _AXIS_KEYS and _axis_cast(self.sweep_axis) is int:
            # at_point casts with int, which would run 4.5 as 4
            for v in self.sweep_values:
                if v % 1:
                    raise ValueError(f"sweep value {v} is not an integer")
        _check_distinct(self.sweep_values, self.sweep_values)
        _check_seeds(self.seeds)

    def points(self) -> list["Scenario"]:
        """One fully resolved single-point scenario per sweep value."""
        if self.sweep_axis == "none":
            return [self]
        return [self.at_point(v) for v in self.sweep_values]

    def at_point(self, value) -> "Scenario":
        base = replace(self, sweep_axis="none", sweep_values=())
        if self.sweep_axis == "eavesdropper":
            tag, dist = value
            return replace(base, geometry=replace(
                self.geometry, eavesdropper_position=tag,
                eavesdropper_distance_m=_parse_float(dist)))
        key = _AXIS_KEYS[self.sweep_axis]
        section = _SCHEMA[key][0]
        return replace(base, **{section: replace(
            getattr(self, section), **{key: _axis_cast(self.sweep_axis)(value)})})


_DEFAULT = Scenario()


def _schema() -> dict[str, tuple[str | None, str]]:
    """key -> (section, declared type) in document order; the section is
    None for a field of Scenario itself, and the types are annotation
    strings such as 'tuple[int, ...]' (every module postpones them)."""
    schema = {}
    for top in fields(Scenario):
        value = getattr(_DEFAULT, top.name)
        if is_dataclass(value):
            schema.update({f.name: (top.name, f.type) for f in fields(value)})
        else:
            schema[top.name] = (None, top.type)
    return schema


_SCHEMA = _schema()
_SECTIONS = tuple(dict.fromkeys(s for s, _ in _SCHEMA.values() if s is not None))


def _parse_float(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _axis_cast(axis: str):
    """Parser of a numeric axis's values."""
    return int if _SCHEMA[_AXIS_KEYS[axis]][1] == "int" else _parse_float


def _parse_seeds(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            a, b = (int(end) for end in token.split("..", 1))
            if b < a:
                raise ValueError(f"seed range {token} is descending")
            out.extend(range(a, b + 1))
        else:
            out.append(int(token))
    _check_seeds(out)
    return tuple(out)


def _parse_sweep_values(axis: str, text: str) -> tuple:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if axis == "none" and tokens:
        raise ValueError("sweep_values need a sweep_axis")
    if axis == "eavesdropper":
        vals = []
        for t in tokens:
            tag, _, dist = t.partition(":")
            if tag not in EAVESDROPPER_POSITIONS or not dist:
                raise ValueError(f"expected TAG:distance, got {t!r}")
            vals.append((tag, _parse_float(dist)))
    else:
        vals = [_axis_cast(axis)(t) for t in tokens]
    _check_distinct(vals, tokens)
    return tuple(vals)


# declared type -> value parser; sweep values ('tuple') stay text until
# the axis is known
_PARSERS = {"float": _parse_float, "int": int, "str": str, "tuple": str,
            "tuple[int, ...]": _parse_seeds}


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; defaults fill absent keys."""
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ParseError(f"unknown key {key!r}", lineno, key)
        if key in raw:
            raise ParseError(f"duplicate key {key!r}", lineno, key)
        raw[key] = value
        lines[key] = lineno

    # values are converted only once every line's syntax has been checked
    typed: dict = {}
    for key, value in raw.items():
        try:
            typed[key] = _PARSERS[_SCHEMA[key][1]](value)
        except ValueError as exc:
            raise ParseError(str(exc), lines[key], key) from None

    axis = typed.get("sweep_axis", "none")
    if axis not in SWEEP_AXES:
        raise ParseError(f"sweep_axis must be one of {SWEEP_AXES}",
                         lines.get("sweep_axis"), "sweep_axis")
    if "sweep_values" in typed:
        try:
            typed["sweep_values"] = _parse_sweep_values(axis, typed["sweep_values"])
        except ValueError as exc:
            raise ParseError(str(exc), lines["sweep_values"], "sweep_values") from None

    def changes(section: str | None) -> dict:
        return {k: v for k, v in typed.items() if _SCHEMA[k][0] == section}

    try:
        # sections are built in field order, so the first invalid section
        # in that order names the error
        sections = {s: replace(getattr(_DEFAULT, s), **changes(s)) for s in _SECTIONS}
        scenario = replace(_DEFAULT, **sections, **changes(None))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    try:
        scenario.points()
    except ValueError as exc:
        raise ParseError(str(exc), lines["sweep_values"], "sweep_values") from None
    return scenario


def sweep_labels(s: Scenario) -> list[str]:
    """The one writer of a sweep value: each point's token as the document
    holds it, floats repr-exact; ``-`` without an axis."""
    if s.sweep_axis == "none":
        return ["-"]
    if s.sweep_axis == "eavesdropper":
        return [f"{tag}:{dist}" for tag, dist in s.sweep_values]
    if _axis_cast(s.sweep_axis) is int:  # 4.0 is written 4, which parses back
        return [str(int(v)) for v in s.sweep_values]
    return [str(v) for v in s.sweep_values]


def _format_seeds(seeds: tuple[int, ...]) -> str:
    # compact consecutive runs into a..b ranges
    out: list[str] = []
    i = 0
    while i < len(seeds):
        j = i
        while j + 1 < len(seeds) and seeds[j + 1] == seeds[j] + 1:
            j += 1
        out.append(str(seeds[i]) if j == i else f"{seeds[i]}..{seeds[j]}")
        i = j + 1
    return ",".join(out)


# declared type -> value formatter; any other is written with str (numpy floats too)
_FORMATTERS = {"tuple[int, ...]": _format_seeds}


def serialize_scenario(s: Scenario) -> str:
    """Canonical scenario document; parses back to an equal Scenario."""
    lines = []
    for key, (section, kind) in _SCHEMA.items():
        value = getattr(s if section is None else getattr(s, section), key)
        if key == "sweep_values":
            if not value:
                continue
            text = ",".join(sweep_labels(s))
        else:
            text = _FORMATTERS.get(kind, str)(value)
        lines.append(f"{key} = {text}\n")
    return "".join(lines)
