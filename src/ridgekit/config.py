"""Pipeline configuration: one flat record of every tunable, loadable from a
key = value file with CLI overrides, echoed into reports. The widths that
Hong's method fixes (orientation smoothing, frequency window, Gabor
envelope) are constants of the enhance module, not keys."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Real
from pathlib import Path

from .evaluate import DEFAULT_TOLERANCE


@dataclass(frozen=True)
class PipelineConfig:
    block_size: int = 16
    reject_threshold: float = 0.25
    coherence_floor: float = 0.3
    variance_floor: float = 10.0  # block variance x NORMALIZED_VARIANCE / capture variance
    adjacency_window: int = 6
    border_distance: int = 10
    spur_length: int = 6  # ridge-path distance; endings at <= this are spurs
    tolerance: float = DEFAULT_TOLERANCE
    dump_intermediates: bool = False

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if kind is float:
                if isinstance(value, bool) or not isinstance(value, Real):
                    raise ValueError(f"{f.name} must be a real number")
                if not math.isfinite(value):
                    raise ValueError(f"{f.name}: must be finite")
            elif kind is int and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer")
            elif kind is bool and type(value) is not bool:
                raise ValueError(f"{f.name} must be a bool")
        if self.block_size < 4:
            raise ValueError("block_size must be >= 4")
        if self.block_size > 2048:  # the int32 gradient sums: 2048 x 1020^2 < 2^31
            raise ValueError("block_size must be <= 2048")
        if not 0.0 <= self.reject_threshold <= 1.0:
            raise ValueError("reject_threshold must lie in [0, 1]")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        for name in ("adjacency_window", "border_distance", "spur_length"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def echo_lines(self) -> list[str]:
        """Stable key=value listing for report embedding."""
        return [
            f"{f.name} = {getattr(self, f.name)}"
            for f in sorted(fields(self), key=lambda f: f.name)
        ]


def read_key_values(path: str | Path) -> list[tuple[str, str]]:
    """(key, value) pairs of a key = value file, in file order.

    ``#`` starts a comment; blank lines are skipped. Keys and values are
    stripped; a value may itself contain ``=``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    pairs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        pairs.append((key, value))
    return pairs


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def load_config(path: str | Path | None = None, **overrides) -> PipelineConfig:
    """Build a config from defaults, an optional key = value file, and
    keyword overrides (CLI flags), in that precedence order."""
    values: dict[str, object] = {}
    if path is not None:
        for key, text in read_key_values(path):
            values[key] = coerce(PipelineConfig, "config", path, key, text)
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    return PipelineConfig(**values)


def coerce(record, noun: str, path: str | Path, key: str, text: str):
    """The file value of key, converted to the type of the record's field and
    checked alone. Only fields with a scalar default can be set from a file."""
    kind = type({f.name: f.default for f in fields(record)}.get(key))
    if kind not in (bool, int, float, str):
        raise ValueError(f"{path}: unknown {noun} key {key!r}")
    try:
        value = _BOOL[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ValueError(f"{path}: {noun} key {key}: expected {kind.__name__}, got {text!r}") from None
    return checked(record, noun, path, key, value)


def checked(record, noun: str, path: str | Path, key: str, value):
    """value, if record(key=value) keeps the record's rules; else an error naming file and key."""
    try:
        record(**{key: value})
    except ValueError as exc:
        raise ValueError(f"{path}: {noun} key {key}: {str(exc).removeprefix(f'{key}: ')}") from None
    return value
