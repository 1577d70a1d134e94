"""Pipeline configuration: one flat record of every tunable, loadable from a
key = value file with CLI overrides, echoed into reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from . import enhance
from .binary import BinarizeParams
from .evaluate import DEFAULT_TOLERANCE
from .image import DEFAULT_TARGET_MEAN, DEFAULT_TARGET_VARIANCE
from .minutiae import PostprocessParams


@dataclass(frozen=True)
class PipelineConfig:
    block_size: int = enhance.DEFAULT_BLOCK_SIZE
    smooth_sigma: float = enhance.DEFAULT_SMOOTH_SIGMA
    freq_window: int = enhance.DEFAULT_FREQ_WINDOW
    sigma: float = enhance.DEFAULT_SIGMA
    reject_threshold: float = enhance.DEFAULT_REJECT_THRESHOLD
    coherence_floor: float = enhance.DEFAULT_COHERENCE_FLOOR
    variance_floor: float = enhance.DEFAULT_VARIANCE_FLOOR
    target_mean: float = DEFAULT_TARGET_MEAN
    target_variance: float = DEFAULT_TARGET_VARIANCE
    threshold: str = "auto"  # "auto" or an integer 0..255 as text
    adjacency_window: int = PostprocessParams.adjacency_window
    border_distance: int = PostprocessParams.border_distance
    reconnect_gap: int = PostprocessParams.reconnect_gap
    spur_length: int = PostprocessParams.spur_length
    tolerance: float = DEFAULT_TOLERANCE
    dump_intermediates: bool = False

    def __post_init__(self):
        for f in fields(self):
            if isinstance(f.default, float) and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name}: must be finite")
        if self.block_size < 4:
            raise ValueError("block_size must be >= 4")
        if self.freq_window < 1:
            raise ValueError("freq_window must be >= 1")
        if not 0.0 <= self.reject_threshold <= 1.0:
            raise ValueError("reject_threshold must lie in [0, 1]")
        if self.target_variance <= 0:
            raise ValueError("target_variance must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.threshold != "auto":
            try:
                value = int(self.threshold)
            except ValueError:
                raise ValueError(
                    f"threshold: expected 'auto' or an integer 0..255, got {self.threshold!r}"
                ) from None
            BinarizeParams(value)  # raises outside 0..255
        self.postprocess_params()  # raises on a negative window

    def postprocess_params(self) -> PostprocessParams:
        return PostprocessParams(
            adjacency_window=self.adjacency_window,
            border_distance=self.border_distance,
            reconnect_gap=self.reconnect_gap,
            spur_length=self.spur_length,
        )

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
    pairs = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
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
        known = {f.name for f in fields(PipelineConfig)}
        for key, text in read_key_values(path):
            if key in ("sigma_x", "sigma_y"):
                raise ValueError(f"{path}: config key {key} is now 'sigma', one isotropic envelope")
            if key not in known:
                raise ValueError(f"{path}: unknown config key {key!r}")
            values[key] = _coerce(path, key, text)
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    return PipelineConfig(**values)


def _coerce(path: str | Path, key: str, text: str):
    """The file value of key, converted to its field's type and checked on
    its own against PipelineConfig's rules; errors name the file and key."""
    kind = type(getattr(PipelineConfig, key))
    try:
        value = _BOOL[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ValueError(
            f"{path}: config key {key}: expected {kind.__name__}, got {text!r}"
        ) from None
    try:
        PipelineConfig(**{key: value})
    except ValueError as exc:
        message = str(exc).removeprefix(f"{key}: ")
        raise ValueError(f"{path}: config key {key}: {message}") from None
    return value
