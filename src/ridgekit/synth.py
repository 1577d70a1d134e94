"""Seeded synthetic ridge-pattern generator with known ground truth.

Images are sinusoidal ridge patterns (dark ridges on a light background,
matching scanned-fingerprint polarity) with optional injected minutiae and
additive uniform noise. The generator returns the exact ground-truth
minutiae set, which makes it the end-to-end oracle for the extraction
pipeline.

Minutiae are rendered as phase dislocations: each injected point adds a
2*pi phase vortex to the stripe field, which terminates exactly one fringe
there while the field stays locally periodic everywhere else. The vortex
sign selects whether the terminating fringe is a ridge (ending) or a valley
(the two flanking ridges merge: bifurcation). The extra fringe runs from
the point to the image border, so no second loose end appears inside the
frame.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .config import checked, coerce, read_key_values
from .image import GrayImage
from .minutiae import BIFURCATION, CODE_KIND, ENDING, POSTPROCESSED, Minutia, MinutiaeSet

MID_INTENSITY = 127.5
RIDGE_AMPLITUDE = 100.0
MAX_CENTER = 1e6  # px, bound on |cx| and |cy| of a concentric pattern
_VORTEX_SIGN = {ENDING: 1.0, BIFURCATION: -1.0}


@dataclass(frozen=True)
class ParallelPattern:
    """Straight ridges; `angle` is the ridge direction in radians."""

    angle: float


@dataclass(frozen=True)
class ConcentricPattern:
    """Circular ridges around (cx, cy).

    Centers at or outside an image corner keep every ridge crossing the
    border and keep the vortex seam (opposite side of each injected point's
    ring) out of the frame; interior centers are allowed but can show a
    seam artifact on the far side of injected minutiae.
    """

    cx: float
    cy: float


@dataclass(frozen=True)
class SynthSpec:
    width: int = 256
    height: int = 256
    pattern: ParallelPattern | ConcentricPattern = ParallelPattern(0.0)
    period: float = 8.0
    injected: tuple[tuple[int, int, str], ...] = ()
    noise_amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "injected", tuple(self.injected))
        if min(self.width, self.height) < 1:
            raise ValueError("width and height must be >= 1")
        if not all(map(math.isfinite, vars(self.pattern).values())):
            raise ValueError("pattern: numbers must be finite")
        if isinstance(self.pattern, ConcentricPattern) and max(
                abs(self.pattern.cx), abs(self.pattern.cy)) > MAX_CENTER:
            # a farther center overflows the ring phase 2*pi*r/period
            raise ValueError(f"pattern: concentric center must have |cx|, |cy| <= {MAX_CENTER:g}")
        if not 4.0 <= self.period <= 20.0:
            raise ValueError(f"period {self.period} outside [4, 20]")
        if not 0.0 <= 2.0 * self.noise_amplitude < math.inf:  # rng.uniform needs a finite range
            raise ValueError("noise_amplitude must be >= 0 and 2*noise_amplitude finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        margin = 2.0 * self.period
        for x, y, kind in self.injected:
            if kind not in (ENDING, BIFURCATION):
                raise ValueError(f"unknown injected kind {kind!r}")
            if not (margin <= x <= self.width - 1 - margin
                    and margin <= y <= self.height - 1 - margin):
                raise ValueError(
                    f"injected point ({x}, {y}) closer than 2*period to a border"
                )
        for p, q in combinations([(x, y) for x, y, _ in self.injected], 2):
            if math.dist(p, q) < 3.0 * self.period:
                raise ValueError(f"injected points {p} and {q} closer than 3*period")


def generate(spec: SynthSpec) -> tuple[GrayImage, MinutiaeSet]:
    """Render the pattern, inject minutiae, add seeded noise.

    Identical specs produce bit-identical images. The returned ground truth
    holds exactly the injected points at their requested coordinates.
    """
    p = spec.period
    ys, xs = np.mgrid[0 : spec.height, 0 : spec.width].astype(np.float64)

    if isinstance(spec.pattern, ParallelPattern):
        a = spec.pattern.angle
        s = -xs * math.sin(a) + ys * math.cos(a)  # across ridges
        t = xs * math.cos(a) + ys * math.sin(a)  # along ridges
    else:
        cx, cy = spec.pattern.cx, spec.pattern.cy
        s = np.hypot(xs - cx, ys - cy)
        phi = np.arctan2(ys - cy, xs - cx)

    phase = 2.0 * np.pi * s / p
    truth = []
    for x0, y0, kind in spec.injected:
        if isinstance(spec.pattern, ParallelPattern):
            a = spec.pattern.angle
            s_pt = -x0 * math.sin(a) + y0 * math.cos(a)
            t_pt = x0 * math.cos(a) + y0 * math.sin(a)
            s0 = round(s_pt / p) * p  # snap onto the nearest ridge line
            ds, dt = s - s0, t - t_pt
            direction = a % (2 * math.pi)  # remaining ridge extends toward +t
        else:
            r_pt = math.hypot(x0 - cx, y0 - cy)
            phi0 = math.atan2(y0 - cy, x0 - cx)
            r0 = max(p, round(r_pt / p) * p)
            ds = s - r0
            dphi = np.mod(phi - phi0 + np.pi, 2.0 * np.pi) - np.pi
            dt = r0 * dphi  # arc length along the ring
            direction = math.atan2(math.cos(phi0), -math.sin(phi0)) % (2 * math.pi)
        phase = phase + _VORTEX_SIGN[kind] * np.arctan2(ds, dt)
        truth.append(Minutia(x0, y0, kind, direction))

    canvas = MID_INTENSITY - RIDGE_AMPLITUDE * np.cos(phase)
    if spec.noise_amplitude > 0:
        rng = np.random.default_rng(spec.seed)
        canvas = canvas + rng.uniform(
            -spec.noise_amplitude, spec.noise_amplitude, canvas.shape
        )
    pixels = np.clip(np.rint(canvas), 0, 255).astype(np.uint8)
    image_id = f"synth_{spec.seed:04d}"
    return (
        GrayImage(pixels),
        MinutiaeSet(image_id, tuple(truth), POSTPROCESSED),
    )


def parse_synth_spec(path: str | Path) -> SynthSpec:
    """Read a generator spec from a key = value file: SynthSpec's scalar
    fields, pattern = parallel:DEG | concentric:CX,CY, and one inject = x,y,E|B
    line per minutia. Other keys are errors; keys left out keep the defaults."""
    values: dict[str, object] = {}
    injected: list[tuple[int, int, str]] = []
    for key, text in read_key_values(path):
        if key == "inject":
            try:
                x, y, code = (v.strip() for v in text.split(","))
                injected.append((int(x), int(y), CODE_KIND[code]))
            except (KeyError, ValueError):
                raise ValueError(f"{path}: expected 'inject = x,y,E|B', got 'inject = {text}'") from None
        elif key == "pattern":
            values[key] = checked(SynthSpec, "spec", path, key, _parse_pattern(path, text))
        else:
            values[key] = coerce(SynthSpec, "spec", path, key, text)
    try:
        return SynthSpec(**values, injected=tuple(injected))
    except ValueError as exc:  # a rule across keys: inject spacing or borders
        raise ValueError(f"{path}: {exc}") from None


def _parse_pattern(path: str | Path, text: str) -> ParallelPattern | ConcentricPattern:
    name, _, args = text.partition(":")
    try:
        if name.strip() == "parallel":
            return ParallelPattern(math.radians(float(args or "0")))
        if name.strip() == "concentric":
            cx, cy = (float(v) for v in re.split(r"[,\s]+", args.strip()))
            return ConcentricPattern(cx, cy)
    except ValueError:
        pass
    raise ValueError(
        f"{path}: spec key pattern: expected 'parallel:DEG' or 'concentric:CX,CY', got {text!r}")
