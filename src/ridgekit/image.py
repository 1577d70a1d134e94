"""Grayscale image containers, PGM file I/O and intensity normalization."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_TARGET_MEAN = 100.0
DEFAULT_TARGET_VARIANCE = 100.0
BAND_PIXELS = 32 * 1024  # the front end's working set: 2 bands of a 256^2 print, 8 of 512^2


class PgmError(ValueError):
    """Raised for malformed or unsupported PGM files."""


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image, row-major, top-left origin. Parameter
    defaults elsewhere assume 500 dpi scans."""

    pixels: np.ndarray  # (height, width), uint8

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2:
            raise ValueError(f"expected 2-D pixel array, got shape {px.shape}")
        if px.dtype != np.uint8:
            if px.min() < 0 or px.max() > 255:
                raise ValueError("intensities must lie in [0, 255]")
            px = px.astype(np.uint8)
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class NormalizedImage:
    """Real-valued image with prescribed mean and variance."""

    pixels: np.ndarray  # (height, width), float64

    def __post_init__(self):
        object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=np.float64))


def _read_header_tokens(data: bytes, count: int, start: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integer tokens, skipping # comments.

    Returns the tokens and the offset one past the whitespace byte that
    terminates the last token.
    """
    tokens: list[int] = []
    i = start
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] != ord("\n"):
                i += 1
            continue
        j = i
        while j < n and not data[j : j + 1].isspace():
            j += 1
        if j == i:
            raise PgmError("malformed header: truncated before all fields were read")
        tok = data[i:j]
        if not re.fullmatch(rb"\d+", tok):
            raise PgmError(f"malformed header: expected integer, got {tok!r}")
        tokens.append(int(tok))
        i = j
    if i >= n or not data[i : i + 1].isspace():
        raise PgmError("malformed header: missing whitespace after maxval")
    return tokens, i + 1


def load_pgm(path: str | Path) -> GrayImage:
    """Load a P2 (ASCII) or P5 (binary) PGM file with maxval <= 255."""
    path = Path(path)
    data = path.read_bytes()  # raises FileNotFoundError for missing files

    if data[:2] not in (b"P2", b"P5"):
        raise PgmError(f"malformed header: not a P2/P5 PGM file: {path}")
    magic = data[:2]

    (width, height, maxval), offset = _read_header_tokens(data, 3, 2)
    if width <= 0 or height <= 0:
        raise PgmError(f"malformed header: bad dimensions {width}x{height}")
    if maxval > 255:
        raise PgmError(f"unsupported maxval {maxval} (only maxval <= 255 supported)")
    if maxval == 0:
        raise PgmError("malformed header: maxval is 0")

    npix = width * height
    if magic == b"P5":
        raster = data[offset : offset + npix]
        if len(raster) < npix:
            raise PgmError(
                f"truncated pixel data: expected {npix} bytes, got {len(raster)}"
            )
        arr = np.frombuffer(raster, dtype=np.uint8, count=npix)
    else:
        body = re.sub(rb"#[^\n]*", b"", data[offset:])
        values = body.split()
        if len(values) < npix:
            raise PgmError(
                f"truncated pixel data: expected {npix} samples, got {len(values)}"
            )
        arr = np.array([int(v) for v in values[:npix]], dtype=np.int64)
    if arr.min() < 0 or arr.max() > maxval:
        raise PgmError("pixel value outside [0, maxval]")
    return GrayImage(arr.astype(np.uint8, copy=False).reshape(height, width))


def save_pgm(img, path: str | Path) -> None:
    """Write a binary (P5) PGM with maxval 255.

    Accepts GrayImage as well as BinaryImage/Skeleton, whose {0,1} bits are
    written as background=0 / ridge=255.
    """
    arr = getattr(img, "pixels", None)
    if arr is None:
        bits = img.bits
        arr = (bits.astype(np.uint8)) * 255
    path = Path(path)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + arr.astype(np.uint8).tobytes())


def _bands(length: int, unit_pixels: int, unit: int = 1, halo: int = 0):
    """Bands (start, stop, lo, hi) covering range(length): as many whole
    `unit`s as fit in BAND_PIXELS (at least one; the last may be partial)
    at unit_pixels per index; lo:hi widens a band by `halo`, clipped."""
    step = max(1, BAND_PIXELS // (unit_pixels * unit)) * unit
    for start in range(0, length, step):
        stop = min(start + step, length)
        yield start, stop, max(start - halo, 0), min(stop + halo, length)


def normalize(
    img: GrayImage,
    target_mean: float = DEFAULT_TARGET_MEAN,
    target_variance: float = DEFAULT_TARGET_VARIANCE,
) -> NormalizedImage:
    """Fix the image mean and variance to the given targets.

    Each pixel moves to target_mean +/- sqrt(target_variance * (I-m)^2 / v),
    keeping the sign of (I - m); m, v are the input mean and (population)
    variance. Constant images map to target_mean everywhere.

    The formula is evaluated once per grey level and the 256-entry table
    indexed with the pixels; v sums the per-pixel (I - m)^2 (from a table
    too) in numpy's order, so the output equals the per-pixel formula's
    bit for bit, and one image-sized float array is written. The tables are
    indexed by row bands (_bands), so no whole-image index array is made.
    """
    if target_variance <= 0:
        raise ValueError("target_variance must be positive")
    pixels = img.pixels
    mean = pixels.sum(dtype=np.float64) / pixels.size  # an exact integer sum
    levels = np.arange(256, dtype=np.float64)
    sq = (levels - mean) ** 2
    out = np.empty_like(pixels, dtype=np.float64)  # var sums in memory order
    bands = [slice(y0, y1) for y0, y1, _, _ in _bands(*pixels.shape)]
    for b in bands:  # indices in range; "raise" would copy out
        sq.take(pixels[b], out=out[b], mode="wrap")
    var = out.sum() / pixels.size
    if var == 0.0:
        out.fill(target_mean)
        return NormalizedImage(out)
    dev = np.sqrt(target_variance * sq / var)
    table = np.where(levels > mean, target_mean + dev, target_mean - dev)
    for b in bands:
        table.take(pixels[b], out=out[b], mode="wrap")
    return NormalizedImage(out)


def invert(img: GrayImage) -> GrayImage:
    """Flip intensities (255 - I). Used to make dark ridges bright before
    thresholding."""
    return GrayImage(255 - img.pixels)
