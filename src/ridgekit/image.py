"""The 8-bit grayscale image, PGM file I/O and the row bands the front end
works in."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
        samples = values[:npix]
        # like a P5 byte, a P2 sample is a decimal 0..255 (at most 3 digits)
        bad = next((v for v in samples if not (v.isdigit() and len(v) <= 3 and int(v) <= 255)), None)
        if bad is not None:
            raise PgmError(f"malformed pixel data: expected an integer 0..255, got {bad!r}")
        arr = np.array([int(v) for v in samples], dtype=np.uint8)
    if arr.max() > maxval:
        raise PgmError("pixel value outside [0, maxval]")
    return GrayImage(arr.reshape(height, width))


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


def _bands(length: int, unit_pixels: int, unit: int = 1):
    """Bands (start, stop) covering range(length): as many whole `unit`s as
    fit in BAND_PIXELS (at least one; the last may be partial) at
    unit_pixels per index."""
    step = max(1, BAND_PIXELS // (unit_pixels * unit)) * unit
    for start in range(0, length, step):
        yield start, min(start + step, length)


def invert(img: GrayImage) -> GrayImage:
    """Flip intensities (255 - I). Used to make dark ridges bright before
    thresholding."""
    return GrayImage(255 - img.pixels)
