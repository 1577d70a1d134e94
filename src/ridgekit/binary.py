"""Binarization of enhanced images and thinning to a 1-pixel skeleton."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import GrayImage


@dataclass(frozen=True)
class BinarizeParams:
    """Threshold separating background from ridge intensities."""

    threshold: int

    def __post_init__(self):
        if not 0 <= self.threshold <= 255:
            raise ValueError(f"threshold {self.threshold} outside [0, 255]")


@dataclass(frozen=True)
class BinaryImage:
    """Per-pixel ridge (1) / background (0) bitmap."""

    bits: np.ndarray  # (height, width), uint8 in {0, 1}

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 2:
            raise ValueError(f"expected 2-D bit array, got shape {bits.shape}")
        if bits.dtype.kind in "bu":  # the pipeline's uint8 bitmaps: a cheap test
            valid = bits.size == 0 or bits.max() <= 1
        else:
            valid = np.isin(bits, (0, 1)).all()
        if not valid:
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits.astype(np.uint8))


@dataclass(frozen=True)
class Skeleton(BinaryImage):
    """Ridge bitmap thinned to 1-pixel-wide curves."""


def binarize(img: GrayImage, params: BinarizeParams) -> BinaryImage:
    """Threshold: ridge (1) where intensity >= threshold, else background."""
    return BinaryImage((img.pixels >= params.threshold).astype(np.uint8))


def auto_threshold(img: GrayImage, mask) -> BinarizeParams:
    """Mean intensity over recoverable pixels, rounded to nearest integer.

    ``mask`` is a RegionMask covering the image.
    """
    sel = mask.pixel_mask(img.height, img.width)
    if not sel.any():
        raise ValueError("cannot choose threshold: no recoverable pixels")
    mean = img.pixels[sel].astype(np.float64).mean()
    return BinarizeParams(int(np.rint(mean)))


# 8-neighbor offsets (dy, dx): N, NE, E, SE, S, SW, W, NW. Bit k of a
# neighbor code is neighbor k; skeleton walks scan neighbors in this order.
_NEIGHBOR_OFFSETS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def _deletable(code: int) -> bool:
    """Deletion rule for a ridge pixel whose 8-neighbor byte is `code`
    (bit k = neighbor k).

    The pixel may go when its connectivity (Hilditch) number is 1, so
    deleting it keeps 8-connected ridge and 4-connected background topology,
    and it has at least 2 ridge neighbors, so endpoints of open curves stay.
    """
    n, ne, e, se, s, sw, w, nw = ((code >> k) & 1 for k in range(8))
    conn = (
        (1 - e) * max(ne, n) + (1 - n) * max(nw, w)
        + (1 - w) * max(sw, s) + (1 - s) * max(se, e)
    )
    return conn == 1 and n + ne + e + se + s + sw + w + nw >= 2


_DELETABLE = np.array([_deletable(code) for code in range(256)], np.uint8)
_CODE_WEIGHTS = tuple(np.uint8(1 << k) for k in range(8))


def thin(bin_img: BinaryImage) -> Skeleton:
    """Peel ridge borders until nothing changes, preserving topology.

    Each full pass visits the four border directions (N, S, E, W); within a
    direction, deletions run over the four 2x2 checkerboard subfields so that
    simultaneously deleted pixels are never 8-adjacent. Every deleted pixel is
    simple (connectivity number 1) with at least 2 ridge neighbors at deletion
    time, so component counts are preserved and endpoints of open curves
    survive. The result is a fixpoint: thinning a skeleton returns it
    unchanged.

    The image is held as its four 2x2 phase planes, one per subfield, so a
    subfield step reads its 8 neighbors as contiguous slices of the other
    planes, packs them into one byte per pixel and looks the deletion rule
    up in a 256-entry table (Guo & Hall, CACM 1989).
    """
    h, w = bin_img.bits.shape
    # a 2-pixel zero margin keeps each pixel's phase equal to its parity and
    # gives every plane a zero ring: plane (a, b) holds pixel (y, x), with
    # y % 2 == a and x % 2 == b, at (y // 2 + 1, x // 2 + 1)
    ph, pw = (h + 5) // 2, (w + 5) // 2
    padded = np.zeros((2 * ph, 2 * pw), np.uint8)
    padded[2 : h + 2, 2 : w + 2] = bin_img.bits
    planes = [[np.ascontiguousarray(padded[a::2, b::2]) for b in (0, 1)] for a in (0, 1)]

    subfields = ((0, 0), (0, 1), (1, 0), (1, 1))
    cores = [planes[a][b][1:-1, 1:-1] for a, b in subfields]
    # neighbor k of every plane-interior pixel, as a slice of another plane
    neighbors = [
        [
            planes[(a + dy) & 1][(b + dx) & 1][
                1 + ((a + dy) >> 1) : ph - 1 + ((a + dy) >> 1),
                1 + ((b + dx) >> 1) : pw - 1 + ((b + dx) >> 1),
            ]
            for dy, dx in _NEIGHBOR_OFFSETS
        ]
        for a, b in subfields
    ]
    code = np.empty((ph - 2, pw - 2), np.uint8)
    bit = np.empty_like(code)
    kill = np.empty_like(code)
    changed = True
    while changed:
        changed = False
        for border in (0, 4, 2, 6):  # neighbor index of N, S, E, W
            # candidates fixed at direction start: ridge pixels whose
            # neighbor in this direction is background (one border layer)
            candidates = [np.greater(core, nbrs[border]) for core, nbrs in zip(cores, neighbors)]
            for core, nbrs, cand in zip(cores, neighbors, candidates):
                np.copyto(code, nbrs[0])
                for k in range(1, 8):
                    # in numpy, uint8 multiply by 2**k runs faster than left_shift
                    np.multiply(nbrs[k], _CODE_WEIGHTS[k], out=bit)
                    code |= bit
                np.take(_DELETABLE, code, out=kill)
                kill &= cand
                if kill.any():
                    core ^= kill
                    changed = True
    out = np.empty((h, w), np.uint8)
    for (a, b), core in zip(subfields, cores):
        part = out[a::2, b::2]
        part[...] = core[: part.shape[0], : part.shape[1]]
    return Skeleton(out)
