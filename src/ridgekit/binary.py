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
    # an exact integer sum: the float mean of the selected pixels
    mean = int(img.pixels.sum(where=sel, dtype=np.int64)) / int(np.count_nonzero(sel))
    return BinarizeParams(int(np.rint(mean)))


# 8-neighbor offsets (dy, dx): N, NE, E, SE, S, SW, W, NW; skeleton walks
# scan neighbors in this order.
_NEIGHBOR_OFFSETS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def thin(bin_img: BinaryImage) -> Skeleton:
    """Peel ridge borders until nothing changes, preserving topology.

    Each full pass visits the four border directions (N, S, E, W); within a
    direction, deletions run over the four 2x2 checkerboard subfields so that
    simultaneously deleted pixels are never 8-adjacent. Every deleted pixel is
    simple (connectivity number 1) with at least 2 ridge neighbors at deletion
    time, so component counts are preserved and endpoints of open curves
    survive. The result is a fixpoint: thinning a skeleton returns it
    unchanged.

    The image is held as its four 2x2 phase planes, one per subfield, each
    stored flat with a zero ring. Every neighbor of a plane's interior is
    then one contiguous 1-D slice of another plane, and a subfield step
    evaluates Hilditch's connectivity number on those slices with array
    logic (Guo & Hall, CACM 1989).
    """
    h, w = bin_img.bits.shape
    # a 2-pixel zero margin keeps each pixel's phase equal to its parity and
    # gives every plane a zero ring: plane (a, b) holds pixel (y, x), with
    # y % 2 == a and x % 2 == b, at (y // 2 + 1, x // 2 + 1)
    ph, pw = (h + 5) // 2, (w + 5) // 2
    padded = np.zeros((2 * ph, 2 * pw), np.uint8)
    padded[2 : h + 2, 2 : w + 2] = bin_img.bits
    planes = {(a, b): padded[a::2, b::2].ravel() for a in (0, 1) for b in (0, 1)}

    # the plane interior, rows 1..ph-2, as one flat run; the ring pixels in
    # it are 0, so they are never candidates and stay 0
    lo, hi = pw + 1, (ph - 1) * pw - 1
    cores = [plane[lo:hi] for plane in planes.values()]
    # neighbor k of every interior pixel, as a flat slice of another plane
    neighbors = []
    for a, b in planes:
        nbrs = []
        for dy, dx in _NEIGHBOR_OFFSETS:
            off = ((a + dy) >> 1) * pw + ((b + dx) >> 1)
            nbrs.append(planes[(a + dy) & 1, (b + dx) & 1][lo + off : hi + off])
        neighbors.append(nbrs)
    changed = True
    while changed:
        changed = False
        for border in (0, 4, 2, 6):  # neighbor index of N, S, E, W
            # candidates fixed at direction start: ridge pixels whose
            # neighbor in this direction is background (one border layer)
            candidates = [np.greater(core, nbrs[border]) for core, nbrs in zip(cores, neighbors)]
            for core, nbrs, cand in zip(cores, neighbors, candidates):
                n, ne, e, se, s, sw, w_, nw = nbrs
                # Hilditch's connectivity number; (ne | n) > e is (1 - e) * max(ne, n)
                conn = np.greater(ne | n, e).view(np.uint8)
                conn += np.greater(nw | w_, n).view(np.uint8)
                conn += np.greater(sw | s, w_).view(np.uint8)
                conn += np.greater(se | e, s).view(np.uint8)
                degree = sum(nbrs)
                kill = cand & (conn == 1) & (degree >= 2)
                if kill.any():
                    core ^= kill
                    changed = True
    for (a, b), plane in planes.items():
        padded[a::2, b::2] = plane.reshape(ph, pw)
    return Skeleton(padded[2 : h + 2, 2 : w + 2])
