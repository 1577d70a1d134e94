"""Binarization of enhanced images and thinning to a 1-pixel skeleton."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .image import GrayImage


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


def binarize(img: GrayImage, threshold: int) -> BinaryImage:
    """Threshold: ridge (1) where intensity >= threshold, else background."""
    return BinaryImage((img.pixels >= threshold).astype(np.uint8))


def auto_threshold(img: GrayImage, mask) -> int:
    """Mean intensity over recoverable pixels, rounded to nearest integer.

    ``mask`` is a RegionMask covering the image.
    """
    sel = mask.pixel_mask(img.height, img.width)
    if not sel.any():
        raise ValueError("cannot choose threshold: no recoverable pixels")
    # an exact integer sum: the float mean of the selected pixels
    mean = int(img.pixels.sum(where=sel, dtype=np.int64)) / int(np.count_nonzero(sel))
    return int(np.rint(mean))


# 8-neighbor offsets (dy, dx): N, NE, E, SE, S, SW, W, NW; skeleton walks
# scan neighbors in this order.
_NEIGHBOR_OFFSETS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def thin(bin_img: BinaryImage) -> Skeleton:
    """Peel ridge borders, preserving topology, until four border
    directions in a row delete nothing.

    The border directions run in the fixed cycle N, S, E, W; within a
    direction, deletions run over the four 2x2 checkerboard subfields so that
    simultaneously deleted pixels are never 8-adjacent. Every deleted pixel is
    simple (connectivity number 1) with at least 2 ridge neighbors at deletion
    time, so component counts are preserved and endpoints of open curves
    survive. The result is a fixpoint: thinning a skeleton returns it
    unchanged.

    The stop is exact. A direction's decision at a pixel reads only its
    3x3 neighborhood, so a direction that runs again on an unchanged image
    deletes nothing again: after four quiet directions every direction is
    quiet, and the rest of a final quiet pass would change nothing.

    The image is held as its four 2x2 phase planes, one per subfield, each
    stored flat with a zero ring. Every neighbor of a plane's interior is
    then one contiguous 1-D slice of another plane, and a subfield step
    evaluates Hilditch's connectivity number on those slices with array
    logic (Guo & Hall, CACM 1989), in place in buffers allocated once.
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
    # every step evaluates the rule in place in these buffers
    size = cores[0].size
    candidates = [np.empty(size, bool) for _ in cores]
    conn, degree, acc = (np.empty(size, np.uint8) for _ in range(3))
    kill, test = np.empty(size, bool), np.empty(size, bool)
    term = test.view(np.uint8)
    quiet = 0
    for border in itertools.cycle((0, 4, 2, 6)):  # neighbor index of N, S, E, W
        # candidates fixed at direction start: ridge pixels whose neighbor
        # in this direction is background (one border layer)
        for core, nbrs, cand in zip(cores, neighbors, candidates):
            np.greater(core, nbrs[border], out=cand)
        deleted = False
        for core, nbrs, cand in zip(cores, neighbors, candidates):
            # neighbors from the border one on, clockwise; deletions only
            # clear pixels, so the border neighbor of a candidate stays 0
            # and drops out of the degree and the connectivity number
            _, r1, r2, r3, r4, r5, r6, r7 = nbrs[border:] + nbrs[:border]
            # Hilditch's connectivity number, one term per edge neighbor
            # r[j]: (r[j+1] | r[j]) > r[j+2], that is (1 - r[j+2]) * max(...);
            # with r[0] = 0 the r[0] term is r1 > r2 and the r[6] term r7 | r6
            np.bitwise_or(r7, r6, out=conn)
            np.greater(r1, r2, out=test)
            conn += term
            np.bitwise_or(r3, r2, out=acc)
            np.greater(acc, r4, out=test)
            conn += term
            np.bitwise_or(r5, r4, out=acc)
            np.greater(acc, r6, out=test)
            conn += term
            np.add(r1, r2, out=degree)
            for r in (r3, r4, r5, r6, r7):
                degree += r
            np.equal(conn, 1, out=kill)
            kill &= cand
            np.greater_equal(degree, 2, out=test)
            kill &= test
            if kill.any():
                core ^= kill
                deleted = True
        quiet = 0 if deleted else quiet + 1
        if quiet == 4:
            break
    for (a, b), plane in planes.items():
        padded[a::2, b::2] = plane.reshape(ph, pw)
    return Skeleton(padded[2 : h + 2, 2 : w + 2])
