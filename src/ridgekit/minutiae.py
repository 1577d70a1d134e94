"""Minutiae detection on skeletons and spurious-minutiae post-processing.

A skeleton pixel is classified by the number of ridge pixels in its 3x3
neighborhood, center included: 2 = ridge ending, 3 = plain ridge pixel,
4 or more = bifurcation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .binary import Skeleton

ENDING = "ending"
BIFURCATION = "bifurcation"
_KIND_CODE = {ENDING: "E", BIFURCATION: "B"}
_CODE_KIND = {"E": ENDING, "B": BIFURCATION}

RAW = "raw"
POSTPROCESSED = "postprocessed"

# fixed scan order for skeleton walks: N, NE, E, SE, S, SW, W, NW
_NEIGHBOR_OFFSETS = (
    (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1),
)

DIRECTION_WALK_STEPS = 5


@dataclass(frozen=True)
class Minutia:
    x: int
    y: int
    kind: str  # ENDING | BIFURCATION
    direction: float  # ridge tangent leaving the point, radians in [0, 2pi)

    def __post_init__(self):
        if self.kind not in (ENDING, BIFURCATION):
            raise ValueError(f"unknown minutia kind {self.kind!r}")
        object.__setattr__(self, "direction", float(self.direction) % (2 * math.pi))


@dataclass(frozen=True)
class MinutiaeSet:
    image_id: str
    minutiae: tuple[Minutia, ...]
    provenance: str  # RAW | POSTPROCESSED

    def __post_init__(self):
        object.__setattr__(self, "minutiae", tuple(self.minutiae))
        coords = [(m.x, m.y) for m in self.minutiae]
        if len(set(coords)) != len(coords):
            raise ValueError("duplicate minutia coordinates")

    def __len__(self) -> int:
        return len(self.minutiae)


@dataclass(frozen=True)
class PostprocessParams:
    adjacency_window: int = 6
    border_distance: int = 10
    reconnect_gap: int = 6
    spur_length: int = 6  # ridge-path distance; endings at <= this are spurs

    def __post_init__(self):
        for name in ("adjacency_window", "border_distance", "reconnect_gap", "spur_length"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def neighborhood_count(skel: Skeleton, x: int, y: int) -> int:
    """Ridge pixels in the 3x3 window centered at (x, y), center included.

    Out-of-bounds neighbors count as background.
    """
    bits = skel.bits
    h, w = bits.shape
    if not (0 <= x < w and 0 <= y < h):
        raise IndexError(f"({x}, {y}) outside {w}x{h} image")
    y0, y1 = max(0, y - 1), min(h, y + 2)
    x0, x1 = max(0, x - 1), min(w, x + 2)
    return int(bits[y0:y1, x0:x1].sum())


def _count_grid(bits: np.ndarray) -> np.ndarray:
    """neighborhood_count for every pixel at once."""
    padded = np.pad(bits.astype(np.int16), 1)
    total = np.zeros_like(bits, dtype=np.int16)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            total += padded[dy : dy + bits.shape[0], dx : dx + bits.shape[1]]
    return total


def classify_pixel(skel: Skeleton, x: int, y: int) -> str | None:
    """Classification of a ridge pixel by its 9-pixel-neighborhood count."""
    if skel.bits[y, x] == 0:
        return None
    count = neighborhood_count(skel, x, y)
    if count == 2:
        return ENDING
    if count >= 4:
        return BIFURCATION
    return None  # count 3: plain ridge pixel; count 1: isolated dot


def _walk(bits: np.ndarray, start: tuple[int, int], first: tuple[int, int],
          blocked: set[tuple[int, int]], steps: int) -> tuple[int, int]:
    """Follow a branch from `start` through `first`, up to `steps` moves.

    Returns the pixel reached. Stops early at dead ends or junction-like
    pixels (multiple continuations).
    """
    h, w = bits.shape
    cur = first
    visited = {start, first} | blocked
    for _ in range(steps - 1):
        nxt = None
        count = 0
        for dy, dx in _NEIGHBOR_OFFSETS:
            ny, nx_ = cur[0] + dy, cur[1] + dx
            if 0 <= ny < h and 0 <= nx_ < w and bits[ny, nx_] and (ny, nx_) not in visited:
                count += 1
                if nxt is None:
                    nxt = (ny, nx_)
        if nxt is None or count > 1:
            break
        visited.add(nxt)
        cur = nxt
    return cur


def _branch_vectors(bits: np.ndarray, y: int, x: int) -> list[tuple[float, float]]:
    """Unit tangents of the branches leaving ridge pixel (x, y)."""
    h, w = bits.shape
    starts = [
        (y + dy, x + dx)
        for dy, dx in _NEIGHBOR_OFFSETS
        if 0 <= y + dy < h and 0 <= x + dx < w and bits[y + dy, x + dx]
    ]
    vectors = []
    for sy, sx in starts:
        others = {p for p in starts if p != (sy, sx)}
        ey, ex = _walk(bits, (y, x), (sy, sx), others, DIRECTION_WALK_STEPS)
        norm = math.hypot(ex - x, ey - y)
        if norm > 0:
            vectors.append(((ex - x) / norm, (ey - y) / norm))
    return vectors


def _minutia_direction(bits: np.ndarray, y: int, x: int, kind: str) -> float:
    vecs = _branch_vectors(bits, y, x)
    if not vecs:
        return 0.0
    if kind == ENDING or len(vecs) == 1:
        vx, vy = vecs[0]
        return math.atan2(vy, vx) % (2 * math.pi)
    # bifurcation: the branch aligned with the other two's bisector (the stem)
    best, best_score = vecs[0], -1.0
    for i, (vx, vy) in enumerate(vecs[:3]):
        sx = sum(v[0] for j, v in enumerate(vecs[:3]) if j != i)
        sy = sum(v[1] for j, v in enumerate(vecs[:3]) if j != i)
        norm = math.hypot(sx, sy)
        score = abs(vx * sx + vy * sy) / norm if norm > 1e-9 else 0.0
        if score > best_score:
            best, best_score = (vx, vy), score
    return math.atan2(best[1], best[0]) % (2 * math.pi)


def extract_minutiae(skel: Skeleton, image_id: str = "") -> MinutiaeSet:
    """Detect ridge endings and bifurcations on a skeleton.

    Clusters of 8-adjacent bifurcation-flagged pixels (thick junction
    artifacts) collapse to the member with the highest neighborhood count,
    ties broken row-major.
    """
    bits = skel.bits
    counts = _count_grid(bits)
    ridge = bits == 1

    found: list[tuple[int, int, str]] = []  # (y, x, kind)
    for y, x in np.argwhere(ridge & (counts == 2)):
        found.append((int(y), int(x), ENDING))

    bif_mask = ridge & (counts >= 4)
    if bif_mask.any():
        labels, _ = ndimage.label(bif_mask, structure=np.ones((3, 3)))
        ys, xs = np.nonzero(labels)
        lab = labels[ys, xs]
        # sort members by (label, -count, y, x); each label's first member wins
        order = np.lexsort((xs, ys, -counts[ys, xs], lab))
        first = order[np.diff(lab[order], prepend=0) != 0]
        for y, x in zip(ys[first], xs[first]):
            found.append((int(y), int(x), BIFURCATION))

    found.sort()
    minutiae = tuple(
        Minutia(x, y, kind, _minutia_direction(bits, y, x, kind))
        for y, x, kind in found
    )
    return MinutiaeSet(image_id, minutiae, RAW)


def _spur_junction(bits: np.ndarray, ending: Minutia, max_steps: int):
    """Walk from an ending; if a bifurcation pixel lies within max_steps,
    return (junction, branch pixels to erase), else None."""
    h, w = bits.shape
    path = [(ending.y, ending.x)]
    cur = path[0]
    visited = {cur}
    for _ in range(max_steps):
        nxt = None
        for dy, dx in _NEIGHBOR_OFFSETS:
            ny, nx_ = cur[0] + dy, cur[1] + dx
            if 0 <= ny < h and 0 <= nx_ < w and bits[ny, nx_] and (ny, nx_) not in visited:
                nxt = (ny, nx_)
                break
        if nxt is None:
            return None
        visited.add(nxt)
        y0, y1 = max(0, nxt[0] - 1), min(h, nxt[0] + 2)
        x0, x1 = max(0, nxt[1] - 1), min(w, nxt[1] + 2)
        if int(bits[y0:y1, x0:x1].sum()) >= 4:
            return nxt, path
        path.append(nxt)
        cur = nxt
    return None


def _segment_pixels(a: tuple[int, int], b: tuple[int, int]) -> list[tuple[int, int]]:
    """Bresenham pixels strictly between a and b (both (y, x))."""
    y0, x0 = a
    y1, x1 = b
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    pixels = []
    x, y = x0, y0
    while (x, y) != (x1, y1):
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy
        if (x, y) != (x1, y1):
            pixels.append((y, x))
    return pixels


def _angle_between(a: float, b: float) -> float:
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def postprocess(
    mset: MinutiaeSet, skel: Skeleton, params: PostprocessParams
) -> tuple[MinutiaeSet, Skeleton]:
    """Remove spurious minutiae and repair broken ridges.

    In order: (1) spur removal: an ending whose ridge path reaches a
    bifurcation within spur_length steps is deleted together with that
    bifurcation, and the spur branch is erased from the skeleton; (2) border
    removal: minutiae closer than border_distance to an image edge are
    dropped; (3) broken-ridge reconnection: ending pairs within
    reconnect_gap, roughly antiparallel, with no ridge pixel between them
    are removed and the connecting segment is drawn into the skeleton;
    (4) mutual-adjacency removal: any two minutiae within Chebyshev distance
    adjacency_window kill each other.

    Reconnection runs before adjacency removal: with the default windows
    every reconnectable pair is also mutually adjacent, so the stated rules
    would otherwise never repair a ridge.
    """
    bits = skel.bits.copy()
    h, w = bits.shape
    current: list[Minutia] = list(mset.minutiae)

    # (1) spurs
    erased: set[tuple[int, int]] = set()
    for m in [m for m in current if m.kind == ENDING]:
        if bits[m.y, m.x] == 0:
            continue  # already erased by an earlier spur
        hit = _spur_junction(bits, m, params.spur_length)
        if hit is None:
            continue
        junction, branch = hit
        for y, x in branch:
            bits[y, x] = 0
            erased.add((x, y))
        jy, jx = junction
        bif_near = [
            b for b in current
            if b.kind == BIFURCATION and max(abs(b.x - jx), abs(b.y - jy)) <= 2
        ]
        bif_near.sort(key=lambda b: (max(abs(b.x - jx), abs(b.y - jy)), b.y, b.x))
        drop = {id(m)} | ({id(bif_near[0])} if bif_near else set())
        current = [c for c in current if id(c) not in drop and (c.x, c.y) not in erased]

    # (2) border
    current = [
        m for m in current
        if min(m.x, m.y, w - 1 - m.x, h - 1 - m.y) >= params.border_distance
    ]

    # (3) reconnection of broken ridges
    endings = [m for m in current if m.kind == ENDING]
    candidates = []
    for i in range(len(endings)):
        for j in range(i + 1, len(endings)):
            a, b = endings[i], endings[j]
            dist = math.hypot(a.x - b.x, a.y - b.y)
            if dist > params.reconnect_gap:
                continue
            if _angle_between(a.direction, b.direction) < math.pi - math.pi / 6:
                continue
            between = _segment_pixels((a.y, a.x), (b.y, b.x))
            if any(bits[y, x] for y, x in between):
                continue
            candidates.append((dist, i, j, between))
    candidates.sort(key=lambda t: (t[0], t[1], t[2]))
    used: set[int] = set()
    removed_ids: set[int] = set()
    for dist, i, j, between in candidates:
        if i in used or j in used:
            continue
        if any(bits[y, x] for y, x in between):  # blocked by an earlier redraw
            continue
        used.update((i, j))
        for y, x in between:
            bits[y, x] = 1
        removed_ids.update((id(endings[i]), id(endings[j])))
    current = [m for m in current if id(m) not in removed_ids]

    # (4) mutual adjacency
    doomed: set[int] = set()
    for i in range(len(current)):
        for j in range(i + 1, len(current)):
            a, b = current[i], current[j]
            if max(abs(a.x - b.x), abs(a.y - b.y)) <= params.adjacency_window:
                doomed.update((id(a), id(b)))
    current = [m for m in current if id(m) not in doomed]

    current.sort(key=lambda m: (m.y, m.x))
    return (
        MinutiaeSet(mset.image_id, tuple(current), POSTPROCESSED),
        Skeleton(bits),
    )


def write_minutiae(path: str | Path, mset: MinutiaeSet, width: int, height: int) -> None:
    """Write the shared minutiae/ground-truth text format.

    Header line ``# image_id width height``, then one ``x y kind
    direction_deg`` line per minutia with kind E or B.
    """
    lines = [f"# {mset.image_id} {width} {height}"]
    for m in mset.minutiae:
        lines.append(
            f"{m.x} {m.y} {_KIND_CODE[m.kind]} {math.degrees(m.direction):.1f}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_minutiae(
    path: str | Path, provenance: str = POSTPROCESSED
) -> tuple[MinutiaeSet, int, int]:
    """Read a minutiae file; returns (set, width, height)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing '# image_id width height' header")
    header = lines[0][1:].split()
    if len(header) != 3:
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    image_id, width, height = header[0], int(header[1]), int(header[2])
    minutiae = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4 or parts[2] not in _CODE_KIND:
            raise ValueError(f"{path}: malformed minutia line {ln!r}")
        minutiae.append(
            Minutia(int(parts[0]), int(parts[1]), _CODE_KIND[parts[2]],
                    math.radians(float(parts[3])))
        )
    return MinutiaeSet(image_id, tuple(minutiae), provenance), width, height
