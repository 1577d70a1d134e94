"""Minutiae detection on skeletons and spurious-minutiae post-processing.

A skeleton pixel is classified by the number of ridge pixels in its 3x3
neighborhood, center included: 2 = ridge ending, 3 = plain ridge pixel,
4 or more = bifurcation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .binary import _NEIGHBOR_OFFSETS, Skeleton

if TYPE_CHECKING:  # config imports evaluate, which imports this module
    from .config import PipelineConfig

ENDING = "ending"
BIFURCATION = "bifurcation"
_KIND_CODE = {ENDING: "E", BIFURCATION: "B"}
CODE_KIND = {"E": ENDING, "B": BIFURCATION}

RAW = "raw"
POSTPROCESSED = "postprocessed"

DIRECTION_WALK_STEPS = 5

# offsets (dy, dx) within Chebyshev distance 2, by (distance, dy, dx)
_WINDOW_BY_DISTANCE = sorted(
    ((dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)),
    key=lambda d: (max(abs(d[0]), abs(d[1])), d),
)


@dataclass(frozen=True)
class Minutia:
    x: int
    y: int
    kind: str  # ENDING | BIFURCATION
    direction: float  # ridge tangent leaving the point, radians in [0, 2pi)

    def __post_init__(self):
        if self.kind not in (ENDING, BIFURCATION):
            raise ValueError(f"unknown minutia kind {self.kind!r}")
        # float % rounds a tiny negative remainder up to the divisor itself
        direction = float(self.direction) % (2 * math.pi)
        object.__setattr__(self, "direction", 0.0 if direction == 2 * math.pi else direction)


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


def _count_grid(bits: np.ndarray) -> np.ndarray:
    """Ridge pixels in the 3x3 window centered at each pixel, center
    included; out-of-bounds neighbors count as background. Two separable
    passes on the 0/1 bitmap: a three-row sum, then a three-column sum."""
    rows = bits.astype(np.uint8)
    rows[1:] += bits[:-1]
    rows[:-1] += bits[1:]
    total = rows.copy()
    total[:, 1:] += rows[:, :-1]
    total[:, :-1] += rows[:, 1:]
    return total


def _clusters(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ys, xs, cluster) of the pixels of mask in scan order; cluster is the
    scan position of the first pixel of its 8-connected component."""
    w = mask.shape[1]
    flat = np.flatnonzero(mask)  # a 2-D np.nonzero scans ~10x slower
    ys, xs = np.divmod(flat, w)
    pairs = []
    for dy, dx in ((0, 1), (1, -1), (1, 0), (1, 1)):  # each adjacent pair once
        want = flat + (dy * w + dx)
        j = np.minimum(np.searchsorted(flat, want), flat.size - 1)
        hit = (flat[j] == want) & (xs + dx >= 0) & (xs + dx < w)
        pairs.append((np.flatnonzero(hit), j[hit]))
    a, b = (np.concatenate(side) for side in zip(*pairs))
    cluster = np.arange(flat.size)
    while True:  # spread the smallest position along pairs, pointer-jump
        spread = cluster.copy()
        np.minimum.at(spread, a, cluster[b])
        np.minimum.at(spread, b, cluster[a])
        spread = spread[spread]
        if np.array_equal(spread, cluster):
            return ys, xs, cluster
        cluster = spread


def _walk_step(flat: np.ndarray, offsets: np.ndarray, cur: np.ndarray,
               visited: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One lockstep move of skeleton walks standing on the flat indices cur:
    each walk's first free neighbor (a ridge pixel of `flat` not in its row
    of `visited`), in _NEIGHBOR_OFFSETS order, and its number of free
    neighbors. Each caller applies its own stop rule."""
    nxt = cur[:, None] + offsets
    free = flat[nxt] == 1
    for column in visited.T:
        free &= nxt != column[:, None]
    return nxt[np.arange(cur.size), free.argmax(axis=1)], free.sum(axis=1)


def _branch_vectors(
    bits: np.ndarray, ys: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, dx, dy): the end offset (dx, dy) of each walk along a branch
    leaving a ridge pixel (xs[owner], ys[owner]). Walks are grouped by
    pixel, in the order of ys and xs.

    Each branch is walked from one ridge neighbor of the pixel, taken in
    _NEIGHBOR_OFFSETS order, for up to DIRECTION_WALK_STEPS moves, each to
    the first unvisited ridge neighbor; the pixel and all of its branch
    starts count as visited. A walk stops early at a dead end or where more
    than one continuation is free, and never back on its pixel, so no
    offset is (0, 0). All walks of all pixels advance in lockstep
    (_walk_step).
    """
    pw = bits.shape[1] + 2
    flat = np.pad(bits, 1).ravel()  # out-of-image neighbors read as background
    offsets = np.array([dy * pw + dx for dy, dx in _NEIGHBOR_OFFSETS])
    centers = (ys.astype(np.int64) + 1) * pw + xs + 1
    around = centers[:, None] + offsets
    is_start = flat[around] == 1
    owner, slot = np.nonzero(is_start)  # walks grouped by pixel, in scan order
    cur = around[owner, slot]

    # per-walk visited table: center, every start of its pixel, then the path
    visited = np.full((owner.size, 9 + DIRECTION_WALK_STEPS - 1), -1, np.int64)
    visited[:, 0] = centers[owner]
    visited[:, 1:9] = np.where(is_start[owner], around[owner], -1)
    live = np.arange(owner.size)
    for step in range(DIRECTION_WALK_STEPS - 1):
        nxt, nfree = _walk_step(flat, offsets, cur[live], visited[live])
        go = nfree == 1
        live = live[go]
        cur[live] = nxt[go]
        visited[live, 9 + step] = cur[live]

    ey, ex = np.divmod(cur, pw)
    return owner, ex - 1 - xs[owner], ey - 1 - ys[owner]


def _offset_tables() -> tuple[np.ndarray, np.ndarray]:
    """(unit, direction) of every walk end offset (dx, dy) within
    R = DIRECTION_WALK_STEPS, at row (dy + R) (2R + 1) + dx + R: the unit
    vector (dx, dy) / hypot(dx, dy) and its angle in [0, 2pi). The angle is
    math.atan2's, which np.arctan2 does not always equal. (0, 0) gets 0s."""
    reach = range(-DIRECTION_WALK_STEPS, DIRECTION_WALK_STEPS + 1)
    unit, direction = np.zeros((len(reach) ** 2, 2)), np.zeros(len(reach) ** 2)
    for k, (dy, dx) in enumerate((dy, dx) for dy in reach for dx in reach):
        norm = math.hypot(dx, dy)
        if norm:
            unit[k] = dx / norm, dy / norm
            direction[k] = math.atan2(dy / norm, dx / norm) % (2 * math.pi)
    return unit, direction


_UNIT, _DIRECTION = _offset_tables()


def _minutia_directions(owner: np.ndarray, dx: np.ndarray, dy: np.ndarray,
                        is_bif: np.ndarray) -> np.ndarray:
    """The direction of each minutia k from the end offsets of its walks,
    owner == k, as _branch_vectors gives them; every minutia has one. An
    ending takes its first walk's, as does a bifurcation with one walk.
    Another bifurcation takes its stem's: of its first three walks, the one
    whose unit vector v best aligns with the sum s of the other one or two,
    by |v . s| / |s| (0 where |s| <= 1e-9), the first on ties.
    """
    side = 2 * DIRECTION_WALK_STEPS + 1
    cell = (dy + DIRECTION_WALK_STEPS) * side + dx + DIRECTION_WALK_STEPS
    first = np.searchsorted(owner, np.arange(is_bif.size))
    count = np.diff(first, append=owner.size)
    bif = np.flatnonzero(is_bif & (count >= 2))
    two = count[bif] == 2
    # a pair's third walk may lie past the last one; its vector is zeroed
    v = _UNIT[cell[np.minimum(first[bif, None] + np.arange(3), owner.size - 1)]]
    v[two, 2] = 0.0  # so the two sums of a pair are its other vectors
    s = np.stack((v[:, 1] + v[:, 2], v[:, 0] + v[:, 2], v[:, 0] + v[:, 1]), axis=1)
    norm = np.hypot(s[..., 0], s[..., 1])
    dot = np.abs(v[..., 0] * s[..., 0] + v[..., 1] * s[..., 1])
    score = np.divide(dot, norm, out=np.zeros_like(norm), where=norm > 1e-9)
    score[two, 2] = -1.0
    pick = first.copy()
    pick[bif] += score.argmax(axis=1)
    return _DIRECTION[cell[pick]]


def extract_minutiae(skel: Skeleton, image_id: str = "") -> MinutiaeSet:
    """Detect ridge endings and bifurcations on a skeleton.

    Clusters of 8-adjacent bifurcation-flagged pixels (thick junction
    artifacts) collapse to the member with the highest neighborhood count,
    ties broken row-major. Directions come from short walks along every
    branch of every minutia, run in lockstep (_branch_vectors), and a table
    of the angle of each walk end offset (_minutia_directions).
    """
    bits = skel.bits
    counts = _count_grid(bits)
    ridge = bits == 1

    end_y, end_x = np.divmod(np.flatnonzero(ridge & (counts == 2)), bits.shape[1])
    ys, xs, lab = _clusters(ridge & (counts >= 4))
    # sort members by (cluster, -count, y, x); each cluster's first member wins
    order = np.lexsort((xs, ys, -counts[ys, xs].astype(np.int16), lab))
    first = order[np.diff(lab[order], prepend=-1) != 0]
    bif_y, bif_x = ys[first], xs[first]

    ys = np.concatenate([end_y, bif_y])
    xs = np.concatenate([end_x, bif_x])
    order = np.lexsort((xs, ys))
    ys, xs, is_bif = ys[order], xs[order], order >= end_y.size
    directions = _minutia_directions(*_branch_vectors(bits, ys, xs), is_bif)
    minutiae = tuple(
        Minutia(x, y, BIFURCATION if bif else ENDING, direction)
        for x, y, bif, direction in zip(xs.tolist(), ys.tolist(), is_bif.tolist(),
                                        directions.tolist())
    )
    return MinutiaeSet(image_id, minutiae, RAW)


def _spur_walks(flat: np.ndarray, offsets: np.ndarray, starts: np.ndarray,
                max_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Walk from every ending in `starts` in lockstep, each move to the first
    free ridge neighbor (_walk_step), until a dead end, max_steps moves or a
    step onto a bifurcation pixel (3x3 count >= 4). Every pixel stepped onto
    before that has at most two ridge neighbors, so a walk can meet only its
    start and its previous pixel again: they are its visited set.

    Returns (trail, hit): trail[k] holds the pixels walk k visited, start
    first, then -1; hit[k] is -1, or the index in trail[k] of the
    bifurcation, after the spur.
    """
    trail, hit = [starts], np.full(starts.size, -1)
    live, prev, cur = np.arange(starts.size), starts, starts
    for step in range(1, max_steps + 1):
        if not live.size:
            break
        nxt, nfree = _walk_step(flat, offsets, cur, np.stack((starts[live], prev), axis=1))
        go = nfree > 0
        live, prev, cur = live[go], cur[go], nxt[go]
        trail.append(np.full(starts.size, -1))
        trail[-1][live] = cur
        stop = flat[cur[:, None] + offsets].sum(axis=1) >= 3
        hit[live[stop]] = step
        live, prev, cur = live[~stop], prev[~stop], cur[~stop]
    return np.stack(trail, axis=1), hit


def close_pairs(a: Sequence[Minutia], b: Sequence[Minutia],
                reach: float) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs (i, j) with a[i] and b[j] within Chebyshev distance
    `reach`. Only points of b whose y lies within reach of a[i].y are
    visited, found on y-sorted arrays, so memory grows with those pairs,
    not with len(a) * len(b).
    """
    ay = np.array([m.y for m in a], np.int64)
    ax = np.array([m.x for m in a], np.int64)
    by = np.array([m.y for m in b], np.int64)
    bx = np.array([m.x for m in b], np.int64)
    order = np.argsort(by, kind="stable")
    sorted_y = by[order]
    lo = np.searchsorted(sorted_y, ay - reach, "left")
    count = np.searchsorted(sorted_y, ay + reach, "right") - lo
    i = np.repeat(np.arange(ay.size), count)
    j = order[np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)]
    keep = np.abs(ax[i] - bx[j]) <= reach
    return i[keep], j[keep]


def postprocess(
    mset: MinutiaeSet, skel: Skeleton, config: PipelineConfig
) -> tuple[MinutiaeSet, Skeleton]:
    """Remove spurious minutiae.

    In order: (1) spur removal: an ending whose ridge path reaches a
    bifurcation within spur_length steps is deleted together with that
    bifurcation, and the spur branch is erased from the skeleton; (2) border
    removal: minutiae closer than border_distance to an image edge are
    dropped; (3) mutual-adjacency removal: any two minutiae within Chebyshev
    distance adjacency_window kill each other. The returned skeleton is the
    input with the spurs erased.

    Spur walks run for all endings in lockstep (_spur_walks); spurs are then
    accepted in ending order, with a live mask over the input minutiae, and a
    walk that read a pixel next to an erased spur walks again. Adjacency
    takes its pairs from one windowed search on y-sorted coordinate arrays
    (close_pairs).
    """
    h, w = skel.bits.shape
    ms = mset.minutiae
    xs = np.array([m.x for m in ms], np.int64)
    ys = np.array([m.y for m in ms], np.int64)
    is_bif = np.array([m.kind == BIFURCATION for m in ms], bool)
    live = np.ones(len(ms), bool)

    # (1) spurs, walked in lockstep, then accepted in ending order
    pw = w + 2
    grid = np.pad(skel.bits, 1).ravel()
    at = {(m.y + 1) * pw + m.x + 1: k for k, m in enumerate(ms)}
    window = [dy * pw + dx for dy, dx in _WINDOW_BY_DISTANCE]
    offsets = np.array([dy * pw + dx for dy, dx in _NEIGHBOR_OFFSETS])
    starts = (ys[~is_bif] + 1) * pw + xs[~is_bif] + 1
    trail, hit = _spur_walks(grid, offsets, starts, config.spur_length)
    near_erased = np.zeros(grid.size + 1, bool)  # the last entry is read by -1 padding
    stale = np.zeros(starts.size, bool)
    for k, start in enumerate(starts.tolist()):
        if not (hit[k] >= 0 or stale[k]) or not grid[start]:
            continue  # no spur, or already erased by an earlier spur
        walk, moves = trail[k], hit[k]
        if stale[k]:
            walked, moved = _spur_walks(grid, offsets, starts[k : k + 1], config.spur_length)
            walk, moves = walked[0], moved[0]
        if moves < 0:
            continue
        junction, branch = int(walk[moves]), walk[:moves]  # branch[0] is the ending
        # the nearest live bifurcation, by (Chebyshev distance, y, x); a +-2
        # column step off the image lands in a margin column, never on a minutia
        for d in window:
            near = at.get(junction + d)
            if near is not None and live[near] and is_bif[near]:
                live[near] = False
                break
        grid[branch] = 0
        live[[at[p] for p in branch.tolist() if p in at]] = False
        near_erased[branch[:, None] + np.append(offsets, 0)] = True
        stale |= near_erased[trail].any(axis=1)

    # (2) border
    edge = np.minimum(np.minimum(xs, ys), np.minimum(w - 1 - xs, h - 1 - ys))
    live &= edge >= config.border_distance

    # (3) mutual adjacency
    alive = np.flatnonzero(live)
    survivors = [ms[k] for k in alive]
    near_i, near_j = close_pairs(survivors, survivors, config.adjacency_window)
    live[alive[near_i[near_i != near_j]]] = False

    kept = np.flatnonzero(live)
    kept = kept[np.lexsort((xs[kept], ys[kept]))]
    return (
        MinutiaeSet(mset.image_id, tuple(ms[k] for k in kept.tolist()), POSTPROCESSED),
        Skeleton(grid.reshape(h + 2, pw)[1:-1, 1:-1]),
    )


def write_minutiae(path: str | Path, mset: MinutiaeSet, width: int, height: int) -> None:
    """Write the shared minutiae/ground-truth text format.

    Header line ``# image_id width height``, then one ``x y kind
    direction_deg`` line per minutia with kind E or B, the direction
    rounded to 0.1 degree and taken mod 360, so it never reads 360.0.
    """
    lines = [f"# {mset.image_id} {width} {height}"]
    for m in mset.minutiae:
        degrees = f"{math.degrees(m.direction):.1f}"
        if degrees == "360.0":  # a direction within 0.05 degree below 2 pi
            degrees = "0.0"
        lines.append(f"{m.x} {m.y} {_KIND_CODE[m.kind]} {degrees}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_minutiae(path: str | Path) -> tuple[MinutiaeSet, int, int]:
    """Read a minutiae file; returns (set, width, height).

    The image id is everything before the header's last two tokens, so it
    may contain spaces. Coordinates and sizes must be integers, the sizes at
    least 1, every point inside the width x height frame and at its own
    coordinates, and the direction finite.
    """
    text = Path(path).read_text(encoding="utf-8-sig")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing '# image_id width height' header")
    try:
        image_id, width, height = lines[0][1:].rsplit(maxsplit=2)
        width, height = int(width), int(height)
    except ValueError:
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from None
    if width < 1 or height < 1:
        raise ValueError(f"{path}: header {lines[0]!r}: width and height must be >= 1")
    minutiae, seen = [], set()
    for ln in lines[1:]:
        try:
            x, y, code, degrees = ln.split()
            x, y, direction = int(x), int(y), math.radians(float(degrees))
            if code not in CODE_KIND or not math.isfinite(direction):
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: malformed minutia line {ln!r}") from None
        if not (0 <= x < width and 0 <= y < height):
            raise ValueError(f"{path}: minutia line {ln!r} is outside the "
                             f"{width}x{height} frame")
        if (x, y) in seen:
            raise ValueError(f"{path}: duplicate minutia coordinates in line {ln!r}")
        seen.add((x, y))
        minutiae.append(Minutia(x, y, CODE_KIND[code], direction))
    return MinutiaeSet(image_id.strip(), tuple(minutiae), POSTPROCESSED), width, height
