import itertools
import math

import numpy as np
import pytest
from scipy import ndimage

from conftest import CONFIG, NO_GATE, _blurred_noise, classify_pixel, make_blob_image, neighborhood_count
from ridgekit import enhance as enh
from ridgekit.binary import BinaryImage, Skeleton, auto_threshold, binarize, thin
from ridgekit.config import PipelineConfig
from ridgekit.image import invert
from ridgekit.minutiae import (
    DIRECTION_WALK_STEPS,
    BIFURCATION,
    ENDING,
    Minutia,
    MinutiaeSet,
    extract_minutiae,
    postprocess,
    read_minutiae,
    write_minutiae,
)
from ridgekit.minutiae import (
    _DIRECTION,
    _NEIGHBOR_OFFSETS,
    _UNIT,
    _branch_vectors,
    _clusters,
    _count_grid,
    _minutia_directions,
)

EIGHT = np.ones((3, 3))


def skel_from_rows(rows):
    return Skeleton(np.array([[1 if ch == "1" else 0 for ch in row] for row in rows], np.uint8))


def test_neighborhood_count_paper_values():
    # center ridge + one neighbor -> 2 (ridge end)
    s = skel_from_rows(["000", "011", "000"])
    assert neighborhood_count(s, 1, 1) == 2
    # center + three neighbors -> 4 (bifurcation)
    s = skel_from_rows(["010", "010", "101"])
    assert neighborhood_count(s, 1, 1) == 4
    # all background -> 0
    s = skel_from_rows(["000", "000", "000"])
    assert neighborhood_count(s, 1, 1) == 0


def test_neighborhood_count_border_clipping():
    s = skel_from_rows(["11", "11"])
    assert neighborhood_count(s, 0, 0) == 4
    with pytest.raises(IndexError):
        neighborhood_count(s, 2, 0)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (23, 31)])
def test_count_grid_matches_neighborhood_count(shape):
    bits = (np.random.default_rng(shape[0] * 100 + shape[1]).random(shape) < 0.5).astype(np.uint8)
    skel = Skeleton(bits)
    want = [[neighborhood_count(skel, x, y) for x in range(shape[1])] for y in range(shape[0])]
    assert _count_grid(bits).tolist() == want


def test_classification_exhaustive_256_patterns():
    # every 3x3 neighbor configuration around a ridge center vs popcount rule
    offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    for pattern in range(256):
        bits = np.zeros((5, 5), np.uint8)
        bits[2, 2] = 1
        for k, (dy, dx) in enumerate(offsets):
            if pattern >> k & 1:
                bits[2 + dy, 2 + dx] = 1
        skel = Skeleton(bits)
        count = bin(pattern).count("1") + 1  # independent popcount oracle
        got = classify_pixel(skel, 2, 2)
        if count == 2:
            assert got == ENDING, pattern
        elif count == 3 or count == 1:
            assert got is None, pattern
        else:
            assert got == BIFURCATION, pattern


def test_vertical_bifurcation_fixture():
    # vertical ridge splitting into two diagonal branches below the X pixel
    bits = np.zeros((15, 15), np.uint8)
    bits[3:8, 7] = 1  # stem from above, X at (7, 7)
    for k in range(1, 5):
        bits[7 + k, 7 - k] = 1
        bits[7 + k, 7 + k] = 1
    skel = Skeleton(bits)
    mset = extract_minutiae(skel, "fig")
    bifs = [m for m in mset.minutiae if m.kind == BIFURCATION]
    assert len(bifs) == 1
    assert (bifs[0].x, bifs[0].y) == (7, 7)


def test_ridge_end_fixture():
    # a line hanging off a closed loop: exactly one ending, at the free tip
    bits = np.zeros((13, 13), np.uint8)
    bits[2, 2:7] = 1
    bits[6, 2:7] = 1
    bits[2:7, 2] = 1
    bits[2:7, 6] = 1  # loop (no endings on it)
    bits[4, 7:11] = 1  # tail ending at (10, 4)
    skel = Skeleton(bits)
    mset = extract_minutiae(skel, "fig")
    endings = [m for m in mset.minutiae if m.kind == ENDING]
    assert len(endings) == 1
    assert (endings[0].x, endings[0].y) == (10, 4)


def test_ending_direction_points_into_ridge():
    bits = np.zeros((9, 9), np.uint8)
    bits[4, 2:7] = 1  # ridge from (2,4) to (6,4)
    mset = extract_minutiae(Skeleton(bits), "d")
    by_pos = {(m.x, m.y): m for m in mset.minutiae}
    left, right = by_pos[(2, 4)], by_pos[(6, 4)]
    assert abs(left.direction - 0.0) < 1e-6  # ridge continues toward +x
    assert abs(right.direction - math.pi) < 1e-6


def test_thick_junction_collapses_to_one():
    # plus-shape: center has count 5, arms meet at one junction
    bits = np.zeros((11, 11), np.uint8)
    bits[5, 1:10] = 1
    bits[1:10, 5] = 1
    mset = extract_minutiae(Skeleton(bits), "t")
    bifs = [m for m in mset.minutiae if m.kind == BIFURCATION]
    assert len(bifs) == 1
    # representative pixel is the highest-count member, tie broken row-major
    assert max(abs(bifs[0].x - 5), abs(bifs[0].y - 5)) <= 1


def _cluster_representatives(bits):
    """Per-cluster reference: the member with the highest neighborhood
    count, ties broken row-major."""
    counts = ndimage.convolve(bits.astype(int), EIGHT, mode="constant")
    labels, n = ndimage.label((bits == 1) & (counts >= 4), structure=EIGHT)
    reps = set()
    for lab in range(1, n + 1):
        members = np.argwhere(labels == lab).tolist()
        y, x = min(members, key=lambda p: (-counts[p[0], p[1]], p[0], p[1]))
        reps.add((x, y))
    return reps


def _first_seen(ids):
    """ids renumbered by first appearance: equal for equal partitions."""
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _snake(size=41):
    """One 8-connected boustrophedon path through a size x size square."""
    mask = np.zeros((size, size), bool)
    mask[::2, 1:-1] = True
    for r in range(1, size, 2):
        mask[r, size - 2 if r % 4 == 1 else 1] = True
    return mask


def _corner_chains():
    """Diagonal chains that touch only at corners, both ways, one of them
    running off the right edge onto the next row's start in flat order."""
    mask = np.zeros((12, 12), bool)
    idx = np.arange(6)
    mask[idx, idx] = True
    mask[idx + 6, 11 - idx] = True
    mask[0, 11] = mask[1, 0] = True  # flat neighbours, not image neighbours
    mask[10, 0] = mask[11, 1] = True
    return mask


LABEL_MASKS = {
    "snake": _snake,
    "corner_chains": _corner_chains,
    "empty": lambda: np.zeros((5, 7), bool),
    "full": lambda: np.ones((6, 5), bool),
    **{f"random_{h}x{w}_{p}": lambda h=h, w=w, p=p: np.random.default_rng(h * w).random((h, w)) < p
       for h, w in ((64, 64), (1, 40), (40, 1), (33, 7)) for p in (0.1, 0.3, 0.5)},
}


@pytest.mark.parametrize("name", sorted(LABEL_MASKS))
def test_clusters_partition_matches_scipy_label(name):
    mask = LABEL_MASKS[name]()
    ys, xs, cluster = _clusters(mask)
    assert [ys.tolist(), xs.tolist()] == [a.tolist() for a in np.nonzero(mask)]
    labels, n = ndimage.label(mask, structure=EIGHT)
    assert np.array_equal(_first_seen(cluster), _first_seen(labels[ys, xs]))
    assert len(set(cluster.tolist())) == n


def test_bifurcation_clusters_tie_breaks():
    bits = np.zeros((16, 50), np.uint8)
    # T junction: the stem pixel below the bar has the unique highest count
    bits[5, 1:10] = 1
    bits[6:10, 5] = 1
    # plus: the center and its four neighbors tie; the top one is row-major first
    bits[5, 17:24] = 1
    bits[2:9, 20] = 1
    # 2x2 blob: all four tie; the top row ties too and x decides
    bits[4:6, 40:42] = 1
    mset = extract_minutiae(Skeleton(bits), "ties")
    bifs = {(m.x, m.y) for m in mset.minutiae if m.kind == BIFURCATION}
    assert bifs == {(5, 6), (20, 4), (40, 4)}
    assert bifs == _cluster_representatives(bits)


@pytest.mark.parametrize("seed", range(4))
def test_bifurcation_clusters_match_per_cluster_reference(seed):
    rng = np.random.default_rng(seed)
    bits = (rng.random((48, 64)) < 0.3).astype(np.uint8)
    mset = extract_minutiae(Skeleton(bits), "random")
    bifs = {(m.x, m.y) for m in mset.minutiae if m.kind == BIFURCATION}
    assert len(bifs) > 10
    assert bifs == _cluster_representatives(bits)


def test_duplicate_coordinates_rejected():
    with pytest.raises(ValueError):
        MinutiaeSet("x", (Minutia(1, 1, ENDING, 0.0), Minutia(1, 1, BIFURCATION, 0.0)), "raw")


def make_spur_fixture(length: int):
    """Horizontal ridge across the image with a diagonal spur of `length`
    pixels; the walk distance from spur tip to the junction is exactly
    `length` steps."""
    bits = np.zeros((40, 60), np.uint8)
    bits[30, 0:60] = 1  # main ridge touching both borders
    jx = 30
    for k in range(1, length + 1):
        bits[30 - k, jx - k] = 1
    return Skeleton(bits), (jx, 30), (jx - length, 30 - length)


@pytest.mark.parametrize("length", [3, 5, 6])
def test_spur_removed_at_or_below_six(length):
    skel, junction, tip = make_spur_fixture(length)
    raw = extract_minutiae(skel, "spur")
    assert any(m.kind == BIFURCATION for m in raw.minutiae)
    final, out_skel = postprocess(raw, skel, PipelineConfig())
    assert not any(m.kind == BIFURCATION for m in final.minutiae)
    assert not any((m.x, m.y) == tip for m in final.minutiae)
    # spur branch erased from the returned skeleton
    assert out_skel.bits[tip[1], tip[0]] == 0
    assert out_skel.bits[junction[1], junction[0]] == 1  # through-ridge intact


@pytest.mark.parametrize("length", [8, 12])
def test_spur_kept_above_six(length):
    skel, junction, tip = make_spur_fixture(length)
    raw = extract_minutiae(skel, "spur")
    final, out_skel = postprocess(raw, skel, PipelineConfig())
    assert any(m.kind == BIFURCATION for m in final.minutiae)
    assert out_skel.bits[tip[1], tip[0]] == 1


def test_spur_example_counts():
    # straight ridge with a 4 px spur: raw has the bifurcation + the spur tip
    # ending; the postprocessed set has neither
    skel, junction, tip = make_spur_fixture(4)
    raw = extract_minutiae(skel, "spur4")
    assert sum(m.kind == BIFURCATION for m in raw.minutiae) == 1
    assert sum(m.kind == ENDING for m in raw.minutiae) == 3  # tip + 2 ridge ends
    final, _ = postprocess(raw, skel, PipelineConfig())
    assert len(final) == 0  # ridge-end minutiae die by the border rule


def octagon_ring(y0=16, x0=20, straight=16, corner=4):
    """Closed 1-px ring with 45-degree corners: every pixel has exactly two
    neighbors, so the ring contributes no raw minutiae at all."""
    moves = [
        ((0, 1), straight), ((1, 1), corner), ((1, 0), straight), ((1, -1), corner),
        ((0, -1), straight), ((-1, -1), corner), ((-1, 0), straight), ((-1, 1), corner),
    ]
    y, x = y0, x0
    pixels = [(y, x)]
    for (dy, dx), n in moves:
        for _ in range(n):
            y, x = y + dy, x + dx
            pixels.append((y, x))
    assert pixels[0] == pixels[-1]
    return pixels[:-1]


def test_gap_reconnection():
    # ring with a 3 px break in the top side: the break makes the only two
    # endings, 4 px apart, and at the defaults adjacency removes both
    bits = np.zeros((48, 60), np.uint8)
    ring = octagon_ring()
    for y, x in ring:
        bits[y, x] = 1
    gap = [(16, 27), (16, 28), (16, 29)]  # middle of the top run
    for y, x in gap:
        assert bits[y, x] == 1
        bits[y, x] = 0
    skel = Skeleton(bits)
    raw = extract_minutiae(skel, "gap")
    assert [m.kind for m in raw.minutiae] == [ENDING, ENDING]
    final, _ = postprocess(raw, skel, PipelineConfig())
    assert len(final) == 0
    final, _ = postprocess(raw, skel, PipelineConfig(adjacency_window=3))
    assert len(final) == 2


def test_gap_reconnection_merges_components():
    bits = np.zeros((40, 60), np.uint8)
    bits[20, 10:26] = 1
    bits[20, 29:46] = 1  # two segments, 3 px apart
    skel = Skeleton(bits)
    raw = extract_minutiae(skel, "merge")
    final, _ = postprocess(raw, skel, PipelineConfig())
    # the break endings, 4 px apart, die by adjacency; the outer endpoints survive
    assert sorted((m.x, m.y) for m in final.minutiae) == [(10, 20), (45, 20)]


def test_border_removal():
    bits = np.zeros((30, 30), np.uint8)
    bits[15, 3:28] = 1  # ending at x=3, 3 px from border
    skel = Skeleton(bits)
    raw = extract_minutiae(skel, "border")
    final, _ = postprocess(raw, skel, PipelineConfig(border_distance=10))
    assert not any(m.x == 3 for m in final.minutiae)


def test_adjacency_removes_both():
    bits = np.zeros((40, 40), np.uint8)
    bits[20, 12:18] = 1
    bits[24, 12:18] = 1  # two parallel stubs; their tips at x=17 are 4 apart
    skel = Skeleton(bits)
    raw = extract_minutiae(skel, "adj")
    final, _ = postprocess(raw, skel, PipelineConfig(border_distance=2))
    # tips at (17,20) and (17,24) are Chebyshev 4 <= 6: both die; tail tips at
    # (12,20),(12,24) likewise
    assert len(final) == 0


def test_postprocess_idempotent_and_monotone():
    rng = np.random.default_rng(21)
    from conftest import classify_pixel, make_blob_image

    bits = make_blob_image(rng, 96)
    from ridgekit.binary import BinaryImage, thin

    skel = thin(BinaryImage(bits))
    raw = extract_minutiae(skel, "idem")
    params = PipelineConfig()
    once_set, once_skel = postprocess(raw, skel, params)
    assert len(once_set) <= len(raw)
    assert (
        ndimage.label(once_skel.bits, structure=EIGHT)[1]
        <= ndimage.label(skel.bits, structure=EIGHT)[1]
    )
    twice_set, twice_skel = postprocess(once_set, once_skel, params)
    assert twice_set.minutiae == once_set.minutiae
    assert (twice_skel.bits == once_skel.bits).all()
    # every surviving minutia lies on the returned skeleton
    for m in once_set.minutiae:
        assert once_skel.bits[m.y, m.x] == 1


def test_minutiae_file_round_trip(tmp_path):
    mset = MinutiaeSet(
        "img42",
        (Minutia(10, 20, ENDING, math.radians(123.4)),
         Minutia(30, 40, BIFURCATION, math.radians(271.0))),
        "postprocessed",
    )
    path = tmp_path / "img42.txt"
    write_minutiae(path, mset, 256, 300)
    back, width, height = read_minutiae(path)
    assert (width, height) == (256, 300)
    assert back.image_id == "img42"
    assert [(m.x, m.y, m.kind) for m in back.minutiae] == [
        (10, 20, ENDING), (30, 40, BIFURCATION)
    ]
    assert abs(math.degrees(back.minutiae[0].direction) - 123.4) < 0.05


def test_minutiae_file_format_exact(tmp_path):
    mset = MinutiaeSet("id1", (Minutia(5, 6, ENDING, 0.0),), "postprocessed")
    path = tmp_path / "id1.txt"
    write_minutiae(path, mset, 64, 64)
    assert path.read_text() == "# id1 64 64\n5 6 E 0.0\n"


@pytest.mark.parametrize("direction", [-1e-20, -1e-300, -0.0, -2 * math.pi, -4 * math.pi,
                                       -6 * math.pi])
def test_a_direction_a_hair_below_zero_folds_to_zero(direction):
    # float % rounds -1e-20 % 2 pi up to 2 pi itself, outside [0, 2 pi)
    got = Minutia(1, 2, ENDING, direction).direction
    assert got == 0.0 and math.copysign(1.0, got) == 1.0


def test_a_truth_line_a_hair_below_zero_degrees_writes_back_as_zero(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("# a 10 10\n1 2 E -1e-20\n")
    back, width, height = read_minutiae(path)
    assert back.minutiae[0].direction == 0.0
    write_minutiae(path, back, width, height)
    assert path.read_text() == "# a 10 10\n1 2 E 0.0\n"


@pytest.mark.parametrize("degrees", ["359.96", "359.97", "359.999"])
def test_a_truth_line_a_hair_below_360_degrees_writes_back_as_zero(tmp_path, degrees):
    # the direction lies below 2 pi, but rounds to 360.0 at 0.1 degree
    path = tmp_path / "a.txt"
    path.write_text(f"# a 10 10\n1 2 E {degrees}\n")
    back, width, height = read_minutiae(path)
    assert 0.0 < back.minutiae[0].direction < 2 * math.pi
    write_minutiae(path, back, width, height)
    assert path.read_text() == "# a 10 10\n1 2 E 0.0\n"
    assert read_minutiae(path)[0].minutiae[0].direction == 0.0


def test_read_minutiae_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("5 6 E 0.0\n")
    with pytest.raises(ValueError):
        read_minutiae(bad)


def test_read_minutiae_accepts_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "a.txt"
    path.write_bytes(b"\xef\xbb\xbf# a 10 10\n1 2 E 30.0\n")
    back, width, height = read_minutiae(path)
    assert (back.image_id, width, height) == ("a", 10, 10)
    assert [(m.x, m.y, m.kind) for m in back.minutiae] == [(1, 2, ENDING)]
    path.write_bytes(b"# a 10 10\n\xef\xbb\xbf1 2 E 30.0\n")
    with pytest.raises(ValueError) as exc:
        read_minutiae(path)
    assert str(exc.value) == f"{path}: malformed minutia line '\\ufeff1 2 E 30.0'"


def test_minutiae_file_round_trips_an_id_with_spaces(tmp_path):
    mset = MinutiaeSet("my  scan", (Minutia(5, 6, ENDING, 0.0),), "postprocessed")
    path = tmp_path / "my  scan.txt"
    write_minutiae(path, mset, 64, 48)
    back, width, height = read_minutiae(path)
    assert (back.image_id, width, height) == ("my  scan", 64, 48)
    assert back.minutiae == mset.minutiae


@pytest.mark.parametrize("text, message", [
    ("# a 10 x\n", "malformed header '# a 10 x'"),
    ("# a 1.5 10\n", "malformed header '# a 1.5 10'"),
    ("# 10 10\n", "malformed header '# 10 10'"),  # no image id
    ("# a 10 10\n1.5 2 E 30\n", "malformed minutia line '1.5 2 E 30'"),
    ("# a 10 10\n1 y E 30\n", "malformed minutia line '1 y E 30'"),
    ("# a 10 10\n1 2 E abc\n", "malformed minutia line '1 2 E abc'"),
    ("# a 10 10\n1 2 E nan\n", "malformed minutia line '1 2 E nan'"),
    ("# a 10 10\n1 2 B inf\n", "malformed minutia line '1 2 B inf'"),
    ("# a 10 10\n1 2 E -inf\n", "malformed minutia line '1 2 E -inf'"),
    ("# a -3 0\n", "header '# a -3 0': width and height must be >= 1"),
    ("# a 10 0\n", "header '# a 10 0': width and height must be >= 1"),
    ("# a 10 10\n10 2 E 30\n", "minutia line '10 2 E 30' is outside the 10x10 frame"),
    ("# a 10 10\n1 -1 E 30\n", "minutia line '1 -1 E 30' is outside the 10x10 frame"),
    ("# a 10 10\n1 2 E 30\n3 4 B 0\n1 2 B 90\n",
     "duplicate minutia coordinates in line '1 2 B 90'"),
], ids=["width", "height", "no-id", "x", "y", "direction", "nan", "inf", "-inf",
        "negative-size", "zero-height", "x-outside", "y-outside", "duplicate"])
def test_read_minutiae_bad_value_names_file_and_line(tmp_path, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_minutiae(bad)
    assert str(exc.value) == f"{bad}: {message}"


# --- per-pixel references for the array code in extract_minutiae/postprocess


def _reference_walk(bits, start, first, blocked, steps):
    """Follow a branch from `start` through `first`, up to `steps` moves;
    stop at a dead end or where more than one continuation is free."""
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


def _reference_branch_vectors(bits, y, x):
    h, w = bits.shape
    starts = [
        (y + dy, x + dx)
        for dy, dx in _NEIGHBOR_OFFSETS
        if 0 <= y + dy < h and 0 <= x + dx < w and bits[y + dy, x + dx]
    ]
    vectors = []
    for sy, sx in starts:
        others = {p for p in starts if p != (sy, sx)}
        ey, ex = _reference_walk(bits, (y, x), (sy, sx), others, DIRECTION_WALK_STEPS)
        norm = math.hypot(ex - x, ey - y)
        if norm > 0:
            vectors.append(((ex - x) / norm, (ey - y) / norm))
    return vectors


def _minutia_direction(vecs, kind):
    """The direction of one minutia from the unit vectors of its branches,
    scored in Python: the reference for _minutia_directions."""
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


def _unit_vectors(owner, dx, dy, n):
    """Per owner 0..n-1, the unit vectors of its walks' end offsets."""
    vectors = [[] for _ in range(n)]
    for k, ex, ey in zip(owner.tolist(), dx.tolist(), dy.tolist()):
        norm = math.hypot(ex, ey)
        vectors[k].append((ex / norm, ey / norm))
    return vectors


def _reference_extract(skel, image_id):
    """extract_minutiae with one scalar walk per branch."""
    bits = skel.bits
    counts = ndimage.convolve(bits.astype(int), EIGHT, mode="constant")
    found = [(y, x, ENDING) for y, x in np.argwhere((bits == 1) & (counts == 2)).tolist()]
    found += [(y, x, BIFURCATION) for x, y in _cluster_representatives(bits)]
    found.sort()
    return MinutiaeSet(image_id, tuple(
        Minutia(x, y, kind, _minutia_direction(_reference_branch_vectors(bits, y, x), kind))
        for y, x, kind in found
    ), "raw")


def _reference_spur_junction(bits, ending, max_steps):
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


def _reference_postprocess(mset, skel, params):
    """postprocess with list rescans and all-pairs loops."""
    bits = skel.bits.copy()
    h, w = bits.shape
    current = list(mset.minutiae)

    erased = set()
    for m in [m for m in current if m.kind == ENDING]:
        if bits[m.y, m.x] == 0:
            continue
        hit = _reference_spur_junction(bits, m, params.spur_length)
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

    current = [
        m for m in current
        if min(m.x, m.y, w - 1 - m.x, h - 1 - m.y) >= params.border_distance
    ]

    doomed = set()
    for i in range(len(current)):
        for j in range(i + 1, len(current)):
            a, b = current[i], current[j]
            if max(abs(a.x - b.x), abs(a.y - b.y)) <= params.adjacency_window:
                doomed.update((id(a), id(b)))
    current = [m for m in current if id(m) not in doomed]
    current.sort(key=lambda m: (m.y, m.x))
    return MinutiaeSet(mset.image_id, tuple(current), "postprocessed"), bits


def _assert_matches_references(skel, image_id, params=PipelineConfig()):
    raw = extract_minutiae(skel, image_id)
    assert raw.minutiae == _reference_extract(skel, image_id).minutiae
    final, final_skel = postprocess(raw, skel, params)
    want, want_bits = _reference_postprocess(raw, skel, params)
    assert final.minutiae == want.minutiae
    assert (final_skel.bits == want_bits).all()
    return raw, final


def _random_skeletons():
    for shape, density in (((1, 1), 1.0), ((2, 3), 0.7), ((33, 40), 0.5), ((65, 72), 0.45),
                           ((40, 33), 1.0)):
        rng = np.random.default_rng([shape[0], shape[1]])
        bits = (rng.random(shape) < density).astype(np.uint8)
        yield f"noise{shape[0]}x{shape[1]}", thin(BinaryImage(bits))
    for size in (33, 41, 96):
        bits = make_blob_image(np.random.default_rng(size), size)
        yield f"blob{size}", thin(BinaryImage(bits))


def test_branch_vectors_match_reference_on_every_ridge_pixel():
    rng = np.random.default_rng(3)
    for bits in ((rng.random((30, 37)) < 0.35).astype(np.uint8),
                 thin(BinaryImage(make_blob_image(rng, 64))).bits):
        ys, xs = np.nonzero(bits)
        got = _unit_vectors(*_branch_vectors(bits, ys, xs), ys.size)
        assert got == [_reference_branch_vectors(bits, y, x) for y, x in zip(ys, xs)]


# every walk end offset (dx, dy) but (0, 0), and its row in _UNIT and _DIRECTION
_REACH = range(-DIRECTION_WALK_STEPS, DIRECTION_WALK_STEPS + 1)
_OFFSETS = [(dx, dy) for dy in _REACH for dx in _REACH if (dx, dy) != (0, 0)]


def _cell(dx, dy):
    return (dy + DIRECTION_WALK_STEPS) * len(_REACH) + dx + DIRECTION_WALK_STEPS


def test_direction_table_is_math_atan2_on_every_offset():
    assert len(_OFFSETS) == 120
    for dx, dy in _OFFSETS:
        h = math.hypot(dx, dy)
        assert tuple(_UNIT[_cell(dx, dy)].tolist()) == (dx / h, dy / h)
        assert _DIRECTION[_cell(dx, dy)] == math.atan2(dy / h, dx / h) % (2 * math.pi)


def test_np_hypot_equals_math_hypot_on_every_pair_sum():
    # the stem score divides by np.hypot of a sum of two table vectors
    ux, uy = (_UNIT[[_cell(dx, dy) for dx, dy in _OFFSETS], axis] for axis in (0, 1))
    sx, sy = np.add.outer(ux, ux).ravel(), np.add.outer(uy, uy).ravel()
    assert sx.size == 14_400
    assert np.hypot(sx, sy).tolist() == [math.hypot(a, b) for a, b in zip(sx.tolist(), sy.tolist())]


def _assert_directions_match_reference(walks, is_bif):
    """walks: one list of (dx, dy) end offsets per minutia."""
    owner = np.repeat(np.arange(len(walks)), [len(w) for w in walks])
    dx, dy = np.array([d for w in walks for d in w]).T
    got = _minutia_directions(owner, dx, dy, np.array(is_bif))
    vectors = _unit_vectors(owner, dx, dy, len(walks))
    assert got.tolist() == [_minutia_direction(v, BIFURCATION if b else ENDING)
                            for v, b in zip(vectors, is_bif)]


def test_stem_choice_matches_reference_on_every_pair():
    pairs = list(itertools.product(_OFFSETS, repeat=2))
    _assert_directions_match_reference(pairs, [True] * len(pairs))


def test_stem_choice_matches_reference_on_random_triples():
    rng = np.random.default_rng(16)
    triples = [[_OFFSETS[k] for k in row] for row in rng.integers(0, 120, (24_000, 3)).tolist()]
    _assert_directions_match_reference(triples, [True] * len(triples))
    # a fourth walk is not scored, and an ending takes its first walk
    fourth = rng.integers(0, 120, len(triples)).tolist()
    walks = [t + [_OFFSETS[k]] for t, k in zip(triples, fourth)] + triples[:100] + [[(1, 0)]]
    _assert_directions_match_reference(walks, [True] * len(triples) + [False] * 101)


def test_extract_matches_reference_on_a_dense_grating():
    # a thinned noisy period-6 grating at 512^2: hundreds of raw minutiae
    rng = np.random.default_rng(6)
    y, x = np.mgrid[:512, :512]
    wave = np.cos(2 * np.pi * (0.8 * x + 0.6 * y) / 6) + rng.normal(0, 0.25, (512, 512))
    skel = thin(BinaryImage((wave > 0).astype(np.uint8)))
    raw = extract_minutiae(skel, "grating")
    assert len(raw) >= 500 and sum(m.kind == BIFURCATION for m in raw.minutiae) >= 200
    assert raw.minutiae == _reference_extract(skel, "grating").minutiae


def test_extract_and_postprocess_match_reference_on_corpus(corpus_bitmaps):
    for image_id, _, skeleton in corpus_bitmaps:
        _assert_matches_references(Skeleton(skeleton), image_id)


def test_extract_and_postprocess_match_reference_on_random_skeletons():
    for image_id, skel in _random_skeletons():
        for params in (PipelineConfig(), PipelineConfig(adjacency_window=2, border_distance=0,
                                                        spur_length=9)):
            _assert_matches_references(skel, image_id, params)


@pytest.mark.parametrize("seed", range(3))
def test_postprocess_matches_reference_on_raw_noise(seed):
    # unthinned noise: thick clusters, many near ties in every rule
    rng = np.random.default_rng(seed)
    skel = Skeleton((rng.random((48, 64)) < 0.3).astype(np.uint8))
    for params in (PipelineConfig(), PipelineConfig(adjacency_window=1, border_distance=3,
                                                    spur_length=3)):
        _assert_matches_references(skel, "noise", params)


@pytest.fixture(scope="module")
def blurred_noise_skeletons():
    """Skeletons of blurred-noise captures, through the pipeline's stages
    past the coherence gate (which rejects them) to thin: hundreds of
    endings, and spurs close enough to each other that an erased spur
    changes what a later spur walk reads."""
    out = []
    for seed in (1, 8):
        img = _blurred_noise(seed)
        orient = enh.estimate_orientation(img, NO_GATE)
        freq = enh.estimate_frequency(img, orient)
        mask = enh.compute_region_mask(img, orient, freq, CONFIG)
        assert isinstance(mask, enh.RegionMask)
        work = invert(enh.gabor_enhance(img, orient, freq, mask))
        out.append((f"blurred_noise_{seed}", thin(binarize(work, auto_threshold(work, mask)))))
    return out


@pytest.mark.parametrize("params", [
    PipelineConfig(), PipelineConfig(spur_length=0), PipelineConfig(spur_length=1),
    PipelineConfig(spur_length=20),
], ids=["default", "spur_length_0", "spur_length_1", "spur_length_20"])
def test_extract_and_postprocess_match_reference_on_accepted_blurred_noise(
        blurred_noise_skeletons, params):
    for image_id, skel in blurred_noise_skeletons:
        _assert_matches_references(skel, image_id, params)


def test_spur_walk_never_steps_back_onto_its_start():
    # an ending listed on a ring pixel that a tail makes a junction: the
    # walk goes once round the ring and must then stop at a dead end, not
    # step back onto its start and take it for the junction
    bits = np.zeros((16, 16), np.uint8)
    for y, x in octagon_ring(y0=4, x0=6, straight=3, corner=2) + [(3, 5), (2, 4), (1, 3)]:
        bits[y, x] = 1
    mset = MinutiaeSet("loop", (Minutia(6, 4, ENDING, 0.0), Minutia(3, 1, ENDING, 0.0)), "raw")
    params = PipelineConfig(adjacency_window=0, border_distance=0,
                            spur_length=20)  # the ring is 20 px round
    final, final_skel = postprocess(mset, Skeleton(bits), params)
    want, want_bits = _reference_postprocess(mset, Skeleton(bits), params)
    assert final.minutiae == want.minutiae
    assert (final_skel.bits == want_bits).all()
    assert want_bits[4, 6] == 1 and want_bits[1, 3] == 0  # only the tail was a spur


@pytest.mark.parametrize("seed", range(8))
def test_spur_bifurcation_ties_match_reference(seed):
    # a 3-pixel spur meets the ridge at junction (30, 19); bifurcations are
    # placed by hand at random offsets around it, many at equal distance
    bits = np.zeros((40, 60), np.uint8)
    bits[20, 5:55] = 1
    for k in range(1, 4):
        bits[20 - k, 31 - k] = 1
    rng = np.random.default_rng(seed)
    branch = ((-2, -2), (-1, -1))  # the spur tip and its next pixel
    offsets = [(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3) if (dy, dx) not in branch]
    picked = rng.choice(len(offsets), size=int(rng.integers(2, 7)), replace=False)
    minutiae = [Minutia(28, 17, ENDING, 0.0)] + [
        Minutia(30 + offsets[k][1], 19 + offsets[k][0], BIFURCATION, 0.0) for k in picked
    ]
    rng.shuffle(minutiae)
    skel = Skeleton(bits)
    mset = MinutiaeSet("ties", tuple(minutiae), "raw")
    params = PipelineConfig(adjacency_window=0, border_distance=0, spur_length=6)
    final, final_skel = postprocess(mset, skel, params)
    want, want_bits = _reference_postprocess(mset, skel, params)
    assert final.minutiae == want.minutiae
    assert (final_skel.bits == want_bits).all()
    assert len(final) == len(mset) - 2  # the ending and one bifurcation
