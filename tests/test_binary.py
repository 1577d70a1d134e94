import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from conftest import make_blob_image
from ridgekit.binary import (
    BinaryImage,
    Skeleton,
    auto_threshold,
    binarize,
    thin,
)
from ridgekit.enhance import RegionMask
from ridgekit.image import GrayImage

EIGHT = np.ones((3, 3))


def components(bits: np.ndarray) -> int:
    return ndimage.label(bits, structure=EIGHT)[1]


def has_2x2(bits: np.ndarray) -> bool:
    return bool((bits[:-1, :-1] & bits[1:, :-1] & bits[:-1, 1:] & bits[1:, 1:]).any())


def test_binarize_boundary_inclusive():
    # I == threshold maps to ridge
    img = GrayImage(np.array([[100]], np.uint8))
    assert binarize(img, 100).bits[0, 0] == 1


def test_binarize_all_zero_threshold_one():
    img = GrayImage(np.zeros((8, 8), np.uint8))
    assert (binarize(img, 1).bits == 0).all()


def test_binarize_matches_pixel_oracle():
    rng = np.random.default_rng(5)
    img = GrayImage(rng.integers(0, 256, (64, 64)).astype(np.uint8))
    tp = int(rng.integers(0, 256))
    out = binarize(img, tp)
    for y in range(64):
        for x in range(64):
            assert out.bits[y, x] == (1 if img.pixels[y, x] >= tp else 0)


def test_binarize_idempotent_on_scaled_output():
    rng = np.random.default_rng(6)
    img = GrayImage(rng.integers(0, 256, (32, 32)).astype(np.uint8))
    b = binarize(img, 130)
    rescaled = GrayImage((b.bits * 255).astype(np.uint8))
    assert (binarize(rescaled, 1).bits == b.bits).all()


def test_binarize_monotone_in_threshold():
    rng = np.random.default_rng(7)
    img = GrayImage(rng.integers(0, 256, (32, 32)).astype(np.uint8))
    prev = binarize(img, 0).bits
    for tp in (40, 90, 160, 255):
        cur = binarize(img, tp).bits
        assert not (cur & ~prev).any()  # raising T_p never turns 0 into 1
        prev = cur


def test_auto_threshold_constant_region():
    img = GrayImage(np.full((32, 32), 128, np.uint8))
    mask = RegionMask(16, np.ones((2, 2), bool))
    assert auto_threshold(img, mask) == 128


def test_auto_threshold_two_values():
    data = np.full((32, 32), 100, np.uint8)
    data[:, 16:] = 200
    mask = RegionMask(16, np.ones((2, 2), bool))
    assert auto_threshold(img := GrayImage(data), mask) == 150


def test_auto_threshold_uses_only_recoverable():
    data = np.full((32, 32), 100, np.uint8)
    data[:16, :16] = 30  # unrecoverable block gets ignored
    labels = np.ones((2, 2), bool)
    labels[0, 0] = False
    mask = RegionMask(16, labels)
    img = GrayImage(data)
    assert auto_threshold(img, mask) == 100
    # independent re-computation over selected pixels
    sel = mask.pixel_mask(32, 32)
    assert abs(auto_threshold(img, mask) - img.pixels[sel].mean()) <= 2


def test_auto_threshold_empty_region_errors():
    img = GrayImage(np.zeros((32, 32), np.uint8))
    mask = RegionMask(16, np.zeros((2, 2), bool))
    with pytest.raises(ValueError):
        auto_threshold(img, mask)


def test_thin_filled_square():
    bits = np.zeros((9, 9), np.uint8)
    bits[2:7, 2:7] = 1
    skel = thin(BinaryImage(bits))
    assert not has_2x2(skel.bits)
    assert components(skel.bits) == 1


def test_thin_diagonal_line_unchanged():
    bits = np.eye(7, dtype=np.uint8)
    assert (thin(BinaryImage(bits)).bits == bits).all()


def test_thin_empty():
    bits = np.zeros((6, 6), np.uint8)
    assert (thin(BinaryImage(bits)).bits == 0).all()


def test_thin_preserves_endpoints():
    bits = np.zeros((7, 9), np.uint8)
    bits[3, 1:8] = 1  # open horizontal curve
    skel = thin(BinaryImage(bits))
    assert skel.bits[3, 1] == 1 and skel.bits[3, 7] == 1
    assert (skel.bits == bits).all()


@pytest.mark.parametrize("seed", range(10))
def test_thin_invariants_random_blobs(seed):
    rng = np.random.default_rng(1000 + seed)
    bits = make_blob_image(rng)
    skel = thin(BinaryImage(bits))
    assert not has_2x2(skel.bits)
    assert components(skel.bits) == components(bits)  # flood-fill oracle
    assert (thin(skel).bits == skel.bits).all()  # fixpoint
    assert not (skel.bits & ~bits).any()  # thinning only removes pixels


def test_binary_image_validates_bits():
    with pytest.raises(ValueError):
        BinaryImage(np.full((3, 3), 2, np.uint8))


@pytest.mark.parametrize("values, dtype", [
    ((0, 1), np.uint8), ((0, 1), bool), ((0, 1), np.int64), ((0, 1), np.int8),
    ((0, 1), np.uint16), ((0.0, -0.0, 1.0), np.float64), ((0.0, 1.0), np.float32),
    ((), np.uint8), ((), np.float64), ((), bool),
])
def test_binary_image_accepts_zero_one_of_any_dtype(values, dtype):
    bits = np.resize(np.array(values, dtype=dtype), (2, 3) if values else (0, 4))
    img = BinaryImage(bits)
    assert img.bits.dtype == np.uint8
    assert np.array_equal(img.bits, bits.astype(np.uint8))


@pytest.mark.parametrize("bad, dtype", [
    (2, np.uint8), (255, np.uint8), (256, np.uint16), (2, np.uint64),
    (-1, np.int8), (-1, np.int64), (2, np.int64), (256, np.int64),
    (0.5, np.float64), (2.0, np.float64), (-1.0, np.float64), (np.nan, np.float64),
])
def test_binary_image_rejects_values_other_than_zero_one(bad, dtype):
    bits = np.array([[0, 1, 1], [1, 0, bad]], dtype=dtype)
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        BinaryImage(bits)


def test_skeleton_is_binary_image():
    s = Skeleton(np.zeros((3, 3), np.uint8))
    assert isinstance(s, BinaryImage)


def _reference_thin(bits: np.ndarray) -> np.ndarray:
    """Whole-image Hilditch thinning, the reference for `thin`: it recomputes
    the connectivity number and degree of every pixel at every subfield step."""
    h, w = bits.shape
    padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = bits
    core = padded[1:-1, 1:-1]

    def simple_and_degree():
        n, ne, e = padded[:-2, 1:-1], padded[:-2, 2:], padded[1:-1, 2:]
        se, s, sw = padded[2:, 2:], padded[2:, 1:-1], padded[2:, :-2]
        w_, nw = padded[1:-1, :-2], padded[:-2, :-2]
        conn = (
            (1 - e) * np.maximum(ne, n) + (1 - n) * np.maximum(nw, w_)
            + (1 - w_) * np.maximum(sw, s) + (1 - s) * np.maximum(se, e)
        )
        return conn, n + ne + e + se + s + sw + w_ + nw

    directions = ((0, 1), (2, 1), (1, 2), (1, 0))  # N, S, E, W offsets in padded
    subfields = [np.zeros((h, w), dtype=bool) for _ in range(4)]
    for k, (ro, co) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        subfields[k][ro::2, co::2] = True
    changed = True
    while changed:
        changed = False
        for ro, co in directions:
            dir_bg = padded[ro : ro + h, co : co + w] == 0
            for sub in subfields:
                conn, degree = simple_and_degree()
                kill = (core == 1) & dir_bg & sub & (conn == 1) & (degree >= 2)
                if kill.any():
                    core[kill] = 0
                    changed = True
    return core.copy()


def test_thin_matches_reference_on_corpus(corpus_bitmaps):
    for image_id, binary, skeleton in corpus_bitmaps:
        assert (skeleton == _reference_thin(binary)).all(), image_id


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 2), (33, 40), (65, 72), (40, 33),
                                   (1, 40), (40, 1), (2, 2), (5, 64)])
@pytest.mark.parametrize("density", [0.5, 0.8, 1.0])
def test_thin_matches_reference_on_odd_shapes(shape, density):
    rng = np.random.default_rng([shape[0], shape[1], int(density * 10)])
    bits = (rng.random(shape) < density).astype(np.uint8)
    assert (thin(BinaryImage(bits)).bits == _reference_thin(bits)).all()


@pytest.mark.parametrize("size", [33, 41, 96])
def test_thin_matches_reference_on_blobs(size):
    bits = make_blob_image(np.random.default_rng(size), size)
    assert (thin(BinaryImage(bits)).bits == _reference_thin(bits)).all()


FOUR = ndimage.generate_binary_structure(2, 1)


@settings(max_examples=150, deadline=None)
@given(arrays(np.uint8, st.tuples(st.integers(1, 40), st.integers(1, 40)),
              elements=st.integers(0, 1)))
def test_thin_properties(bits):
    skel = thin(BinaryImage(bits)).bits
    assert (thin(BinaryImage(skel)).bits == skel).all()  # fixpoint
    assert not (skel & ~bits).any()  # subset of the input
    assert components(skel) == components(bits)
    # pixels beyond the image edge count as background, so background
    # components are counted on the zero-padded image
    background = ndimage.label(np.pad(bits, 1) == 0, structure=FOUR)[1]
    assert ndimage.label(np.pad(skel, 1) == 0, structure=FOUR)[1] == background
