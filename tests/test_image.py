import statistics

import numpy as np
import pytest

from ridgekit.binary import BinaryImage, Skeleton
from ridgekit.enhance import scaled_block_variance
from ridgekit.image import (
    GrayImage,
    PgmError,
    invert,
    load_pgm,
    save_pgm,
)


def test_load_p2_transcription(tmp_path):
    f = tmp_path / "a.pgm"
    f.write_text("P2\n3 3\n255\n0 1 2 3 4 5 6 7 8\n")
    img = load_pgm(f)
    assert (img.width, img.height) == (3, 3)
    assert img.pixels.ravel().tolist() == list(range(9))


def test_load_p2_with_comments(tmp_path):
    f = tmp_path / "a.pgm"
    f.write_text("P2\n# a comment\n2 2 # inline\n255\n10 20\n30 40\n")
    img = load_pgm(f)
    assert img.pixels.ravel().tolist() == [10, 20, 30, 40]


def test_load_p5(tmp_path):
    f = tmp_path / "a.pgm"
    f.write_bytes(b"P5\n2 2\n255\n" + bytes([5, 6, 7, 8]))
    img = load_pgm(f)
    assert img.pixels.ravel().tolist() == [5, 6, 7, 8]


def test_load_p5_with_header_comment(tmp_path):
    f = tmp_path / "a.pgm"
    f.write_bytes(b"P5\n# made by a scanner\n2 1\n255\n" + bytes([9, 10]))
    assert load_pgm(f).pixels.ravel().tolist() == [9, 10]


def test_load_maxval_too_large(tmp_path):
    f = tmp_path / "a.pgm"
    f.write_bytes(b"P5\n1 1\n65535\n\x00\x01")
    with pytest.raises(PgmError, match="unsupported maxval"):
        load_pgm(f)


@pytest.mark.parametrize("magic", ["P2", "P5"])
def test_load_sample_above_maxval(tmp_path, magic):
    f = tmp_path / "a.pgm"

    def write(values):
        raster = bytes(values) if magic == "P5" else " ".join(map(str, values)).encode()
        f.write_bytes(magic.encode() + b"\n2 1\n15\n" + raster)

    write([15, 0])  # maxval itself is in range
    assert load_pgm(f).pixels.ravel().tolist() == [15, 0]
    write([15, 200])
    with pytest.raises(PgmError, match=r"^pixel value outside \[0, maxval\]$"):
        load_pgm(f)


@pytest.mark.parametrize("sample", [b"99999999999999999999999", b"x", b"-1", b"256"])
def test_load_p2_bad_sample_names_it(tmp_path, sample):
    f = tmp_path / "a.pgm"
    f.write_bytes(b"P2\n2 1\n255\n1 " + sample + b"\n")
    with pytest.raises(PgmError) as exc:
        load_pgm(f)
    assert str(exc.value) == f"malformed pixel data: expected an integer 0..255, got {sample!r}"


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_pgm(tmp_path / "nope.pgm")


def test_load_malformed_header(tmp_path):
    f = tmp_path / "a.pgm"
    f.write_bytes(b"P7\n2 2\n255\n" + bytes(4))
    with pytest.raises(PgmError, match="malformed header"):
        load_pgm(f)


def test_load_truncated_data(tmp_path):
    f = tmp_path / "a.pgm"
    f.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(PgmError, match="truncated"):
        load_pgm(f)
    f2 = tmp_path / "b.pgm"
    f2.write_text("P2\n4 4\n255\n1 2 3\n")
    with pytest.raises(PgmError, match="truncated"):
        load_pgm(f2)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = GrayImage(rng.integers(0, 256, (17, 23)).astype(np.uint8))
    path = tmp_path / "rt.pgm"
    save_pgm(img, path)
    back = load_pgm(path)
    assert (back.pixels == img.pixels).all()


def test_p5_save_of_loaded_file_byte_identical(tmp_path):
    # modulo header whitespace, save(load(f)) reproduces the file; with the
    # canonical header layout it is byte-identical
    raster = bytes(range(12))
    original = b"P5\n4 3\n255\n" + raster
    f = tmp_path / "a.pgm"
    f.write_bytes(original)
    save_pgm(load_pgm(f), tmp_path / "b.pgm")
    assert (tmp_path / "b.pgm").read_bytes() == original


def test_p2_p5_round_trip_identical_pixels(tmp_path):
    # same pixels written as P2 then re-saved as P5 decode identically
    f = tmp_path / "a.pgm"
    f.write_text("P2\n2 2\n255\n0 255 128 64\n")
    img = load_pgm(f)
    save_pgm(img, tmp_path / "b.pgm")
    assert (load_pgm(tmp_path / "b.pgm").pixels == img.pixels).all()


def test_save_binary_maps_to_255(tmp_path):
    b = BinaryImage(np.array([[1, 0], [1, 0]], np.uint8))
    save_pgm(b, tmp_path / "b.pgm")
    assert load_pgm(tmp_path / "b.pgm").pixels.ravel().tolist() == [255, 0, 255, 0]


def test_save_empty_skeleton_all_zero(tmp_path):
    s = Skeleton(np.zeros((4, 4), np.uint8))
    save_pgm(s, tmp_path / "s.pgm")
    assert (load_pgm(tmp_path / "s.pgm").pixels == 0).all()


def test_gray_image_rejects_bad_values():
    with pytest.raises(ValueError):
        GrayImage(np.full((4, 4), 300))
    with pytest.raises(ValueError):
        GrayImage(np.zeros(16))


# What is left of Hong's normalization is its effect on block variances
# (enhance.scaled_block_variance), which the region mask's variance
# floor reads.


def _hong_normalize(pixels, target_mean, target_variance):
    """Hong's per-pixel formula on the float image, numpy's mean and variance."""
    data = pixels.astype(np.float64)
    mean, var = data.mean(), data.var()
    dev = np.sqrt(target_variance * (data - mean) ** 2 / var)
    return np.where(data > mean, target_mean + dev, target_mean - dev)


def _blocks(pixels, bs):
    return [[pixels[r : r + bs, c : c + bs] for c in range(0, pixels.shape[1], bs)]
            for r in range(0, pixels.shape[0], bs)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normalize_constant_image():
    # no capture variance to scale by: no block clears any floor
    img = GrayImage(np.full((8, 8), 77, np.uint8))
    out = scaled_block_variance(img, 4, 100.0)
    assert out.shape == (2, 2) and np.isnan(out).all()


def test_normalize_two_level_hand_computed():
    # half 0s, half 200s: capture variance 10000, so a block's scales by
    # 100 / 10000; the 3-column block {0, 0, 200} has variance 200^2 * 2/9
    data = np.zeros((2, 4), np.uint8)
    data[:, 2:] = 200
    img = GrayImage(data)
    assert scaled_block_variance(img, 4, 100.0).tolist() == [[100.0]]
    out = scaled_block_variance(img, 3, 100.0)
    assert out[0, 0] == pytest.approx(800 / 9, rel=1e-15) and out[0, 1] == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_normalize_hits_targets(seed):
    rng = np.random.default_rng(seed)
    img = GrayImage(rng.integers(0, 256, (40, 40)).astype(np.uint8))
    tm, tv = 100.0 + seed, 100.0 + 10 * seed
    # one block holding the whole capture scales to the target variance
    assert scaled_block_variance(img, 40, tv)[0, 0] == pytest.approx(tv, rel=1e-15)
    # and each block's equals its variance in the normalized image, whatever the target mean
    hong = _hong_normalize(img.pixels, tm, tv)
    want = [[b.var() for b in row] for row in _blocks(hong, 16)]
    assert np.allclose(scaled_block_variance(img, 16, tv), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("a,b", [(2, 30), (1, 55), (2, 0)])
def test_normalize_affine_invariant(a, b):
    rng = np.random.default_rng(3)
    base = rng.integers(0, 100, (24, 24))
    img = GrayImage(base.astype(np.uint8))
    scaled = GrayImage((a * base + b).astype(np.uint8))
    assert np.array_equal(scaled_block_variance(img, 16, 100.0),
                          scaled_block_variance(scaled, 16, 100.0))


def _levels(values, counts, shape):
    return np.repeat(np.array(values, np.uint8), counts).reshape(shape)


# 10/20/30 in equal numbers: the mean, 20, is a grey level of the image
NORMALIZE_PINS = {
    "constant": lambda: np.full((9, 7), 77, np.uint8),
    "two_level": lambda: _levels((0, 200), (4, 4), (2, 4)),
    "mean_on_level": lambda: _levels((10, 20, 30), (12, 12, 12), (6, 6)),
    "all_levels": lambda: np.arange(256, dtype=np.uint8).reshape(16, 16),
    "noise_40x61": lambda: np.random.default_rng(4).integers(0, 256, (40, 61)).astype(np.uint8),
    "narrow_1x9": lambda: np.random.default_rng(5).integers(90, 99, (1, 9)).astype(np.uint8),
    # a column-major view of the capture
    "transposed_37x100": lambda: np.random.default_rng(1).integers(0, 256, (100, 37)).astype(np.uint8).T,
}


# (target mean, target variance); the mean shifts no variance
@pytest.mark.parametrize("targets", [(100.0, 100.0), (0.0, 1.0), (-3.5, 1e4), (-0.0, 25.0)])
@pytest.mark.parametrize("name", sorted(NORMALIZE_PINS))
def test_normalize_matches_per_pixel_formula_bit_for_bit(name, targets):
    # each variance is the exact population variance rounded once, then
    # scaled as block variance * target variance / capture variance
    pixels = NORMALIZE_PINS[name]()
    _, tv = targets
    got = scaled_block_variance(GrayImage(pixels), 4, tv)
    capture = float(statistics.pvariance(pixels.ravel().tolist()))
    want = np.array([[float(statistics.pvariance(b.ravel().tolist())) * tv / capture
                      if capture else np.nan for b in row] for row in _blocks(pixels, 4)])
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


def test_normalize_requires_positive_variance():
    img = GrayImage(np.zeros((4, 4), np.uint8))
    with pytest.raises(ValueError):
        scaled_block_variance(img, 4, 0.0)


def test_invert():
    img = GrayImage(np.array([[0, 255], [100, 1]], np.uint8))
    assert invert(img).pixels.ravel().tolist() == [255, 0, 155, 254]
