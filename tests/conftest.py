import math

import numpy as np
import pytest
from scipy import ndimage

from ridgekit.config import PipelineConfig
from ridgekit.image import GrayImage
from ridgekit.minutiae import BIFURCATION, ENDING
from ridgekit.synth import ConcentricPattern, ParallelPattern, SynthSpec, generate, ridge_phase

CONFIG = PipelineConfig()
NO_GATE = PipelineConfig(reject_threshold=0.0)  # neither gate rejects at a threshold of 0


def make_blob_image(rng: np.random.Generator, size: int = 96) -> np.ndarray:
    """Random union of filled discs and rectangles, as a {0,1} array."""
    img = np.zeros((size, size), np.uint8)
    yy, xx = np.mgrid[0:size, 0:size]
    for _ in range(int(rng.integers(2, 7))):
        cy, cx = rng.integers(8, size - 8, 2)
        r = int(rng.integers(3, size // 6))
        img[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = 1
    for _ in range(int(rng.integers(0, 3))):
        y0, x0 = rng.integers(0, size - 12, 2)
        h, w = rng.integers(4, 14, 2)
        img[y0 : y0 + h, x0 : x0 + w] = 1
    return img


def _blurred_noise(seed, size=256):
    """Gaussian-blurred N(128, 60) noise, the quality gate's hard case."""
    rng = np.random.default_rng(seed)
    a = ndimage.gaussian_filter(rng.normal(128.0, 60.0, (size, size)), 2.0)
    a = (a - a.min()) * 255.0 / (a.max() - a.min())
    return GrayImage(np.clip(np.rint(a), 0, 255).astype(np.uint8))


def neighborhood_count(skel, x: int, y: int) -> int:
    """Reference for minutiae._count_grid: ridge pixels in the 3x3 window
    centered at (x, y), center included; out-of-bounds neighbors count as
    background."""
    bits = skel.bits
    h, w = bits.shape
    if not (0 <= x < w and 0 <= y < h):
        raise IndexError(f"({x}, {y}) outside {w}x{h} image")
    y0, y1 = max(0, y - 1), min(h, y + 2)
    x0, x1 = max(0, x - 1), min(w, x + 2)
    return int(bits[y0:y1, x0:x1].sum())


def classify_pixel(skel, x: int, y: int) -> str | None:
    """Reference classification of one ridge pixel by its 9-pixel-neighborhood
    count (extract_minutiae applies the same rule to the whole grid)."""
    if skel.bits[y, x] == 0:
        return None
    count = neighborhood_count(skel, x, y)
    if count == 2:
        return ENDING
    if count >= 4:
        return BIFURCATION
    return None  # count 3: plain ridge pixel; count 1: isolated dot


GRID_10 = (
    (48, 48, "ending"), (48, 120, "bifurcation"), (48, 192, "ending"),
    (120, 48, "bifurcation"), (120, 120, "ending"), (120, 192, "bifurcation"),
    (192, 48, "ending"), (192, 120, "bifurcation"), (192, 192, "ending"),
    (120, 225, "ending"),
)

_CORNERS = ((-60.0, -60.0), (316.0, -60.0), (-60.0, 316.0), (316.0, 316.0))


def corpus_spec(k: int, n_total: int = 20, max_noise: float = 40.0) -> SynthSpec:
    """Deterministic mixed-pattern corpus member: 10 injected minutiae,
    noise amplitude ramped over the corpus."""
    noise = max_noise * k / max(n_total - 1, 1)
    if k % 2 == 0:
        pattern = ParallelPattern(math.radians(k * 17.0))
    else:
        pattern = ConcentricPattern(*_CORNERS[(k // 2) % 4])
    return SynthSpec(
        256, 256, pattern, 8.0,
        injected=GRID_10, noise_amplitude=noise, seed=100 + k,
    )


def stage_truth(spec: SynthSpec, block_size: int = CONFIG.block_size):
    """What the generator knows exactly of spec's print, from its phase phi:
    (theta, freq, ridges), each block's ridge orientation in [0, pi) and
    ridge frequency in cycles/px, and the ridge map, cos phi > 0 (the dark
    pixels). grad phi comes from wrapped central differences. A block's
    orientation is half the angle of the mean of exp(2i (psi + pi/2)), psi
    the angle of grad phi, and its frequency the median of |grad phi| / 2 pi
    over the block's pixels."""
    phase, _ = ridge_phase(spec)
    gy, gx = (np.gradient(np.unwrap(phase, axis=axis), axis=axis) for axis in (0, 1))
    h, w = phase.shape
    rows, cols = -(-h // block_size), -(-w // block_size)

    def blocks(a):  # (rows, cols, block_size^2), NaN past the image
        out = np.full((rows * block_size, cols * block_size), np.nan, a.dtype)
        out[:h, :w] = a
        return out.reshape(rows, block_size, cols, block_size).swapaxes(1, 2).reshape(rows, cols, -1)

    doubled = np.exp(2j * (np.arctan2(gy, gx) + np.pi / 2))
    theta = np.mod(0.5 * np.angle(np.nanmean(blocks(doubled), axis=-1)), np.pi)
    freq = np.nanmedian(blocks(np.hypot(gx, gy) / (2 * np.pi)), axis=-1)
    return theta, freq, np.cos(phase) > 0


def far_from_points(spec: SynthSpec, shape, block_size: int = CONFIG.block_size):
    """(rows, cols) bool: the blocks more than one block from the block of
    every injected point."""
    far = np.ones(shape, bool)
    for x, y, _ in spec.injected:
        r, c = y // block_size, x // block_size
        far[max(r - 1, 0) : r + 2, max(c - 1, 0) : c + 2] = False
    return far


@pytest.fixture
def clean_stripes():
    """Noise-free parallel ridges at 30 deg, period 8."""
    img, truth = generate(SynthSpec(256, 256, ParallelPattern(math.radians(30)), 8.0))
    return img, truth


@pytest.fixture(scope="session")
def corpus_prints():
    """(image, truth) of each acceptance-corpus print, generated once."""
    return [generate(corpus_spec(k)) for k in range(20)]


@pytest.fixture(scope="session")
def corpus_bitmaps(corpus_prints):
    """(image_id, binary bits, skeleton bits) of each acceptance-corpus print,
    as the pipeline produces them."""
    from ridgekit.pipeline import extract_from_image

    out = []
    for img, truth in corpus_prints:
        stages = extract_from_image(img, truth.image_id, PipelineConfig()).intermediates
        out.append((truth.image_id, stages["binary"].bits, stages["skeleton"].bits))
    return out


@pytest.fixture(scope="session")
def corpus_enhance_inputs(corpus_prints):
    """(image_id, image, orientation, frequency, mask) of each
    acceptance-corpus print, from the default estimators."""
    from ridgekit import enhance as enh

    out = []
    for img, truth in corpus_prints:
        orient = enh.estimate_orientation(img, NO_GATE)
        freq = enh.estimate_frequency(img, orient)
        mask = enh.compute_region_mask(img, orient, freq, CONFIG)
        assert isinstance(mask, enh.RegionMask), truth.image_id
        out.append((truth.image_id, img, orient, freq, mask))
    return out
