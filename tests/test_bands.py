"""The front end in row bands: bit identity where bands and block rows
split, allocation budgets at 512^2, and no crash on any small 8-bit image."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CONFIG, NO_GATE, _blurred_noise
from test_enhance import (
    _dense_reference,
    _reference_banded,
    _reference_block_variance,
    _reference_orientation,
    _reference_signatures,
    assert_same_bits,
)
from ridgekit import enhance as enh
from ridgekit.binary import auto_threshold
from ridgekit.config import PipelineConfig
from ridgekit.image import BAND_PIXELS, GrayImage, _bands, invert
from ridgekit.pipeline import extract_from_image
from ridgekit.synth import ConcentricPattern, ParallelPattern, SynthSpec, generate

BAND_IMAGES = {
    # 8 bands of 4 block rows
    "512x512": lambda: generate(SynthSpec(512, 512, ConcentricPattern(-100.0, -100.0), 6.0,
                                          noise_amplitude=30.0, seed=3))[0],
    # the last band and the last block row partial
    "517x300": lambda: generate(SynthSpec(300, 517, ParallelPattern(math.radians(35.0)), 7.0,
                                          noise_amplitude=25.0, seed=4))[0],
    # one block row per band, the last one partial; 69 block columns
    "40x1100": lambda: generate(SynthSpec(1100, 40, ParallelPattern(math.radians(80.0)), 8.0,
                                          noise_amplitude=20.0, seed=5))[0],
}


def _parent_enhance(response, sel):
    """gabor_enhance's rescaling as a copy of the selected values."""
    out = np.full(response.shape, enh.BACKGROUND_INTENSITY, dtype=np.uint8)
    vals = response[sel]
    lo, hi = vals.min(), vals.max()
    out[sel] = np.rint((vals - lo) * 255.0 / (hi - lo)).astype(np.uint8)
    return out


@pytest.mark.parametrize("name", sorted(BAND_IMAGES))
def test_bands_split_the_front_end_bit_identically(name, monkeypatch):
    img = BAND_IMAGES[name]()
    h, w = img.pixels.shape
    bands = list(_bands(h, w, PipelineConfig.block_size))
    assert len(bands) > 1 and bands[-1][1] == h
    data = img.pixels.astype(np.float64)

    orient = enh.estimate_orientation(img, NO_GATE)
    theta, coherence = _reference_orientation(data)
    assert_same_bits(orient.theta, theta)
    assert_same_bits(orient.coherence, coherence)

    rows = orient.theta.shape[0]
    sig, has_sig = enh._projection_signatures(img.pixels, orient, 32, slice(0, rows))
    want_sig, want_has = _reference_signatures(data, orient, 32)
    assert_same_bits(sig, want_sig)
    assert np.array_equal(has_sig, want_has)
    freq = enh.estimate_frequency(img, orient, CONFIG)
    with monkeypatch.context() as m:
        m.setattr(enh, "_projection_signatures", _reference_signatures)
        assert_same_bits(freq.freq, enh.estimate_frequency(img, orient, CONFIG).freq)

    variance = _reference_block_variance(data, orient.block_size)
    got_variance, capture = enh._block_variance(img.pixels, orient.block_size)
    assert_same_bits(got_variance, variance)
    mask = enh.compute_region_mask(img, orient, freq, NO_GATE)
    scaled = variance * enh.NORMALIZED_VARIANCE / capture
    assert np.array_equal(mask.labels, (scaled >= PipelineConfig.variance_floor)
                          & (coherence >= PipelineConfig.coherence_floor)
                          & np.isfinite(freq.freq))
    # unrecoverable blocks inside every band, runs of 1 to 3 blocks
    labels = mask.labels & (np.indices(mask.labels.shape).sum(axis=0) % 4 != 1)
    mask = enh.RegionMask(orient.block_size, labels)
    enhanced = enh.gabor_enhance(img, orient, freq, mask, CONFIG)
    response = enh.gabor_response(img, orient, freq, mask, CONFIG)
    assert_same_bits(response, _reference_banded(img, orient, freq, mask, CONFIG))
    sel = mask.pixel_mask(h, w)
    assert np.array_equal(enhanced.pixels, _parent_enhance(response, sel))
    with monkeypatch.context() as m:
        m.setattr(enh, "gabor_response", _dense_reference)
        assert np.array_equal(enhanced.pixels, enh.gabor_enhance(img, orient, freq, mask, CONFIG).pixels)

    work = invert(enhanced)
    want = int(np.rint(work.pixels[sel].astype(np.float64).mean()))
    assert auto_threshold(work, mask) == want


def test_bands_cover_in_order():
    assert list(_bands(517, 300, 16)) == [
        (0, 96), (96, 192), (192, 288), (288, 384), (384, 480), (480, 517)]
    assert list(_bands(40, 1100, 16))[1] == (16, 32)
    assert list(_bands(5, 10 * BAND_PIXELS)) == [(i, i + 1) for i in range(5)]
    assert len(list(_bands(256, 256, 16))) == 2 and len(list(_bands(512, 512, 16))) == 8


def _nbytes(result):
    arrays = [a for a in getattr(result, "__dict__", {}).values() if isinstance(a, np.ndarray)]
    return sum(a.nbytes for a in arrays)


def _peak(fn):
    """(result, peak bytes allocated while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_front_end_allocates_no_image_sized_temporary_at_512():
    # each stage may allocate its output once (Gabor response, enhanced
    # image) and at most 1 MiB besides
    img = BAND_IMAGES["512x512"]()
    orient = enh.estimate_orientation(img, NO_GATE)
    freq = enh.estimate_frequency(img, orient, CONFIG)
    mask = enh.compute_region_mask(img, orient, freq, CONFIG)
    assert isinstance(mask, enh.RegionMask) and mask.labels.all()
    work = invert(enh.gabor_enhance(img, orient, freq, mask, CONFIG))
    image_bytes = 512 * 512 * 8
    stages = {
        "estimate_orientation": (lambda: enh.estimate_orientation(img, NO_GATE), 0),
        "estimate_frequency": (lambda: enh.estimate_frequency(img, orient, CONFIG), 0),
        "compute_region_mask": (lambda: enh.compute_region_mask(img, orient, freq, CONFIG), 0),
        "gabor_enhance": (lambda: enh.gabor_enhance(img, orient, freq, mask, CONFIG), image_bytes),
        "auto_threshold": (lambda: auto_threshold(work, mask), 0),
    }
    for name, (fn, response) in stages.items():
        result, peak = _peak(fn)
        assert peak <= _nbytes(result) + response + 2**20, (name, peak)


def test_rejected_512_capture_allocates_no_image_sized_float_array():
    # the gate reads int16 gradients of one band at a time: a 512^2 capture
    # it rejects never holds a float64 array of the image's size
    img = _blurred_noise(0, size=512)
    outcome, peak = _peak(lambda: extract_from_image(img, "blurred_noise", PipelineConfig()))
    assert outcome.rejected and outcome.rejection.measure == "coherent share"
    assert peak < 512 * 512 * 8, peak


def test_rejected_256_capture_peaks_below_half_a_mib():
    # the gate writes the Sobel gradients of each band straight into the
    # int32 block-sum buffers, through one int16 band and an int16 scratch
    # in the gy plane's own bytes: 400,804 B at most (a first call), against
    # 468,008 B with a separate int16 scratch array
    img = _blurred_noise(0)
    outcome, peak = _peak(lambda: extract_from_image(img, "blurred_noise", PipelineConfig()))
    assert outcome.rejected and outcome.rejection.measure == "coherent share"
    assert peak < 512 * 1024, peak
    assert peak < 400_804 + 16 * 1024, peak


_CONTENT = st.sampled_from(["blank", "saturated", "noise", "grating", "noisy_grating"])


# reject_threshold 0 accepts every image, even one with no recoverable block
_CONFIG = st.sampled_from([PipelineConfig(), PipelineConfig(reject_threshold=0.0)])


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(h=st.integers(32, 100), w=st.integers(32, 300), content=_CONTENT,
       seed=st.integers(0, 2**16), angle=st.floats(0.0, 180.0), period=st.floats(4.0, 20.0),
       config=_CONFIG)
def test_extract_never_crashes_on_small_8bit_images(h, w, content, seed, angle, period, config):
    rng = np.random.default_rng(seed)
    if content == "blank":
        pixels = np.full((h, w), rng.integers(0, 256), np.uint8)
    elif content == "saturated":
        pixels = np.where(rng.random((h, w)) < 0.5, 0, 255).astype(np.uint8)
    elif content == "noise":
        pixels = rng.integers(0, 256, (h, w)).astype(np.uint8)
    else:
        noise = 40.0 if content == "noisy_grating" else 0.0
        pixels = generate(SynthSpec(w, h, ParallelPattern(math.radians(angle)), period,
                                    noise_amplitude=noise, seed=seed))[0].pixels
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outcome = extract_from_image(GrayImage(pixels), "probe", config)
    assert outcome.rejected == (outcome.minutiae is None)
