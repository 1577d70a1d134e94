import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from conftest import CONFIG, NO_GATE, _blurred_noise, corpus_spec
from ridgekit import enhance as enh, image
from ridgekit.config import PipelineConfig
from ridgekit.image import GrayImage, _bands
from ridgekit.synth import ParallelPattern, SynthSpec, generate


def angle_error(theta, want):
    d = np.abs(theta - (want % np.pi))
    return np.minimum(d, np.pi - d)


def oriented_image(deg, period=8.0, size=256, noise=0.0, seed=0):
    img, _ = generate(
        SynthSpec(size, size, ParallelPattern(math.radians(deg)), period,
                  noise_amplitude=noise, seed=seed)
    )
    return img


def test_orientation_vertical_stripes():
    # intensity varies with x only -> ridge direction is vertical (pi/2)
    img = oriented_image(90.0)
    orient = enh.estimate_orientation(img, NO_GATE)
    err = angle_error(orient.theta[2:-2, 2:-2], math.pi / 2)
    assert err.max() <= 0.05


def test_orientation_rotated_30():
    img = oriented_image(60.0)  # 90 - 30
    orient = enh.estimate_orientation(img, NO_GATE)
    err = angle_error(orient.theta[2:-2, 2:-2], math.pi / 2 - math.radians(30))
    assert np.quantile(err, 0.95) <= 0.09


def test_orientation_constant_image_flagged_low_coherence():
    img = GrayImage(np.full((64, 64), 50, np.uint8))
    orient = enh.estimate_orientation(img, NO_GATE)
    assert np.isfinite(orient.theta).all()
    assert (orient.coherence < 0.3).all()


def test_orientation_range_invariant():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        img = GrayImage(rng.integers(0, 256, (96, 96)).astype(np.uint8))
        orient = enh.estimate_orientation(img, NO_GATE)
        assert (orient.theta >= 0).all() and (orient.theta < np.pi).all()


@pytest.mark.parametrize("phi", [15.0, 30.0, 50.0])
def test_orientation_rotation_equivariance(phi):
    # rotating the image by phi shifts interior theta by -phi (mod pi)
    base = oriented_image(90.0)
    rotated = ndimage.rotate(
        base.pixels.astype(float), phi, reshape=False, order=1, mode="nearest"
    )
    img = GrayImage(np.clip(np.rint(rotated), 0, 255).astype(np.uint8))
    orient = enh.estimate_orientation(img, NO_GATE)
    want = (math.pi / 2 - math.radians(phi)) % math.pi
    err = angle_error(orient.theta[3:-3, 3:-3], want)
    assert np.quantile(err, 0.9) <= 0.09


def test_orientation_rejects_small_image():
    img = GrayImage(np.zeros((8, 8), np.uint8))
    assert NO_GATE.block_size == 16
    with pytest.raises(ValueError, match=r"^image 8x8 smaller than one 16px block$"):
        enh.estimate_orientation(img, NO_GATE)


@pytest.mark.parametrize("sigma", [-2.0, -1e-300, math.inf, math.nan])
def test_orientation_refuses_negative_or_non_finite_smoothing(sigma):
    # the config is the one gate on the smoothing that orientation reads
    message = ("smooth_sigma must be >= 0" if math.isfinite(sigma)
               else "smooth_sigma: must be finite")
    with pytest.raises(ValueError, match=f"^{message}$"):
        replace(NO_GATE, smooth_sigma=sigma)


@pytest.mark.parametrize("period", [4, 6, 8, 10, 12])
def test_frequency_recovery(period):
    img = oriented_image(30.0, period=float(period))
    orient = enh.estimate_orientation(img, NO_GATE)
    freq = enh.estimate_frequency(img, orient, CONFIG)
    f = freq.freq[2:-2, 2:-2]
    present = np.isfinite(f)
    assert present.mean() >= 0.9
    rel_err = np.abs(f[present] * period - 1.0)
    assert (rel_err <= 0.10).mean() >= 0.9


def test_frequency_period_30_out_of_band():
    xs = np.tile(np.arange(256), (256, 1))
    img = GrayImage(
        np.clip(np.rint(127.5 - 100 * np.cos(2 * np.pi * xs / 30.0)), 0, 255).astype(np.uint8)
    )
    freq = enh.estimate_frequency(img, enh.estimate_orientation(img, NO_GATE), CONFIG)
    assert not np.isfinite(freq.freq).any()


def test_frequency_constant_image_absent():
    img = GrayImage(np.full((64, 64), 90, np.uint8))
    freq = enh.estimate_frequency(img, enh.estimate_orientation(img, NO_GATE), CONFIG)
    assert not np.isfinite(freq.freq).any()


def test_frequency_band_invariant():
    img = oriented_image(75.0, period=6.0, noise=25.0, seed=2)
    freq = enh.estimate_frequency(img, enh.estimate_orientation(img, NO_GATE), CONFIG)
    present = freq.freq[np.isfinite(freq.freq)]
    assert (present >= 1.0 / 25.0).all() and (present <= 1.0 / 3.0).all()


# Reference for estimate_frequency: the per-block helpers it was first
# written with, one map_coordinates call and one peak search per block.


def _oriented_signature(data, cx, cy, theta, window, depth):
    ux, uy = math.cos(theta + np.pi / 2), math.sin(theta + np.pi / 2)
    vx, vy = math.cos(theta), math.sin(theta)
    k = (np.arange(window) - (window - 1) / 2.0)[:, None]
    d = (np.arange(depth) - (depth - 1) / 2.0)[None, :]
    xs = cx + k * ux + d * vx
    ys = cy + k * uy + d * vy
    vals = ndimage.map_coordinates(
        data, np.stack([ys, xs]), order=1, mode="constant", cval=np.nan
    )
    counts = np.isfinite(vals).sum(axis=1)
    if (counts < depth // 2).any():
        return None
    with np.errstate(invalid="ignore"):
        return np.nanmean(vals, axis=1)


def _period_from_signature(sig):
    smooth = np.convolve(np.pad(sig, 1, mode="edge"), np.ones(3) / 3.0, mode="valid")
    interior = smooth[1:-1]
    idx = (
        np.nonzero(
            (interior > smooth[:-2])
            & (interior >= smooth[2:])
            & (interior > smooth.mean())
        )[0]
        + 1
    )
    if len(idx) < 2:
        return None
    positions = []
    for i in idx:
        y0, y1, y2 = smooth[i - 1], smooth[i], smooth[i + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if abs(denom) > 1e-12 else 0.0
        positions.append(i + np.clip(shift, -0.5, 0.5))
    period = float(np.diff(positions).mean())
    if period < enh.MIN_RIDGE_PERIOD or period > enh.MAX_RIDGE_PERIOD:
        return None
    return period


def _reference_frequency(img, orient, window=PipelineConfig.freq_window):
    data = img.pixels.astype(np.float64)
    h, w = data.shape
    bs = orient.block_size
    freq = np.full(orient.theta.shape, np.nan)
    for r, c in np.ndindex(freq.shape):
        y0, y1 = r * bs, min((r + 1) * bs, h)
        x0, x1 = c * bs, min((c + 1) * bs, w)
        sig = _oriented_signature(
            data, (x0 + x1 - 1) / 2.0, (y0 + y1 - 1) / 2.0,
            float(orient.theta[r, c]), window, bs,
        )
        period = None if sig is None else _period_from_signature(sig)
        if period is not None:
            freq[r, c] = 1.0 / period
    return enh._fill_absent(freq)


# sizes with partial edge blocks (250 x 237, 40 x 61) and blurred noise
PIN_IMAGES = {
    "256x256": lambda: oriented_image(30.0, noise=20.0, seed=5),
    "250x237": lambda: generate(SynthSpec(250, 237, ParallelPattern(math.radians(70.0)),
                                          7.0, noise_amplitude=25.0, seed=6))[0],
    "40x61": lambda: generate(SynthSpec(61, 40, ParallelPattern(math.radians(10.0)),
                                        6.0, noise_amplitude=10.0, seed=7))[0],
    "blurred_noise": lambda: _blurred_noise(8),
}


@pytest.mark.parametrize("name", sorted(PIN_IMAGES))
def test_frequency_matches_per_block_reference(name):
    img = PIN_IMAGES[name]()
    orient = enh.estimate_orientation(img, NO_GATE)
    got = enh.estimate_frequency(img, orient, CONFIG).freq
    want = _reference_frequency(img, orient)
    assert np.isfinite(want).any()
    assert (np.isnan(got) == np.isnan(want)).all()
    present = np.isfinite(want)
    assert (np.round(got[present], 6) == np.round(want[present], 6)).all()


def test_region_mask_clean_accepted(clean_stripes):
    img, _ = clean_stripes
    orient = enh.estimate_orientation(img, NO_GATE)
    freq = enh.estimate_frequency(img, orient, CONFIG)
    mask = enh.compute_region_mask(img, orient, freq, PipelineConfig(reject_threshold=0.3))
    assert isinstance(mask, enh.RegionMask)
    assert mask.recoverable_fraction >= 0.9
    # independent per-block re-check of the mask definition: the block
    # variance scaled as normalizing the capture to NORMALIZED_VARIANCE would
    want = (
        np.isfinite(freq.freq)
        & (orient.coherence >= PipelineConfig.coherence_floor)
    )
    bs = orient.block_size
    scale = enh.NORMALIZED_VARIANCE / img.pixels.var()
    for r in range(orient.theta.shape[0]):
        for c in range(orient.theta.shape[1]):
            block = img.pixels[r * bs : (r + 1) * bs, c * bs : (c + 1) * bs]
            want[r, c] &= block.var() * scale >= PipelineConfig.variance_floor
    assert (mask.labels == want).all()


def test_region_mask_noise_rejected():
    rng = np.random.default_rng(9)
    img = GrayImage(rng.integers(0, 256, (256, 256)).astype(np.uint8))
    orient = enh.estimate_orientation(img, NO_GATE)
    freq = enh.estimate_frequency(img, orient, CONFIG)
    out = enh.compute_region_mask(img, orient, freq, PipelineConfig(reject_threshold=0.3))
    assert isinstance(out, enh.Rejection)
    assert out.recoverable_fraction < 0.3


def test_region_mask_threshold_zero_never_rejects():
    rng = np.random.default_rng(10)
    img = GrayImage(rng.integers(0, 256, (64, 64)).astype(np.uint8))
    orient = enh.estimate_orientation(img, NO_GATE)
    freq = enh.estimate_frequency(img, orient, CONFIG)
    assert isinstance(enh.compute_region_mask(img, orient, freq, NO_GATE), enh.RegionMask)


def test_region_mask_monotone_in_threshold(clean_stripes):
    img, _ = clean_stripes
    orient = enh.estimate_orientation(img, NO_GATE)
    freq = enh.estimate_frequency(img, orient, CONFIG)
    accepted_at = [
        t for t in (0.0, 0.25, 0.5, 0.75, 1.0)
        if isinstance(enh.compute_region_mask(img, orient, freq, PipelineConfig(reject_threshold=t)),
                      enh.RegionMask)
    ]
    # if accepted at t, accepted at every t' <= t
    if accepted_at:
        cutoff = max(accepted_at)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            if t <= cutoff:
                assert t in accepted_at


def _enhance_setup(img):
    orient = enh.estimate_orientation(img, NO_GATE)
    freq = enh.estimate_frequency(img, orient, CONFIG)
    mask = enh.compute_region_mask(img, orient, freq, CONFIG)
    assert isinstance(mask, enh.RegionMask)
    return img, orient, freq, mask


def test_gabor_matched_correlation(clean_stripes):
    img, _ = clean_stripes
    img, orient, freq, mask = _enhance_setup(img)
    out = enh.gabor_enhance(img, orient, freq, mask, CONFIG)
    sl = (slice(32, -32), slice(32, -32))
    cc = np.corrcoef(
        out.pixels[sl].astype(float).ravel(), img.pixels[sl].astype(float).ravel()
    )[0, 1]
    assert cc >= 0.95


def test_gabor_orientation_selectivity(clean_stripes):
    img, _ = clean_stripes
    img, orient, freq, mask = _enhance_setup(img)
    matched = enh.gabor_response(img, orient, freq, mask, CONFIG)
    rotated = enh.OrientationField(
        orient.block_size, np.mod(orient.theta + np.pi / 2, np.pi), orient.coherence
    )
    crossed = enh.gabor_response(img, rotated, freq, mask, CONFIG)
    sl = (slice(32, -32), slice(32, -32))
    assert crossed[sl].std() < 0.2 * matched[sl].std()


def test_gabor_constant_input_mid_gray():
    img = GrayImage(np.full((64, 64), 50, np.uint8))
    orient = enh.OrientationField(16, np.zeros((4, 4)), np.ones((4, 4)))
    freq = enh.FrequencyMap(16, np.full((4, 4), 0.125))
    mask = enh.RegionMask(16, np.ones((4, 4), bool))
    out = enh.gabor_enhance(img, orient, freq, mask, CONFIG)
    assert (out.pixels == 128).all()


def test_gabor_denoising_property():
    clean = oriented_image(30.0)
    sl = (slice(32, -32), slice(32, -32))
    ref = clean.pixels[sl].astype(float).ravel()
    noisy = oriented_image(30.0, noise=30.0, seed=4)
    img, orient, freq, mask = _enhance_setup(noisy)
    out = enh.gabor_enhance(img, orient, freq, mask, CONFIG)
    c_noisy = np.corrcoef(noisy.pixels[sl].astype(float).ravel(), ref)[0, 1]
    c_enh = np.corrcoef(out.pixels[sl].astype(float).ravel(), ref)[0, 1]
    assert c_enh > c_noisy


def test_gabor_missing_frequency_in_recoverable_block_reports_block():
    img = GrayImage(np.full((64, 64), 50, np.uint8))
    orient = enh.OrientationField(16, np.zeros((4, 4)), np.ones((4, 4)))
    f = np.full((4, 4), 0.125)
    f[1, 2] = np.nan
    freq = enh.FrequencyMap(16, f)
    mask = enh.RegionMask(16, np.ones((4, 4), bool))
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        enh.gabor_response(img, orient, freq, mask, CONFIG)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stage, kwargs, message", [
    ("estimate_frequency", {"freq_window": 0}, "freq_window must be >= 1"),
    ("estimate_frequency", {"freq_window": -3}, "freq_window must be >= 1"),
    ("gabor_enhance", {"sigma": 0.0}, "sigma must be positive"),
    ("gabor_enhance", {"sigma": -1.0}, "sigma must be positive"),
    ("gabor_enhance", {"sigma": math.nan}, "sigma: must be finite"),
    ("gabor_enhance", {"sigma": math.inf}, "sigma: must be finite"),
    ("gabor_response", {"sigma": 0.0}, "sigma must be positive"),
], ids=["window-0", "window-neg", "sigma-0", "sigma-neg", "sigma-nan", "sigma-inf", "response-sigma-0"])
def test_stage_refuses_bad_parameter(stage, kwargs, message):
    # a stage reads its parameters from a config, which refuses the value
    img, orient, freq, mask = _enhance_setup(oriented_image(30.0, size=64))
    args = (img, orient) if stage == "estimate_frequency" else (img, orient, freq, mask)
    with pytest.raises(ValueError, match=f"^{message}$"):
        getattr(enh, stage)(*args, PipelineConfig(**kwargs))


@pytest.mark.parametrize("gaps", [False, True])
@pytest.mark.parametrize("name", sorted(PIN_IMAGES))
def test_gabor_separable_matches_dense_path(name, gaps):
    img = PIN_IMAGES[name]()
    orient = enh.estimate_orientation(img, NO_GATE)
    freq = enh.estimate_frequency(img, orient, CONFIG)
    labels = np.isfinite(freq.freq)
    if gaps:  # unrecoverable blocks inside block rows, runs of 1 to 3 blocks
        labels &= np.indices(labels.shape).sum(axis=0) % 4 != 1
    assert_matches_dense(img, orient, freq, enh.RegionMask(orient.block_size, labels))


def _kernel_key(theta, freq):
    """Kernel key of one (theta, freq): theta quantized to whole degrees, freq to 1e-6."""
    return int(round(math.degrees(theta))) % 180, round(float(freq), 6)


def _gabor_kernel(theta, freq, sigma, half):
    """Even-symmetric Gabor kernel tuned to (theta, freq), mean-subtracted."""
    dy, dx = np.mgrid[-half : half + 1, -half : half + 1].astype(np.float64)
    ux, uy = math.cos(theta + np.pi / 2), math.sin(theta + np.pi / 2)
    across = dx * ux + dy * uy  # orthogonal to ridge direction
    along = -dx * uy + dy * ux
    kernel = np.exp(
        -0.5 * (across**2 / sigma**2 + along**2 / sigma**2)
    ) * np.cos(2.0 * np.pi * freq * across)
    return kernel - kernel.mean()


def _dense_reference(img, orient, freq, mask, config):
    """gabor_response by one dense K x K kernel per recoverable block: the
    reference the separable realization is pinned against."""
    data, sigma = img.pixels.astype(np.float64), config.sigma
    half = math.ceil(3.0 * sigma)
    h, w = data.shape
    bs = orient.block_size
    padded = np.pad(data, half, mode="reflect")
    response = np.zeros((h, w))
    cache = {}
    for r, c in zip(*np.nonzero(mask.labels)):
        key = _kernel_key(orient.theta[r, c], freq.freq[r, c])
        kernel = cache.get(key)
        if kernel is None:
            kernel = cache[key] = _gabor_kernel(math.radians(key[0]), key[1], sigma, half)
        y0, y1 = r * bs, min((r + 1) * bs, h)
        x0, x1 = c * bs, min((c + 1) * bs, w)
        patch = padded[y0 : y1 + 2 * half, x0 : x1 + 2 * half]
        windows = sliding_window_view(patch, kernel.shape)
        bh, bw = y1 - y0, x1 - x0
        flat = windows.reshape(bh * bw, kernel.size)
        response[y0:y1, x0:x1] = (flat @ kernel.ravel()).reshape(bh, bw)
    return response


def _reference_banded(img, orient, freq, mask, config):
    """gabor_response by the same two matrix products per block, windows @ X,
    then Y @ that, with every operand gathered per group: the windows by
    fancy indexing, X and Y by taking each channel's taps through lag
    tables (a lag outside the band reads a zero tap after the channel), and
    the responses scattered back. The realization gabor_response is pinned
    against bit for bit."""
    data, sigma = img.pixels, config.sigma
    h, w = data.shape
    bs = orient.block_size
    rows, cols = mask.labels.shape
    half = math.ceil(3.0 * sigma)
    size, span = 2 * half + 1, bs + 2 * half
    padded_rows = np.pad(np.arange(h), (half, half + rows * bs - h), mode="reflect")
    u, ch, j = np.ogrid[:span, :3, :bs]
    lag = np.where((u >= j) & (u - j < size), u - j, size) + ch * (size + 1)
    x_lag = lag.reshape(span, 3 * bs)  # X[u, ch bs + j] = x_ch[u - j]
    y_lag = lag.transpose(2, 0, 1).reshape(bs, 3 * span)  # Y[i, 3u + ch] = y_ch[u - i]
    response = np.zeros((rows * bs, cols * bs))
    blocks = response.reshape(rows, bs, cols, bs).swapaxes(1, 2)
    for top, bottom in _bands(h, w, bs):
        r0, r1 = top // bs, -(-bottom // bs)
        labels = mask.labels[r0:r1]
        keys = [_kernel_key(t, f) for t, f in zip(orient.theta[r0:r1][labels], freq.freq[r0:r1][labels])]
        if not keys:
            continue
        degrees, freqs = np.array(keys).T
        x_taps, y_taps = (np.pad(b.swapaxes(1, 2), ((0, 0), (0, 0), (0, 1))).reshape(len(keys), -1)
                          for b in _complex_bank(degrees, freqs, sigma, half))
        slab = np.pad(data.take(padded_rows[top : r1 * bs + 2 * half], axis=0),
                      ((0, 0), (half, half + cols * bs - w)), mode="reflect").astype(np.float64)
        windows = sliding_window_view(slab, (span, span))[::bs, ::bs]
        rs, cs = np.nonzero(labels)
        for a, b in _bands(len(rs), 2 * span * span):
            xs = windows[rs[a:b], cs[a:b]] @ x_taps[a:b].take(x_lag, axis=1)
            blocks[r0 + rs[a:b], cs[a:b]] = y_taps[a:b].take(y_lag, axis=1) @ xs.reshape(-1, 3 * span, bs)
    return response[:h, :w]


def assert_matches_dense(img, orient, freq, mask):
    for config in (CONFIG, replace(CONFIG, sigma=3.5)):  # the default envelope and a narrower one
        got = enh.gabor_response(img, orient, freq, mask, config)
        assert_same_bits(got, _reference_banded(img, orient, freq, mask, config))
        want = _dense_reference(img, orient, freq, mask, config)
        scale = np.abs(want).max()
        assert scale > 0
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-9 * scale
        h, w = want.shape
        assert (got[~mask.pixel_mask(h, w)] == 0).all()


def _single_block(labels):
    labels[:] = False
    labels[5, 7] = True


def _empty_middle_row(labels):
    labels[:] = True
    labels[6] = False


def _last_row_and_column(labels):
    labels[:] = False
    labels[-1] = labels[:, -1] = True


# block geometries of the matrix-product realization: a row with a single
# block, rows with none between full rows, the partial last block row and
# column alone
@pytest.mark.parametrize("name, labels_of", [
    ("256x256", _single_block),
    ("256x256", _empty_middle_row),
    ("250x237", _last_row_and_column),
    ("40x61", _last_row_and_column),
])
def test_gabor_separable_block_geometry_matches_dense_path(name, labels_of):
    img = PIN_IMAGES[name]()
    orient = enh.estimate_orientation(img, NO_GATE)
    freq = enh.estimate_frequency(img, orient, CONFIG)
    labels = np.empty(orient.theta.shape, bool)
    labels_of(labels)
    assert_matches_dense(img, orient, freq, enh.RegionMask(orient.block_size, labels))


def test_gabor_separable_one_kernel_key_matches_dense_path():
    img = PIN_IMAGES["250x237"]()
    shape = enh.estimate_orientation(img, NO_GATE).theta.shape
    orient = enh.OrientationField(16, np.full(shape, math.radians(70.0)), np.ones(shape))
    freq = enh.FrequencyMap(16, np.full(shape, 1.0 / 7.0))
    assert_matches_dense(img, orient, freq, enh.RegionMask(16, np.ones(shape, bool)))


def _complex_bank(degrees, freqs, sigma, half):
    """_separable_bank's taps from the complex exp over all K taps: the
    reference for its real half-kernels."""
    across = np.radians(degrees) + np.pi / 2
    t = np.arange(-half, half + 1, dtype=np.float64)
    envelope = np.exp(-0.5 * t**2 / sigma**2)
    phase = 2j * np.pi * freqs[:, None] * t
    hx = envelope * np.exp(phase * np.cos(across)[:, None])
    hy = envelope * np.exp(phase * np.sin(across)[:, None])
    mean = (hx.sum(axis=1) * hy.sum(axis=1)).real / t.size**2
    ones = np.ones_like(hx.real)
    return (np.stack([hx.real, hx.imag, ones], axis=2),
            np.stack([hy.real, -hy.imag, -mean[:, None] * ones], axis=2))


@pytest.mark.parametrize("sigma", [PipelineConfig.sigma, 3.5, 1.0, 0.3, 7.25])
def test_separable_bank_equals_complex_taps_bit_for_bit(sigma):
    rng = np.random.default_rng(7)
    degrees = np.concatenate([np.arange(180.0), rng.integers(0, 180, 2000).astype(float)])
    freqs = np.array([round(f, 6) for f in rng.uniform(1 / 25, 1 / 3, degrees.size)])
    half = math.ceil(3.0 * sigma)
    got = enh._separable_bank(degrees, freqs, sigma, half)
    for g, want in zip(got, _complex_bank(degrees, freqs, sigma, half)):
        assert g.shape == want.shape == (degrees.size, 2 * half + 1, 3)
        assert np.array_equal(g, want)


def test_gabor_enhance_matches_dense_path_on_corpus(corpus_enhance_inputs, monkeypatch):
    # the enhanced 8-bit images, pixel for pixel, with the dense kernels
    # put in place of the separable ones under the same rescaling
    got = [enh.gabor_enhance(*inputs[1:], CONFIG).pixels for inputs in corpus_enhance_inputs]
    monkeypatch.setattr(enh, "gabor_response", _dense_reference)
    for pixels, (image_id, *inputs) in zip(got, corpus_enhance_inputs):
        assert np.array_equal(pixels, enh.gabor_enhance(*inputs, CONFIG).pixels), image_id


def _exact_half_degrees():
    """Angles whose math.degrees is exactly k + 0.5, found among the floats
    next to (k + 0.5) pi / 180, with their two neighbours."""
    out = []
    for k in range(180):
        t = math.radians(k + 0.5)
        for c in (t, *np.nextafter(t, [np.inf, -np.inf])):
            for u in (c, *np.nextafter(c, [np.inf, -np.inf])):
                if math.degrees(float(u)) == k + 0.5:
                    out += [u, *np.nextafter(u, [np.inf, -np.inf])]
    return np.array(out)


def test_kernel_keys_equal_kernel_key(corpus_enhance_inputs):
    thetas = [o.theta[m.labels] for _, _, o, _, m in corpus_enhance_inputs]
    freqs = [f.freq[m.labels] for _, _, _, f, m in corpus_enhance_inputs]
    halves = _exact_half_degrees()
    assert len(halves) >= 3 * 150
    # frequencies on 6-digit half boundaries and one float to either side;
    # np.round rounds many of these the other way
    on_half = (np.arange(40000, 340000, 7) + 0.5) / 1e6
    boundary = np.concatenate([on_half, np.nextafter(on_half, 1.0), np.nextafter(on_half, 0.0)])
    assert (np.round(on_half, 6) != [round(f, 6) for f in on_half.tolist()]).any()
    theta = np.concatenate([*thetas, halves, [0.0, np.pi - 1e-9, np.nextafter(np.pi, 0.0)],
                            np.resize(halves, len(boundary))])
    freq = np.concatenate([*freqs, np.full(len(halves) + 3, 0.125), boundary])
    degrees, rounded = enh._kernel_keys(theta, freq)
    want = [_kernel_key(t, f) for t, f in zip(theta, freq)]
    assert degrees.tolist() == [float(d) for d, _ in want]
    assert rounded.tolist() == [f for _, f in want]


def test_kernel_keys_round_large_frequencies_as_python():
    # beyond 1e3 the rounding error of freq * 1e6 can cross a half
    freq = np.random.default_rng(3).uniform(1e3, 1e15, 2000)
    _, rounded = enh._kernel_keys(np.zeros_like(freq), freq)
    assert rounded.tolist() == [round(f, 6) for f in freq.tolist()]


def test_unrecoverable_pixels_are_background():
    img = oriented_image(30.0, size=64)
    orient = enh.estimate_orientation(img, NO_GATE)
    freq = enh.estimate_frequency(img, orient, CONFIG)
    labels = np.ones((4, 4), bool)
    labels[0, 0] = False
    mask = enh.RegionMask(16, labels)
    out = enh.gabor_enhance(img, orient, freq, mask, CONFIG)
    assert (out.pixels[:16, :16] == enh.BACKGROUND_INTENSITY).all()


def test_debug_dumps_shapes(clean_stripes):
    img, _ = clean_stripes
    orient = enh.estimate_orientation(img, NO_GATE)
    freq = enh.estimate_frequency(img, orient, CONFIG)
    assert len(enh.orientation_to_text(orient).splitlines()) == orient.theta.shape[0]
    assert len(enh.frequency_to_text(freq).splitlines()) == freq.freq.shape[0]


# The NumPy filters of enhance against scipy.ndimage, their reference:
# equal values, NaN positions and signs of zero.


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _block_grid_of_32x32():
    """cos(2 theta) on the 2 x 2 block grid of a 32 x 32 print, a grid
    smaller than the Gaussian's radius of 4."""
    img = generate(SynthSpec(32, 32, ParallelPattern(math.radians(40.0)), 7.0,
                             noise_amplitude=30.0, seed=9))[0]
    theta = enh.estimate_orientation(img, replace(NO_GATE, smooth_sigma=0.0)).theta
    assert theta.shape == (2, 2)
    return np.cos(2.0 * theta)


def _rounded_noise(shape, seed):
    """Values of both signs with many equal neighbours, so differences are
    often zero next to negative centers (the signed-zero cases)."""
    return np.round(np.random.default_rng(seed).normal(0.0, 3.0, shape))


FILTER_GRIDS = {
    # 8-bit images over 7: full-precision values, where the order of
    # additions shows
    "256x256": lambda: oriented_image(30.0, noise=20.0, seed=5).pixels / 7.0,
    "250x237": lambda: PIN_IMAGES["250x237"]().pixels / 7.0,
    "40x61": lambda: PIN_IMAGES["40x61"]().pixels / 7.0,
    "rounded_40x61": lambda: _rounded_noise((40, 61), 1),
    "normal_40x61": lambda: np.random.default_rng(6).normal(0.0, 1.0, (40, 61)),
    "grid_2x2": _block_grid_of_32x32,
    "1x1": lambda: _rounded_noise((1, 1), 2),
    "1x9": lambda: _rounded_noise((1, 9), 3),
    "9x1": lambda: _rounded_noise((9, 1), 4),
    "2x2": lambda: _rounded_noise((2, 2), 5),
}


def _levels(shape, seed, levels):
    return GrayImage(np.random.default_rng(seed).choice(np.array(levels, np.uint8), shape))


# 8-bit captures for the integer Sobel gradients, most holding the 0/255
# extremes, where |g| reaches 4 * 255
SOBEL_GRIDS = {
    "256x256": lambda: oriented_image(30.0, noise=20.0, seed=5),
    "250x237": PIN_IMAGES["250x237"],
    "40x61": PIN_IMAGES["40x61"],
    "rounded_40x61": lambda: _levels((40, 61), 1, [0, 127, 128, 255]),  # many equal neighbours
    "normal_40x61": lambda: GrayImage(np.clip(np.rint(
        np.random.default_rng(6).normal(128.0, 90.0, (40, 61))), 0, 255).astype(np.uint8)),
    "grid_2x2": lambda: GrayImage(np.array([[0, 255], [255, 0]], np.uint8)),
    "1x1": lambda: _levels((1, 1), 2, [0, 255]),
    "1x9": lambda: _levels((1, 9), 3, [0, 255]),
    "9x1": lambda: _levels((9, 1), 4, [0, 255]),
    "2x2": lambda: _levels((2, 2), 5, range(256)),
}


def _block_sum_buffers(n, w, bs=PipelineConfig.block_size):
    """Two int32 planes shaped as _block_sums allocates them for a band of
    n rows, w wide, in blocks of bs px, scribbled over first."""
    return np.full((2, -(-n // bs) * bs, -(-w // bs) * bs + 2), -12345, np.int32)


@pytest.mark.parametrize("name", sorted(SOBEL_GRIDS))
@pytest.mark.parametrize("axis", [0, 1])
def test_sobel_matches_scipy(name, axis):
    # the int16 gradients of every band of rows, read with its halo rows,
    # equal scipy's float Sobel of the whole capture
    pixels = SOBEL_GRIDS[name]().pixels
    h, w = pixels.shape
    want = ndimage.sobel(pixels.astype(np.float64), axis=axis, mode="nearest")
    assert np.abs(want).max() <= 4 * 255
    for y0, y1 in {(0, h), (0, 1), (h - 1, h), (h // 3, max(h // 2, h // 3 + 1))}:
        out = _block_sum_buffers(y1 - y0, w)
        enh._gradients(pixels, y0, y1, out)
        got = out[1 - axis, : y1 - y0, :w]
        assert got.dtype == np.int32
        assert np.array_equal(got, want[y0:y1])


def test_sobel_reaches_the_extremes_of_int16_gradients():
    # a 0 | 255 step, across and along: |g| = 4 * 255 on both sides of it
    pixels = np.zeros((6, 6), np.uint8)
    pixels[:, 3:] = 255
    for data, g in ((pixels, 0), (pixels.T, 1), (255 - pixels, 0), (255 - pixels.T, 1)):
        out = _block_sum_buffers(6, 6)
        enh._gradients(np.ascontiguousarray(data), 0, 6, out)
        grad = out[g, :6, :6]
        want = ndimage.sobel(data.astype(np.float64), axis=1 - g, mode="nearest")
        assert np.array_equal(grad, want) and np.abs(grad).max() == 4 * 255


@pytest.mark.parametrize("sigma", [PipelineConfig.smooth_sigma, 0.6, 2.3, 0.1, 1e-200])
@pytest.mark.parametrize("name", sorted(FILTER_GRIDS))
def test_gaussian_matches_scipy(name, sigma):
    data = FILTER_GRIDS[name]()
    want = ndimage.gaussian_filter(data, sigma, mode="nearest")
    assert_same_bits(enh._gaussian(data, sigma), want)


def _doubled_angle_stack(shape, seed):
    """cos 2 theta and sin 2 theta stacked, theta = 0 on the first row, pi
    on the last (a sin of 0 and of ~-2e-16) and uniform in [0, pi] between."""
    theta = np.random.default_rng(seed).uniform(0.0, math.pi, shape)
    theta[0], theta[-1] = 0.0, math.pi
    doubled = 2.0 * theta
    return np.stack((np.cos(doubled), np.sin(doubled)))


@pytest.mark.parametrize("sigma", [0.1, 1.0, 2.5])  # radius 0, 4 and 10
@pytest.mark.parametrize("shape", [(16, 16), (5, 3), (1, 9)])
def test_stacked_gaussian_matches_scipy_on_each_grid(shape, sigma):
    signed_zeros = _rounded_noise((2, *shape), 7) * 0.0  # -0.0 where negative
    for stack in (_doubled_angle_stack(shape, 8), signed_zeros):
        got = enh._gaussian(stack, sigma)
        for grid, want in zip(got, stack):
            assert_same_bits(grid, ndimage.gaussian_filter(want, sigma, mode="nearest"))


@pytest.mark.parametrize("shape", [(40, 61), (1, 7), (7, 1), (2, 2)])
def test_bilinear_matches_scipy(shape):
    rng = np.random.default_rng(11)
    data = rng.normal(100.0, 60.0, shape)
    h, w = shape
    ys = rng.uniform(-2.0, h + 1.0, 20000)
    xs = rng.uniform(-2.0, w + 1.0, 20000)
    # full-precision fractions, where 1 - (1 - f) differs from f
    ys[10000:15000] = rng.random(5000) / 3.0
    xs[12000:17000] = rng.random(5000) / 3.0
    # integer points, each image edge exactly and 1e-9 beyond it
    ys[:2000] = rng.integers(-1, h + 1, 2000)
    xs[:2000] = rng.integers(-1, w + 1, 2000)
    for k, y in enumerate((0.0, h - 1.0, -1e-9, h - 1 + 1e-9)):
        ys[2000 + 500 * k : 2500 + 500 * k] = y
    for k, x in enumerate((0.0, w - 1.0, -1e-9, w - 1 + 1e-9)):
        xs[4000 + 500 * k : 4500 + 500 * k] = x
    ys[6000:6500], xs[6000:6500] = h - 1.0, w - 1.0
    want = ndimage.map_coordinates(data, np.stack([ys, xs]), order=1,
                                   mode="constant", cval=np.nan)
    assert np.isnan(want).any() and np.isfinite(want).any()
    got = _bilinear(data, ys.reshape(40, 500), xs.reshape(40, 500))
    assert np.array_equal(got.ravel(), want, equal_nan=True)


# References for the front end: the bodies of estimate_orientation,
# estimate_frequency's sampling and compute_region_mask before they worked
# in place, with scipy's filters for the NumPy ones (bit-equal, as pinned
# above), on the capture as float64. Its Sobel gradients, their products
# and all block sums are integers there, so exact. The rewritten stages
# must reproduce them bit for bit, signed zeros and NaN included.


def _bilinear(data, ys, xs):
    """ndimage.map_coordinates(data, [ys, xs], order=1, mode="constant",
    cval=nan) bit for bit: NaN unless 0 <= y <= h-1 and 0 <= x <= w-1."""
    h, w = data.shape
    inside = (ys >= 0) & (ys <= h - 1) & (xs >= 0) & (xs <= w - 1)
    y0, x0 = np.floor(ys), np.floor(xs)
    # flat index of the top-left tap; a +1 tap past the last row or column
    # stays on it (its weight is 0 there)
    iy = np.clip(y0, 0, h - 1).astype(np.intp)
    ix = np.clip(x0, 0, w - 1).astype(np.intp)
    i00 = iy * w + ix
    i01 = i00 + (ix < w - 1)
    down = (iy < h - 1) * w
    wy0, wx0 = 1.0 - (ys - y0), 1.0 - (xs - x0)
    wy1, wx1 = 1.0 - wy0, 1.0 - wx0  # scipy's last weight: 1 - the others
    t = (data.take(i00) * wy0 * wx0 + data.take(i01) * wy0 * wx1
         + data.take(i00 + down) * wy1 * wx0 + data.take(i01 + down) * wy1 * wx1)
    t[~inside] = np.nan
    return t


def _reference_block_sum(arr, bs):
    rows, cols = np.arange(0, arr.shape[0], bs), np.arange(0, arr.shape[1], bs)
    return np.add.reduceat(np.add.reduceat(arr, rows, axis=0), cols, axis=1)


def _reference_orientation(data, block_size=PipelineConfig.block_size,
                           smooth_sigma=PipelineConfig.smooth_sigma):
    gx = ndimage.sobel(data, axis=1, mode="nearest")
    gy = ndimage.sobel(data, axis=0, mode="nearest")
    sum_cross = _reference_block_sum(2.0 * gx * gy, block_size)
    sum_diff = _reference_block_sum(gx * gx - gy * gy, block_size)
    sum_total = _reference_block_sum(gx * gx + gy * gy, block_size)
    theta = 0.5 * np.arctan2(sum_cross, sum_diff) + np.pi / 2.0
    coherence = np.hypot(sum_diff, sum_cross) / np.maximum(sum_total, 1e-12)
    if smooth_sigma > 0:
        doubled = 2.0 * theta
        cos2 = ndimage.gaussian_filter(np.cos(doubled), smooth_sigma, mode="nearest")
        sin2 = ndimage.gaussian_filter(np.sin(doubled), smooth_sigma, mode="nearest")
        theta = 0.5 * np.arctan2(sin2, cos2)
    return np.mod(theta, np.pi), coherence


def _sample_points(h, w, orient, window, r):
    """Sample coordinates (ys, xs) of block row r, (cols, window, bs)."""
    bs = orient.block_size
    cols = orient.theta.shape[1]
    k = (np.arange(window) - (window - 1) / 2.0)[None, :, None]
    d = (np.arange(bs) - (bs - 1) / 2.0)[None, None, :]
    x0 = np.arange(cols) * bs
    cx = ((x0 + np.minimum(x0 + bs, w) - 1) / 2.0)[:, None, None]
    across = orient.theta[r] + np.pi / 2
    ux, uy = np.cos(across)[:, None, None], np.sin(across)[:, None, None]
    vx, vy = np.cos(orient.theta[r])[:, None, None], np.sin(orient.theta[r])[:, None, None]
    cy = (r * bs + min((r + 1) * bs, h) - 1) / 2.0
    return cy + k * uy + d * vy, cx + k * ux + d * vx


def _reference_signatures(data, orient, window, blocks=slice(None)):
    data = data.astype(np.float64)
    h, w = data.shape
    bs = orient.block_size
    rows = range(*blocks.indices(orient.theta.shape[0]))
    sig = np.zeros((len(rows), orient.theta.shape[1], window))
    has_sig = np.zeros(sig.shape[:2], dtype=bool)
    for i, r in enumerate(rows):
        vals = _bilinear(data, *_sample_points(h, w, orient, window, r))
        has_sig[i] = (np.isfinite(vals).sum(axis=2) >= bs // 2).all(axis=1)
        sig[i, has_sig[i]] = np.nanmean(vals[has_sig[i]], axis=2)
    return sig, has_sig


def _reference_block_variance(data, bs):
    """Each block's variance, (n sum I^2 - (sum I)^2) / n^2 in float64 on
    integers, exact up to the one rounding of the division."""
    counts = _reference_block_sum(np.ones_like(data), bs)
    sums = _reference_block_sum(data, bs)
    sqsums = _reference_block_sum(data * data, bs)
    return (counts * sqsums - sums * sums) / (counts * counts)


def assert_frequency_matches_reference(img, orient, monkeypatch):
    """Signatures, their presence mask and the frequency map equal the
    reference sampling's; returns the frequency map."""
    window = PipelineConfig.freq_window
    everything = slice(0, orient.theta.shape[0])
    sig, has_sig = enh._projection_signatures(img.pixels, orient, window, everything)
    want_sig, want_has = _reference_signatures(img.pixels.astype(np.float64), orient, window)
    assert_same_bits(sig, want_sig)
    assert np.array_equal(has_sig, want_has)
    freq = enh.estimate_frequency(img, orient, CONFIG)
    with monkeypatch.context() as m:
        m.setattr(enh, "_projection_signatures", _reference_signatures)
        assert_same_bits(freq.freq, enh.estimate_frequency(img, orient, CONFIG).freq)
    return freq


def assert_front_end_matches_reference(img, monkeypatch):
    """theta, coherence, frequency and mask of img equal the references'."""
    data = img.pixels.astype(np.float64)
    # two other block sizes and smoothings, then the defaults, whose field the stages below read
    for config in (replace(NO_GATE, block_size=8, smooth_sigma=0.0),
                   replace(NO_GATE, block_size=20, smooth_sigma=2.3), NO_GATE):
        orient = enh.estimate_orientation(img, config)
        theta, coherence = _reference_orientation(data, config.block_size, config.smooth_sigma)
        assert orient.block_size == config.block_size
        assert_same_bits(orient.theta, theta)
        assert_same_bits(orient.coherence, coherence)
    freq = assert_frequency_matches_reference(img, orient, monkeypatch)
    variance = _reference_block_variance(data, orient.block_size)
    capture = statistics.pvariance(img.pixels.ravel().tolist())  # exact, then rounded once
    got_variance, got_capture = enh._block_variance(img.pixels, orient.block_size)
    assert_same_bits(got_variance, variance)
    assert got_capture == capture > 0
    scaled = variance * enh.NORMALIZED_VARIANCE / capture
    for floor in (0.6, PipelineConfig.coherence_floor):  # the default last: the gate reads its mask
        mask = enh.compute_region_mask(img, orient, freq, replace(NO_GATE, coherence_floor=floor))
        assert np.array_equal(mask.labels, (scaled >= PipelineConfig.variance_floor)
                              & (coherence >= floor)
                              & np.isfinite(freq.freq))
    gated = enh.compute_region_mask(img, orient, freq, CONFIG)
    assert isinstance(gated, enh.Rejection) == (mask.recoverable_fraction
                                                < PipelineConfig.reject_threshold)


def _gate_blank(seed):
    rng = np.random.default_rng(seed)
    return GrayImage(rng.integers(120, 136, (256, 256)).astype(np.uint8))


def _gate_partial_touch(seed):
    """A print on a disc of ~15% of the frame, light background elsewhere."""
    rng = np.random.default_rng(seed)
    img = oriented_image(float(rng.uniform(0.0, 180.0)), noise=20.0, seed=seed)
    yy, xx = np.mgrid[0:256, 0:256]
    inside = (yy - 100.0) ** 2 + (xx - 150.0) ** 2 <= 0.15 * 256 * 256 / math.pi
    light = np.clip(np.rint(rng.normal(225.0, 4.0, (256, 256))), 0, 255)
    return GrayImage(np.where(inside, img.pixels, light).astype(np.uint8))


# PIN_IMAGES (blurred noise among them), one capture of each other gate
# family, and the 20 acceptance prints
FRONT_END_IMAGES = {
    **PIN_IMAGES,
    "gate_blank": lambda: _gate_blank(21),
    "gate_partial_touch": lambda: _gate_partial_touch(22),
    **{f"corpus_{k:02d}": (lambda k=k: generate(corpus_spec(k))[0]) for k in range(20)},
}


@pytest.mark.parametrize("name", sorted(FRONT_END_IMAGES))
def test_front_end_bit_identical_to_reference(name, monkeypatch):
    assert_front_end_matches_reference(FRONT_END_IMAGES[name](), monkeypatch)


@pytest.mark.parametrize("name", ["256x256", "250x237", "40x61", "rounded_40x61",
                                  "normal_40x61"])  # the grids of one block or more
def test_front_end_bit_identical_to_reference_on_filter_grids(name, monkeypatch):
    assert_front_end_matches_reference(SOBEL_GRIDS[name](), monkeypatch)


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 300), w=st.integers(1, 300), bs=st.integers(4, 64),
       seed=st.integers(0, 2**16))
def test_block_sums_equal_the_reference(h, w, bs, seed):
    # one and two planes of Sobel-sized values, in bands of block rows whose
    # last block row and column may be partial
    a, b = np.random.default_rng(seed).integers(-1020, 1021, (2, h, w), dtype=np.int32)

    def fill(y0, y1, out):  # scribbles on the rows and columns past the planes first
        out[...] = -12345
        out[:, : y1 - y0, :w] = (a[y0:y1], b[y0:y1])[: len(out)]

    got_one, got_two = (enh._block_sums((h, w), bs, fill, planes) for planes in (1, 2))
    assert got_one.dtype == got_two.dtype == np.int64
    a, b = a.astype(np.float64), b.astype(np.float64)  # exact: every sum is below 2^53
    assert np.array_equal(got_one, [_reference_block_sum(t, bs) for t in (a, a * a)])
    assert np.array_equal(got_two, [_reference_block_sum(t, bs) for t in (a * b, a * a, b * b)])


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 300), w=st.integers(1, 300), bs=st.integers(4, 64),
       band_pixels=st.integers(1, 2**16), levels=st.sampled_from([2, 3, 256]),
       seed=st.integers(0, 2**16))
def test_sobel_filled_block_sums_equal_the_reference(h, w, bs, band_pixels, levels, seed):
    # the gradients written straight into the block-sum buffers, in bands
    # of one or more block rows: the scratch columns past w and the rows
    # and columns past partial last blocks add nothing; 2 levels (0, 255)
    # reach |g| = 4 * 255
    rng = np.random.default_rng(seed)
    pixels = (rng.integers(0, levels, (h, w)) * (255 // (levels - 1))).astype(np.uint8)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(image, "BAND_PIXELS", band_pixels)
        got = enh._block_sums((h, w), bs, lambda y0, y1, out: enh._gradients(pixels, y0, y1, out), 2)
    gx = ndimage.sobel(pixels.astype(np.float64), axis=1, mode="nearest")
    gy = ndimage.sobel(pixels.astype(np.float64), axis=0, mode="nearest")
    want = [_reference_block_sum(t, bs) for t in (gx * gy, gx * gx, gy * gy)]
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_block_sums_are_exact_at_the_largest_block():
    # 2048 rows of |g g| = 1020^2: a column of one sign sums to 2,130,739,200,
    # just below 2^31, and a block of 4 columns to 4x that
    bs = 2048
    assert 2064 * 1020**2 < 2**31 <= 2065 * 1020**2  # the bound leaves 16 rows spare
    with pytest.raises(ValueError, match=r"^block_size must be <= 2048$"):
        PipelineConfig(block_size=bs + 1)
    assert PipelineConfig(block_size=bs).block_size == bs
    gx = np.full((bs, 4), 1020, np.int16)
    gy = np.full((bs, 4), 1020, np.int16)
    gy[:, 1] = -1020  # mixed signs: columns of +, - and alternating products
    gy[::2, 2] = -1020
    gy[bs // 4 :, 3] = -1020
    got = enh._block_sums((bs, 4), bs, lambda y0, y1, out: np.copyto(out[:, : y1 - y0, :4], (gx[y0:y1], gy[y0:y1])), 2)
    column = bs * 1020**2
    assert got.tolist() == [[[column - column + 0 - column // 2]], [[4 * column]], [[4 * column]]]


@pytest.mark.parametrize("shape", [(16, 16), (40, 61)])
def test_block_variance_of_the_8bit_extremes_is_exact(shape):
    # 0/255 stripes, whose squares wrap in uint8; the partial blocks of
    # 40 x 61 hold 7 of 13 columns at 255
    pixels = np.zeros(shape, np.uint8)
    pixels[:, ::2] = 255
    variance, capture = enh._block_variance(pixels, 16)
    blocks = [[pixels[r : r + 16, c : c + 16] for c in range(0, shape[1], 16)]
              for r in range(0, shape[0], 16)]
    want = [[statistics.pvariance(b.ravel().tolist()) for b in row] for row in blocks]
    assert variance.tolist() == want and variance[0, 0] == 255 * 255 / 4
    assert capture == statistics.pvariance(pixels.ravel().tolist())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variance_floor", [PipelineConfig.variance_floor, 0.0])
def test_constant_capture_has_no_recoverable_block(variance_floor):
    # no capture variance to scale a block's by: every block is low-variance
    img = GrayImage(np.full((64, 80), 77, np.uint8))
    assert enh._block_variance(img.pixels, 16)[1] == 0.0
    orient = enh.OrientationField(16, np.zeros((4, 5)), np.ones((4, 5)))
    freq = enh.FrequencyMap(16, np.full((4, 5), 0.125))
    mask = enh.compute_region_mask(img, orient, freq, replace(NO_GATE, variance_floor=variance_floor))
    assert isinstance(mask, enh.RegionMask) and not mask.labels.any()


# What is left of Hong's normalization is its scale on the block variances
# that the region mask holds against the variance floor.


def _floor_variances(img, bs):
    """Each block's variance x NORMALIZED_VARIANCE / capture variance, NaN
    for a constant capture, once compute_region_mask is seen to hold exactly
    these against the variance floor: at a floor equal to any of them, and
    at the next float above it, each block is labelled as its own value
    compares with the floor."""
    variance, capture = enh._block_variance(img.pixels, bs)
    scaled = variance * enh.NORMALIZED_VARIANCE / capture if capture else np.full_like(variance, np.nan)
    orient = enh.OrientationField(bs, np.zeros(scaled.shape), np.ones(scaled.shape))
    freq = enh.FrequencyMap(bs, np.full(scaled.shape, 0.125))
    values = np.unique(scaled[np.isfinite(scaled)])
    # the lowest finite floor: a config refuses -inf
    for floor in (-np.finfo(float).max, 0.0, *values, *np.nextafter(values, math.inf)):
        mask = enh.compute_region_mask(img, orient, freq, replace(NO_GATE, variance_floor=floor))
        assert np.array_equal(mask.labels, scaled >= floor)
    return scaled


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
def test_variance_floor_scales_no_block_of_a_constant_capture():
    # no capture variance to scale by: no block clears any floor
    img = GrayImage(np.full((8, 8), 77, np.uint8))
    out = _floor_variances(img, 4)
    assert out.shape == (2, 2) and np.isnan(out).all()


def test_variance_floor_scale_of_two_levels_hand_computed():
    # half 0s, half 200s: capture variance 10000, so a block's scales by
    # 100 / 10000; the 3-column block {0, 0, 200} has variance 200^2 * 2/9
    data = np.zeros((2, 4), np.uint8)
    data[:, 2:] = 200
    img = GrayImage(data)
    assert _floor_variances(img, 4).tolist() == [[100.0]]
    out = _floor_variances(img, 3)
    assert out[0, 0] == pytest.approx(800 / 9, rel=1e-15) and out[0, 1] == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_variance_floor_reads_block_variances_of_hong_normalization(seed):
    rng = np.random.default_rng(seed)
    img = GrayImage(rng.integers(0, 256, (40, 40)).astype(np.uint8))
    tv = enh.NORMALIZED_VARIANCE
    # one block holding the whole capture scales to the normalized variance
    assert _floor_variances(img, 40)[0, 0] == pytest.approx(tv, rel=1e-15)
    # and each block's equals its variance in the normalized image, whatever the target mean
    hong = _hong_normalize(img.pixels, 100.0 + seed, tv)
    want = [[b.var() for b in row] for row in _blocks(hong, 16)]
    assert np.allclose(_floor_variances(img, 16), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("a,b", [(2, 30), (1, 55), (2, 0)])
def test_mask_labels_unchanged_under_affine_intensity_map(a, b):
    rng = np.random.default_rng(3)
    base = rng.integers(0, 100, (24, 24))
    img = GrayImage(base.astype(np.uint8))
    scaled = GrayImage((a * base + b).astype(np.uint8))
    assert np.array_equal(_floor_variances(img, 16), _floor_variances(scaled, 16))


def _level_runs(values, counts, shape):
    return np.repeat(np.array(values, np.uint8), counts).reshape(shape)


# 10/20/30 in equal numbers: the mean, 20, is a grey level of the image
VARIANCE_PINS = {
    "constant": lambda: np.full((9, 7), 77, np.uint8),
    "two_level": lambda: _level_runs((0, 200), (4, 4), (2, 4)),
    "mean_on_level": lambda: _level_runs((10, 20, 30), (12, 12, 12), (6, 6)),
    "all_levels": lambda: np.arange(256, dtype=np.uint8).reshape(16, 16),
    "noise_40x61": lambda: np.random.default_rng(4).integers(0, 256, (40, 61)).astype(np.uint8),
    "narrow_1x9": lambda: np.random.default_rng(5).integers(90, 99, (1, 9)).astype(np.uint8),
    # a column-major view of the capture
    "transposed_37x100": lambda: np.random.default_rng(1).integers(0, 256, (100, 37)).astype(np.uint8).T,
}


@pytest.mark.parametrize("name", sorted(VARIANCE_PINS))
def test_variance_floor_scale_matches_pvariance_bit_for_bit(name):
    # each variance is the exact population variance rounded once, then
    # scaled as block variance * NORMALIZED_VARIANCE / capture variance
    pixels = VARIANCE_PINS[name]()
    got = _floor_variances(GrayImage(pixels), 4)
    capture = float(statistics.pvariance(pixels.ravel().tolist()))
    want = np.array([[float(statistics.pvariance(b.ravel().tolist())) * enh.NORMALIZED_VARIANCE
                      / capture if capture else np.nan for b in row] for row in _blocks(pixels, 4)])
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


def test_frequency_window_longer_than_the_diagonal_is_absent_unsampled(monkeypatch):
    img = oriented_image(30.0, size=64)
    orient = enh.estimate_orientation(img, NO_GATE)
    rows = slice(0, orient.theta.shape[0])
    # the diagonal is 63 sqrt 2 = 89.1 px; a 91-px window's end columns lie 90 px apart
    assert not enh._projection_signatures(img.pixels, orient, 91, rows)[1].any()

    def fail(*args):
        raise AssertionError("window sampled")

    monkeypatch.setattr(enh, "_projection_signatures", fail)
    for window in (91, 100000):
        freq = enh.estimate_frequency(img, orient, PipelineConfig(freq_window=window))
        assert freq.freq.shape == orient.theta.shape and np.isnan(freq.freq).all()
    with pytest.raises(AssertionError, match="^window sampled$"):  # 89 px apart: sampled
        enh.estimate_frequency(img, orient, PipelineConfig(freq_window=90))


@pytest.mark.parametrize("theta", [0.0, math.pi / 2])
@pytest.mark.parametrize("name", ["256x256", "250x237", "40x61"])
def test_frequency_bit_identical_to_reference_at_edge_exact_angles(name, theta, monkeypatch):
    img = PIN_IMAGES[name]()
    h, w = img.pixels.shape
    shape = enh.estimate_orientation(img, NO_GATE).theta.shape
    orient = enh.OrientationField(16, np.full(shape, theta), np.ones(shape))
    # some samples fall exactly on the last row or column, where the +1 tap
    # lies outside the image at weight 0
    points = [_sample_points(h, w, orient, PipelineConfig.freq_window, r) for r in range(shape[0])]
    assert any((ys == h - 1).any() or (xs == w - 1).any() for ys, xs in points)
    assert_frequency_matches_reference(img, orient, monkeypatch)


@settings(max_examples=60, deadline=None)
@given(h=st.integers(16, 300), w=st.integers(16, 300), bs=st.integers(4, 32),
       window=st.integers(1, 64), exact=st.booleans(), seed=st.integers(0, 2**16),
       band_pixels=st.integers(1, 2**15), edge=st.just(False))
# samples exactly on the last row and column, with images below the window among them
@example(h=37, w=45, bs=8, window=20, exact=True, seed=2, band_pixels=1, edge=True)
@example(h=23, w=29, bs=7, window=64, exact=True, seed=0, band_pixels=2**15, edge=True)
@example(h=100, w=100, bs=16, window=32, exact=True, seed=3, band_pixels=3000, edge=True)
def test_projection_signatures_equal_the_reference_in_bands_of_one_block_row(
        h, w, bs, window, exact, seed, band_pixels, edge):
    # each band's slab holds only the image rows its inside samples reach;
    # theta at multiples of pi/4 puts samples exactly on the last row and
    # column, whose +1 taps lie off the slab or on the next row at weight 0
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, (h, w)).astype(np.uint8)
    shape = (-(-h // bs), -(-w // bs))
    theta = rng.integers(0, 4, shape) * (np.pi / 4) if exact else rng.uniform(0.0, np.pi, shape)
    orient = enh.OrientationField(bs, theta, np.ones(shape))
    if edge:
        points = [_sample_points(h, w, orient, window, r) for r in range(shape[0])]
        inside = [(ys >= 0) & (ys <= h - 1) & (xs >= 0) & (xs <= w - 1) for ys, xs in points]
        assert any((i & (ys == h - 1)).any() for i, (ys, _) in zip(inside, points))
        assert any((i & (xs == w - 1)).any() for i, (_, xs) in zip(inside, points))
    with pytest.MonkeyPatch.context() as m:  # one block row per band, groups of 1 block and up
        m.setattr(image, "BAND_PIXELS", 1 + band_pixels % (2 * w * bs - 1))
        bands = list(_bands(h, w, bs))
        got = [enh._projection_signatures(pixels, orient, window, slice(a // bs, -(-b // bs)))
               for a, b in bands]
    assert len(bands) == shape[0]
    want_sig, want_has = _reference_signatures(pixels, orient, window)
    assert_same_bits(np.concatenate([sig for sig, _ in got]), want_sig)
    assert np.array_equal(np.concatenate([has for _, has in got]), want_has)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (2, 1), (9, 1), (2, 2)])
def test_projection_signatures_equal_the_reference_on_slabs_shorter_than_a_tap_shift(shape):
    # a slab of one row, or of two rows one column wide, ends before the
    # lower or right taps' shift: those taps are read only at weight 0.
    # Only the one-row images here have blocks with a signature.
    h, w = shape
    pixels = np.random.default_rng(5).integers(0, 256, shape).astype(np.uint8)
    for bs in (4, 5):
        grid = (-(-h // bs), -(-w // bs))
        for window in (1, 2, 3):
            for theta in np.arange(4) * (np.pi / 4):
                orient = enh.OrientationField(bs, np.full(grid, theta), np.ones(grid))
                sig, has_sig = enh._projection_signatures(pixels, orient, window, slice(0, grid[0]))
                want_sig, want_has = _reference_signatures(pixels, orient, window)
                assert_same_bits(sig, want_sig)
                assert np.array_equal(has_sig, want_has)
