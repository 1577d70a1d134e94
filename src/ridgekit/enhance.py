"""Ridge orientation/frequency estimation, region quality mask and Gabor
band-pass enhancement.

All estimates are block-wise on a grid of ``block_size`` pixel blocks;
partial blocks at the right/bottom edges are allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .image import BAND_PIXELS, GrayImage, _bands

if TYPE_CHECKING:  # config imports this module, through evaluate
    from .config import PipelineConfig

NORMALIZED_VARIANCE = 100.0  # Hong et al.'s target variance, the variance floor's scale
GATE_COHERENCE = 0.5  # a block counts as coherent for the image-level gate
MIN_RIDGE_PERIOD = 3.0  # px, at 500 dpi
MAX_RIDGE_PERIOD = 25.0
FREQ_FILL_PASSES = 3
# Hong, Wan & Jain's fixed widths (TPAMI 1998)
ORIENTATION_SMOOTHING = 1.0  # blocks, the Gaussian on the doubled-angle field
FREQ_WINDOW = 32  # px, the oriented window of a projection signature
GABOR_SIGMA = 4.0  # px, the isotropic Gabor envelope
BACKGROUND_INTENSITY = 255  # masked-out pixels in the enhanced image


@dataclass(frozen=True)
class OrientationField:
    """Per-block ridge direction in [0, pi) plus gradient coherence.

    Coherence is the magnitude of the doubled-angle gradient sum over the
    summed gradient energy;
    it is ~1 for clean parallel ridges and ~0 for isotropic noise or flat
    blocks, and feeds the recoverable-region decision.
    """

    block_size: int
    theta: np.ndarray  # (rows, cols) float64
    coherence: np.ndarray  # (rows, cols) float64


@dataclass(frozen=True)
class FrequencyMap:
    """Per-block ridge frequency in cycles/pixel; NaN marks blocks where no
    valid periodicity was found."""

    block_size: int
    freq: np.ndarray  # (rows, cols) float64, NaN = absent


@dataclass(frozen=True)
class RegionMask:
    """Per-block recoverable / unrecoverable labels."""

    block_size: int
    labels: np.ndarray  # (rows, cols) bool, True = recoverable

    @property
    def recoverable_fraction(self) -> float:
        return int(self.labels.sum()) / self.labels.size

    def pixel_mask(self, height: int, width: int) -> np.ndarray:
        """Expand block labels to a (height, width) boolean pixel mask."""
        bs = self.block_size
        expanded = np.repeat(np.repeat(self.labels, bs, axis=0), bs, axis=1)
        return expanded[:height, :width]


@dataclass(frozen=True)
class Rejection:
    """Image rejected: the share of blocks that ``measure`` names
    ("coherent share" or "recoverable fraction") is below ``threshold``.
    ``recoverable_fraction`` holds that share, whichever measure decided."""

    recoverable_fraction: float
    threshold: float
    measure: str


def _block_grid(height: int, width: int, block_size: int) -> tuple[int, int]:
    return math.ceil(height / block_size), math.ceil(width / block_size)


def _block_sums(shape: tuple[int, int], block_size: int, fill, planes: int) -> np.ndarray:
    """Exact int64 sums, (1 + planes, rows, cols), over the block_size px
    blocks of an image of `shape` (partial at the right and bottom edges)
    of the product of the planes, or of the plane itself when there is one,
    then of each plane's square. fill(y0, y1, out) writes the `planes` (1
    or 2) integer planes of rows y0:y1 into out[:, :y1 - y0, :w], int32
    rows two columns longer than the blocks; the rest of out is its scratch.

    Per band of block rows (_bands), the rows and columns past partial
    blocks zeroed where the band has them, einsum's sum-of-products loop
    sums each block's rows per column in int32, one call for the product
    and one for all squares: exact while block_size |product| < 2^31, for
    Sobel products (|g g| <= 1020^2) up to 2,064 rows, above
    PipelineConfig's 2048 bound. One einsum then sums the block columns in
    int64.
    """
    h, w = shape
    bs = block_size
    rows, cols = _block_grid(h, w, bs)
    columns = np.empty((1 + planes, rows, cols * bs), np.int32)
    bands = list(_bands(h, w, bs))
    bufs = np.empty((planes, -(-bands[0][1] // bs) * bs, cols * bs + 2), np.int32)
    product = ",".join(["ijk"] * planes) + "->ik"
    for y0, y1 in bands:
        blocks = slice(y0 // bs, -(-y1 // bs))
        whole = bufs[:, : (blocks.stop - blocks.start) * bs]
        fill(y0, y1, whole)
        if y1 - y0 < whole.shape[1]:  # past a partial last block row
            whole[:, y1 - y0 :] = 0
        if w < cols * bs:  # past a partial last block column
            whole[:, :, w : cols * bs] = 0
        stacked = whole[..., : cols * bs].reshape(planes, -1, bs, cols * bs)
        np.einsum(product, *stacked, out=columns[0, blocks])
        np.einsum("tijk,tijk->tik", stacked, stacked, out=columns[1:, blocks])
    sums = np.einsum("ijk->ij", columns.reshape(-1, cols, bs), dtype=np.int64)
    return sums.reshape(len(columns), rows, cols)


def _gradients(data: np.ndarray, y0: int, y1: int, out: np.ndarray) -> None:
    """Sobel gradients of rows y0:y1 of 8-bit pixels, read with one halo
    row on each side and the edges replicated, into out[0, :n, :w] (gx) and
    out[1, :n, :w] (gy), n = y1 - y0, as ndimage.sobel(mode="nearest") gives
    them. out is int32, at least 3 rows of at least w + 2 values (past w
    they are scratch). The band lies flat in int16 at that row length, each
    row's edges copied into its column w and the last column of the row
    before, so Sobel's [1, 1] passes and differences (|g| <= 4 * 255) run
    over it at offsets of one row or one column, through an int16 scratch
    in out[1]'s bytes (R >= 3 rows of x hold 2 R x >= (n + 2) x + 2 values)
    until gy is written there; only the last differences widen, into out."""
    h, w = data.shape
    n, x = y1 - y0, out.shape[-1]
    q = np.empty((n + 2) * x + 2, np.int16)  # one spare value at each end
    band = q[1:-1].reshape(n + 2, x)
    band[1:-1, :w] = data[y0:y1]
    band[0, :w], band[-1, :w] = data[max(y0 - 1, 0)], data[min(y1, h - 1)]
    band[:, w], q[:-2:x] = band[:, w - 1], band[:, 0]
    s = out[1].reshape(-1).view(np.int16)[: len(q)]
    np.add(q[:-x], q[x:], out=s[:-x])  # [1, 2, 1] down the columns, then the x difference
    np.add(s[: -2 * x], s[x:-x], out=s[: -2 * x])
    np.subtract(s[2 : n * x + 2].reshape(n, x), s[: n * x].reshape(n, x), out=out[0, :n])
    np.add(q[:-1], q[1:], out=s[:-1])  # [1, 2, 1] along the rows, then the y difference
    np.add(s[:-2], s[1:-1], out=q[:-2])
    np.subtract(q[2 * x : (n + 2) * x].reshape(n, x), q[: n * x].reshape(n, x), out=out[1, :n])


def _gaussian(data: np.ndarray, sigma: float) -> np.ndarray:
    """ndimage.gaussian_filter(data, sigma, mode="nearest") bit for bit,
    for sigma * sigma > 0, on each 2-D grid over the last two axes, so a
    stack of grids is filtered in one pass per axis: per axis (rows, then
    columns), in*w0 plus the tap pairs from the outermost inward, reading
    clamped edge indices."""
    r = int(4.0 * sigma + 0.5)
    phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    taps = (phi / phi.sum())[r:]
    for _ in (0, 1):  # rows, then rows of the grids transposed
        n = data.shape[-2]
        p = data.take(np.clip(np.arange(-r, n + r), 0, n - 1), axis=-2)
        out = p[..., r : r + n, :] * taps[0]
        for j in range(r, 0, -1):
            out += (p[..., r - j : r - j + n, :] + p[..., r + j : r + j + n, :]) * taps[j]
        data = out.swapaxes(-1, -2)
    return data


def estimate_orientation(img: GrayImage, config: PipelineConfig) -> OrientationField | Rejection:
    """Block-wise dominant ridge direction from gradient covariance, or a
    Rejection by the coherent-block gate (_coherent_share_gate).

    Uses 3x3 Sobel gradients; per block of config.block_size px,
    theta = atan2(sum 2*Gx*Gy, sum Gx^2 - Gy^2) / 2 + pi/2, i.e. the
    direction orthogonal to the dominant gradient, folded into [0, pi).
    The field is then smoothed with a Gaussian (ORIENTATION_SMOOTHING, in
    block units) on the doubled-angle unit vectors so antipodal angles
    average correctly. The gradients of the 8-bit pixels are int16 and
    their products are summed exactly per band of block rows (_block_sums).
    The gate reads only the coherence, so it decides straight after the
    gradient sums, before theta is formed.
    """
    block_size = config.block_size
    data = img.pixels
    h, w = data.shape
    if h < block_size or w < block_size:
        raise ValueError(f"image {w}x{h} smaller than one {block_size}px block")
    xy, xx, yy = _block_sums(data.shape, block_size, partial(_gradients, data), 2)
    sum_cross, sum_diff = 2 * xy, xx - yy
    coherence = np.hypot(sum_diff, sum_cross) / np.maximum(xx + yy, 1e-12)
    rejection = _coherent_share_gate(coherence, config.reject_threshold)
    if rejection is not None:
        return rejection
    theta = 0.5 * np.arctan2(sum_cross, sum_diff) + np.pi / 2.0
    doubled = 2.0 * theta
    cos2, sin2 = _gaussian(np.stack((np.cos(doubled), np.sin(doubled))), ORIENTATION_SMOOTHING)
    theta = np.mod(0.5 * np.arctan2(sin2, cos2), np.pi)
    return OrientationField(block_size, theta, coherence)


def estimate_frequency(img: GrayImage, orient: OrientationField) -> FrequencyMap:
    """Block-wise ridge frequency from oriented projection peak spacing.

    Each block samples a FREQ_WINDOW x block_size patch centered on the
    block, its window axis orthogonal to the local ridge direction, each
    sample from its nearest pixel, and averages along the ridge into a
    projection signature; blocks where too much of the patch falls outside
    the image get none. The signature is smoothed (3 taps), its peaks above
    the signature mean are refined to sub-pixel positions by a parabola,
    and the mean peak spacing is the ridge period.
    Blocks with fewer than two peaks or no period in [3, 25] px are marked
    absent, then filled with the mean of their present 3x3 neighbors (up
    to 3 passes). Each band of block rows (_bands) is sampled and searched
    for peaks before the next. A signature needs samples inside the image
    at both ends of its window, FREQ_WINDOW - 1 px apart, so an image with
    a shorter diagonal has every block absent.
    """
    bs = orient.block_size
    h, w = img.pixels.shape
    rows, cols = _block_grid(h, w, bs)
    if (rows, cols) != orient.theta.shape:
        raise ValueError("orientation field does not cover the image")
    freq = np.full((rows, cols), np.nan)
    pixels = np.ascontiguousarray(img.pixels)  # each band reads it as one flat view
    for top, bottom in _bands(h, w, bs):
        blocks = slice(top // bs, -(-bottom // bs))
        sig, has_sig = _projection_signatures(pixels, orient, FREQ_WINDOW, blocks)
        freq[blocks][has_sig] = _signature_frequency(sig[has_sig])
    return FrequencyMap(bs, _fill_absent(freq))


def _signature_frequency(sig: np.ndarray) -> np.ndarray:
    """The ridge frequency of each signature (row), NaN where absent."""
    # smoothing, then peaks (rows of a boolean matrix) with parabolic
    # sub-pixel refinement; n peaks have mean spacing (last - first) / (n - 1)
    p = np.concatenate((sig[:, :1], sig, sig[:, -1:]), axis=1)  # edge padded
    t = 1.0 / 3.0
    smooth = p[:, :-2] * t + p[:, 1:-1] * t + p[:, 2:] * t
    y0, y1, y2 = smooth[:, :-2], smooth[:, 1:-1], smooth[:, 2:]
    peaks = (y1 > y0) & (y1 >= y2) & (y1 > smooth.mean(axis=1, keepdims=True))
    denom = y0 - 2.0 * y1 + y2
    n = peaks.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(np.abs(denom) > 1e-12, 0.5 * (y0 - y2) / denom, 0.0)
        positions = np.arange(1, sig.shape[1] - 1) + np.clip(shift, -0.5, 0.5)
        first = np.where(peaks, positions, np.inf).min(axis=1, initial=np.inf)
        last = np.where(peaks, positions, -np.inf).max(axis=1, initial=-np.inf)
        period = (last - first) / (n - 1)
        ok = (n >= 2) & (period >= MIN_RIDGE_PERIOD) & (period <= MAX_RIDGE_PERIOD)
        return np.where(ok, 1.0 / period, np.nan)


def _projection_signatures(
    data: np.ndarray, orient: OrientationField, window: int, blocks: slice
) -> tuple[np.ndarray, np.ndarray]:
    """estimate_frequency's (rows, cols, window) signatures of the block
    rows `blocks`, and which blocks have one.

    Each sample is its nearest pixel, floor(t + 0.5) on each axis, inside
    when 0 <= y <= h-1 and 0 <= x <= w-1 before rounding: scipy's
    map_coordinates (order 0, mode "constant") bit for bit. A signature is
    an exact integer sum over its inside samples divided by their count, so
    it equals their np.nanmean whatever the order of the sum. Blocks are
    sampled in row-major groups of at most BAND_PIXELS / 2 samples, 27 B
    each in buffers allocated once: under half a MiB.
    """
    h, w = data.shape
    bs = orient.block_size
    rows, cols = orient.theta[blocks].shape
    theta = orient.theta[blocks].ravel()
    flat = data.ravel()
    # sample offsets across (k) and along (d) the ridge, per block
    k = (np.arange(window) - (window - 1) / 2.0)[None, :, None]
    d = (np.arange(bs) - (bs - 1) / 2.0)[None, None, :]
    y0 = np.arange(blocks.start, blocks.start + rows) * bs
    x0 = np.arange(cols) * bs
    cy = np.repeat((y0 + np.minimum(y0 + bs, h) - 1) / 2.0, cols)[:, None, None]
    cx = np.tile((x0 + np.minimum(x0 + bs, w) - 1) / 2.0, rows)[:, None, None]
    ux, uy, vx, vy = (f(a)[:, None, None] for a in (theta + np.pi / 2, theta)
                      for f in (np.cos, np.sin))
    groups = list(_bands(rows * cols, 2 * window * bs))
    shape = (groups[0][1], window, bs)
    yx = np.empty((2, *shape))
    buffers = [np.empty(shape, t) for t in (np.intp, np.uint8, bool, bool)]
    sig, ones = np.zeros((rows * cols, window)), np.ones(bs)
    has_sig = np.zeros(rows * cols, dtype=bool)
    for c0, c1 in groups:
        idx, val, inside, edge = (b[: c1 - c0] for b in buffers)
        g = slice(c0, c1)
        y, x = part = yx[:, : c1 - c0]
        np.add(cy[g] + k * uy[g], d * vy[g], out=y)
        np.add(cx[g] + k * ux[g], d * vx[g], out=x)
        np.greater_equal(y, 0, out=inside)
        inside &= np.less_equal(y, h - 1, out=edge)
        inside &= np.greater_equal(x, 0, out=edge)
        inside &= np.less_equal(x, w - 1, out=edge)
        for t in (y, x):
            t += 0.5
            np.floor(t, out=t)
        y *= w
        y += x  # the nearest pixel's flat index, exact
        np.copyto(idx, y, casting="unsafe")
        # an outside sample's index may leave the image: "clip" keeps it in
        # bounds (and takes into out= without a copy), and its 0 weight drops it
        flat.take(idx, out=val, mode="clip")
        np.multiply(val, inside, out=y)
        np.copyto(x, inside)
        sums, counts = part @ ones  # integers: exact in any order
        ok = has_sig[g] = (counts >= bs // 2).all(axis=1)
        sig[g][ok] = sums[ok] / counts[ok]
    return sig.reshape(rows, cols, window), has_sig.reshape(rows, cols)


def _fill_absent(freq: np.ndarray) -> np.ndarray:
    """Fill absent (NaN) blocks in place with the mean of their present 3x3
    neighbors, up to FREQ_FILL_PASSES passes; returns freq."""
    rows, cols = freq.shape
    for _ in range(FREQ_FILL_PASSES):
        missing = np.isnan(freq)
        if not missing.any():
            break
        padded = np.pad(freq, 1, constant_values=np.nan)
        stack = np.stack([padded[dr : dr + rows, dc : dc + cols]
                          for dr in (0, 1, 2) for dc in (0, 1, 2) if (dr, dc) != (1, 1)])
        present = np.isfinite(stack)
        counts = present.sum(axis=0)
        sums = np.where(present, stack, 0.0).sum(axis=0)
        fill = missing & (counts > 0)
        freq[fill] = sums[fill] / counts[fill]
        if not fill.any():
            break
    return freq


def _coherent_share_gate(coherence: np.ndarray, reject_threshold: float) -> Rejection | None:
    """The image-level quality gate on the coherence grid, the threshold
    already checked: a Rejection when the share of blocks with coherence
    >= GATE_COHERENCE is below ``reject_threshold``, else None. Blank
    captures, partial touches and blurred noise have few coherent blocks,
    prints nearly all (Bazen & Gerez, TPAMI 2002)."""
    share = np.count_nonzero(coherence >= GATE_COHERENCE) / coherence.size
    if share < reject_threshold:
        return Rejection(share, reject_threshold, "coherent share")
    return None


def compute_region_mask(
    img: GrayImage, orient: OrientationField, freq: FrequencyMap, config: PipelineConfig
) -> RegionMask | Rejection:
    """Label blocks recoverable/unrecoverable; reject low-quality images.

    A block is recoverable iff its orientation coherence clears
    config.coherence_floor, a ridge frequency is present, and its intensity
    variance, scaled as Hong's normalization to NORMALIZED_VARIANCE would
    scale it, clears config.variance_floor: block variance x
    NORMALIZED_VARIANCE / capture variance >= variance_floor. A constant
    capture has no variance to scale, so none of its blocks is recoverable.
    When the recoverable fraction falls below config.reject_threshold a
    Rejection is returned instead of a mask.
    """
    variance, capture = _block_variance(img.pixels, orient.block_size)
    varied = variance * NORMALIZED_VARIANCE / capture >= config.variance_floor if capture else False
    labels = varied & (orient.coherence >= config.coherence_floor) & np.isfinite(freq.freq)
    mask = RegionMask(orient.block_size, labels)
    if mask.recoverable_fraction < config.reject_threshold:
        return Rejection(mask.recoverable_fraction, config.reject_threshold, "recoverable fraction")
    return mask


def _block_variance(data: np.ndarray, block_size: int) -> tuple[np.ndarray, float]:
    """Population intensity variance of each block of 8-bit pixels, and of
    the whole capture, each (n sum I^2 - (sum I)^2) / n^2 from exact
    integer sums; n, a block's pixel count, comes from its extent (partial
    at the edges). The sums are taken per band of block rows (_block_sums)."""
    h, w = data.shape
    extent = [np.diff(np.minimum(np.arange(0, n + block_size, block_size), n)) for n in (h, w)]
    counts = np.multiply.outer(*extent)
    sums, sqsums = _block_sums(data.shape, block_size, lambda y0, y1, out: np.copyto(
        out[0, : y1 - y0, :w], data[y0:y1]), 1)
    # the capture's in Python ints: n sum I^2 outgrows int64 near 4096^2 pixels
    n, total, sqtotal = h * w, int(sums.sum()), int(sqsums.sum())
    capture = (n * sqtotal - total * total) / (n * n)
    return (counts * sqsums - sums * sums) / (counts * counts), capture


def _kernel_keys(theta: np.ndarray, freq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gabor kernel key of each (theta, freq) pair, as two arrays: theta
    rounded to whole degrees mod 180, freq to 6 decimals as Python's round
    does. rint(f * 1e6) / 1e6 is that value (c / 1e6 is the correctly
    rounded double of c * 1e-6) unless the rounding error of f * 1e6 crosses
    a half: for |f| < 1e3 it is below 1e-6, so only products that near a
    half, and larger f, take Python's round."""
    degrees = np.rint(np.degrees(theta)) % 180
    scaled = freq * 1e6
    keys = np.rint(scaled) / 1e6
    near = (np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6) | ~(np.abs(freq) < 1e3)
    keys[near] = [round(f, 6) for f in freq[near].tolist()]
    return degrees, keys


def _separable_bank(
    degrees: np.ndarray, freqs: np.ndarray, sigma: float, half: int
) -> np.ndarray:
    """The Gabor kernel of each (degrees, freq) key as an x-pass and a
    y-pass filter, stacked (2, len(degrees), K, 3): K taps of three channels.

    The kernel on the K x K grid dx, dy in [-half, half] is
    exp(-(dx^2 + dy^2) / 2 sigma^2) cos(2 pi freq (dx ux + dy uy)) minus its
    mean, (ux, uy) the across-ridge unit vector. Before mean subtraction it
    is Re[h_x(dx) h_y(dy)], h_x(t) = exp(-t^2 / 2 sigma^2 + 2 pi i freq ux t)
    and h_y likewise with uy, and its mean is Re(sum h_x * sum h_y) / K^2.
    The x pass filters rows with Re h_x, Im h_x and ones (box sum); the y
    pass weights those channels with Re h_y, -Im h_y and -mean, and sums
    them. Only the taps t >= 0 are computed, by the real cos and sin of the
    phase 2 pi freq t u, multiplied in that order; the taps t < 0 mirror
    them. Each tap equals the complex exp's, bit for bit.
    """
    across = np.radians(degrees) + np.pi / 2
    t = np.arange(half + 1, dtype=np.float64)
    envelope = np.exp(-0.5 * t**2 / sigma**2)
    phase = 2 * np.pi * freqs[:, None] * t * np.stack((np.cos(across), np.sin(across)))[:, :, None]
    size = 2 * half + 1
    x_bank, y_bank = banks = np.empty((2, len(degrees), size, 3))
    re, im = banks[..., 0], banks[..., 1]
    np.multiply(envelope, np.cos(phase), out=re[..., half:])
    np.multiply(envelope, np.sin(phase), out=im[..., half:])
    re[..., :half] = re[..., :half:-1]  # h(-t) is the conjugate of h(t)
    np.negative(im[..., :half:-1], out=im[..., :half])
    # summed as complex numbers: numpy orders a complex sum unlike a real one
    sums = (re + 1j * im).sum(axis=2)
    x_bank[..., 2] = 1.0
    np.negative(y_bank[..., 1], out=y_bank[..., 1])
    y_bank[..., 2] = -((sums[0] * sums[1]).real / size**2)[:, None]
    return banks


def gabor_response(
    img: GrayImage, orient: OrientationField, freq: FrequencyMap, mask: RegionMask
) -> np.ndarray:
    """Raw Gabor filter response, float32; zero outside the recoverable region.

    Each recoverable block is filtered with its own even-symmetric kernel
    tuned to its (theta, freq) under an isotropic envelope of width
    GABOR_SIGMA. theta is quantized to 1 degree and freq to 1e-6
    (_kernel_keys), as the dense K x K reference keys its kernels. Each
    kernel is separable into a complex 1-D pair (Areekul et al., "Separable
    Gabor filter realization for fast fingerprint enhancement", ICIP 2005),
    whose float64 taps (_separable_bank) are rounded to float32 once per band
    of block rows (_bands). Two float32 matrix products apply them, windows
    @ X, then Y @ that, batched over groups of recoverable blocks; each band
    reads its windows from its own reflect-padded float32 slab.

    A 1-D pass of filter k over a block's padded window is a product with
    B[u, j] = k[u - j] (0 <= u - j <= 2 half, else 0). X holds a block's
    three x-channel B side by side, Y its three y-channel B transposed,
    their columns interleaved to match the rows of windows @ X per channel.
    A group is a run of recoverable blocks in one block row whose windows
    hold at most BAND_PIXELS / 2 pixels; the first product reads them from
    the slab and the second writes the response. X and Y live in two zeroed
    buffers allocated once, and a group writes only their bands, each row a
    contiguous run through a diagonal view: X stored transposed, row (ch, j)
    holding x_ch at columns j .. j + 2 half, Y as (bs, span, 3), row i
    holding the (t, ch) taps at u = i .. i + 2 half. The slab is
    column-major like X: with X alone transposed, the first product takes
    1.5x as long under OpenBLAS's SkylakeX kernels. Neither layout changes
    a bit.
    """
    data = img.pixels
    if not (
        orient.block_size == freq.block_size == mask.block_size
        and orient.theta.shape == freq.freq.shape == mask.labels.shape
    ):
        raise ValueError("orientation, frequency and mask block geometry differ")
    missing = np.argwhere(mask.labels & ~np.isfinite(freq.freq))
    if len(missing):
        r, c = missing[0]
        raise ValueError(f"recoverable block ({r}, {c}) has no frequency estimate")

    h, w = data.shape
    bs = orient.block_size
    rows, cols = mask.labels.shape
    half = math.ceil(3.0 * GABOR_SIGMA)
    size, span = 2 * half + 1, bs + 2 * half
    # rows and columns of the image reflect-padded to whole blocks: every block has a full window
    padded_rows = np.pad(np.arange(h), (half, half + rows * bs - h), mode="reflect")
    padded_cols = np.pad(np.arange(w), (half, half + cols * bs - w), mode="reflect")
    group = max(1, BAND_PIXELS // (2 * span * span))
    x_mats = np.zeros((group, 3, bs, span), np.float32)
    y_mats = np.zeros((group, bs, span, 3), np.float32)
    # the bands: each row of a block's X (Y) starts one column (u) right of the last
    s = x_mats.strides
    x_band = as_strided(x_mats, (group, 3, bs, size), (s[0], s[1], s[2] + s[3], s[3]))
    s = y_mats.strides
    y_band = as_strided(y_mats, (group, bs, 3 * size), (s[0], s[1] + s[2], s[3]))
    x = x_mats.reshape(group, 3 * bs, span).swapaxes(1, 2)
    y = y_mats.reshape(group, bs, 3 * span)

    response = np.zeros((rows * bs, cols * bs), np.float32)
    blocks = response.reshape(rows, bs, cols, bs).swapaxes(1, 2)
    for top, bottom in _bands(h, w, bs):
        r0, r1 = top // bs, -(-bottom // bs)
        labels = mask.labels[r0:r1]
        # one filter pair per recoverable block, in row-major block order
        degrees, freqs = _kernel_keys(orient.theta[r0:r1][labels], freq.freq[r0:r1][labels])
        if not len(degrees):
            continue
        x_taps, y_taps = _separable_bank(degrees, freqs, GABOR_SIGMA, half).astype(np.float32)
        x_taps, y_taps = x_taps.swapaxes(1, 2), y_taps.reshape(len(degrees), 3 * size)
        # column-major: the band's rows, transposed while uint8, then cast contiguously
        slab = (data.take(padded_rows[top : r1 * bs + 2 * half], axis=0).T
                .take(padded_cols, axis=0).astype(np.float32).T)
        windows = sliding_window_view(slab, (span, span))[::bs, ::bs]  # [r, c] at (r bs, c bs)
        # the runs of recoverable blocks, row-major: start and stop alternate
        rs, edges = np.nonzero(np.diff(labels, axis=1, prepend=False, append=False))
        k = 0  # the first filter pair of the group
        for r, start, stop in zip(rs[::2], edges[::2], edges[1::2]):
            for a in range(start, stop, group):
                n = min(group, stop - a)
                x_band[:n] = x_taps[k : k + n, :, None]
                y_band[:n] = y_taps[k : k + n, None]
                xs = windows[r, a : a + n] @ x[:n]
                np.matmul(y[:n], xs.reshape(n, 3 * span, bs), out=blocks[r0 + r, a : a + n])
                k += n
        del x_taps, y_taps, slab, windows, xs  # before the next band's arrays
    return response[:h, :w]


def gabor_enhance(
    img: GrayImage, orient: OrientationField, freq: FrequencyMap, mask: RegionMask
) -> GrayImage:
    """Gabor band-pass enhancement, rescaled to an 8-bit image.

    Recoverable pixels carry the float32 filter response, rescaled in place
    (ridges stay dark); unrecoverable pixels are set to the background
    intensity. A response flat to within twice its rounding bound maps to
    mid-gray, as a constant capture's (the kernels are DC-free). Each term
    y_ch[t] x_ch[s] p (p <= 255) of a value takes at most n = 4K + 2 float32
    roundings, K = 2 ceil(3 sigma) + 1, sigma = GABOR_SIGMA, so the value is
    within gamma_n 255 3 E^2 of exact, gamma_n = n u / (1 - n u), u = 2^-24:
    E = 1 + sqrt(2 pi) sigma bounds the envelope's sum, 3 E^2 the taps'
    sum_ch |y_ch|_1 |x_ch|_1.
    """
    response = gabor_response(img, orient, freq, mask)
    sel = mask.pixel_mask(*response.shape)
    out = np.full(response.shape, BACKGROUND_INTENSITY, dtype=np.uint8)
    if sel.any():
        lo, hi = response.min(where=sel, initial=np.inf), response.max(where=sel, initial=-np.inf)
        n, e = 8 * math.ceil(3.0 * GABOR_SIGMA) + 6, 1 + math.sqrt(2 * math.pi) * GABOR_SIGMA
        if hi - lo <= 2 * n * 2.0**-24 / (1 - n * 2.0**-24) * 255 * 3 * e * e:
            out[sel] = 128
        else:  # rint((v - lo) * 255 / (hi - lo)) in place, in that order
            response -= lo
            response *= 255.0
            response /= hi - lo
            np.copyto(out, np.rint(response, out=response), casting="unsafe", where=sel)
    return GrayImage(out)


def orientation_to_text(orient: OrientationField) -> str:
    """Debug dump: block grid of ridge angles in degrees."""
    lines = [" ".join(f"{math.degrees(t):6.1f}" for t in row) for row in orient.theta]
    return "\n".join(lines) + "\n"


def frequency_to_text(freq: FrequencyMap) -> str:
    """Debug dump: block grid of frequencies; '-' marks absent blocks."""
    lines = [" ".join("     -" if not np.isfinite(f) else f"{f:6.4f}" for f in row)
             for row in freq.freq]
    return "\n".join(lines) + "\n"
