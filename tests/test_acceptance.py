"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured runtime (run with -s to see them all)."""

import math
import time

import numpy as np
from scipy import ndimage

from conftest import classify_pixel, corpus_spec, make_blob_image
from ridgekit.binary import BinaryImage, Skeleton, binarize, thin
from ridgekit.config import PipelineConfig
from ridgekit.enhance import (
    OrientationField,
    estimate_frequency,
    estimate_orientation,
    gabor_enhance,
    gabor_response,
    compute_region_mask,
)
from ridgekit.evaluate import MatchResult, aggregate, compute_metrics, match_minutiae
from ridgekit.image import GrayImage
from ridgekit.minutiae import (
    BIFURCATION,
    ENDING,
    extract_minutiae,
    postprocess,
)
from ridgekit.pipeline import extract_from_image, run_eval
from ridgekit.synth import ParallelPattern, SynthSpec, generate

EIGHT = np.ones((3, 3))


def report(name: str, elapsed: float, budget: float | None = None):
    timing = f" ({elapsed:.2f}s" + (f" < {budget:.0f}s budget)" if budget else ")")
    print(f"PASS {name}{timing}")


def test_criterion_1_binarization_exactness():
    """Eq-style thresholding is bit-exact against a per-pixel oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        data = rng.integers(0, 256, (64, 64)).astype(np.uint8)
        tp = int(rng.integers(0, 256))
        out = binarize(GrayImage(data), tp).bits
        oracle = np.empty((64, 64), np.uint8)
        for y in range(64):
            for x in range(64):
                oracle[y, x] = 1 if data[y, x] >= tp else 0
        assert (out == oracle).all()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("criterion 1: thresholding exact on 100 random images", elapsed, 1.0)


def test_criterion_2_neighborhood_classification_exhaustive():
    """All 256 neighbor patterns classify by the 9-pixel count rule."""
    t0 = time.perf_counter()
    offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    mismatches = 0
    for pattern in range(256):
        bits = np.zeros((5, 5), np.uint8)
        bits[2, 2] = 1
        for k, (dy, dx) in enumerate(offsets):
            if pattern >> k & 1:
                bits[2 + dy, 2 + dx] = 1
        count = bin(pattern).count("1") + 1  # independent popcount oracle
        got = classify_pixel(Skeleton(bits), 2, 2)
        want = ENDING if count == 2 else BIFURCATION if count >= 4 else None
        if got != want:
            mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("criterion 2: 256-pattern classification, zero mismatches", elapsed, 1.0)


def test_criterion_3_orientation_recovery():
    t0 = time.perf_counter()
    for deg in (0, 30, 60, 90, 120, 150):
        img, _ = generate(
            SynthSpec(256, 256, ParallelPattern(math.radians(deg)), 8.0)
        )
        orient = estimate_orientation(img)
        theta = orient.theta[2:-2, 2:-2]
        want = math.radians(deg) % math.pi
        err = np.abs(theta - want)
        err = np.degrees(np.minimum(err, math.pi - err))
        assert (err <= 5.0).mean() >= 0.95, f"angle {deg}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("criterion 3: orientation within 5 deg on 6 angles", elapsed, 5.0)


def test_criterion_4_frequency_recovery():
    t0 = time.perf_counter()
    for period in (4, 6, 8, 10, 12):
        img, _ = generate(
            SynthSpec(256, 256, ParallelPattern(math.radians(30)), float(period))
        )
        freq = estimate_frequency(img, estimate_orientation(img))
        f = freq.freq[2:-2, 2:-2]
        present = np.isfinite(f)
        rel_ok = np.abs(f[present] * period - 1.0) <= 0.10
        assert (present.mean() * rel_ok.mean()) >= 0.90, f"period {period}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("criterion 4: frequency within 10% for periods 4..12", elapsed, 5.0)


def test_criterion_5_gabor_selectivity_and_denoising():
    t0 = time.perf_counter()
    clean, _ = generate(SynthSpec(256, 256, ParallelPattern(math.radians(30)), 8.0))
    orient = estimate_orientation(clean)
    freq = estimate_frequency(clean, orient)
    mask = compute_region_mask(clean, orient, freq, 0.25)
    sl = (slice(32, -32), slice(32, -32))
    matched = gabor_response(clean, orient, freq, mask)[sl].std()
    rotated = OrientationField(
        orient.block_size, np.mod(orient.theta + np.pi / 2, np.pi), orient.coherence
    )
    crossed = gabor_response(clean, rotated, freq, mask)[sl].std()
    assert matched >= 5.0 * crossed

    ref = clean.pixels[sl].astype(float).ravel()
    for seed in range(10):
        noisy, _ = generate(
            SynthSpec(256, 256, ParallelPattern(math.radians(30)), 8.0,
                      noise_amplitude=30.0, seed=200 + seed)
        )
        n_orient = estimate_orientation(noisy)
        n_freq = estimate_frequency(noisy, n_orient)
        n_mask = compute_region_mask(noisy, n_orient, n_freq, 0.25)
        out = gabor_enhance(noisy, n_orient, n_freq, n_mask)
        c_noisy = np.corrcoef(noisy.pixels[sl].astype(float).ravel(), ref)[0, 1]
        c_enh = np.corrcoef(out.pixels[sl].astype(float).ravel(), ref)[0, 1]
        assert c_enh > c_noisy, f"seed {seed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(
        f"criterion 5: selectivity {matched / crossed:.0f}x, denoising on 10 images",
        elapsed, 10.0,
    )


def test_criterion_6_skeleton_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    cases = [make_blob_image(rng) for _ in range(50)]
    for k in range(20):
        img, _ = generate(corpus_spec(k))
        cases.append((img.pixels < 128).astype(np.uint8))
    for bits in cases:
        skel = thin(BinaryImage(bits))
        assert not (
            skel.bits[:-1, :-1] & skel.bits[1:, :-1]
            & skel.bits[:-1, 1:] & skel.bits[1:, 1:]
        ).any()
        assert (
            ndimage.label(skel.bits, structure=EIGHT)[1]
            == ndimage.label(bits, structure=EIGHT)[1]
        )
        assert (thin(skel).bits == skel.bits).all()
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("criterion 6: skeleton invariants on 50 blobs + 20 prints", elapsed, 10.0)


def test_criterion_7_spur_rule():
    t0 = time.perf_counter()

    def fixture(length):
        bits = np.zeros((40, 60), np.uint8)
        bits[30, 0:60] = 1
        for k in range(1, length + 1):
            bits[30 - k, 30 - k] = 1
        return Skeleton(bits)

    for length in (3, 5, 6):
        skel = fixture(length)
        final, _ = postprocess(
            extract_minutiae(skel, "s"), skel, PipelineConfig()
        )
        assert not any(m.kind == BIFURCATION for m in final.minutiae), length
        assert not any(m.kind == ENDING for m in final.minutiae), length
    for length in (8, 12):
        skel = fixture(length)
        final, _ = postprocess(
            extract_minutiae(skel, "s"), skel, PipelineConfig()
        )
        assert any(m.kind == BIFURCATION for m in final.minutiae), length
    elapsed = time.perf_counter() - t0
    report("criterion 7: spurs of 3/5/6 removed, 8/12 kept", elapsed)


def test_criterion_8_metrics_formulas():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    for _ in range(20):
        gt = int(rng.integers(1, 40))
        matched = int(rng.integers(0, gt + 1))
        false = int(rng.integers(0, 20))
        r = MatchResult(
            "m", matched, gt - matched, false, gt,
            tuple((i, i, 0.0) for i in range(matched)),
        )
        m = compute_metrics(r)
        assert abs(m.sen - (1.0 - (gt - matched) / gt)) <= 1e-12
        assert abs(m.spe - (1.0 - false / gt)) <= 1e-12
    rep = aggregate([("a", type(m)(0.7, 0.7)), ("b", type(m)(0.9, 0.9))])
    assert abs(rep.mean_sen - 0.8) <= 1e-12
    assert abs(rep.sd_sen - 0.1414) <= 1e-4
    elapsed = time.perf_counter() - t0
    report("criterion 8: metric formulas to 1e-12, sd to 1e-4", elapsed)


def test_criterion_9_end_to_end_corpus():
    t0 = time.perf_counter()
    config = PipelineConfig()
    per_image = []
    rejected = 0
    for k in range(20):
        img, truth = generate(corpus_spec(k))
        outcome = extract_from_image(img, truth.image_id, config)
        if outcome.rejected:
            rejected += 1
            continue
        result = match_minutiae(outcome.minutiae, truth, tolerance=8.0)
        per_image.append((truth.image_id, compute_metrics(result)))
    rep = aggregate(per_image)
    assert rejected == 0
    assert rep.mean_sen >= 0.80
    assert rep.mean_spe >= 0.80
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        f"criterion 9: 20-image corpus mean SEN {rep.mean_sen:.3f} / "
        f"SPE {rep.mean_spe:.3f} at 8 px",
        elapsed, 60.0,
    )


def test_criterion_10_eval_determinism(tmp_path):
    t0 = time.perf_counter()
    from ridgekit.image import save_pgm
    from ridgekit.minutiae import write_minutiae

    data = tmp_path / "data"
    truthd = tmp_path / "truth"
    data.mkdir()
    truthd.mkdir()
    for k in range(6):
        img, truth = generate(corpus_spec(k, n_total=6, max_noise=30.0))
        save_pgm(img, data / f"{truth.image_id}.pgm")
        write_minutiae(truthd / f"{truth.image_id}.txt", truth, img.width, img.height)

    config = PipelineConfig()
    run_eval(data, truthd, config, tmp_path / "o1", workers=1)
    run_eval(data, truthd, config, tmp_path / "o2", workers=4)
    files1 = sorted(p.name for p in (tmp_path / "o1").iterdir())
    files2 = sorted(p.name for p in (tmp_path / "o2").iterdir())
    assert files1 == files2
    for name in files1:
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()
    elapsed = time.perf_counter() - t0
    report("criterion 10: byte-identical reports for 1 vs 4 workers", elapsed)
