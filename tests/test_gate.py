"""The image-level quality gate: captures that hold no print are rejected
inside orientation estimation, straight after the per-block gradient sums
and before the orientation field is formed, and prints, clean or degraded,
pass it."""

import numpy as np
import pytest
from scipy import ndimage

from conftest import _blurred_noise, corpus_spec
from test_enhance import _gate_blank, _gate_partial_touch
from ridgekit import enhance as enh
from ridgekit.config import PipelineConfig
from ridgekit.image import GrayImage
from ridgekit.pipeline import extract_from_image
from ridgekit.synth import generate


def _degraded(k, contrast_floor=1.0, blur=0.0):
    """Acceptance print k with uneven contrast or blur, then N(0, 20) noise,
    drawn from default_rng(1000 + k). Contrast scales the deviation from
    mid-gray by contrast_floor + (1 - contrast_floor) F, F being N(0, 1)
    noise smoothed by sigma = 40 px and rescaled to [0, 1]; blur is a
    Gaussian of sigma `blur` px."""
    rng = np.random.default_rng(1000 + k)
    a = generate(corpus_spec(k))[0].pixels.astype(np.float64)
    if contrast_floor < 1.0:
        f = ndimage.gaussian_filter(rng.normal(0.0, 1.0, a.shape), 40.0)
        f = (f - f.min()) / (f.max() - f.min())
        a = 127.5 + (a - 127.5) * (contrast_floor + (1.0 - contrast_floor) * f)
    if blur > 0.0:
        a = ndimage.gaussian_filter(a, blur)
    a += rng.normal(0.0, 20.0, a.shape)
    return GrayImage(np.clip(np.rint(a), 0, 255).astype(np.uint8))


CAPTURES = {
    **{f"blurred_noise_{s}": (lambda s=s: _blurred_noise(s)) for s in range(8)},
    **{f"blank_{s}": (lambda s=s: _gate_blank(s)) for s in range(3)},
    **{f"partial_touch_{s}": (lambda s=s: _gate_partial_touch(s)) for s in range(3)},
}

PRINTS = {
    **{f"clean_{k:02d}": (lambda k=k: generate(corpus_spec(k))[0]) for k in range(20)},
    **{f"blur_2_{k:02d}": (lambda k=k: _degraded(k, blur=2.0)) for k in range(20)},
    **{f"contrast_0.15_{k:02d}": (lambda k=k: _degraded(k, contrast_floor=0.15))
       for k in range(20)},
}


@pytest.mark.parametrize("name", sorted(CAPTURES))
def test_captures_without_a_print_are_rejected_by_the_coherence_gate(name):
    outcome = extract_from_image(CAPTURES[name](), name, PipelineConfig())
    assert outcome.rejected and outcome.minutiae is None
    assert outcome.rejection.measure == "coherent share"
    assert outcome.rejection.recoverable_fraction < PipelineConfig().reject_threshold


def test_coherence_gate_rejects_before_frequency_estimation(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("frequency estimated for a rejected capture")

    monkeypatch.setattr(enh, "estimate_frequency", fail)
    outcome = extract_from_image(_blurred_noise(1), "blurred_noise_1", PipelineConfig())
    assert outcome.rejected and outcome.rejection.measure == "coherent share"


def test_coherence_gate_rejects_before_the_orientation_field_is_smoothed(monkeypatch):
    shares = {}
    for name in sorted(CAPTURES):
        orient = enh.estimate_orientation(CAPTURES[name]())
        shares[name] = enh._coherent_share_gate(
            orient.coherence, PipelineConfig().reject_threshold).recoverable_fraction

    def fail(*args, **kwargs):
        raise AssertionError("orientation field smoothed for a rejected capture")

    monkeypatch.setattr(enh, "_gaussian", fail)
    for name in sorted(CAPTURES):
        outcome = extract_from_image(CAPTURES[name](), name, PipelineConfig())
        assert outcome.rejection == enh.Rejection(
            shares[name], PipelineConfig().reject_threshold, "coherent share")


@pytest.mark.parametrize("threshold", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("name", ["blurred_noise_0", "partial_touch_0", "clean_00"])
def test_estimate_orientation_gates_as_coherence_gate_does(name, threshold):
    img = {**CAPTURES, **PRINTS}[name]()
    field = enh.estimate_orientation(img)  # the default threshold of 0 never rejects
    assert isinstance(field, enh.OrientationField)
    gated = enh.estimate_orientation(img, reject_threshold=threshold)
    want = enh._coherent_share_gate(field.coherence, threshold)
    if want is None:
        assert np.array_equal(gated.theta, field.theta)
        assert np.array_equal(gated.coherence, field.coherence)
    else:
        assert gated == want


@pytest.mark.parametrize("threshold", [1.5, -0.5, float("nan")])
def test_gate_thresholds_outside_zero_one_are_refused(threshold):
    img = _blurred_noise(0)
    with pytest.raises(ValueError, match=r"^reject_threshold must lie in \[0, 1\]$"):
        enh.estimate_orientation(img, reject_threshold=threshold)


@pytest.mark.parametrize("name", sorted(PRINTS))
def test_prints_clean_or_degraded_are_accepted(name):
    outcome = extract_from_image(PRINTS[name](), name, PipelineConfig())
    assert not outcome.rejected and len(outcome.minutiae) > 0


def test_coherence_gate_counts_blocks_at_the_coherence_floor():
    # 4 of 16 blocks reach GATE_COHERENCE exactly: a share of 0.25, which is
    # rejected only by a threshold above it
    coherence = np.full((4, 4), np.nextafter(enh.GATE_COHERENCE, 0.0))
    coherence[0] = enh.GATE_COHERENCE
    assert enh._coherent_share_gate(coherence, 0.25) is None
    rejection = enh._coherent_share_gate(coherence, 0.2501)
    assert rejection == enh.Rejection(0.25, 0.2501, "coherent share")
