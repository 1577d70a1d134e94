"""Stage-level truth: per corpus256 family, the orientation and frequency
fields and the binary image against what the generator knows exactly
(conftest.stage_truth), and four planted defects that these floors catch
although end-to-end SEN/SPE does not."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import CONFIG, corpus_spec, far_from_points, stage_truth
from ridgekit import enhance as enh, pipeline
from ridgekit.image import GrayImage
from ridgekit.synth import generate

FAMILIES = {"parallel": range(0, 20, 2), "concentric": range(1, 20, 2)}

# Floors: the committed code's values, parallel / concentric, with the
# stated margin. theta and f errors are pooled over the 1,690 blocks of a
# family that lie more than one block from every injected point; ridge
# agreement and ridge share are per print, over its recoverable pixels.
THETA_MEDIAN_DEG = 1.0  # measured 0.48 / 0.42: about 2x
THETA_P90_DEG = 2.0  # 1.01 / 0.92: about 2x
FREQ_MEDIAN = 0.005  # relative; 0.22% / 0.21%: about 2x
FREQ_P90 = 0.025  # 1.08% / 1.09%: about 2x
AGREEMENT = 0.98  # lowest print 0.990 / 0.987: 0.007 below the lower
SHARE = (0.48, 0.52)  # 0.499-0.503 / 0.500-0.504: 0.02 around a half


@pytest.fixture(scope="module")
def truths():
    return {k: stage_truth(corpus_spec(k)) for k in range(20)}


def family_scores(family, truths):
    """The pipeline's stage errors on a family: theta error in degrees and
    relative frequency error on the blocks far from injected points, pooled,
    and each print's ridge agreement and ridge share on its recoverable
    pixels. A rejected print makes every score NaN."""
    theta_err, freq_err, agreement, share = [], [], [], []
    for k in FAMILIES[family]:
        spec = corpus_spec(k)
        img, truth = generate(spec)
        theta, freq, ridges = truths[k]
        outcome = pipeline.extract_from_image(img, truth.image_id, CONFIG)
        if outcome.rejected:
            return dict.fromkeys(("theta", "freq", "agreement", "share"), np.array([np.nan]))
        orient, got = outcome.intermediates["orientation"], outcome.intermediates["frequency"]
        far = far_from_points(spec, theta.shape)
        turn = np.abs(orient.theta - theta)[far] % np.pi
        theta_err.append(np.degrees(np.minimum(turn, np.pi - turn)))
        freq_err.append(np.abs(got.freq - freq)[far] / freq[far])
        sel = enh.compute_region_mask(img, orient, got, CONFIG).pixel_mask(*img.pixels.shape)
        bits = outcome.intermediates["binary"].bits[sel] == 1
        agreement.append(np.mean(bits == ridges[sel]))
        share.append(np.mean(bits))
    return {"theta": np.concatenate(theta_err), "freq": np.concatenate(freq_err),
            "agreement": np.array(agreement), "share": np.array(share)}


def failed_floors(scores):
    """The names of the floors that the scores miss (NaN misses all)."""
    theta, freq, share = scores["theta"], scores["freq"], scores["share"]
    checks = {
        "theta median": np.median(theta) <= THETA_MEDIAN_DEG,
        "theta p90": np.percentile(theta, 90) <= THETA_P90_DEG,
        "freq median": np.median(freq) <= FREQ_MEDIAN,
        "freq p90": np.percentile(freq, 90) <= FREQ_P90,
        "ridge agreement": (scores["agreement"] >= AGREEMENT).all(),
        "ridge share": ((SHARE[0] <= share) & (share <= SHARE[1])).all(),
    }
    return {name for name, ok in checks.items() if not ok}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stages_meet_the_truth_floors(family, truths):
    assert failed_floors(family_scores(family, truths)) == set()


def _theta_plus_15(monkeypatch):
    estimate = enh.estimate_orientation

    def biased(img, config):
        orient = estimate(img, config)
        return replace(orient, theta=np.mod(orient.theta + np.radians(15.0), np.pi))

    monkeypatch.setattr(enh, "estimate_orientation", biased)


def _freq_times_1_25(monkeypatch):
    estimate = enh.estimate_frequency

    def scaled(img, orient, config):
        freq = estimate(img, orient, config)
        return replace(freq, freq=freq.freq * 1.25)

    monkeypatch.setattr(enh, "estimate_frequency", scaled)


def _no_gabor(monkeypatch):
    # binarize the masked capture: recoverable pixels as captured
    def masked(img, orient, freq, mask, config):
        sel = mask.pixel_mask(*img.pixels.shape)
        return GrayImage(np.where(sel, img.pixels, enh.BACKGROUND_INTENSITY).astype(np.uint8))

    monkeypatch.setattr(enh, "gabor_enhance", masked)


def _threshold_plus_25(monkeypatch):
    threshold = pipeline.auto_threshold
    monkeypatch.setattr(pipeline, "auto_threshold", lambda work, mask: threshold(work, mask) + 25)


# each defect and the floors meant to catch it (ROADMAP item 12's rows)
DEFECTS = {
    "theta + 15 deg": (_theta_plus_15, {"theta median"}),
    "f x 1.25": (_freq_times_1_25, {"freq median"}),
    "no Gabor": (_no_gabor, {"ridge agreement"}),
    "threshold + 25": (_threshold_plus_25, {"ridge agreement", "ridge share"}),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_planted_defect_fails_its_floor(defect, family, truths, monkeypatch):
    plant, catch = DEFECTS[defect]
    plant(monkeypatch)
    assert catch <= failed_floors(family_scores(family, truths))
