"""Stage-level truth: per corpus256 family, and for the same prints at
ridge period 6, the orientation and frequency fields and the binary image
against what the generator knows exactly (conftest.stage_truth), and four
planted defects that these floors catch although end-to-end SEN/SPE does
not."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import CONFIG, corpus_spec, far_from_points, stage_truth
from ridgekit import enhance as enh, pipeline
from ridgekit.image import GrayImage
from ridgekit.synth import generate

FAMILIES = {"parallel": range(0, 20, 2), "concentric": range(1, 20, 2)}
SHORT_PERIOD = 6.0  # corpus_spec's is 8; nearest-pixel sampling weighs most at short periods

# Floors: the committed code's values, parallel / concentric, with the
# stated margin. theta and f errors are pooled over the 1,690 blocks of a
# family that lie more than one block from every injected point; ridge
# agreement and ridge share are per print, over its recoverable pixels.
THETA_MEDIAN_DEG = 1.0  # measured 0.48 / 0.42: about 2x
THETA_P90_DEG = 2.0  # 1.01 / 0.92: about 2x
FREQ_MEDIAN = 0.005  # relative; 0.29% / 0.28%: about 1.75x
FREQ_P90 = 0.025  # 1.06% / 1.08%: about 2x
FLOORS = {"theta median": THETA_MEDIAN_DEG, "theta p90": THETA_P90_DEG,
          "freq median": FREQ_MEDIAN, "freq p90": FREQ_P90}
# the same prints at SHORT_PERIOD; agreement and share floors as below
SHORT_FLOORS = {
    "theta median": 1.8,  # 0.88 / 0.60: about 2x
    "theta p90": 3.0,  # 1.52 / 1.22: about 2x
    "freq median": 0.005,  # 0.26% / 0.22%: about 2x
    "freq p90": 0.022,  # 1.09% / 1.08%: about 2x
}
AGREEMENT = 0.98  # lowest print 0.990 / 0.987 (period 6: 0.990 / 0.985)
SHARE = (0.48, 0.52)  # 0.499-0.503 / 0.500-0.504 (period 6: 0.500-0.505 / 0.499-0.503)


def spec_at(k, period):
    """corpus_spec(k), at `period` unless it is None."""
    return corpus_spec(k) if period is None else replace(corpus_spec(k), period=period)


@pytest.fixture(scope="module")
def truths():
    return {(k, period): stage_truth(spec_at(k, period))
            for k in range(20) for period in (None, SHORT_PERIOD)}


def family_scores(family, truths, period=None):
    """The pipeline's stage errors on a family (at `period` unless None):
    theta error in degrees and relative frequency error on the blocks far
    from injected points, pooled, and each print's ridge agreement and ridge
    share on its recoverable pixels. A rejected print makes every score NaN."""
    theta_err, freq_err, agreement, share = [], [], [], []
    for k in FAMILIES[family]:
        spec = spec_at(k, period)
        img, truth = generate(spec)
        theta, freq, ridges = truths[k, period]
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


def failed_floors(scores, floors=FLOORS):
    """The names of the floors that the scores miss (NaN misses all)."""
    theta, freq, share = scores["theta"], scores["freq"], scores["share"]
    checks = {
        "theta median": np.median(theta) <= floors["theta median"],
        "theta p90": np.percentile(theta, 90) <= floors["theta p90"],
        "freq median": np.median(freq) <= floors["freq median"],
        "freq p90": np.percentile(freq, 90) <= floors["freq p90"],
        "ridge agreement": (scores["agreement"] >= AGREEMENT).all(),
        "ridge share": ((SHARE[0] <= share) & (share <= SHARE[1])).all(),
    }
    return {name for name, ok in checks.items() if not ok}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stages_meet_the_truth_floors(family, truths):
    assert failed_floors(family_scores(family, truths)) == set()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stages_meet_the_truth_floors_at_period_6(family, truths):
    scores = family_scores(family, truths, SHORT_PERIOD)
    assert failed_floors(scores, SHORT_FLOORS) == set()


def _theta_plus_15(monkeypatch):
    estimate = enh.estimate_orientation

    def biased(img, config):
        orient = estimate(img, config)
        return replace(orient, theta=np.mod(orient.theta + np.radians(15.0), np.pi))

    monkeypatch.setattr(enh, "estimate_orientation", biased)


def _freq_times_1_25(monkeypatch):
    estimate = enh.estimate_frequency

    def scaled(img, orient):
        freq = estimate(img, orient)
        return replace(freq, freq=freq.freq * 1.25)

    monkeypatch.setattr(enh, "estimate_frequency", scaled)


def _no_gabor(monkeypatch):
    # binarize the masked capture: recoverable pixels as captured
    def masked(img, orient, freq, mask):
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


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_planted_frequency_defect_fails_its_floor_at_period_6(family, truths, monkeypatch):
    _freq_times_1_25(monkeypatch)
    scores = family_scores(family, truths, SHORT_PERIOD)
    assert "freq median" in failed_floors(scores, SHORT_FLOORS)
