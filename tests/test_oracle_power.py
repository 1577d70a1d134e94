"""Oracle power: planted defects that the corpus floors must catch.

Each defect is a monkeypatch of one pipeline stage; the test runs the
acceptance corpus through the patched pipeline and asserts that at least
one of criterion 9's floors fails. These are the five rows of ROADMAP item
12 that tests/test_stage_truth.py does not plant. A defect that no floor
catches yet is a strict xfail naming the item whose set will catch it, so
that item must promote it."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import CONFIG
from ridgekit import enhance as enh, pipeline
from ridgekit.evaluate import aggregate, match_minutiae
from ridgekit.minutiae import BIFURCATION, ENDING

# criterion 9 (tests/test_acceptance.py): no print rejected, mean SEN and
# SPE at least 0.80 with an 8 px tolerance
TOLERANCE = 8.0
MEAN_SEN = MEAN_SPE = 0.80


def failed_corpus_floors(corpus_prints):
    """The names of criterion 9's floors that the pipeline misses."""
    results, rejected = [], 0
    for img, truth in corpus_prints:
        outcome = pipeline.extract_from_image(img, truth.image_id, CONFIG)
        if outcome.rejected:
            rejected += 1
        else:
            results.append(match_minutiae(outcome.minutiae, truth, TOLERANCE))
    if not results:
        return {"rejections", "mean SEN", "mean SPE"}
    rep = aggregate(results)
    checks = {"rejections": rejected == 0, "mean SEN": rep.mean_sen >= MEAN_SEN,
              "mean SPE": rep.mean_spe >= MEAN_SPE}
    return {name for name, ok in checks.items() if not ok}


def _theta_plus_90(monkeypatch):
    estimate = enh.estimate_orientation

    def turned(img, config):
        orient = estimate(img, config)
        return replace(orient, theta=np.mod(orient.theta + np.pi / 2, np.pi))

    monkeypatch.setattr(enh, "estimate_orientation", turned)


def _no_postprocessing(monkeypatch):
    # the spur and adjacency windows 0; the border rule kept
    post = pipeline.postprocess

    def windows_0(mset, skel, config):
        return post(mset, skel, replace(config, spur_length=0, adjacency_window=0))

    monkeypatch.setattr(pipeline, "postprocess", windows_0)


def _kinds_swapped(monkeypatch):
    # before post-processing, which reads the kinds
    extract = pipeline.extract_minutiae
    other = {ENDING: BIFURCATION, BIFURCATION: ENDING}

    def swapped(skel, image_id):
        raw = extract(skel, image_id)
        return replace(raw, minutiae=[replace(m, kind=other[m.kind]) for m in raw.minutiae])

    monkeypatch.setattr(pipeline, "extract_minutiae", swapped)


def _each_output(change):
    """A defect that applies change to every minutia the pipeline outputs."""
    def plant(monkeypatch):
        post = pipeline.postprocess

        def changed(mset, skel, config):
            final, skel = post(mset, skel, config)
            return replace(final, minutiae=[change(m) for m in final.minutiae]), skel

        monkeypatch.setattr(pipeline, "postprocess", changed)
    return plant


def _uncaught(item):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"no corpus floor catches it yet; item {item}'s will")


DEFECTS = [
    pytest.param(_theta_plus_90, id="theta + 90 deg"),
    pytest.param(_no_postprocessing, id="no post-processing", marks=_uncaught("1")),
    pytest.param(_kinds_swapped, id="kinds swapped", marks=_uncaught("8b")),
    pytest.param(_each_output(lambda m: replace(m, direction=m.direction + math.pi)),
                 id="directions + pi", marks=_uncaught("8b")),
    pytest.param(_each_output(lambda m: replace(m, x=m.x + 3)), id="x + 3 px", marks=_uncaught("8b")),
]


def test_corpus_meets_its_floors(corpus_prints):
    assert failed_corpus_floors(corpus_prints) == set()


@pytest.mark.parametrize("plant", DEFECTS)
def test_planted_defect_fails_a_corpus_floor(plant, corpus_prints, monkeypatch):
    plant(monkeypatch)
    assert failed_corpus_floors(corpus_prints)
