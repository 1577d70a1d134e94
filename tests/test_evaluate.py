import csv
import io
import itertools
import math

import numpy as np
import pytest

from ridgekit.enhance import Rejection
from ridgekit.evaluate import (
    EvalRun,
    MatchResult,
    aggregate,
    format_report_csv,
    format_report_text,
    match_minutiae,
)
from ridgekit.minutiae import BIFURCATION, ENDING, Minutia, MinutiaeSet


def mset(image_id, points, kind=ENDING):
    return MinutiaeSet(
        image_id, tuple(Minutia(x, y, kind, 0.0) for x, y in points), "postprocessed"
    )


def best_assignment_counts(detected, truth, tolerance):
    """Brute-force optimal assignment oracle: maximize matches."""
    best = 0
    d_pts = [(m.x, m.y) for m in detected.minutiae]
    t_pts = [(m.x, m.y) for m in truth.minutiae]
    k = min(len(d_pts), len(t_pts))
    for size in range(k, -1, -1):
        if size <= best:
            break
        for d_sel in itertools.combinations(range(len(d_pts)), size):
            for t_perm in itertools.permutations(range(len(t_pts)), size):
                if all(
                    math.hypot(
                        d_pts[i][0] - t_pts[j][0], d_pts[i][1] - t_pts[j][1]
                    ) <= tolerance
                    for i, j in zip(d_sel, t_perm)
                ):
                    best = max(best, size)
                    break
            if best == size:
                break
    return len(t_pts) - best, len(d_pts) - best  # missed, false


def test_match_identity():
    pts = [(10, 10), (40, 40), (80, 20), (10, 90)]
    r = match_minutiae(mset("a", pts), mset("a", pts), 8.0)
    assert (r.matched, r.missed, r.false_count) == (4, 0, 0)
    assert all(d == 0.0 for _, _, d in r.pairs)


def test_match_empty_detected():
    truth = mset("a", [(i * 10, i * 10) for i in range(10)])
    r = match_minutiae(mset("a", []), truth, 8.0)
    assert (r.matched, r.missed, r.false_count) == (0, 10, 0)


def test_match_kind_not_required():
    d = mset("a", [(10, 10)], kind=BIFURCATION)
    t = mset("a", [(12, 10)], kind=ENDING)
    assert match_minutiae(d, t, 8.0).matched == 1


def test_match_respects_tolerance():
    d = mset("a", [(0, 0)])
    t = mset("a", [(0, 9)])
    assert match_minutiae(d, t, 8.0).matched == 0
    assert match_minutiae(d, t, 9.0).matched == 1


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan])
def test_match_refuses_a_tolerance_that_is_not_positive(tolerance):
    # a NaN tolerance compares false with every distance: a perfect match would score 0
    pts = [(10, 10), (40, 40)]
    with pytest.raises(ValueError, match="^tolerance must be positive$"):
        match_minutiae(mset("a", pts), mset("a", pts), tolerance)


def test_match_image_id_mismatch():
    with pytest.raises(ValueError):
        match_minutiae(mset("a", [(1, 1)]), mset("b", [(1, 1)]), 8.0)


@pytest.mark.parametrize("seed", range(8))
def test_match_against_assignment_oracle(seed):
    # unambiguous layouts: all pairwise gaps > tolerance/2
    rng = np.random.default_rng(seed)
    tolerance = 8.0
    while True:
        d_pts = [tuple(p) for p in rng.integers(0, 100, (5, 2))]
        t_pts = [tuple(p) for p in rng.integers(0, 100, (4, 2))]
        all_pts = d_pts + t_pts
        gaps = [
            math.hypot(a[0] - b[0], a[1] - b[1])
            for a, b in itertools.combinations(all_pts, 2)
        ]
        if all(g > tolerance / 2 or g == 0.0 for g in gaps):
            break
    d, t = mset("a", d_pts), mset("a", t_pts)
    r = match_minutiae(d, t, tolerance)
    missed, false = best_assignment_counts(d, t, tolerance)
    assert (r.missed, r.false_count) == (missed, false)


def test_match_symmetric_counts():
    rng = np.random.default_rng(3)
    a = mset("x", [tuple(p) for p in rng.integers(0, 60, (6, 2))])
    b = mset("x", [tuple(p) for p in rng.integers(0, 60, (4, 2))])
    r1 = match_minutiae(a, b, 8.0)
    r2 = match_minutiae(b, a, 8.0)
    assert r1.matched == r2.matched
    assert (r1.missed, r1.false_count) == (r2.false_count, r2.missed)


def test_match_result_bookkeeping_identities():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = mset("x", [tuple(p) for p in rng.integers(0, 50, (rng.integers(0, 8), 2))])
        t = mset("x", [tuple(p) for p in rng.integers(0, 50, (rng.integers(1, 8), 2))])
        try:
            r = match_minutiae(d, t, 8.0)
        except ValueError:  # duplicate random coordinates
            continue
        assert r.matched + r.missed == r.ground_truth_count
        assert r.matched + r.false_count == len(d.minutiae)
        assert all(dist <= 8.0 for _, _, dist in r.pairs)


def _reference_match(detected, truth, tolerance):
    """match_minutiae over all detection/truth pairs, the reference for its
    windowed candidate search."""
    candidates = []
    for i, d in enumerate(detected.minutiae):
        for j, t in enumerate(truth.minutiae):
            dist = math.hypot(d.x - t.x, d.y - t.y)
            if dist <= tolerance:
                candidates.append((dist, i, j))
    candidates.sort()
    used_d, used_t, pairs = set(), set(), []
    for dist, i, j in candidates:
        if i in used_d or j in used_t:
            continue
        used_d.add(i)
        used_t.add(j)
        pairs.append((i, j, dist))
    return MatchResult(detected.image_id, tuple(pairs), len(detected.minutiae), len(truth.minutiae))


def _unique_points(rng, n, size):
    flat = rng.choice(size * size, n, replace=False)
    return [(int(k % size), int(k // size)) for k in flat]


@pytest.mark.parametrize("tolerance", [8.0, 5.0, math.sqrt(50), 1.0, 20.5])
def test_match_equals_reference_on_dense_random_sets(tolerance):
    # small grid, many points: plenty of equal-distance ties like (3, 4)/(5, 0)
    rng = np.random.default_rng(int(tolerance * 100))
    for _ in range(20):
        d = mset("r", _unique_points(rng, int(rng.integers(0, 60)), 30))
        t = mset("r", _unique_points(rng, int(rng.integers(1, 60)), 30))
        r = match_minutiae(d, t, tolerance)
        assert r == _reference_match(d, t, tolerance)
        assert all(type(i) is int and type(j) is int and type(x) is float for i, j, x in r.pairs)


def test_match_equals_reference_on_hand_built_ties():
    # detections at equal distance from several truths, and truths at equal
    # distance from several detections
    truth = mset("t", [(10, 10), (20, 10), (15, 15), (15, 5), (40, 40), (44, 43), (35, 40),
                       (70, 70)])
    detected = mset("t", [(15, 10), (40, 43), (44, 40), (38, 40), (29, 10), (73, 70), (67, 70)])
    for tolerance in (3.0, 5.0, 8.0):
        r = match_minutiae(detected, truth, tolerance)
        assert r == _reference_match(detected, truth, tolerance)
    assert (0, 0, 5.0) in r.pairs  # (15, 10): four truths at 5, lowest index wins
    assert (5, 7, 3.0) in r.pairs  # (70, 70): two detections at 3, lowest index wins


def scored(image_id, matched, false, gt):
    """A MatchResult of `matched` pairs, `false` unpaired detections and
    `gt` truth minutiae."""
    return MatchResult(image_id, tuple((i, i, 0.0) for i in range(matched)), matched + false, gt)


def test_match_result_counts_derive_from_pairs_and_sizes():
    r = scored("a", 7, 2, 10)
    assert (r.matched, r.missed, r.false_count, r.ground_truth_count) == (7, 3, 2, 10)


def test_metrics_formulas():
    r = scored("a", 8, 0, 10)
    assert r.sen == pytest.approx(0.8, abs=1e-12)
    r = scored("a", 7, 1, 8)
    assert r.spe == pytest.approx(0.875, abs=1e-12)
    r = scored("a", 5, 0, 5)
    assert (r.sen, r.spe) == (1.0, 1.0)


def test_metrics_zero_ground_truth_errors():
    r = scored("a", 0, 3, 0)
    for metric in ("sen", "spe"):
        with pytest.raises(ValueError, match="^metrics undefined for empty ground truth$"):
            getattr(r, metric)


def test_metrics_negative_specificity_reported_raw():
    r = scored("a", 2, 5, 2)
    assert r.spe == pytest.approx(1.0 - 5 / 2)
    assert r.spe < 0


def test_aggregate_single():
    rep = aggregate([scored("a", 8, 1, 10)])
    assert rep.mean_sen == 0.8 and rep.sd_sen == 0.0 and rep.n == 1


def test_aggregate_hand_computed_sd():
    rep = aggregate([scored("a", 7, 3, 10), scored("b", 9, 1, 10)])
    assert rep.mean_sen == pytest.approx(0.8)
    assert rep.sd_sen == pytest.approx(math.sqrt(0.02), abs=1e-12)
    assert rep.sd_sen == pytest.approx(0.1414, abs=1e-4)


def test_aggregate_constant_zero_sd():
    rep = aggregate([scored(f"i{k}", 5, 4, 10) for k in range(7)])
    assert rep.sd_sen == 0.0 and rep.sd_spe == 0.0


def test_aggregate_empty_errors():
    with pytest.raises(ValueError):
        aggregate([])


def test_identity_extractor_means():
    # extractor that returns the truth itself: SEN = SPE = 1, SD = 0
    results = []
    rng = np.random.default_rng(2)
    for k in range(10):
        pts = [tuple(p) for p in rng.integers(0, 200, (10, 2))]
        try:
            truth = mset(f"img{k}", pts)
        except ValueError:
            continue
        results.append(match_minutiae(truth, truth, 8.0))
    rep = aggregate(results)
    assert rep.mean_sen == 1.0 and rep.mean_spe == 1.0
    assert rep.sd_sen == 0.0 and rep.sd_spe == 0.0


def test_report_formats():
    run = EvalRun(
        (scored("a", 8, 1, 10), scored("b", 2, 3, 2)),
        (("c", Rejection(0.1, 0.25, "coherent share")),),
        (("d", "boom"),),
    )
    assert (run.report.mean_sen, run.report.mean_spe) == pytest.approx((0.9, 0.2))
    text = format_report_text(run, ["tolerance = 8.0"])
    assert "Mean" in text and "SD" in text and "SEN" in text and "SPE" in text
    assert "\n  c  coherent share 0.100\n" in text and "boom" in text
    assert "negative specificity" in text
    lines = format_report_csv(run, ["tolerance = 8.0"]).splitlines()
    assert lines[0] == "# tolerance = 8.0"
    assert "image,a,0.800000,0.900000,8,2,1,10" in lines
    assert "image,b,1.000000,-0.500000,2,0,3,2" in lines
    assert any(line.startswith("mean,,0.900000") for line in lines)
    assert "rejected,c,,,,,,0.100000" in lines
    assert any(line.startswith("error,d") for line in lines)


@pytest.mark.parametrize("image_id", ["scan,1", 'say "hi"', "two\nlines", "cr\rid"])
def test_report_csv_quotes_an_id_with_a_separator(image_id):
    run = EvalRun(
        (scored(image_id, 8, 1, 10),),
        ((image_id, Rejection(0.1, 0.25, "coherent share")),),
        ((image_id, "bad, truth"),),
    )
    rows = list(csv.reader(io.StringIO(format_report_csv(run, []), newline="")))
    assert rows[0] == "record,image_id,sen,spe,matched,missed,false_count,ground_truth".split(",")
    records = {row[0]: row for row in rows[1:]}
    assert all(len(row) == 8 for row in rows)
    for record in ("image", "rejected", "error"):
        assert records[record][1] == image_id
    assert records["error"][2] == "bad; truth"
