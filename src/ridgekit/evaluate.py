"""Scoring of detected minutiae against ground truth: per-image matching,
sensitivity/specificity, and dataset aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .enhance import Rejection
from .minutiae import MinutiaeSet, close_pairs

DEFAULT_TOLERANCE = 8.0  # px, ~0.4 mm at 500 dpi


@dataclass(frozen=True)
class MatchResult:
    image_id: str
    matched: int
    missed: int
    false_count: int
    ground_truth_count: int
    pairs: tuple[tuple[int, int, float], ...]  # (detected idx, truth idx, distance)

    def __post_init__(self):
        if self.matched + self.missed != self.ground_truth_count:
            raise ValueError("matched + missed must equal ground_truth_count")
        if self.matched != len(self.pairs):
            raise ValueError("matched must equal the number of pairs")


@dataclass(frozen=True)
class Metrics:
    sen: float  # 1 - missed / ground truth
    spe: float  # 1 - false / ground truth; negative when false > ground truth


@dataclass(frozen=True)
class AggregateReport:
    per_image: tuple[tuple[str, Metrics], ...]
    mean_sen: float
    mean_spe: float
    sd_sen: float
    sd_spe: float
    n: int


def match_minutiae(
    detected: MinutiaeSet, truth: MinutiaeSet, tolerance: float = DEFAULT_TOLERANCE
) -> MatchResult:
    """One-to-one pairing, greedy by ascending Euclidean distance.

    Only pairs within `tolerance` px pair up; kind is not required to match.
    Unpaired truth minutiae are missed, unpaired detections are false.
    Candidate pairs come from a search of y-sorted truth within the
    tolerance box (close_pairs), not from all detection/truth pairs.
    """
    if detected.image_id != truth.image_id:
        raise ValueError(
            f"image_id mismatch: {detected.image_id!r} vs {truth.image_id!r}"
        )
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")

    # every pair within tolerance lies in the Chebyshev box of that radius
    det, tru = detected.minutiae, truth.minutiae
    near_i, near_j = close_pairs(det, tru, tolerance)
    candidates = []
    for i, j in zip(near_i.tolist(), near_j.tolist()):
        dist = math.hypot(det[i].x - tru[j].x, det[i].y - tru[j].y)
        if dist <= tolerance:
            candidates.append((dist, i, j))
    candidates.sort()

    used_d: set[int] = set()
    used_t: set[int] = set()
    pairs = []
    for dist, i, j in candidates:
        if i in used_d or j in used_t:
            continue
        used_d.add(i)
        used_t.add(j)
        pairs.append((i, j, dist))

    matched = len(pairs)
    return MatchResult(
        image_id=detected.image_id,
        matched=matched,
        missed=len(truth.minutiae) - matched,
        false_count=len(detected.minutiae) - matched,
        ground_truth_count=len(truth.minutiae),
        pairs=tuple(pairs),
    )


def compute_metrics(result: MatchResult) -> Metrics:
    """sen = 1 - missed/GT, spe = 1 - false/GT; undefined for empty GT."""
    gt = result.ground_truth_count
    if gt <= 0:
        raise ValueError("metrics undefined for empty ground truth")
    return Metrics(
        sen=1.0 - result.missed / gt,
        spe=1.0 - result.false_count / gt,
    )


def aggregate(per_image: Sequence[tuple[str, Metrics]]) -> AggregateReport:
    """Arithmetic mean and sample standard deviation (divisor n-1) over
    per-image metrics; a single image yields SD 0 by convention."""
    if not per_image:
        raise ValueError("cannot aggregate an empty metrics list")
    n = len(per_image)
    sens = [m.sen for _, m in per_image]
    spes = [m.spe for _, m in per_image]
    mean_sen = sum(sens) / n
    mean_spe = sum(spes) / n
    if n == 1:
        sd_sen = sd_spe = 0.0
    else:
        sd_sen = math.sqrt(sum((s - mean_sen) ** 2 for s in sens) / (n - 1))
        sd_spe = math.sqrt(sum((s - mean_spe) ** 2 for s in spes) / (n - 1))
    return AggregateReport(
        per_image=tuple(per_image),
        mean_sen=mean_sen,
        mean_spe=mean_spe,
        sd_sen=sd_sen,
        sd_spe=sd_spe,
        n=n,
    )


def format_report_text(
    report: AggregateReport | None,
    config_lines: Sequence[str],
    rejected: Sequence[tuple[str, Rejection]] = (),
    errors: Sequence[tuple[str, str]] = (),
) -> str:
    """Human-readable report: per-image metrics plus a Mean/SD summary table.

    With no report (no image evaluated) only the config and the rejected
    and error lists are written.
    """
    out = ["minutiae evaluation report", "=" * 26, "", "config:"]
    out += [f"  {line}" for line in config_lines]
    out += ["", f"images evaluated: {0 if report is None else report.n}"]
    if rejected:
        out.append("rejected (excluded from means):")
        out += [f"  {image_id}  {rej.measure} {rej.recoverable_fraction:.3f}"
                for image_id, rej in rejected]
    if errors:
        out.append("errors (skipped):")
        out += [f"  {image_id}  {msg}" for image_id, msg in errors]
    if report is None:
        return "\n".join(out) + "\n"
    out += ["", f"{'image':<24} {'SEN':>8} {'SPE':>8}"]
    for image_id, m in report.per_image:
        out.append(f"{image_id:<24} {m.sen:8.4f} {m.spe:8.4f}")
    out += [
        "",
        f"{'':<6} {'SEN':>8} {'SPE':>8}",
        f"{'Mean':<6} {report.mean_sen:8.4f} {report.mean_spe:8.4f}",
        f"{'SD':<6} {report.sd_sen:8.4f} {report.sd_spe:8.4f}",
    ]
    if any(m.spe < 0 for _, m in report.per_image):
        out += ["", "note: negative specificity = more false detections than ground-truth minutiae"]
    return "\n".join(out) + "\n"


def format_report_csv(
    report: AggregateReport | None,
    config_lines: Sequence[str],
    results: Sequence[MatchResult] = (),
    rejected: Sequence[tuple[str, Rejection]] = (),
    errors: Sequence[tuple[str, str]] = (),
) -> str:
    """Machine-readable report: one row per image plus mean/sd summary rows
    (none of either with no report), then the rejected and error rows."""
    by_id = {r.image_id: r for r in results}
    out = [f"# {line}" for line in config_lines]
    out.append("record,image_id,sen,spe,matched,missed,false_count,ground_truth")
    if report is not None:
        for image_id, m in report.per_image:
            r = by_id.get(image_id)
            detail = (
                f"{r.matched},{r.missed},{r.false_count},{r.ground_truth_count}"
                if r is not None
                else ",,,"
            )
            out.append(f"image,{image_id},{m.sen:.6f},{m.spe:.6f},{detail}")
        out.append(f"mean,,{report.mean_sen:.6f},{report.mean_spe:.6f},,,,")
        out.append(f"sd,,{report.sd_sen:.6f},{report.sd_spe:.6f},,,,")
    for image_id, rej in rejected:
        out.append(f"rejected,{image_id},,,,,,{rej.recoverable_fraction:.6f}")
    for image_id, msg in errors:
        out.append(f"error,{image_id},{msg.replace(',', ';')},,,,,")
    return "\n".join(out) + "\n"
