"""Scoring of detected minutiae against ground truth: per-image matching,
sensitivity/specificity, dataset aggregation and the two report formats."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .enhance import Rejection
from .minutiae import MinutiaeSet, close_pairs

DEFAULT_TOLERANCE = 8.0  # px, ~0.4 mm at 500 dpi


@dataclass(frozen=True)
class MatchResult:
    """One image's score. The counts and SEN/SPE derive from the pairs and
    the two set sizes, so they cannot disagree."""

    image_id: str
    pairs: tuple[tuple[int, int, float], ...]  # (detected idx, truth idx, distance)
    detected_count: int
    ground_truth_count: int

    @property
    def matched(self) -> int:
        return len(self.pairs)

    @property
    def missed(self) -> int:
        return self.ground_truth_count - self.matched

    @property
    def false_count(self) -> int:
        return self.detected_count - self.matched

    @property
    def sen(self) -> float:
        """1 - missed / ground truth."""
        return 1.0 - self.missed / self._ground_truth()

    @property
    def spe(self) -> float:
        """1 - false / ground truth; negative when false > ground truth."""
        return 1.0 - self.false_count / self._ground_truth()

    def _ground_truth(self) -> int:
        if self.ground_truth_count <= 0:
            raise ValueError("metrics undefined for empty ground truth")
        return self.ground_truth_count


@dataclass(frozen=True)
class AggregateReport:
    mean_sen: float
    mean_spe: float
    sd_sen: float
    sd_spe: float
    n: int


@dataclass(frozen=True)
class EvalRun:
    """One evaluation: the scored images, and the rejected and error rows,
    each in image-id order. Both report files are written from it."""

    results: tuple[MatchResult, ...]
    rejected: tuple[tuple[str, Rejection], ...]
    errors: tuple[tuple[str, str], ...]

    @property
    def report(self) -> AggregateReport | None:
        """The summary of the results; None when no image was scored."""
        return aggregate(self.results) if self.results else None


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
    if not tolerance > 0:
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

    return MatchResult(detected.image_id, tuple(pairs), len(det), len(tru))


def aggregate(results: Sequence[MatchResult]) -> AggregateReport:
    """Arithmetic mean and sample standard deviation (divisor n-1) over
    per-image SEN/SPE; a single image yields SD 0 by convention."""
    if not results:
        raise ValueError("cannot aggregate an empty result list")
    n = len(results)
    sens = [r.sen for r in results]
    spes = [r.spe for r in results]
    mean_sen = sum(sens) / n
    mean_spe = sum(spes) / n
    if n == 1:
        sd_sen = sd_spe = 0.0
    else:
        sd_sen = math.sqrt(sum((s - mean_sen) ** 2 for s in sens) / (n - 1))
        sd_spe = math.sqrt(sum((s - mean_spe) ** 2 for s in spes) / (n - 1))
    return AggregateReport(mean_sen, mean_spe, sd_sen, sd_spe, n)


def format_report_text(run: EvalRun, config_lines: Sequence[str]) -> str:
    """Human-readable report: per-image SEN/SPE plus a Mean/SD summary table.

    With no scored image only the config and the rejected and error lists
    are written.
    """
    out = ["minutiae evaluation report", "=" * 26, "", "config:"]
    out += [f"  {line}" for line in config_lines]
    out += ["", f"images evaluated: {len(run.results)}"]
    if run.rejected:
        out.append("rejected (excluded from means):")
        out += [f"  {image_id}  {rej.measure} {rej.recoverable_fraction:.3f}"
                for image_id, rej in run.rejected]
    if run.errors:
        out.append("errors (skipped):")
        out += [f"  {image_id}  {msg}" for image_id, msg in run.errors]
    report = run.report
    if report is None:
        return "\n".join(out) + "\n"
    out += ["", f"{'image':<24} {'SEN':>8} {'SPE':>8}"]
    out += [f"{r.image_id:<24} {r.sen:8.4f} {r.spe:8.4f}" for r in run.results]
    out += [
        "",
        f"{'':<6} {'SEN':>8} {'SPE':>8}",
        f"{'Mean':<6} {report.mean_sen:8.4f} {report.mean_spe:8.4f}",
        f"{'SD':<6} {report.sd_sen:8.4f} {report.sd_spe:8.4f}",
    ]
    if any(r.spe < 0 for r in run.results):
        out += ["", "note: negative specificity = more false detections than ground-truth minutiae"]
    return "\n".join(out) + "\n"


def _csv_field(text: str) -> str:
    """text as one CSV field, quoted as RFC 4180 does when it holds a comma,
    a double quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def format_report_csv(run: EvalRun, config_lines: Sequence[str]) -> str:
    """Machine-readable report: one row per scored image plus mean/sd
    summary rows (none of either with no scored image), then the rejected
    and error rows."""
    out = [f"# {line}" for line in config_lines]
    out.append("record,image_id,sen,spe,matched,missed,false_count,ground_truth")
    for r in run.results:
        out.append(f"image,{_csv_field(r.image_id)},{r.sen:.6f},{r.spe:.6f},"
                   f"{r.matched},{r.missed},{r.false_count},{r.ground_truth_count}")
    report = run.report
    if report is not None:
        out.append(f"mean,,{report.mean_sen:.6f},{report.mean_spe:.6f},,,,")
        out.append(f"sd,,{report.sd_sen:.6f},{report.sd_spe:.6f},,,,")
    for image_id, rej in run.rejected:
        out.append(f"rejected,{_csv_field(image_id)},,,,,,{rej.recoverable_fraction:.6f}")
    for image_id, msg in run.errors:
        out.append(f"error,{_csv_field(image_id)},{_csv_field(msg.replace(',', ';'))},,,,,")
    return "\n".join(out) + "\n"
