"""End-to-end workflows: single-image extraction, batch evaluation, and
synthetic corpus generation."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import enhance as enh
from .binary import auto_threshold, binarize, thin
from .config import PipelineConfig
from .evaluate import (
    AggregateReport,
    MatchResult,
    aggregate,
    compute_metrics,
    format_report_csv,
    format_report_text,
    match_minutiae,
)
from .image import GrayImage, invert, load_pgm, normalize, save_pgm
from .minutiae import MinutiaeSet, extract_minutiae, postprocess, read_minutiae, write_minutiae
from .synth import generate, parse_synth_spec


@dataclass(frozen=True)
class ExtractOutcome:
    image_id: str
    minutiae: MinutiaeSet | None
    rejection: enh.Rejection | None
    intermediates: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def rejected(self) -> bool:
        return self.rejection is not None


def extract_from_image(img: GrayImage, image_id: str, config: PipelineConfig) -> ExtractOutcome:
    """Run the full extraction pipeline on an in-memory image.

    Stages: normalize, orientation + frequency estimation, region mask
    (possible rejection), Gabor enhancement, polarity inversion (ridges are
    dark in scan polarity; thresholding wants ridge=1), binarization,
    thinning, minutiae extraction, post-processing.
    """
    if img.width < 32 or img.height < 32:
        raise ValueError(
            f"image {img.width}x{img.height} too small; the block-wise "
            "estimators need at least 32x32"
        )
    norm = normalize(img, config.target_mean, config.target_variance)
    orient = enh.estimate_orientation(norm, config.block_size, config.smooth_sigma)
    freq = enh.estimate_frequency(norm, orient, config.freq_window)
    mask = enh.compute_region_mask(
        norm, orient, freq,
        reject_threshold=config.reject_threshold,
        coherence_floor=config.coherence_floor,
        variance_floor=config.variance_floor,
    )
    if isinstance(mask, enh.Rejection):
        return ExtractOutcome(image_id, None, mask)

    enhanced = enh.gabor_enhance(norm, orient, freq, mask, config.sigma)
    work = invert(enhanced)  # ridges become bright so that ridge => 1
    bin_img = binarize(work, auto_threshold(work, mask))
    skel = thin(bin_img)
    raw = extract_minutiae(skel, image_id)
    final, _ = postprocess(raw, skel, config.postprocess_params())

    return ExtractOutcome(image_id, final, None, {
        "enhanced": enhanced, "binary": bin_img, "skeleton": skel,
        "orientation": orient, "frequency": freq,
    })


def run_extract(image_path: str | Path, config: PipelineConfig, out_dir: str | Path) -> ExtractOutcome:
    """Extract minutiae from a PGM file and write the minutiae file.

    With dump_intermediates set, also writes the enhanced/binary/skeleton
    PGMs and the orientation/frequency text grids (five artifacts). out_dir
    is created only when there is something to write, so a missing,
    unreadable or rejected image leaves no directory behind.
    """
    image_path = Path(image_path)
    img = load_pgm(image_path)
    stem = image_path.stem
    outcome = extract_from_image(img, stem, config)
    if outcome.rejected:
        return outcome

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_minutiae(out_dir / f"{stem}.txt", outcome.minutiae, img.width, img.height)
    if config.dump_intermediates:
        inter = outcome.intermediates
        save_pgm(inter["enhanced"], out_dir / f"{stem}_enhanced.pgm")
        save_pgm(inter["binary"], out_dir / f"{stem}_binary.pgm")
        save_pgm(inter["skeleton"], out_dir / f"{stem}_skeleton.pgm")
        (out_dir / f"{stem}_orientation.txt").write_text(
            enh.orientation_to_text(inter["orientation"]), encoding="utf-8"
        )
        (out_dir / f"{stem}_frequency.txt").write_text(
            enh.frequency_to_text(inter["frequency"]), encoding="utf-8"
        )
    return outcome


def _eval_one(image_path: str, truth_path: str, config: PipelineConfig, out_dir: str):
    """Worker body for one dataset image; must stay picklable.

    Returns (kind, stem, value): ("ok", stem, MatchResult), ("rejected",
    stem, recoverable fraction) or ("error", stem, message). The truth is
    checked before extraction, so an image that cannot be scored writes
    no minutiae file.
    """
    stem = Path(image_path).stem
    try:
        truth_path = Path(truth_path)
        if not truth_path.exists():
            raise ValueError(f"missing truth file {truth_path.name}")
        truth, _, _ = read_minutiae(truth_path)
        if not truth.minutiae:
            raise ValueError("metrics undefined for empty ground truth")
        outcome = run_extract(image_path, config, out_dir)
        if outcome.rejected:
            return ("rejected", stem, outcome.rejection.recoverable_fraction)
        truth = replace(truth, image_id=stem)
        return ("ok", stem, match_minutiae(outcome.minutiae, truth, config.tolerance))
    except Exception as exc:  # per-image failures must not sink the batch
        return ("error", stem, str(exc))


@dataclass(frozen=True)
class EvalRun:
    report: AggregateReport | None
    results: tuple[MatchResult, ...]
    rejected: tuple[tuple[str, float], ...]
    errors: tuple[tuple[str, str], ...]


def run_eval(
    dataset_dir: str | Path,
    truth_dir: str | Path,
    config: PipelineConfig,
    out_dir: str | Path,
    workers: int = 1,
) -> EvalRun:
    """Evaluate every PGM in dataset_dir against same-stem truth files.

    Each image goes through run_extract, so out_dir gets the same minutiae
    files (and, with dump_intermediates, the same dumps) as `extract`, plus
    report.txt / report.csv. Rejected images are listed separately and
    excluded from the means; images with missing or empty truth, that
    fail to load or extract, or whose worker process died are reported as
    errors and skipped. Results are ordered by image id, so reports are
    identical for any worker count. An empty dataset raises before out_dir
    is created, as does a worker count below 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    images = sorted(Path(dataset_dir).glob("*.pgm"))
    if not images:
        raise ValueError(f"no PGM images found in {dataset_dir}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    n = len(images)
    jobs = (
        [str(p) for p in images],
        [str(Path(truth_dir) / f"{p.stem}.txt") for p in images],
        [config] * n,
        [str(out_dir)] * n,
    )
    if workers > 1 and n > 1:
        raw = []
        try:
            # ProcessPoolExecutor may start all max_workers processes up front
            with ProcessPoolExecutor(max_workers=min(workers, n)) as pool:
                for row in pool.map(_eval_one, *jobs):
                    raw.append(row)
        except BrokenProcessPool:  # rows come in job order; no later one will
            raw += [("error", Path(p).stem, "worker process died") for p in jobs[0][len(raw):]]
    else:
        raw = list(map(_eval_one, *jobs))

    rows: dict[str, list] = {"ok": [], "rejected": [], "error": []}
    for kind, stem, value in raw:
        rows[kind].append((stem, value))
    # stems are unique; _eval_one renames the truth to the stem, so each
    # result's image_id is its stem
    results = [r for _, r in sorted(rows["ok"])]
    rejected, errors = sorted(rows["rejected"]), sorted(rows["error"])

    per_image = [(r.image_id, compute_metrics(r)) for r in results]
    report = aggregate(per_image) if per_image else None
    config_lines = config.echo_lines()
    (out_dir / "report.txt").write_text(
        format_report_text(report, config_lines, rejected, errors), encoding="utf-8"
    )
    (out_dir / "report.csv").write_text(
        format_report_csv(report, config_lines, results, rejected, errors), encoding="utf-8"
    )
    return EvalRun(report, tuple(results), tuple(rejected), tuple(errors))


def run_synth(spec_path: str | Path, count: int, out_dir: str | Path) -> list[Path]:
    """Generate `count` seeded images (seeds base..base+count-1) plus truth
    files. The count and the spec are validated before anything is written."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    base = parse_synth_spec(spec_path)
    specs = [replace(base, seed=base.seed + k) for k in range(count)]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for spec in specs:
        img, truth = generate(spec)
        stem = truth.image_id
        save_pgm(img, out_dir / f"{stem}.pgm")
        write_minutiae(out_dir / f"{stem}.txt", truth, img.width, img.height)
        written.append(out_dir / f"{stem}.pgm")
    return written
