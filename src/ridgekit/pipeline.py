"""End-to-end workflows: single-image extraction, batch evaluation, and
synthetic corpus generation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import enhance as enh
from .binary import BinaryImage, auto_threshold, binarize, thin
from .config import PipelineConfig
from .evaluate import EvalRun, format_report_csv, format_report_text, match_minutiae
from .image import GrayImage, invert, load_pgm, save_pgm
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

    Stages: orientation estimation (possible rejection by the coherence
    gate, straight after the per-block gradient sums, before the orientation
    field is formed), frequency estimation, region mask (possible
    rejection), Gabor enhancement, polarity inversion (ridges are dark in
    scan polarity; thresholding wants ridge=1), binarization, thinning,
    minutiae extraction, post-processing. The front end reads the 8-bit
    capture itself. An image with no recoverable block (possible only at
    reject_threshold 0) has no ridge and so no minutiae.
    """
    if img.width < 32 or img.height < 32:
        raise ValueError(
            f"image {img.width}x{img.height} too small; the block-wise "
            "estimators need at least 32x32"
        )
    orient = enh.estimate_orientation(img, config)
    if isinstance(orient, enh.Rejection):
        return ExtractOutcome(image_id, None, orient)
    freq = enh.estimate_frequency(img, orient, config)
    mask = enh.compute_region_mask(img, orient, freq, config)
    if isinstance(mask, enh.Rejection):
        return ExtractOutcome(image_id, None, mask)

    enhanced = enh.gabor_enhance(img, orient, freq, mask, config)
    work = invert(enhanced)  # ridges become bright so that ridge => 1
    if mask.labels.any():
        bin_img = binarize(work, auto_threshold(work, mask))
    else:  # no recoverable pixel to choose a threshold from
        bin_img = BinaryImage(np.zeros_like(work.pixels))
    skel = thin(bin_img)
    raw = extract_minutiae(skel, image_id)
    final, _ = postprocess(raw, skel, config)

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
    return _extract_and_write(load_pgm(image_path), image_path.stem, config, out_dir)


def _extract_and_write(img: GrayImage, stem: str, config: PipelineConfig,
                       out_dir: str | Path) -> ExtractOutcome:
    """run_extract on a loaded image."""
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
    stem, Rejection) or ("error", stem, message). The truth, and its width
    and height against the image's, are checked before extraction, so an
    image that cannot be scored writes no minutiae file. A message names
    the truth file and the image by their file names, so the report does not
    depend on where the directories live or how they were given.
    """
    stem = Path(image_path).stem
    truth_path = Path(truth_path)
    try:
        if not truth_path.exists():
            raise ValueError(f"missing truth file {truth_path.name}")
        truth, width, height = read_minutiae(truth_path)
        if not truth.minutiae:
            raise ValueError("metrics undefined for empty ground truth")
        img = load_pgm(image_path)
        if (width, height) != (img.width, img.height):
            raise ValueError(f"truth is {width}x{height}, image is {img.width}x{img.height}")
        outcome = _extract_and_write(img, stem, config, out_dir)
        if outcome.rejected:
            return ("rejected", stem, outcome.rejection)
        truth = replace(truth, image_id=stem)
        return ("ok", stem, match_minutiae(outcome.minutiae, truth, config.tolerance))
    except Exception as exc:  # per-image failures must not sink the batch
        message = str(exc)
        for path in (truth_path, Path(image_path)):
            message = message.replace(str(path), path.name)
        return ("error", stem, message)


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
    errors and skipped. When a worker dies, the first image not yet
    collected runs again alone, in a fresh one-worker pool, and is an error
    only if that worker dies too; the rest go on in a fresh pool. Results
    are ordered by image id, so reports are identical for any worker count.
    An empty dataset raises before out_dir is created, as does a worker
    count below 1.
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
        # imported here: multiprocessing is needed only by a pool
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        raw = []  # rows come in job order, so job len(raw) is the first not collected
        while len(raw) < n:
            try:
                # ProcessPoolExecutor may start all max_workers processes up front
                with ProcessPoolExecutor(max_workers=min(workers, n - len(raw))) as pool:
                    for row in pool.map(_eval_one, *(column[len(raw):] for column in jobs)):
                        raw.append(row)
            except BrokenProcessPool:  # a worker died: the first job missing runs alone
                alone = [column[len(raw) : len(raw) + 1] for column in jobs]
                try:
                    with ProcessPoolExecutor(max_workers=1) as pool:
                        raw += pool.map(_eval_one, *alone)
                except BrokenProcessPool:
                    raw.append(("error", Path(alone[0][0]).stem, "worker process died"))
    else:
        raw = list(map(_eval_one, *jobs))

    # stems are unique; _eval_one renames the truth to the stem, so each
    # result's image_id is its stem
    raw.sort(key=lambda row: row[1])
    run = EvalRun(
        tuple(value for kind, _, value in raw if kind == "ok"),
        tuple((stem, value) for kind, stem, value in raw if kind == "rejected"),
        tuple((stem, value) for kind, stem, value in raw if kind == "error"),
    )
    config_lines = config.echo_lines()
    (out_dir / "report.txt").write_text(format_report_text(run, config_lines), encoding="utf-8")
    (out_dir / "report.csv").write_text(format_report_csv(run, config_lines), encoding="utf-8")
    return run


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
