"""The workload process: times ridgekit on one generated workload.

    python3 perfbench/measure.py --work DIR --seconds S --trace 0|1

DIR holds `data/*.pgm` and `truth/*.txt` (one per print; must-reject
captures have none). run.py starts this in a fresh interpreter, so that its
peak RSS covers this process and its pool workers only. The last line of
standard output is one JSON object: metrics, attempts, failures, output
digests and the problems found by the output checks.

The batch path is `run_eval` on prints. On must-reject captures it is
`run_extract` per file, because `run_eval` cannot score an accepted image
whose ground truth is empty; the eval metrics and `pipeline.run_eval_self_ms`
of the gate workload measure that batch.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import multiprocessing
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import ridgekit.pipeline as pipeline  # noqa: E402
from ridgekit.config import PipelineConfig  # noqa: E402
from ridgekit.enhance import RegionMask  # noqa: E402
from ridgekit.evaluate import match_minutiae  # noqa: E402
from ridgekit.image import load_pgm  # noqa: E402
from ridgekit.minutiae import MinutiaeSet, read_minutiae  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, traced_pipeline  # noqa: E402

CONFIG = PipelineConfig()
WORKERS = 2  # nproc of the reference machine; never more processes busy
SEN_SPE_FLOOR = 0.80  # acceptance criterion 9


class Run:
    """The images of one workload, the attempt tally and the problems the
    output checks found."""

    def __init__(self, work: Path, seconds: float):
        self.work = work
        self.data = work / "data"
        self.truth = work / "truth"
        self.seconds = seconds
        self.items = [
            (p.stem, load_pgm(p), (self.truth / f"{p.stem}.txt").exists())
            for p in sorted(self.data.glob("*.pgm"))
        ]
        if not self.items:
            raise SystemExit(f"no images in {self.data}")
        self.has_eval = all(is_print for _, _, is_print in self.items)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, tuple] = {}  # image id -> first outcome seen
        self.digests: dict[str, str] = {}  # mode -> digest of its output files
        self.report = None  # AggregateReport of the first run_eval
        self.speed: list[float] = []  # speed.factor() samples between timed units

    def verdict(self, is_print: bool, accepted: bool) -> None:
        """An attempt fails when a print is rejected or a non-print accepted."""
        self.attempted += 1
        self.failed += accepted != is_print

    def check_digest(self, mode: str, digest: str) -> None:
        if self.digests.setdefault(mode, digest) != digest:
            self.problems.append(f"{mode}: output files differ between passes")


def _signature(outcome) -> tuple:
    if outcome.rejected:
        return ("rejected", outcome.rejection.recoverable_fraction)
    return tuple((m.x, m.y, m.kind, m.direction) for m in outcome.minutiae.minutiae)


def serial_pass(run: Run, extract) -> list[tuple[str, float]]:
    """extract_from_image once per image, one at a time, with a speed
    sample after each. Returns (image id, seconds) per image that did not
    raise."""
    times = []
    for image_id, img, is_print in run.items:
        t0 = time.perf_counter()
        try:
            outcome = extract(img, image_id, CONFIG)
        except Exception as exc:  # a raising attempt fails; keep measuring
            run.attempted += 1
            run.failed += 1
            print(f"extract {image_id} raised {exc!r}", file=sys.stderr)
            continue
        times.append((image_id, time.perf_counter() - t0))
        run.speed.append(speed.factor())
        run.verdict(is_print, not outcome.rejected)
        signature = _signature(outcome)
        if run.reference.setdefault(image_id, signature) != signature:
            run.problems.append(f"extract_from_image output changed for {image_id}")
    return times


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def eval_pass(run: Run, run_eval, mode: str, workers: int) -> float:
    """run_eval over the workload once; returns seconds."""
    out = run.work / f"out_{mode}"
    shutil.rmtree(out, ignore_errors=True)
    run.speed.append(speed.factor())
    t0 = time.perf_counter()
    result = run_eval(run.data, run.truth, CONFIG, out, workers=workers)
    seconds = time.perf_counter() - t0
    run.attempted += len(run.items)
    run.failed += len(result.rejected) + len(result.errors)
    run.check_digest(mode, digest_dir(out))
    for r in result.results:  # run_eval wrote what extract_from_image found
        detected, _, _ = read_minutiae(out / f"{r.image_id}.txt")
        serial = run.reference.get(r.image_id)
        if serial is not None and [m[:3] for m in serial] != [
            (m.x, m.y, m.kind) for m in detected.minutiae
        ]:
            run.problems.append(f"{mode}: {r.image_id} differs from extract_from_image")
    run.report = run.report or result.report
    return seconds


def _capture(path: str, out_dir: str) -> tuple[str, bool]:
    """Pool worker body: one capture through run_extract."""
    return Path(path).stem, not pipeline.run_extract(path, CONFIG, out_dir).rejected


def capture_pass(run: Run, mode: str, pool: ProcessPoolExecutor | None,
                 run_extract) -> float:
    """The captures through run_extract, serially or on the pool; seconds."""
    out = run.work / f"out_{mode}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    paths = [str(run.data / f"{i}.pgm") for i, _, _ in run.items]
    run.speed.append(speed.factor())
    t0 = time.perf_counter()
    if pool is None:
        verdicts = [(Path(p).stem, not run_extract(p, CONFIG, out).rejected) for p in paths]
    else:
        verdicts = list(pool.map(_capture, paths, [str(out)] * len(paths)))
    seconds = time.perf_counter() - t0
    for (_, _, is_print), (_, accepted) in zip(run.items, verdicts):
        run.verdict(is_print, accepted)
    run.check_digest(mode, hashlib.sha256(
        (digest_dir(out) + repr(verdicts)).encode()).hexdigest())
    return seconds


def capture_pool() -> ProcessPoolExecutor:
    """WORKERS processes, started before timing. They are forked, as the
    pool of run_eval is, so both batch paths pay alike; fork also needs no
    resource-tracker process that would outlive the run."""
    pool = ProcessPoolExecutor(WORKERS, mp_context=multiprocessing.get_context("fork"))
    list(pool.map(time.sleep, [0.2] * WORKERS))
    return pool


def batch_pass(run: Run, mode: str, workers: int, pool=None, traced=None) -> float:
    """The workload's batch path once; `traced` is the traced pipeline."""
    api = traced or pipeline
    if run.has_eval:
        return eval_pass(run, api.run_eval, mode, workers)
    return capture_pass(run, mode, pool if workers > 1 else None, api.run_extract)


def peak_rss_mb(workers: int) -> float:
    """Sum of per-process peak RSS: this process plus `workers` times the
    largest peak among its reaped children (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def gate_accuracy(run: Run) -> tuple[float, float]:
    """SEN and SPE of the verdicts on captures that hold no print: SEN is
    the share rejected, SPE the share that yield no minutiae (any minutia
    found on a non-print is false)."""
    outcomes = [run.reference.get(image_id) for image_id, _, _ in run.items]
    rejected = sum(sig is not None and sig[:1] == ("rejected",) for sig in outcomes)
    empty = sum(sig == () for sig in outcomes)
    return rejected / len(outcomes), (rejected + empty) / len(outcomes)


def _warm(run: Run) -> None:
    image_id, img, _ = run.items[0]
    pipeline.extract_from_image(img, image_id, CONFIG)


def end_to_end(run: Run) -> dict[str, float]:
    """Rounds of one serial latency pass, one workers = 1 batch and one
    workers = 2 batch while another round fits in the time, so that a slow
    spell of the machine touches every metric alike. Latency percentiles
    are taken over the images of each image's median latency; throughputs
    are medians over the rounds. The serial timings are scaled to the
    reference speed (speed.py); the two-process throughput is not, since a
    one-thread kernel does not track it."""
    n = len(run.items)
    _warm(run)
    times: dict[str, list[float]] = {}
    w1, w2 = [], []
    with contextlib.ExitStack() as stack:
        pool = None if run.has_eval else stack.enter_context(capture_pool())
        start = time.perf_counter()
        while True:
            for image_id, seconds in serial_pass(run, pipeline.extract_from_image):
                times.setdefault(image_id, []).append(seconds)
            w1.append(n / batch_pass(run, "w1", 1))
            w2.append(n / batch_pass(run, "w2", WORKERS, pool))
            rounds = len(w1)
            if (time.perf_counter() - start) * (rounds + 1) / rounds > run.seconds:
                break  # another round of the same length would overrun
    if run.has_eval:
        report = run.report
        sen, spe = (report.mean_sen, report.mean_spe) if report else (0.0, 0.0)
        if min(sen, spe) < SEN_SPE_FLOOR:
            run.problems.append(f"mean SEN/SPE {sen:.3f}/{spe:.3f} below {SEN_SPE_FLOOR}")
    else:
        sen, spe = gate_accuracy(run)
    if run.digests["w1"] != run.digests["w2"]:
        run.problems.append("outputs differ between workers = 1 and workers = 2")
    f = speed.run_factor(run.speed)
    print(f"# {len(w1)} rounds over {n} images; speed factor {f:.4f}")
    per_image = [statistics.median(t) * 1e3 * f for t in times.values()]
    return {
        "latency_p50_ms": float(np.percentile(per_image, 50)),
        "latency_p90_ms": float(np.percentile(per_image, 90)),
        "eval_w1_img_per_s": statistics.median(w1) / f,
        "eval_w2_img_per_s": statistics.median(w2),
        "mean_sen": sen,
        "mean_spe": spe,
        "verdict_ok_ratio": 1.0 - run.failed / run.attempted,
        "peak_rss_mb": peak_rss_mb(WORKERS),
    }


STAGE_MS = (
    "image.normalize", "enhance.estimate_orientation", "enhance.estimate_frequency",
    "enhance.compute_region_mask", "enhance.gabor_enhance", "image.invert",
    "binary.auto_threshold", "binary.binarize", "binary.thin",
    "minutiae.extract_minutiae", "minutiae.postprocess",
)
BATCH_MS = ("image.load_pgm", "minutiae.write_minutiae", "evaluate.match_minutiae")


def count(name: str, result) -> dict | None:
    """Counters read from the public return values of traced calls."""
    if name == "enhance.compute_region_mask":
        if isinstance(result, RegionMask):
            return {"recoverable_blocks": int(result.labels.sum())}
        return {"rejected": 1}
    if name == "binary.binarize":
        return {"ridge_pixels": int(result.bits.sum())}
    if name == "binary.thin":
        return {"skeleton_pixels": int(result.bits.sum())}
    if name == "minutiae.extract_minutiae":
        return {"raw": len(result)}
    if name == "minutiae.postprocess":
        return {"final": len(result[0])}
    if name == "evaluate.match_minutiae":
        return {"matched": result.matched, "false_count": result.false_count}
    return None


def _totals(tracer: Tracer) -> tuple[Counter, Counter]:
    """Self milliseconds per span name, and every counter summed."""
    ms, counts = Counter(), Counter()
    for span, own in zip(tracer.spans, tracer.self_ns()):
        ms[span.name] += own / 1e6
        counts.update(span.counts or {})
    return ms, counts


def per_layer(run: Run) -> dict[str, float]:
    """Alternating untraced and traced serial passes (the difference of
    their p50 is the tracing overhead), then one untraced batch at each
    worker count and one traced batch at workers = 1. Span times are
    scaled to the reference speed."""
    n = len(run.items)
    _warm(run)
    stages, batch = Tracer(count), Tracer(count)
    plain, timed = [], []
    deadline = time.perf_counter() + 0.6 * run.seconds
    while not timed or time.perf_counter() < deadline:
        plain += serial_pass(run, pipeline.extract_from_image)
        with traced_pipeline(stages) as traced:
            timed += serial_pass(run, traced.extract_from_image)
    with contextlib.ExitStack() as stack:
        pool = None if run.has_eval else stack.enter_context(capture_pool())
        w1 = batch_pass(run, "w1", 1)
        w2 = batch_pass(run, "w2", WORKERS, pool)
    with traced_pipeline(batch) as traced:
        batch_pass(run, "traced", 1, traced=traced)
    batch_fn = "pipeline.run_eval"
    if not run.has_eval:
        # the evaluate layer on captures: every minutia found is false
        batch_fn = "pipeline.run_extract"
        score = batch.wrap("evaluate.match_minutiae", match_minutiae)
        for p in sorted((run.work / "out_traced").glob("*.txt")):
            detected, _, _ = read_minutiae(p)
            score(detected, MinutiaeSet(detected.image_id, (), detected.provenance))
    if len({run.digests.get(m) for m in ("w1", "w2", "traced")}) != 1:
        run.problems.append("outputs differ between workers = 1, workers = 2 and traced runs")

    images = sum(s.name == "pipeline.extract_from_image" for s in stages.spans)
    stage_ms, counts = _totals(stages)
    batch_ms, batch_counts = _totals(batch)
    f = speed.run_factor(run.speed)
    for ms in (stage_ms, batch_ms):
        for name in ms:
            ms[name] *= f
    metrics = {f"{name}_ms": stage_ms[name] / images for name in STAGE_MS}
    metrics.update({f"{name}_ms": batch_ms[name] / n for name in BATCH_MS})
    blocks = counts["recoverable_blocks"]
    metrics.update({
        "enhance.gabor_us_per_block": (
            stage_ms["enhance.gabor_enhance"] * 1e3 / blocks if blocks else 0.0),
        "enhance.recoverable_blocks": blocks / images,
        "enhance.reject_ratio": counts["rejected"] / images,
        "binary.ridge_pixels": counts["ridge_pixels"] / images,
        "binary.skeleton_pixels": counts["skeleton_pixels"] / images,
        "minutiae.raw_count": counts["raw"] / images,
        "minutiae.final_count": counts["final"] / images,
        "minutiae.kept_ratio": counts["final"] / counts["raw"] if counts["raw"] else 0.0,
        "evaluate.matched": batch_counts["matched"] / n,
        "evaluate.false_count": batch_counts["false_count"] / n,
        "pipeline.extract_self_ms": stage_ms["pipeline.extract_from_image"] / images,
        "pipeline.run_eval_self_ms": batch_ms[batch_fn] / n,
        "pipeline.scaling_eff": w1 / (WORKERS * w2),
        "pipeline.trace_overhead_ms": f * 1e3 * (
            np.median([t for _, t in timed]) - np.median([t for _, t in plain])),
    })
    stages.write(run.work / "trace_extract.jsonl")
    batch.write(run.work / "trace_batch.jsonl")
    return {k: float(v) for k, v in metrics.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    run = Run(args.work, args.seconds)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    print(json.dumps({
        "metrics": metrics, "attempted": run.attempted, "failed": run.failed,
        "digests": run.digests, "problems": run.problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
