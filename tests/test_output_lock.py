"""The output lock: the pipeline's outputs on fixed, seeded inputs, pinned
by sha256 in tests/data/outputs.sha256.

One line per image of test_intensity_scale.IMAGES (the 20 acceptance
prints, the gate captures and the 512^2 lattice print). An accepted image's
line holds the sha256 of its minutiae file as write_minutiae writes it and
of its binary bits; a rejected capture's line holds its Rejection. Two more
lines hold the sha256 of report.txt and report.csv of a run_eval over the
prints, one capture with a one-point truth (a rejected row) and one print
without a truth file (an error row).

The enhanced pixels are not locked: they are rounded from float32 Gabor
responses, whose sgemm rounding follows the OpenBLAS kernel, and follow
numpy's SIMD dispatch. Under OPENBLAS_CORETYPE=Prescott (or Sandybridge),
18 pixels of 11 corpus prints and the 512^2 print round one step the
other way. With every dispatched feature above the x86-64-v2 baseline
turned off (NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL
AVX512_SPR"), 5 pixels of corpus_00 do; with both, 24. Every line of the
lock stays the same.

A change that alters outputs on purpose regenerates the file and names the
changed ids:

    PYTHONPATH=src python tests/test_output_lock.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from test_intensity_scale import IMAGES, PRINT_SPECS
from ridgekit.config import PipelineConfig
from ridgekit.image import save_pgm
from ridgekit.minutiae import ENDING, POSTPROCESSED, Minutia, MinutiaeSet, write_minutiae
from ridgekit.pipeline import extract_from_image, run_eval
from ridgekit.synth import generate

LOCK = Path(__file__).parent / "data" / "outputs.sha256"
REJECTED_ROW = "blurred_noise_0"  # eval'd against a one-point truth
ERROR_ROW = "no_truth"  # corpus_00's pixels, with no truth file


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_lines(work: Path) -> dict[str, str]:
    """Image id (or report file name) -> its lock line, written under work."""
    data, truths, minutiae = work / "data", work / "truth", work / "minutiae"
    for d in (data, truths, minutiae):
        d.mkdir()
    config = PipelineConfig()
    lines = {}
    for name in sorted(IMAGES):
        if name in PRINT_SPECS:
            img, truth = generate(PRINT_SPECS[name])
            save_pgm(img, data / f"{name}.pgm")
            write_minutiae(truths / f"{name}.txt", truth, img.width, img.height)
        else:
            img = IMAGES[name]()
        outcome = extract_from_image(img, name, config)
        if outcome.rejected:
            rej = outcome.rejection  # floats spelt alike under any numpy
            lines[name] = (f"rejected recoverable_fraction={float(rej.recoverable_fraction)!r}"
                           f" threshold={float(rej.threshold)!r} measure={rej.measure}")
            continue
        path = minutiae / f"{name}.txt"
        write_minutiae(path, outcome.minutiae, img.width, img.height)
        binary = outcome.intermediates["binary"].bits
        lines[name] = f"minutiae={_sha(path.read_bytes())} binary={_sha(binary.tobytes())}"

    capture = IMAGES[REJECTED_ROW]()
    save_pgm(capture, data / f"{REJECTED_ROW}.pgm")
    one_point = MinutiaeSet(REJECTED_ROW, (Minutia(128, 128, ENDING, 0.0),), POSTPROCESSED)
    write_minutiae(truths / f"{REJECTED_ROW}.txt", one_point, capture.width, capture.height)
    save_pgm(generate(PRINT_SPECS["corpus_00"])[0], data / f"{ERROR_ROW}.pgm")
    run_eval(data, truths, config, work / "eval", workers=1)
    for report in ("report.txt", "report.csv"):
        lines[report] = _sha((work / "eval" / report).read_bytes())
    return lines


def read_lock() -> dict[str, str]:
    pairs = (line.split(" ", 1) for line in LOCK.read_text(encoding="utf-8").splitlines())
    return dict(pairs)


def test_outputs_match_the_lock(tmp_path):
    want, got = read_lock(), output_lines(tmp_path)
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not differ, f"outputs differ from {LOCK.name} for: {', '.join(differ)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = output_lines(Path(tmp))
    old = read_lock() if LOCK.exists() else {}
    LOCK.parent.mkdir(exist_ok=True)
    LOCK.write_text("".join(f"{k} {v}\n" for k, v in lines.items()), encoding="utf-8")
    changed = sorted(k for k in old.keys() | lines.keys() if old.get(k) != lines.get(k))
    print(f"wrote {LOCK}; changed: {', '.join(changed) or 'none'}", file=sys.stderr)
