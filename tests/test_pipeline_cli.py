import concurrent.futures.process
import csv
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import GRID_10, corpus_spec
from ridgekit.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_REJECTED, main
from ridgekit.config import PipelineConfig, load_config, read_key_values
from ridgekit.evaluate import EvalRun, format_report_csv, format_report_text, match_minutiae
from ridgekit.image import GrayImage, save_pgm
from ridgekit.minutiae import read_minutiae
import ridgekit
from ridgekit import enhance as enh
from ridgekit import pipeline
from ridgekit.pipeline import extract_from_image, run_eval, run_extract, run_synth
from ridgekit.synth import ParallelPattern, SynthSpec, generate


def write_synth_fixture(tmp_path, seed=11, noise=0.0):
    spec = SynthSpec(
        256, 256, ParallelPattern(math.radians(30)), 8.0,
        injected=GRID_10, noise_amplitude=noise, seed=seed,
    )
    img, truth = generate(spec)
    path = tmp_path / f"synth_{seed:04d}.pgm"
    save_pgm(img, path)
    return path, img, truth


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(block_size=2)
    with pytest.raises(ValueError):
        PipelineConfig(reject_threshold=1.5)
    for name in ("adjacency_window", "border_distance", "spur_length"):
        with pytest.raises(ValueError, match=name):
            PipelineConfig(**{name: -1})
        assert getattr(PipelineConfig(**{name: 0}), name) == 0


def test_load_config_file_and_overrides(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("block_size = 8\ntolerance = 12\ndump_intermediates = true\n")
    cfg = load_config(f, tolerance=6.0)
    assert cfg.block_size == 8
    assert cfg.tolerance == 6.0  # override wins
    assert cfg.dump_intermediates is True


def test_load_config_rejects_unknown_key(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("blocky = 8\n")
    with pytest.raises(ValueError):
        load_config(f)


def test_read_key_values(tmp_path):
    f = tmp_path / "kv.txt"
    f.write_text("# header\n\nb = 2  # note\n  a=x = y\nb = 3\n")
    assert read_key_values(f) == [("b", "2"), ("a", "x = y"), ("b", "3")]
    f.write_text("a = 1\njunk\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        read_key_values(f)
    f.write_bytes(b"# header\na = \xff\n")
    with pytest.raises(ValueError) as exc:
        read_key_values(f)
    assert str(exc.value) == (
        f"{f}: 'utf-8' codec can't decode byte 0xff in position 13: invalid start byte")


def test_config_may_start_with_a_byte_order_mark(tmp_path):
    # editors on Windows save UTF-8 with EF BB BF first; anywhere else the
    # mark is part of a key
    f = tmp_path / "bom.cfg"
    f.write_bytes(b"\xef\xbb\xbfblock_size = 12\n")
    assert load_config(f).block_size == 12
    f.write_bytes(b"block_size = 12\n\xef\xbb\xbfsigma = 3\n")
    with pytest.raises(ValueError) as exc:
        load_config(f)
    assert str(exc.value) == f"{f}: unknown config key '\\ufeffsigma'"


def test_config_echo_stable():
    a = PipelineConfig().echo_lines()
    b = PipelineConfig().echo_lines()
    assert a == b
    assert any(line.startswith("block_size") for line in a)


def test_config_postprocess_defaults_come_from_params():
    assert {"adjacency_window = 6", "border_distance = 10",
            "spur_length = 6"} <= set(PipelineConfig().echo_lines())


def test_extract_finds_injected_minutiae(tmp_path):
    path, img, truth = write_synth_fixture(tmp_path)
    out = run_extract(path, PipelineConfig(), tmp_path / "out")
    assert not out.rejected
    written, w, h = read_minutiae(tmp_path / "out" / f"{path.stem}.txt")
    assert (w, h) == (256, 256)
    r = match_minutiae(written, truth, 8.0)
    assert r.matched >= 9


def test_extract_rejects_noise(tmp_path):
    rng = np.random.default_rng(0)
    noise = GrayImage(rng.integers(0, 256, (128, 128)).astype(np.uint8))
    path = tmp_path / "noise.pgm"
    save_pgm(noise, path)
    out = run_extract(path, PipelineConfig(), tmp_path / "out")
    assert out.rejected
    assert out.rejection.recoverable_fraction < PipelineConfig().reject_threshold


def test_extract_dumps_exactly_five_intermediates(tmp_path):
    path, _, _ = write_synth_fixture(tmp_path)
    out_dir = tmp_path / "out"
    run_extract(path, PipelineConfig(dump_intermediates=True), out_dir)
    dumps = [
        p for p in out_dir.iterdir()
        if p.stem.startswith(path.stem + "_")
    ]
    assert len(dumps) == 5
    names = {p.name.rsplit("_", 1)[-1] for p in dumps}
    assert names == {"enhanced.pgm", "binary.pgm", "skeleton.pgm",
                     "orientation.txt", "frequency.txt"}


def test_extract_too_small_image_errors(tmp_path):
    img = GrayImage(np.zeros((16, 16), np.uint8))
    with pytest.raises(ValueError):
        extract_from_image(img, "tiny", PipelineConfig())


def build_corpus(tmp_path, n=4):
    data = tmp_path / "data"
    truthd = tmp_path / "truth"
    data.mkdir()
    truthd.mkdir()
    from ridgekit.minutiae import write_minutiae

    for k in range(n):
        spec = corpus_spec(k, n_total=n, max_noise=20.0)
        img, truth = generate(spec)
        save_pgm(img, data / f"{truth.image_id}.pgm")
        write_minutiae(truthd / f"{truth.image_id}.txt", truth, img.width, img.height)
    return data, truthd


def test_run_eval_end_to_end(tmp_path):
    data, truthd = build_corpus(tmp_path)
    run = run_eval(data, truthd, PipelineConfig(), tmp_path / "out")
    assert run.report is not None
    assert run.report.n == 4
    assert run.report.mean_sen >= 0.8
    assert run.report.mean_spe >= 0.8
    assert (tmp_path / "out" / "report.txt").exists()
    assert (tmp_path / "out" / "report.csv").exists()


def test_run_eval_missing_truth_skipped(tmp_path):
    data, truthd = build_corpus(tmp_path)
    (truthd / "synth_0100.txt").unlink()
    run = run_eval(data, truthd, PipelineConfig(), tmp_path / "out")
    assert run.report.n == 3
    assert any("missing truth" in msg for _, msg in run.errors)


def test_run_eval_unreadable_image_reported(tmp_path):
    data, truthd = build_corpus(tmp_path)
    bad = data / "synth_0101.pgm"
    bad.write_bytes(bad.read_bytes()[:40])  # truncate pixel data
    run = run_eval(data, truthd, PipelineConfig(), tmp_path / "out")
    assert run.report.n == 3
    assert any(stem == "synth_0101" for stem, _ in run.errors)


def test_run_eval_rejected_image_listed_separately(tmp_path):
    data, truthd = build_corpus(tmp_path)
    rng = np.random.default_rng(4)
    noise = GrayImage(rng.integers(0, 256, (128, 128)).astype(np.uint8))
    save_pgm(noise, data / "zz_noise.pgm")
    from ridgekit.minutiae import MinutiaeSet, Minutia, ENDING, write_minutiae

    truth = MinutiaeSet("zz_noise", (Minutia(50, 50, ENDING, 0.0),), "postprocessed")
    write_minutiae(truthd / "zz_noise.txt", truth, 128, 128)
    run = run_eval(data, truthd, PipelineConfig(), tmp_path / "out")
    assert run.report.n == 4  # rejected image not in the means
    assert [stem for stem, _ in run.rejected] == ["zz_noise"]
    report_text = (tmp_path / "out" / "report.txt").read_text()
    assert "zz_noise" in report_text and "rejected" in report_text


# report.csv of a run with no evaluated image, as it has always been written
EMPTY_RUN_CSV = """\
# adjacency_window = 6
# block_size = 16
# border_distance = 10
# coherence_floor = 0.3
# dump_intermediates = False
# reject_threshold = 0.25
# spur_length = 6
# tolerance = 8.0
# variance_floor = 10.0
record,image_id,sen,spe,matched,missed,false_count,ground_truth
rejected,noise_a,,,,,,0.000000
rejected,noise_b,,,,,,0.000000
error,no_truth,missing truth file no_truth.txt,,,,,
"""


def test_run_eval_nothing_evaluated_report(tmp_path):
    from ridgekit.minutiae import ENDING, Minutia, MinutiaeSet, write_minutiae

    data, truthd = tmp_path / "data", tmp_path / "truth"
    data.mkdir()
    truthd.mkdir()
    for k, stem in enumerate(["noise_b", "noise_a", "no_truth"]):
        rng = np.random.default_rng(k)
        save_pgm(GrayImage(rng.integers(0, 256, (128, 128)).astype(np.uint8)),
                 data / f"{stem}.pgm")
        if stem != "no_truth":
            truth = MinutiaeSet(stem, (Minutia(64, 64, ENDING, 0.0),), "postprocessed")
            write_minutiae(truthd / f"{stem}.txt", truth, 128, 128)
    for workers in (1, 2):
        run = run_eval(data, truthd, PipelineConfig(), tmp_path / f"o{workers}", workers)
        assert run.report is None and run.results == ()
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    assert (o1 / "report.csv").read_text() == EMPTY_RUN_CSV
    text = (o1 / "report.txt").read_text()
    assert "\nimages evaluated: 0\nrejected (excluded from means):\n" in text
    assert text.endswith(
        "  noise_a  coherent share 0.000\n"
        "  noise_b  coherent share 0.000\n"
        "errors (skipped):\n"
        "  no_truth  missing truth file no_truth.txt\n"
    )
    assert "Mean" not in text and "SEN" not in text
    for name in ("report.txt", "report.csv"):
        assert (o1 / name).read_bytes() == (o2 / name).read_bytes()


def test_run_eval_empty_dataset_errors(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "truth").mkdir()
    with pytest.raises(ValueError):
        run_eval(tmp_path / "data", tmp_path / "truth", PipelineConfig(), tmp_path / "out")


def test_run_eval_deterministic_across_worker_counts(tmp_path):
    data, truthd = build_corpus(tmp_path)
    run_eval(data, truthd, PipelineConfig(), tmp_path / "o1", workers=1)
    run_eval(data, truthd, PipelineConfig(), tmp_path / "o2", workers=3)
    for name in ("report.txt", "report.csv"):
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()
    for f1 in sorted((tmp_path / "o1").glob("synth_*.txt")):
        f2 = tmp_path / "o2" / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_run_eval_pool_no_larger_than_job_count(tmp_path, monkeypatch):
    class SerialPool:
        """Stand-in executor: records its size and maps in-process."""

        sizes = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", SerialPool)
    data, truthd = build_corpus(tmp_path, n=3)
    run = run_eval(data, truthd, PipelineConfig(), tmp_path / "out", workers=500)
    assert SerialPool.sizes == [3]
    assert run.report.n == 3


def test_run_synth_writes_corpus(tmp_path):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(
        "width = 96\nheight = 96\npattern = parallel:45\nperiod = 8\nseed = 5\n"
        "inject = 48,48,E\n"
    )
    written = run_synth(spec_file, 3, tmp_path / "corpus")
    assert len(written) == 3
    pgms = sorted((tmp_path / "corpus").glob("*.pgm"))
    txts = sorted((tmp_path / "corpus").glob("*.txt"))
    assert [p.stem for p in pgms] == ["synth_0005", "synth_0006", "synth_0007"]
    assert len(txts) == 3


def test_run_synth_rerun_identical(tmp_path):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("width = 96\nheight = 96\nperiod = 8\nnoise_amplitude = 10\n")
    run_synth(spec_file, 2, tmp_path / "c1")
    run_synth(spec_file, 2, tmp_path / "c2")
    for f1 in sorted((tmp_path / "c1").iterdir()):
        assert f1.read_bytes() == (tmp_path / "c2" / f1.name).read_bytes()


def test_run_synth_invalid_spec_writes_nothing(tmp_path):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(
        "width = 96\nheight = 96\nperiod = 8\n"
        "inject = 40,40,E\ninject = 44,40,E\n"  # violates 3*period spacing
    )
    out = tmp_path / "corpus"
    with pytest.raises(ValueError):
        run_synth(spec_file, 2, out)
    assert not out.exists()


# --- CLI surface ---

def test_cli_extract_ok(tmp_path, capsys):
    path, _, _ = write_synth_fixture(tmp_path)
    code = main(["extract", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert (tmp_path / "out" / f"{path.stem}.txt").exists()


def test_cli_extract_rejection_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(1)
    noise = GrayImage(rng.integers(0, 256, (128, 128)).astype(np.uint8))
    path = tmp_path / "noise.pgm"
    save_pgm(noise, path)
    assert main(["extract", str(path), "--out", str(tmp_path / "out")]) == EXIT_REJECTED


def test_cli_extract_missing_file(tmp_path, capsys):
    assert main(["extract", str(tmp_path / "nope.pgm")]) == EXIT_INPUT_ERROR


def test_cli_bad_config_value(tmp_path, capsys):
    path, _, _ = write_synth_fixture(tmp_path)
    assert main(["extract", str(path), "--block-size", "2"]) == EXIT_INPUT_ERROR


@pytest.mark.parametrize("command", ["eval", "extract"])
@pytest.mark.parametrize("line", ["spur_length = -1", "border_distance = -3", "freq_window = 0",
                                  "block_size = 8.0", "tolerance = x", "threshold = abc"])
def test_cli_bad_config_file_fails_before_any_image(tmp_path, monkeypatch, capsys, command, line):
    path, img, truth = write_synth_fixture(tmp_path)
    from ridgekit.minutiae import write_minutiae

    write_minutiae(tmp_path / f"{path.stem}.txt", truth, img.width, img.height)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    loaded = []
    monkeypatch.setattr(pipeline, "load_pgm", lambda p: loaded.append(p))
    inputs = [str(tmp_path), str(tmp_path)] if command == "eval" else [str(path)]
    out = tmp_path / "out"
    code = main([command, *inputs, "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_INPUT_ERROR
    assert loaded == []
    assert not out.exists()
    assert line.split()[0] in capsys.readouterr().err


def test_cli_exit_codes_distinct():
    assert len({EXIT_OK, EXIT_INPUT_ERROR, EXIT_REJECTED}) == 3


def test_cli_usage_error_is_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extract"])  # missing image argument
    assert exc.value.code == EXIT_INPUT_ERROR


def test_cli_eval_and_synth(tmp_path, capsys):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(
        "width = 256\nheight = 256\npattern = parallel:30\nperiod = 8\nseed = 3\n"
        + "".join(f"inject = {x},{y},{'E' if kind == 'ending' else 'B'}\n"
                  for x, y, kind in GRID_10)
    )
    corpus = tmp_path / "corpus"
    assert main(["synth", str(spec_file), "--count", "2", "--out", str(corpus)]) == EXIT_OK
    assert main([
        "eval", str(corpus), str(corpus), "--out", str(tmp_path / "out"), "--workers", "1",
    ]) == EXIT_OK
    out = capsys.readouterr().out
    assert "mean SEN" in out
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "Mean" in report and "block_size" in report


# --- one per-image path: eval extracts and writes as run_extract does ---

DUMP_SUFFIXES = ("_enhanced.pgm", "_binary.pgm", "_skeleton.pgm",
                 "_orientation.txt", "_frequency.txt")


def build_mixed_corpus(tmp_path):
    """Two prints with truth, a rejected noise capture with truth, and a
    copy of a print with no truth file."""
    from ridgekit.minutiae import ENDING, Minutia, MinutiaeSet, write_minutiae

    data, truthd = build_corpus(tmp_path, n=2)
    rng = np.random.default_rng(4)
    save_pgm(GrayImage(rng.integers(0, 256, (128, 128)).astype(np.uint8)),
             data / "zz_noise.pgm")
    truth = MinutiaeSet("zz_noise", (Minutia(50, 50, ENDING, 0.0),), "postprocessed")
    write_minutiae(truthd / "zz_noise.txt", truth, 128, 128)
    first = sorted(data.glob("synth_*.pgm"))[0]
    (data / "no_truth.pgm").write_bytes(first.read_bytes())
    return data, truthd


@pytest.mark.parametrize("workers", [1, 2])
def test_cli_eval_dump_intermediates(tmp_path, capsys, workers):
    data, truthd = build_mixed_corpus(tmp_path)
    out = tmp_path / "out"
    code = main(["eval", str(data), str(truthd), "--out", str(out),
                 "--workers", str(workers), "--dump-intermediates"])
    assert code == EXIT_OK
    evaluated = sorted(p.stem for p in data.glob("synth_*.pgm"))
    want = {"report.txt", "report.csv"}
    for stem in evaluated:
        want |= {f"{stem}.txt"} | {stem + s for s in DUMP_SUFFIXES}
    assert {p.name for p in out.iterdir()} == want
    # eval writes exactly what extract writes for the same image
    single = tmp_path / "single"
    run_extract(data / f"{evaluated[0]}.pgm", PipelineConfig(dump_intermediates=True), single)
    for f in single.iterdir():
        assert f.read_bytes() == (out / f.name).read_bytes()


def test_run_eval_empty_truth_is_an_error_row(tmp_path, capsys):
    data, truthd = build_corpus(tmp_path, n=2)
    empty = sorted(truthd.glob("*.txt"))[1]
    empty.write_text(empty.read_text().splitlines()[0] + "\n")  # header only
    for workers in (1, 2):
        out = tmp_path / f"o{workers}"
        assert main(["eval", str(data), str(truthd), "--out", str(out),
                     "--workers", str(workers)]) == EXIT_OK
        run = run_eval(data, truthd, PipelineConfig(), tmp_path / f"lib{workers}", workers)
        assert run.report.n == 1
        assert run.errors == ((empty.stem, "metrics undefined for empty ground truth"),)
        assert not (out / empty.name).exists()
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    assert sorted(p.name for p in o1.iterdir()) == sorted(p.name for p in o2.iterdir())
    for f in o1.iterdir():
        assert f.read_bytes() == (o2 / f.name).read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_eval_truth_of_another_size_is_an_error_row(tmp_path, workers):
    data, truthd = build_corpus(tmp_path, n=2)
    bad = sorted(truthd.glob("*.txt"))[1]
    header, *points = bad.read_text().splitlines()
    image_id, width, height = header.rsplit(maxsplit=2)
    bad.write_text("\n".join([f"{image_id} {width} {int(height) + 1}", *points]) + "\n")
    out = tmp_path / "out"
    run = run_eval(data, truthd, PipelineConfig(), out, workers)
    message = f"truth is {width}x{int(height) + 1}, image is {width}x{height}"
    assert run.report.n == 1
    assert run.errors == ((bad.stem, message),)
    assert f"  {bad.stem}  {message}" in (out / "report.txt").read_text().splitlines()
    assert not (out / bad.name).exists()


def test_cli_extract_missing_file_leaves_no_output_dir(tmp_path, capsys):
    out = tmp_path / "D"
    assert main(["extract", str(tmp_path / "missing.pgm"), "--out", str(out)]) == EXIT_INPUT_ERROR
    assert not out.exists()


def test_cli_eval_empty_dataset_leaves_no_output_dir(tmp_path, capsys):
    (tmp_path / "data").mkdir()
    out = tmp_path / "D"
    code = main(["eval", str(tmp_path / "data"), str(tmp_path / "data"), "--out", str(out)])
    assert code == EXIT_INPUT_ERROR
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_cli_synth_count_below_one_is_an_input_error(tmp_path, capsys, count):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("width = 96\nheight = 96\nperiod = 8\n")
    out = tmp_path / "corpus"
    assert main(["synth", str(spec_file), "--count", count, "--out", str(out)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert f"error: count must be >= 1, got {count}" in captured.err
    assert "wrote" not in captured.out
    assert not out.exists()


def test_cli_synth_unknown_spec_key_is_an_input_error(tmp_path, capsys):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text("widht = 300\nperiod = 8\n")
    out = tmp_path / "corpus"
    assert main(["synth", str(spec_file), "--out", str(out)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: {spec_file}: unknown spec key 'widht'\n"
    assert "wrote" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("noise_amplitude = inf\n",
     "spec key noise_amplitude: noise_amplitude must be >= 0 and 2*noise_amplitude finite"),
    ("noise_amplitude = 10\nseed = -1\n", "spec key seed: seed must be >= 0"),
    ("width = 0\n", "spec key width: width and height must be >= 1"),
    ("pattern = parallel:nan\n", "spec key pattern: numbers must be finite"),
    ("width = abc\n", "spec key width: expected int, got 'abc'"),
    ("inject = a,2,E\n", "expected 'inject = x,y,E|B', got 'inject = a,2,E'"),
    ("width = 16\nheight = 16\npattern = concentric:1e308,0\n",
     "spec key pattern: concentric center must have |cx|, |cy| <= 1e+06"),
], ids=["noise-inf", "seed-negative", "width-0", "pattern-nan", "width-abc", "inject-a",
        "concentric-far"])
def test_cli_synth_bad_spec_value_is_an_input_error(tmp_path, capsys, text, message):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(text)
    out = tmp_path / "corpus"
    assert main(["synth", str(spec_file), "--count", "2", "--out", str(out)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: {spec_file}: {message}\n"
    assert "wrote" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_eval_workers_below_one_is_an_input_error(tmp_path, capsys, workers):
    data, truthd = build_corpus(tmp_path, n=2)
    out = tmp_path / "D"
    code = main(["eval", str(data), str(truthd), "--out", str(out), "--workers", workers])
    assert code == EXIT_INPUT_ERROR
    assert f"error: workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_extract_rejected_leaves_no_output_dir(tmp_path, capsys):
    rng = np.random.default_rng(1)
    path = tmp_path / "noise.pgm"
    save_pgm(GrayImage(rng.integers(0, 256, (128, 128)).astype(np.uint8)), path)
    out = tmp_path / "D"
    assert main(["extract", str(path), "--out", str(out)]) == EXIT_REJECTED
    assert not out.exists()


def _wide_stripes():
    """Coherent everywhere, but a period of 40 px has no valid frequency, so
    the coherence gate passes it and the recoverable fraction rejects it."""
    xx = np.mgrid[0:128, 0:128][1]
    return GrayImage(np.rint(127.5 + 100.0 * np.cos(2.0 * np.pi * xx / 40.0)).astype(np.uint8))


@pytest.mark.parametrize("image, measure", [
    (lambda: GrayImage(np.full((64, 64), 128, np.uint8)), "coherent share"),
    (_wide_stripes, "recoverable fraction"),
], ids=["coherent_share", "recoverable_fraction"])
def test_extract_and_eval_rejection_name_its_measure(tmp_path, capsys, image, measure):
    from ridgekit.minutiae import ENDING, Minutia, MinutiaeSet, write_minutiae

    img, data = image(), tmp_path / "data"
    data.mkdir()
    save_pgm(img, data / "capture.pgm")
    truth = MinutiaeSet("capture", (Minutia(10, 10, ENDING, 0.0),), "postprocessed")
    write_minutiae(data / "capture.txt", truth, img.width, img.height)
    code = main(["extract", str(data / "capture.pgm"), "--out", str(tmp_path / "D")])
    assert code == EXIT_REJECTED
    assert capsys.readouterr().err == f"rejected: {measure} 0.000 below threshold 0.250\n"
    run_eval(data, data, PipelineConfig(), tmp_path / "eval")
    text = (tmp_path / "eval" / "report.txt").read_text()
    assert text.endswith(f"rejected (excluded from means):\n  capture  {measure} 0.000\n")
    csv = (tmp_path / "eval" / "report.csv").read_text()
    assert csv.endswith("record,image_id,sen,spe,matched,missed,false_count,ground_truth\n"
                        "rejected,capture,,,,,,0.000000\n")


def test_flat_image_with_nothing_recoverable_has_no_minutiae(tmp_path):
    # at reject_threshold 0 nothing is rejected, and a flat image has no
    # recoverable block to choose a binarization threshold from
    config = PipelineConfig(reject_threshold=0.0, dump_intermediates=True)
    path = tmp_path / "flat.pgm"
    save_pgm(GrayImage(np.full((64, 64), 128, np.uint8)), path)
    outcome = run_extract(path, config, tmp_path / "out")
    assert not outcome.rejected and len(outcome.minutiae) == 0
    assert not outcome.intermediates["binary"].bits.any()
    assert read_minutiae(tmp_path / "out" / "flat.txt")[0].minutiae == ()


def test_eval_report_names_a_bad_file_by_its_name(tmp_path, monkeypatch):
    # one dataset and one truth directory, given once as relative and once
    # as absolute paths: the error rows and so the reports are the same
    data, truthd = build_corpus(tmp_path, n=2)
    bad = sorted(truthd.glob("*.txt"))[1]
    bad.write_text(bad.read_text() + "256 10 E 0.0\n")
    (data / "zz_bad.pgm").write_bytes(b"P7\n1 1\n255\n")
    (truthd / "zz_bad.txt").write_text("# zz_bad 1 1\n0 0 E 0.0\n")
    monkeypatch.chdir(tmp_path)
    relative = run_eval(Path("data"), Path("truth"), PipelineConfig(), tmp_path / "rel")
    absolute = run_eval(data.resolve(), truthd.resolve(), PipelineConfig(), tmp_path / "abs")
    assert relative.errors == absolute.errors == (
        (bad.stem, f"{bad.name}: minutia line '256 10 E 0.0' is outside the 256x256 frame"),
        ("zz_bad", "malformed header: not a P2/P5 PGM file: zz_bad.pgm"),
    )
    report = (tmp_path / "rel" / "report.txt").read_bytes()
    assert report == (tmp_path / "abs" / "report.txt").read_bytes()


@pytest.mark.parametrize("line, kind", [("block_size = 8.0", "int"), ("tolerance = x", "float"),
                                        ("dump_intermediates = maybe", "bool")])
def test_load_config_malformed_value_names_file_and_key(tmp_path, line, kind):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    key, value = (part.strip() for part in line.split("="))
    with pytest.raises(ValueError) as exc:
        load_config(cfg)
    assert str(exc.value) == f"{cfg}: config key {key}: expected {kind}, got {value!r}"


def test_cli_threshold_config_key_is_an_input_error(tmp_path, capsys):
    # binarization has one rule, the mean over recoverable pixels: no key sets it
    path, _, _ = write_synth_fixture(tmp_path)
    cfg = tmp_path / "old.cfg"
    cfg.write_text("threshold = 128\n")
    out = tmp_path / "out"
    code = main(["extract", str(path), "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {cfg}: unknown config key 'threshold'\n"
    assert not out.exists()


def test_cli_target_mean_config_key_is_an_input_error(tmp_path, capsys):
    # the front end reads the capture itself, so no key sets a target mean
    path, _, _ = write_synth_fixture(tmp_path)
    cfg = tmp_path / "old.cfg"
    cfg.write_text("target_mean = 100.0\n")
    out = tmp_path / "out"
    code = main(["extract", str(path), "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {cfg}: unknown config key 'target_mean'\n"
    assert not out.exists()


def test_cli_target_variance_config_key_is_an_input_error(tmp_path, capsys):
    # the variance floor alone sets the mask's variance rule
    path, _, _ = write_synth_fixture(tmp_path)
    cfg = tmp_path / "old.cfg"
    cfg.write_text("target_variance = 100.0\n")
    out = tmp_path / "out"
    code = main(["extract", str(path), "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {cfg}: unknown config key 'target_variance'\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["reconnect_gap", "smooth_sigma", "freq_window", "sigma"])
def test_cli_reconnect_gap_config_key_is_an_input_error(tmp_path, capsys, key):
    # post-processing draws no ridge back in, so no key sets a repair
    # distance; Hong's three kernel widths are enhance constants
    path, _, _ = write_synth_fixture(tmp_path)
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 6\n")
    out = tmp_path / "out"
    code = main(["extract", str(path), "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {cfg}: unknown config key '{key}'\n"
    assert not out.exists()


def test_cli_freq_window_longer_than_the_image_is_a_rejection(tmp_path, capsys, monkeypatch):
    # the 256 x 256 fixture's diagonal is 255 sqrt 2 = 360.6 px; a 363-px
    # window's ends lie 362 px apart, so no block has a signature and the
    # mask rejects
    sampled = []
    signatures = enh._projection_signatures

    def recording(*args):
        sig, has_sig = signatures(*args)
        sampled.append(has_sig.any())
        return sig, has_sig

    monkeypatch.setattr(enh, "_projection_signatures", recording)
    monkeypatch.setattr(enh, "FREQ_WINDOW", 363)
    path, _, _ = write_synth_fixture(tmp_path)
    out = tmp_path / "out"
    code = main(["extract", str(path), "--out", str(out)])
    assert code == EXIT_REJECTED
    assert capsys.readouterr().err == "rejected: recoverable fraction 0.000 below threshold 0.250\n"
    assert not out.exists()
    assert sampled and not any(sampled)


def test_cli_threshold_flag_is_a_usage_error(tmp_path, capsys):
    path, _, _ = write_synth_fixture(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["extract", str(path), "--threshold", "128", "--out", str(out)])
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "unrecognized arguments: --threshold 128" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "eval"])
def test_cli_unknown_flag_shows_the_subcommand_usage(tmp_path, capsys, command):
    path, _, _ = write_synth_fixture(tmp_path)
    inputs = [str(path)] if command == "extract" else [str(tmp_path), str(tmp_path)]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, "--bogus", "--out", str(out)])
    assert exc.value.code == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ridgekit {command} ")
    assert f"ridgekit {command}: error: unrecognized arguments: --bogus\n" in err
    assert not out.exists()


def test_cli_extract_then_eval_round_trips_an_id_with_spaces(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    path, _, _ = write_synth_fixture(data)
    scan = path.rename(data / "my scan.pgm")
    assert main(["extract", str(scan), "--out", str(tmp_path / "truth")]) == EXIT_OK
    assert (tmp_path / "truth" / "my scan.txt").read_text().startswith("# my scan 256 256\n")
    out = tmp_path / "out"
    assert main(["eval", str(data), str(tmp_path / "truth"), "--out", str(out)]) == EXIT_OK
    text = (out / "report.txt").read_text()
    assert "\nimages evaluated: 1\n" in text and "errors" not in text


def test_run_eval_csv_reads_back_ids_with_a_comma(tmp_path):
    from ridgekit.minutiae import ENDING, Minutia, MinutiaeSet, write_minutiae

    data, truthd = tmp_path / "data", tmp_path / "truth"
    data.mkdir()
    truthd.mkdir()
    path, img, truth = write_synth_fixture(data)
    path.rename(data / "scan,1.pgm")
    write_minutiae(truthd / "scan,1.txt", truth, img.width, img.height)
    blank = GrayImage(np.full((128, 128), 128, np.uint8))
    save_pgm(blank, data / 'blank,"2".pgm')  # rejected: no coherent block
    one_point = MinutiaeSet("blank", (Minutia(64, 64, ENDING, 0.0),), "postprocessed")
    write_minutiae(truthd / 'blank,"2".txt', one_point, 128, 128)
    save_pgm(blank, data / "no,truth.pgm")
    save_pgm(blank, data / 'no\ntruth "3".pgm')  # the error message holds the id
    run_eval(data, truthd, PipelineConfig(), tmp_path / "out")
    with open(tmp_path / "out" / "report.csv", newline="", encoding="utf-8") as f:
        rows = [row for row in csv.reader(f) if not row[0].startswith("#")]
    assert all(len(row) == 8 for row in rows)
    assert [row[:2] for row in rows] == [
        ["record", "image_id"], ["image", "scan,1"], ["mean", ""], ["sd", ""],
        ["rejected", 'blank,"2"'], ["error", 'no\ntruth "3"'], ["error", "no,truth"],
    ]
    assert rows[-2][2] == 'missing truth file no\ntruth "3".txt'
    assert rows[-1][2] == "missing truth file no;truth.txt"


@pytest.mark.parametrize("line, message", [
    ("spur_length = -1", "spur_length must be >= 0"),
    ("border_distance = -3", "border_distance must be >= 0"),
    ("tolerance = -1", "tolerance must be positive"),
    ("block_size = 4096", "block_size must be <= 2048"),
])
def test_cli_config_file_range_error_names_file_and_key(tmp_path, capsys, line, message):
    path, _, _ = write_synth_fixture(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    key = line.split()[0]
    # a flag that overrides the key does not excuse the file's bad value
    for flags in ([], ["--tolerance", "8"]):
        code = main(["extract", str(path), "--config", str(cfg), *flags,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {cfg}: config key {key}: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["sigma_x", "sigma_y"])
def test_cli_config_sigma_x_or_y_names_sigma(tmp_path, capsys, key):
    path, _, _ = write_synth_fixture(tmp_path)
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 4.0\n")
    out = tmp_path / "out"
    code = main(["extract", str(path), "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {cfg}: unknown config key '{key}'\n"
    assert not out.exists()


def test_config_refuses_non_finite_floats():
    float_keys = [f.name for f in fields(PipelineConfig) if isinstance(f.default, float)]
    assert sorted(float_keys) == [
        "coherence_floor", "reject_threshold", "tolerance", "variance_floor",
    ]
    for key in float_keys:
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=rf"^{key}: must be finite$"):
                PipelineConfig(**{key: value})


def test_config_refuses_non_integer_ints():
    # a float reached range() in the stages and crashed extraction
    int_keys = [f.name for f in fields(PipelineConfig) if type(f.default) is int]
    assert sorted(int_keys) == [
        "adjacency_window", "block_size", "border_distance", "spur_length",
    ]
    for key in int_keys:
        default = getattr(PipelineConfig, key)
        for value in (float(default), True, str(default)):
            with pytest.raises(ValueError, match=rf"^{key} must be an integer$"):
                PipelineConfig(**{key: value})


def test_config_refuses_non_real_floats_and_non_bool_bools():
    # True passed for 1.0, and a str reached math.isfinite as a TypeError
    float_keys = [f.name for f in fields(PipelineConfig) if type(f.default) is float]
    for key in float_keys:
        default = getattr(PipelineConfig, key)
        for value in (True, False, str(default), None, complex(default)):
            with pytest.raises(ValueError, match=rf"^{key} must be a real number$"):
                PipelineConfig(**{key: value})
        for value in (math.ceil(default), np.float64(default)):
            assert getattr(PipelineConfig(**{key: value}), key) == value
    bool_keys = [f.name for f in fields(PipelineConfig) if type(f.default) is bool]
    assert bool_keys == ["dump_intermediates"]
    for value in (1, 0, "true", None, np.bool_(True)):
        with pytest.raises(ValueError, match=r"^dump_intermediates must be a bool$"):
            PipelineConfig(dump_intermediates=value)


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("key", ["variance_floor", "tolerance"])
def test_cli_non_finite_config_value_is_an_input_error(tmp_path, capsys, key, value):
    path, _, _ = write_synth_fixture(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "out"
    code = main(["extract", str(path), "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {cfg}: config key {key}: must be finite\n"
    assert not out.exists()


def test_cli_flag_range_error_keeps_its_message(tmp_path, capsys):
    path, _, _ = write_synth_fixture(tmp_path)
    code = main(["extract", str(path), "--block-size", "2", "--out", str(tmp_path / "out")])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: block_size must be >= 4\n"


_EVAL_ONE = pipeline._eval_one


def _dies_on(culprit, image_path, *args):
    """pipeline._eval_one, except that the worker process exits at once on
    the image whose stem is culprit. Module-level, so a pool can pickle it."""
    if Path(image_path).stem == culprit:
        os._exit(1)
    return _EVAL_ONE(image_path, *args)


def _as_if_their_workers_died(run, culprits):
    """run with each culprit's row replaced by the error row of a dead worker."""
    return EvalRun(tuple(r for r in run.results if r.image_id not in culprits), run.rejected,
                   tuple(sorted(run.errors + tuple((c, "worker process died") for c in culprits))))


def _assert_reports_of(out_dir, run):
    config_lines = PipelineConfig().echo_lines()
    assert (out_dir / "report.txt").read_text() == format_report_text(run, config_lines)
    assert (out_dir / "report.csv").read_text() == format_report_csv(run, config_lines)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only a forked worker inherits the patched _eval_one")
def test_run_eval_loses_only_the_image_whose_worker_died(tmp_path, monkeypatch):
    # a real worker death on the third of 8 prints: the other 7 score as in
    # the serial run, and the reports differ from its only by that row
    data, truthd = build_corpus(tmp_path, n=8)
    stems = sorted(p.stem for p in data.glob("*.pgm"))
    serial = run_eval(data, truthd, PipelineConfig(), tmp_path / "serial")
    assert serial.report.n == 8
    monkeypatch.setattr(pipeline, "_eval_one", partial(_dies_on, stems[2]))
    run = run_eval(data, truthd, PipelineConfig(), tmp_path / "out", workers=2)
    want = _as_if_their_workers_died(serial, {stems[2]})
    assert run == want and run.report.n == 7
    _assert_reports_of(tmp_path / "out", want)
    assert sorted(p.stem for p in (tmp_path / "out").glob("synth_*.txt")) == stems[:2] + stems[3:]


def test_run_eval_worker_death_becomes_error_rows(tmp_path, monkeypatch):
    class DyingPool:
        """Stand-in executor whose result iterator breaks, as
        ProcessPoolExecutor.map does when a worker process dies, one row
        before a deadly image (as if that job were still running in the
        other worker), or at the deadly image when it runs alone."""

        starts = []

        def __init__(self, max_workers):
            self.starts.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            rows = list(zip(*iterables))
            for k, args in enumerate(rows):
                if any(Path(row[0]).stem in deadly for row in rows[k : k + 2]):
                    raise concurrent.futures.process.BrokenProcessPool("a process in the pool was terminated abruptly")
                yield fn(*args)

    data, truthd = build_corpus(tmp_path, n=6)
    stems = sorted(p.stem for p in data.glob("*.pgm"))
    deadly = {stems[1], stems[4]}
    serial = run_eval(data, truthd, PipelineConfig(), tmp_path / "serial")
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", DyingPool)
    run = run_eval(data, truthd, PipelineConfig(), tmp_path / "out", workers=2)
    want = _as_if_their_workers_died(serial, deadly)
    assert run == want and run.report.n == 4
    _assert_reports_of(tmp_path / "out", want)
    # per death: a pool that breaks, the job before the deadly one alone, a
    # fresh pool that breaks at the deadly job, that job alone; then the
    # last pool, of one job
    assert DyingPool.starts == [2, 1, 2, 1, 2, 1, 2, 1, 1]


def test_runtime_never_imports_scipy():
    """A fresh interpreter that imports ridgekit and extracts one print
    (bifurcations included) has no scipy module loaded, lazily or not."""
    probe = (
        "import sys, ridgekit\n"
        "from ridgekit.synth import ParallelPattern, SynthSpec, generate\n"
        "img, _ = generate(SynthSpec(96, 96, ParallelPattern(0.5), 8.0,\n"
        "                            injected=((48, 48, 'bifurcation'),), noise_amplitude=10.0))\n"
        "out = ridgekit.extract_from_image(img, 'probe', ridgekit.PipelineConfig())\n"
        "assert any(m.kind == 'bifurcation' for m in out.minutiae.minutiae)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(ridgekit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_leaves_multiprocessing_unloaded():
    """A fresh interpreter's import ridgekit loads no multiprocessing module:
    only run_eval's process pool needs it, and imports it there."""
    probe = "import sys, ridgekit\nprint('multiprocessing' in sys.modules)\n"
    src = str(Path(ridgekit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
