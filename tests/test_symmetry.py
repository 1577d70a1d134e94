"""A truth-free oracle: the eight symmetries of the square grid.

A quarter turn or a mirror image of a capture whose sides are whole blocks
maps its block grid onto the mapped capture's, square or not, so it is a
capture of the same finger with the same blocks. Every front-end stage
must commute with the map: the gate must give the same Rejection on each
mapped must-reject capture, and the binary bitmap of a mapped print,
mapped back, must equal the print's own bit for bit. Its enhanced image,
rounded from float32 Gabor responses, may differ by 1 level on a few
pixels. The skeleton may differ,
since thin peels the boundary in a fixed order of directions, so the
minutiae, mapped back, are held to an agreement floor at the evaluation
tolerance instead.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import GRID_10
from test_intensity_scale import _dense_spec
from ridgekit.config import PipelineConfig
from ridgekit.evaluate import DEFAULT_TOLERANCE, match_minutiae
from ridgekit.image import GrayImage
from ridgekit.minutiae import POSTPROCESSED, Minutia, MinutiaeSet
from ridgekit.pipeline import extract_from_image
from ridgekit.synth import ConcentricPattern, SynthSpec, generate

CONFIG = PipelineConfig()
# (quarter turns counterclockwise, transposed first); the identity is left out
SYMMETRIES = [(k, t) for t in (False, True) for k in range(4)][1:]
SYMMETRY_IDS = [f"{'transpose_' if t else ''}rot{90 * k}" for k, t in SYMMETRIES]
AGREEMENT_FLOOR = 0.90  # matched / the larger minutiae count


def _map(a, k, t):
    return np.ascontiguousarray(np.rot90(a.T if t else a, k))


def _unmap(b, k, t):
    a = np.rot90(b, -k)
    return np.ascontiguousarray(a.T if t else a)


@pytest.fixture(scope="module")
def gate_captures():
    """The benchmark's 24 seed-0 must-reject captures (perfbench/workloads.py),
    each with its Rejection."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(workloads)
    return [(item.image_id, item.image, extract_from_image(item.image, item.image_id, CONFIG).rejection)
            for item in workloads.gate(0)]


# 256 px wide and 320 high, whole blocks both ways: the transposing maps
# give a 320 x 256 capture, whose row bands differ from the print's
TALL_SPEC = SynthSpec(256, 320, ConcentricPattern(-60.0, -60.0), 8.0,
                      injected=GRID_10 + ((60, 280, "bifurcation"), (190, 280, "ending")),
                      noise_amplitude=20.0, seed=7)


@pytest.fixture(scope="module")
def prints(corpus_prints):
    """Every fifth acceptance print, the 512^2 print of 8 row bands and the
    256 x 320 print, each with its own extraction."""
    images = {f"corpus_{k:02d}": corpus_prints[k][0] for k in range(0, 20, 5)}
    images["dense_512x512"] = generate(_dense_spec())[0]
    images["print_256x320"] = generate(TALL_SPEC)[0]
    return {name: (img, extract_from_image(img, name, CONFIG)) for name, img in images.items()}


@pytest.mark.parametrize("k, t", SYMMETRIES, ids=SYMMETRY_IDS)
def test_the_gate_rejects_every_mapped_capture_alike(gate_captures, k, t):
    assert len(gate_captures) == 24
    for image_id, img, want in gate_captures:
        got = extract_from_image(GrayImage(_map(img.pixels, k, t)), image_id, CONFIG).rejection
        assert want is not None and got == want, image_id


@pytest.mark.parametrize("k, t", SYMMETRIES, ids=SYMMETRY_IDS)
@pytest.mark.parametrize("name", ["corpus_00", "corpus_05", "corpus_10", "corpus_15",
                                  "dense_512x512", "print_256x320"])
def test_a_mapped_print_maps_back_to_the_same_bitmaps(prints, name, k, t):
    img, want = prints[name]
    h, w = img.pixels.shape
    assert h % CONFIG.block_size == 0 and w % CONFIG.block_size == 0
    got = extract_from_image(GrayImage(_map(img.pixels, k, t)), name, CONFIG)
    assert not want.rejected and not got.rejected
    back = _unmap(got.intermediates["binary"].bits, k, t)
    assert np.array_equal(back, want.intermediates["binary"].bits)
    # float32 Gabor sums run in another order on the mapped grid, so a value
    # near a half may round one level the other way: 8 pixels at most
    # measured in one case, 100 over the 42
    back = _unmap(got.intermediates["enhanced"].pixels, k, t).astype(np.int16)
    diff = np.abs(back - want.intermediates["enhanced"].pixels)
    assert diff.max() <= 1 and np.count_nonzero(diff) <= 12, np.count_nonzero(diff)
    # each mapped pixel's coordinates in the print, read off mapped index grids
    ys, xs = (_map(a, k, t) for a in np.mgrid[0:h, 0:w])
    mapped = [Minutia(int(xs[m.y, m.x]), int(ys[m.y, m.x]), m.kind, 0.0)
              for m in got.minutiae.minutiae]
    result = match_minutiae(MinutiaeSet(name, tuple(mapped), POSTPROCESSED), want.minutiae,
                            DEFAULT_TOLERANCE)
    most = max(len(mapped), len(want.minutiae.minutiae))
    assert result.matched >= AGREEMENT_FLOOR * most, (result.matched, most)
