import math
import re

import numpy as np
import pytest

from ridgekit.minutiae import BIFURCATION, ENDING
from ridgekit.synth import (
    ConcentricPattern,
    ParallelPattern,
    SynthSpec,
    generate,
    parse_synth_spec,
)


def test_deterministic_bytes():
    spec = SynthSpec(
        128, 128, ParallelPattern(math.radians(20)), 8.0,
        injected=((50, 50, ENDING),), noise_amplitude=25.0, seed=7,
    )
    img1, t1 = generate(spec)
    img2, t2 = generate(spec)
    assert img1.pixels.tobytes() == img2.pixels.tobytes()
    assert t1 == t2


def test_different_seeds_differ():
    base = dict(width=128, height=128, pattern=ParallelPattern(0.3), period=8.0,
                noise_amplitude=25.0)
    img1, _ = generate(SynthSpec(seed=1, **base))
    img2, _ = generate(SynthSpec(seed=2, **base))
    assert img1.pixels.tobytes() != img2.pixels.tobytes()


def test_truth_at_requested_coordinates():
    pts = tuple((40 + 30 * k, 60, ENDING if k % 2 else BIFURCATION) for k in range(3))
    spec = SynthSpec(160, 120, ParallelPattern(0.0), 8.0, injected=pts)
    _, truth = generate(spec)
    assert len(truth) == 3
    assert [(m.x, m.y, m.kind) for m in truth.minutiae] == [
        (x, y, kind) for x, y, kind in pts
    ]


def test_parallel_zero_angle_rows_are_phase_aligned():
    # ridge direction 0: stripes vary along y, every row is constant
    img, _ = generate(SynthSpec(96, 96, ParallelPattern(0.0), 8.0))
    assert (img.pixels == img.pixels[:, :1]).all()
    # and the column profile is periodic with the requested period
    col = img.pixels[:, 0].astype(float)
    assert np.allclose(col[:-8], col[8:], atol=1.0)


@pytest.mark.parametrize("period", [4.0, 8.0, 16.0])
def test_scanline_period_by_zero_crossings(period):
    img, _ = generate(SynthSpec(256, 256, ParallelPattern(math.radians(90)), period))
    row = img.pixels[128].astype(float) - 127.5
    crossings = np.nonzero(np.diff(np.signbit(row)))[0]
    spacing = 2.0 * np.diff(crossings).mean()  # two crossings per period
    assert abs(spacing - period) <= 1.0


def test_spacing_validation():
    with pytest.raises(ValueError, match="3\\*period"):
        SynthSpec(128, 128, ParallelPattern(0.0), 8.0,
                  injected=((50, 50, ENDING), (60, 50, ENDING)))
    with pytest.raises(ValueError, match="border"):
        SynthSpec(128, 128, ParallelPattern(0.0), 8.0, injected=((5, 50, ENDING),))
    with pytest.raises(ValueError, match="period"):
        SynthSpec(128, 128, ParallelPattern(0.0), 30.0)


def test_concentric_rings():
    img, _ = generate(SynthSpec(128, 128, ConcentricPattern(0.0, 0.0), 8.0))
    # intensity depends only on radius: check two points on the same ring
    assert abs(int(img.pixels[0, 40]) - int(img.pixels[40, 0])) <= 1


def test_noise_bounded():
    clean, _ = generate(SynthSpec(96, 96, ParallelPattern(0.7), 8.0))
    noisy, _ = generate(SynthSpec(96, 96, ParallelPattern(0.7), 8.0,
                                  noise_amplitude=30.0, seed=3))
    diff = noisy.pixels.astype(int) - clean.pixels.astype(int)
    inner = (clean.pixels > 35) & (clean.pixels < 220)  # away from clipping
    assert np.abs(diff[inner]).max() <= 31


def test_parse_synth_spec(tmp_path):
    f = tmp_path / "spec.txt"
    f.write_text(
        "# corpus spec\n"
        "width = 200\nheight = 150\n"
        "pattern = parallel:30\n"
        "period = 10\n"
        "noise_amplitude = 15\n"
        "seed = 42\n"
        "inject = 60,60,E\n"
        "inject = 100,100,B\n"
    )
    spec = parse_synth_spec(f)
    assert (spec.width, spec.height) == (200, 150)
    assert isinstance(spec.pattern, ParallelPattern)
    assert spec.pattern.angle == pytest.approx(math.radians(30))
    assert spec.period == 10.0
    assert spec.injected == ((60, 60, ENDING), (100, 100, BIFURCATION))
    assert spec.seed == 42


def test_parse_concentric(tmp_path):
    f = tmp_path / "spec.txt"
    f.write_text("pattern = concentric:-60,-60\nperiod = 8\n")
    spec = parse_synth_spec(f)
    assert isinstance(spec.pattern, ConcentricPattern)
    assert (spec.pattern.cx, spec.pattern.cy) == (-60.0, -60.0)


def test_parse_rejects_bad_lines(tmp_path):
    f = tmp_path / "spec.txt"
    for text, message in [
        ("width 100\n", "expected 'key = value', got 'width 100'"),
        ("noise_amplitud = 40\nwidht = 300\n", "unknown spec key 'noise_amplitud'"),
        ("width = 300\nwidht = 300\n", "unknown spec key 'widht'"),
        ("inject = 100,100\n", "expected 'inject = x,y,E|B', got 'inject = 100,100'"),
        ("inject = 1,2,E,B\n", "expected 'inject = x,y,E|B', got 'inject = 1,2,E,B'"),
    ]:
        f.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{f}: {message}')}$"):
            parse_synth_spec(f)
