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
    ridge_phase,
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


@pytest.mark.parametrize("pattern", [ParallelPattern(0.4), ConcentricPattern(-30.0, 200.0)])
def test_generate_renders_the_ridge_phase(pattern):
    # the phase that the stage-level truth reads is the one rendered
    spec = SynthSpec(120, 90, pattern, 7.0, injected=((60, 45, ENDING),))
    phase, truth = ridge_phase(spec)
    img, want = generate(spec)
    assert np.array_equal(img.pixels, np.clip(np.rint(127.5 - 100.0 * np.cos(phase)), 0, 255))
    assert tuple(truth) == want.minutiae

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


NOISE_RULE = "noise_amplitude must be >= 0 and 2*noise_amplitude finite"
PATTERN_FORMS = "expected 'parallel:DEG' or 'concentric:CX,CY'"
CENTER_RULE = "concentric center must have |cx|, |cy| <= 1e+06"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_concentric_center_bound():
    # at the bound the ring phase stays finite and the rings are drawn
    img, _ = generate(SynthSpec(16, 16, ConcentricPattern(-1e6, 1e6)))
    assert img.pixels.max() - img.pixels.min() > 100
    for cx, cy in [(1.000001e6, 0.0), (0.0, -1e308)]:
        with pytest.raises(ValueError, match=f"^{re.escape(f'pattern: {CENTER_RULE}')}$"):
            SynthSpec(16, 16, ConcentricPattern(cx, cy))


def test_parse_rejects_bad_lines(tmp_path):
    f = tmp_path / "spec.txt"
    for text, message in [
        ("width 100\n", "expected 'key = value', got 'width 100'"),
        ("noise_amplitud = 40\nwidht = 300\n", "unknown spec key 'noise_amplitud'"),
        ("width = 300\nwidht = 300\n", "unknown spec key 'widht'"),
        ("inject = 100,100\n", "expected 'inject = x,y,E|B', got 'inject = 100,100'"),
        ("inject = 1,2,E,B\n", "expected 'inject = x,y,E|B', got 'inject = 1,2,E,B'"),
        ("noise_amplitude = inf\n", f"spec key noise_amplitude: {NOISE_RULE}"),
        ("noise_amplitude = nan\n", f"spec key noise_amplitude: {NOISE_RULE}"),
        ("noise_amplitude = 1e308\n", f"spec key noise_amplitude: {NOISE_RULE}"),
        ("noise_amplitude = 5\nseed = -1\n", "spec key seed: seed must be >= 0"),
        ("width = 0\n", "spec key width: width and height must be >= 1"),
        ("height = -3\n", "spec key height: width and height must be >= 1"),
        ("pattern = parallel:nan\n", "spec key pattern: numbers must be finite"),
        ("pattern = concentric:inf,0\n", "spec key pattern: numbers must be finite"),
        ("pattern = concentric:0,-2e6\n", f"spec key pattern: {CENTER_RULE}"),
        ("width = abc\n", "spec key width: expected int, got 'abc'"),
        ("inject = a,2,E\n", "expected 'inject = x,y,E|B', got 'inject = a,2,E'"),
        ("inject = 100,100,ending\n",
         "expected 'inject = x,y,E|B', got 'inject = 100,100,ending'"),
        ("pattern = concentric:1\n", f"spec key pattern: {PATTERN_FORMS}, got 'concentric:1'"),
        ("pattern = spiral:3\n", f"spec key pattern: {PATTERN_FORMS}, got 'spiral:3'"),
        ("period = 30\n", "spec key period: period 30.0 outside [4, 20]"),
        ("injected = 1\n", "unknown spec key 'injected'"),
        ("width = 96\ninject = 40,40,E\ninject = 44,40,E\n",
         "injected points (40, 40) and (44, 40) closer than 3*period"),
    ]:
        f.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{f}: {message}')}$"):
            parse_synth_spec(f)


def test_parse_empty_spec_is_the_default_spec(tmp_path):
    f = tmp_path / "spec.txt"
    f.write_text("# nothing set\n")
    spec = parse_synth_spec(f)
    assert spec == SynthSpec()
    assert spec == SynthSpec(256, 256, ParallelPattern(0.0), 8.0, (), 0.0, 0)


def test_parse_readme_example_spec(tmp_path):
    f = tmp_path / "spec.txt"
    f.write_text(
        "width = 256\n"
        "height = 256\n"
        "pattern = parallel:30        # ridge direction in degrees\n"
        "# pattern = concentric:-60,-60   # ring center (corner/outside recommended)\n"
        "period = 8                   # ridge period, px (4..20)\n"
        "noise_amplitude = 20         # uniform additive noise\n"
        "seed = 100\n"
        "inject = 48,48,E             # one line per ground-truth minutia\n"
        "inject = 120,120,B\n"
    )
    assert parse_synth_spec(f) == SynthSpec(
        width=256, height=256, pattern=ParallelPattern(math.radians(30)), period=8.0,
        injected=((48, 48, ENDING), (120, 120, BIFURCATION)), noise_amplitude=20.0, seed=100,
    )
