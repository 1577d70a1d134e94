"""A metamorphic test of the intensity scale: the front end reads the 8-bit
capture itself, and every stage is invariant to an affine intensity map, so
doubling the intensities of a capture changes no output.

With A = I // 2 (0..127), 2A is a capture of the same print whose Sobel
gradients, projection signatures, block variances and Gabor response are
exactly twice A's, and whose gradient products and variances are four times
A's: powers of two, so every float result scales without rounding."""

import numpy as np
import pytest

from conftest import corpus_spec
from test_gate import CAPTURES
from ridgekit.config import PipelineConfig
from ridgekit.image import GrayImage
from ridgekit.minutiae import BIFURCATION, ENDING
from ridgekit.pipeline import extract_from_image
from ridgekit.synth import ConcentricPattern, SynthSpec, generate


def _dense_print():
    """A 512^2 print of period 6 in 8 row bands, with a 5 x 5 lattice of
    alternating endings and bifurcations."""
    lattice = [(x, y, (ENDING, BIFURCATION)[(i + j) % 2])
               for i, x in enumerate(range(64, 512, 96)) for j, y in enumerate(range(64, 512, 96))]
    return generate(SynthSpec(512, 512, ConcentricPattern(-100.0, -100.0), 6.0,
                              injected=tuple(lattice), noise_amplitude=30.0, seed=3))[0]


IMAGES = {
    **{f"corpus_{k:02d}": (lambda k=k: generate(corpus_spec(k))[0]) for k in range(20)},
    **CAPTURES,
    "dense_512x512": _dense_print,
}


@pytest.mark.parametrize("name", sorted(IMAGES))
def test_doubling_the_intensities_changes_no_output(name):
    halved = IMAGES[name]().pixels // 2
    config = PipelineConfig()
    want = extract_from_image(GrayImage(halved), name, config)
    got = extract_from_image(GrayImage(2 * halved), name, config)
    assert got.rejection == want.rejection  # the verdict, share and measure
    assert got.minutiae == want.minutiae  # positions, kinds and directions
    if name.startswith(("corpus", "dense")):
        assert not want.rejected and len(want.minutiae) > 0
        enhanced = [o.intermediates["enhanced"].pixels for o in (got, want)]
        assert np.array_equal(*enhanced)
    else:
        assert want.rejected
