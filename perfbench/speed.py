"""How fast the machine runs right now, against a fixed reference.

On the shared 2-vCPU machine this benchmark was built on, the same work runs
up to a third faster or slower from one spell of seconds or minutes to the
next, as other tenants load the host. So the workload process runs a short
one-thread calibration kernel, which does not touch ridgekit, between its
timed units of work, and reports serial times at the reference speed:
measured seconds times the median over the run of REFERENCE_S / kernel
seconds. Over 60 s of repeated extractions of one image, 5 s window medians
of the extraction time varied by 12-17% (coefficient of variation) and their
ratio to the kernel's time by 2.5-3.6%; over six corpus256 runs the spread
(IQR / median) of latency_p50_ms fell from 0.12 to 0.05. The kernel does
not track two busy processes or interpreter start-up (the spread of
eval_w2_img_per_s and setup_s grew when scaled), so those stay unscaled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import ndimage

REFERENCE_S = 0.008  # the kernel's time in a typical spell of that machine

_rng = np.random.default_rng(0)
_IMAGE = _rng.random((256, 256))
_COORDS = _rng.random((2, 20000)) * 255.0


def _kernel() -> int:
    """A fixed mix like ridgekit's: filters, interpolation, an FFT and a
    pure-Python loop."""
    ndimage.gaussian_filter(_IMAGE, 2.0)
    ndimage.map_coordinates(_IMAGE, _COORDS, order=1)
    np.fft.rfft2(_IMAGE)
    total = 0
    for i in range(30000):
        total += (i * 7) % 13
    return total


def factor() -> float:
    """Reference-speed seconds per measured second, right now."""
    t0 = time.perf_counter()
    _kernel()
    return REFERENCE_S / (time.perf_counter() - t0)


def run_factor(samples: list[float]) -> float:
    """The factor for a whole run: the median of its samples, since one
    8 ms kernel time is itself noisy."""
    return statistics.median(samples)
