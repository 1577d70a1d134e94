"""Seeded benchmark inputs, written as PGM images plus ground-truth files.

One seed drives every generator. Seed 0 reproduces the tier-1 acceptance
corpus (``tests/conftest.py::corpus_spec``). The ridge geometry of each
workload is fixed and the seed draws the noise, so that two seeds give the
same kind of work and timing differences come from the program.
"""

from __future__ import annotations

import hashlib
import inspect
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import ndimage

from ridgekit import synth
from ridgekit.image import GrayImage, save_pgm
from ridgekit.minutiae import BIFURCATION, ENDING, read_minutiae, write_minutiae
from ridgekit.synth import ConcentricPattern, ParallelPattern, SynthSpec, generate


@dataclass(frozen=True)
class Item:
    image_id: str
    image: GrayImage
    truth: object  # MinutiaeSet for prints, None for must-reject captures

    @property
    def is_print(self) -> bool:
        return self.truth is not None


# corpus256: the acceptance corpus (conftest.corpus_spec, k = 0..19)
GRID_10 = (
    (48, 48, ENDING), (48, 120, BIFURCATION), (48, 192, ENDING),
    (120, 48, BIFURCATION), (120, 120, ENDING), (120, 192, BIFURCATION),
    (192, 48, ENDING), (192, 120, BIFURCATION), (192, 192, ENDING),
    (120, 225, ENDING),
)
_CORNERS = ((-60.0, -60.0), (316.0, -60.0), (-60.0, 316.0), (316.0, 316.0))


def corpus256(seed: int) -> list[Item]:
    items = []
    for k in range(20):
        noise = 40.0 * k / 19
        if k % 2 == 0:
            pattern = ParallelPattern(math.radians(k * 17.0))
        else:
            pattern = ConcentricPattern(*_CORNERS[(k // 2) % 4])
        spec = SynthSpec(256, 256, pattern, 8.0, injected=GRID_10,
                         noise_amplitude=noise, seed=100 + k + 1000 * seed)
        img, truth = generate(spec)
        items.append(Item(truth.image_id, img, truth))
    return items


# dense512: 512^2, period 6, a staggered 24 px lattice of alternating E/B
# minutiae (21 rows of 21 and 20 points: 431 per image)
DENSE_PATTERNS = (ParallelPattern(math.radians(20.0)), ConcentricPattern(-100.0, -100.0))
DENSE_NOISE = 30.0


def _dense_lattice() -> tuple[tuple[int, int, str], ...]:
    points = []
    for row in range(21):
        y = 12 + 24 * row
        for x in range(12 if row % 2 == 0 else 24, 500, 24):
            points.append((x, y, ENDING if len(points) % 2 == 0 else BIFURCATION))
    return tuple(points)


def _clean_dense(k: int, cache_dir: Path):
    """Noise-free dense print k and its truth. Rendering 431 phase vortices
    at 512^2 takes seconds, so the clean image is cached per checkout, keyed
    by the generator's source and the spec."""
    spec = SynthSpec(512, 512, DENSE_PATTERNS[k], 6.0, injected=_dense_lattice())
    key = hashlib.sha256(
        (inspect.getsource(synth) + repr(spec)).encode()
    ).hexdigest()[:16]
    pixels_path = cache_dir / f"dense{k}_{key}.npy"
    truth_path = cache_dir / f"dense{k}_{key}.txt"
    if not (pixels_path.exists() and truth_path.exists()):
        cache_dir.mkdir(parents=True, exist_ok=True)
        img, truth = generate(spec)
        tmp = cache_dir / f"dense{k}_{key}.tmp.npy"
        np.save(tmp, img.pixels)
        write_minutiae(truth_path, truth, img.width, img.height)
        tmp.replace(pixels_path)
    truth, _, _ = read_minutiae(truth_path)
    return np.load(pixels_path), truth


def dense512(seed: int, cache_dir: Path) -> list[Item]:
    items = []
    for k in range(len(DENSE_PATTERNS)):
        clean, truth = _clean_dense(k, cache_dir)
        rng = np.random.default_rng([seed, 512, k])
        noisy = clean + rng.uniform(-DENSE_NOISE, DENSE_NOISE, clean.shape)
        image_id = f"dense_{k:02d}"
        items.append(Item(
            image_id,
            GrayImage(np.clip(np.rint(noisy), 0, 255).astype(np.uint8)),
            replace(truth, image_id=image_id),
        ))
    return items


# gate: 256^2 capture-station rejects; every image must be rejected
GATE_PER_FAMILY = 8  # the cost of blurred noise varies by seed; 8 average it


def _blank(rng: np.random.Generator) -> np.ndarray:
    return rng.integers(120, 136, (256, 256)).astype(np.float64)


def _partial_touch(rng: np.random.Generator) -> np.ndarray:
    """A print on ~15% of the frame (a disc), light background elsewhere."""
    angle = math.radians(float(rng.uniform(0.0, 180.0)))
    img, _ = generate(SynthSpec(256, 256, ParallelPattern(angle), 8.0,
                                noise_amplitude=20.0,
                                seed=int(rng.integers(1 << 31))))
    cy, cx = rng.uniform(64.0, 192.0, 2)
    radius = math.sqrt(0.15 * 256 * 256 / math.pi)
    yy, xx = np.mgrid[0:256, 0:256]
    inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius
    return np.where(inside, img.pixels, rng.normal(225.0, 4.0, (256, 256)))


def _blurred_noise(rng: np.random.Generator) -> np.ndarray:
    """N(128, 60) noise blurred with sigma = 2 px, rescaled to 0..255."""
    a = ndimage.gaussian_filter(rng.normal(128.0, 60.0, (256, 256)), 2.0)
    return (a - a.min()) * 255.0 / (a.max() - a.min())


GATE_FAMILIES = (("blank", _blank), ("partial", _partial_touch), ("noise", _blurred_noise))


def gate(seed: int) -> list[Item]:
    items = []
    for f, (name, make) in enumerate(GATE_FAMILIES):
        for i in range(GATE_PER_FAMILY):
            rng = np.random.default_rng([seed, 256, f, i])
            pixels = np.clip(np.rint(make(rng)), 0, 255).astype(np.uint8)
            items.append(Item(f"gate_{name}_{i:02d}", GrayImage(pixels), None))
    return items


WORKLOADS = ("corpus256", "dense512", "gate")


def make(workload: str, seed: int, cache_dir: Path, limit: int | None = None) -> list[Item]:
    """The workload's items; `limit` keeps the first images (per family on
    gate) for the short self-test."""
    if workload == "corpus256":
        items = corpus256(seed)
    elif workload == "dense512":
        items = dense512(seed, cache_dir)
    elif workload == "gate":
        items = gate(seed)
        if limit is not None:
            return [it for it in items if int(it.image_id[-2:]) < limit]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items if limit is None else items[:limit]


def write(items: list[Item], data_dir: Path, truth_dir: Path) -> None:
    """PGM per image; a truth file per print (none for must-reject captures)."""
    data_dir.mkdir(parents=True, exist_ok=True)
    truth_dir.mkdir(parents=True, exist_ok=True)
    for it in items:
        save_pgm(it.image, data_dir / f"{it.image_id}.pgm")
        if it.is_print:
            write_minutiae(truth_dir / f"{it.image_id}.txt", it.truth,
                           it.image.width, it.image.height)
