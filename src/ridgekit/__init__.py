"""Fingerprint ridge enhancement, minutiae extraction and evaluation."""

from .binary import BinaryImage, Skeleton, auto_threshold, binarize, thin
from .config import PipelineConfig, load_config
from .enhance import (
    FrequencyMap,
    OrientationField,
    RegionMask,
    Rejection,
    compute_region_mask,
    estimate_frequency,
    estimate_orientation,
    gabor_enhance,
    gabor_response,
)
from .evaluate import AggregateReport, EvalRun, MatchResult, aggregate, match_minutiae
from .image import GrayImage, PgmError, invert, load_pgm, save_pgm
from .minutiae import (
    BIFURCATION,
    ENDING,
    Minutia,
    MinutiaeSet,
    extract_minutiae,
    postprocess,
    read_minutiae,
    write_minutiae,
)
from .pipeline import extract_from_image, run_eval, run_extract, run_synth
from .synth import ConcentricPattern, ParallelPattern, SynthSpec, generate, parse_synth_spec

__version__ = "0.1.0"
