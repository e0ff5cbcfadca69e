"""crgx: Shapley attribution, CAM-family heatmaps, and faithfulness metrics
for small models, with closed-form derivatives checked against an in-package
reverse-mode autodiff engine."""

from .cam import (
    CAM_METHODS,
    CamMethod,
    Heatmap,
    explain,
    rest_decomposition,
    shapley_weights,
    theorem3_ensemble,
)
from .game import (
    CooperativeGame,
    ShapleyVector,
    axiom_suite,
    make_spatial_game,
    shapley_exact,
    shapley_mc,
)
from .imgio import Image, read_image, write_image
from .metrics import (
    MetricRecord,
    adcc,
    coherency,
    complexity,
    evaluate_batch,
)
from .postprocess import (
    apply_colormap,
    normalize_minmax,
    overlay,
    upsample_bilinear,
)
from .suites import hvp_suite, shapley_suite, theorem_suite
from .utility import UTILITY_KINDS, UtilitySpec, compute_utility
from .zoo import ARCHS, ToyModel, build_model

__version__ = "0.1.0"

__all__ = [
    "ARCHS",
    "CAM_METHODS",
    "CamMethod",
    "CooperativeGame",
    "Heatmap",
    "Image",
    "MetricRecord",
    "ShapleyVector",
    "ToyModel",
    "UTILITY_KINDS",
    "UtilitySpec",
    "adcc",
    "apply_colormap",
    "axiom_suite",
    "build_model",
    "coherency",
    "complexity",
    "compute_utility",
    "evaluate_batch",
    "explain",
    "hvp_suite",
    "make_spatial_game",
    "normalize_minmax",
    "overlay",
    "read_image",
    "rest_decomposition",
    "shapley_exact",
    "shapley_mc",
    "shapley_suite",
    "shapley_weights",
    "theorem3_ensemble",
    "theorem_suite",
    "upsample_bilinear",
    "write_image",
]
