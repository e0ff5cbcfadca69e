"""Heatmap quality metrics and the batch evaluation protocol.

Confidence terms are always post-softmax scores of the target class, no
matter which utility produced the heatmap. Per-image heatmaps go through
normalize -> upsample before masking, and coherency compares the original
heatmap with the one recomputed on the explanation-masked image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .cam import CamMethod, Heatmap, explain_batch
from .imgio import Image
from .postprocess import normalize_minmax, upsample_bilinear
from .utility import UtilitySpec, compute_utility_batch
from .zoo import ToyModel

HeatmapSource = Union[str, CamMethod, Callable[..., Heatmap]]


def _match_resolution(pixels: np.ndarray, h: np.ndarray):
    pixels = np.asarray(pixels, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if pixels.ndim != 3:
        raise ValueError(f"expected pixel planes (C, H, W), got shape {pixels.shape}")
    if h.shape != pixels.shape[1:]:
        raise ValueError(f"heatmap resolution {h.shape} does not match "
                         f"image {pixels.shape[1:]}")
    return pixels, h


def explanation_map(pixels: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Keep pixels in proportion to their relevance: x * h, heatmap
    broadcast across channels."""
    pixels, h = _match_resolution(pixels, h)
    return pixels * h[None]


def anti_explanation_map(pixels: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Remove the relevant pixels instead: x * (1 - h)."""
    pixels, h = _match_resolution(pixels, h)
    return pixels * (1.0 - h)[None]


def _paired_scores(conf_full, conf_other, positive_full: bool):
    y = np.asarray(conf_full, dtype=np.float64)
    o = np.asarray(conf_other, dtype=np.float64)
    if y.shape != o.shape or y.ndim != 1:
        raise ValueError(f"score vectors must be 1-D and equal length, "
                         f"got {y.shape} and {o.shape}")
    if y.size == 0:
        raise ValueError("need at least one score")
    if positive_full and np.min(y) <= 0.0:
        raise ValueError("full-image confidences must be positive")
    return y, o


def average_drop(conf_full, conf_expl) -> float:
    """Mean relative confidence lost on the explanation map:
    mean max(0, y - o) / y."""
    y, o = _paired_scores(conf_full, conf_expl, positive_full=True)
    return float(np.mean(np.maximum(0.0, y - o) / y))


def increase_confidence(conf_full, conf_expl) -> float:
    """Fraction of images whose confidence strictly rises on the
    explanation map."""
    y, o = _paired_scores(conf_full, conf_expl, positive_full=False)
    return float(np.mean(y < o))


def average_drop_deletion(conf_full, conf_anti) -> float:
    """Average drop when the relevant pixels are removed; large is good."""
    return average_drop(conf_full, conf_anti)


def coherency(h_orig: np.ndarray, h_expl: np.ndarray) -> float:
    """Pearson correlation between the heatmap and its re-explanation,
    mapped to [0,1] as 0.5 corr + 0.5. Zero variance on either side is
    read as corr = 0."""
    a = np.asarray(h_orig, dtype=np.float64).ravel()
    b = np.asarray(h_expl, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"heatmap resolutions differ: {np.shape(h_orig)} "
                         f"vs {np.shape(h_expl)}")
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt(np.sum(da * da) * np.sum(db * db))
    corr = 0.0 if denom == 0.0 else float(np.sum(da * db) / denom)
    return 0.5 * corr + 0.5


def complexity(h: np.ndarray) -> float:
    """Mean absolute heatmap value; L1 scaled by pixel count so the score
    stays in [0,1] for normalized maps."""
    return float(np.mean(np.abs(np.asarray(h, dtype=np.float64))))


def adcc(ad: float, coh: float, com: float) -> float:
    """Harmonic mean of coherency, 1 - complexity, and 1 - average drop;
    defined as 0 when any term vanishes."""
    for name, value in (("ad", ad), ("coh", coh), ("com", com)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0,1], got {value}")
    terms = (coh, 1.0 - com, 1.0 - ad)
    if any(t == 0.0 for t in terms):
        return 0.0
    return 3.0 / sum(1.0 / t for t in terms)


@dataclass(frozen=True)
class MetricRecord:
    """Batch metrics as fractions in [0,1]; `to_report` scales to
    percentages. Per-image terms are kept for inspection, and `skipped`
    names each image left out as (index, reason)."""

    method: str
    utility: str
    arch: str
    n_images: int
    skipped: tuple
    ad: float
    coherency: float
    complexity: float
    adcc: float
    ic: float
    add: float
    image_ad: tuple
    image_coherency: tuple
    image_complexity: tuple
    image_ic: tuple
    image_add: tuple

    def __post_init__(self):
        for name in ("ad", "coherency", "complexity", "adcc", "ic", "add"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")
        # a harmonic mean is throttled by its worst term: it sits between
        # min and 3 * min of the three components
        worst = min(self.coherency, 1.0 - self.complexity, 1.0 - self.ad)
        if not worst - 1e-12 <= self.adcc <= 3.0 * worst + 1e-12:
            raise ValueError(f"adcc {self.adcc} violates harmonic bounds for "
                             f"worst term {worst}")

    @property
    def n_failed(self) -> int:
        return len(self.skipped)

    def to_report(self) -> dict:
        report = {
            "method": self.method,
            "utility": self.utility,
            "arch": self.arch,
            "n_images": self.n_images,
            "ad": round(self.ad * 100.0, 4),
            "coherency": round(self.coherency * 100.0, 4),
            "complexity": round(self.complexity * 100.0, 4),
            "adcc": round(self.adcc * 100.0, 4),
            "ic": round(self.ic * 100.0, 4),
            "add": round(self.add * 100.0, 4),
        }
        if self.n_failed:
            report["n_failed"] = self.n_failed
        return report


def _method_name(method: HeatmapSource) -> str:
    if isinstance(method, CamMethod):
        return method.name
    if isinstance(method, str):
        return method
    return getattr(method, "cam_name", getattr(method, "__name__", "custom"))


def _per_image_method(method: HeatmapSource, index: int) -> HeatmapSource:
    """randomcam draws fresh map coefficients per image, derived from the
    batch seed and the image's position so runs stay reproducible."""
    if isinstance(method, str):
        method = CamMethod(method)
    if isinstance(method, CamMethod) and method.name == "randomcam":
        derived = int(np.random.SeedSequence((method.seed, index)).generate_state(1)[0])
        return CamMethod("randomcam", seed=derived)
    return method


def _pipeline_heatmap(model: ToyModel, pixels: np.ndarray, stack: np.ndarray,
                      spec: UtilitySpec, method: HeatmapSource) -> np.ndarray:
    """Normalized, upsampled heatmap of one image; built-in methods read
    the image's tap stack (1, n_maps, d) instead of recomputing it."""
    if callable(method) and not isinstance(method, (str, CamMethod)):
        heatmap = method(model, pixels, spec)
    else:
        heatmap = explain_batch(model, stack, spec, method)[0]
    grid = normalize_minmax(heatmap.grid("post"))
    return upsample_bilinear(grid, pixels.shape[1], pixels.shape[2])


def _target_scores(model: ToyModel, stacks: np.ndarray, target_class: int) -> np.ndarray:
    return compute_utility_batch(model.head_batch(stacks),
                                 UtilitySpec(target_class, "post-softmax"))


def evaluate_batch(model: ToyModel, images, spec: UtilitySpec,
                   method: HeatmapSource) -> MetricRecord:
    """Run the full per-image protocol and aggregate.

    Per image: heatmap -> normalize -> upsample -> explanation and
    anti-explanation maps -> re-score -> re-explain for coherency. The
    image, its explanation map and its anti-map each run to the tap once;
    scores and heatmaps are read from those three stacks. Batch ADCC is the
    harmonic mean of the batch-mean terms. An image is skipped with its
    reason when any stage of it raises `ValueError` (a shape the model does
    not take, a heatmap source that fails) or when its target confidence is
    not positive (the drop terms divide by it)."""
    if len(images) == 0:
        raise ValueError("need at least one image")
    if not 0 <= spec.target_class < model.num_classes:
        raise ValueError(f"target_class {spec.target_class} out of range for "
                         f"{model.num_classes} classes")

    planes = [img.pixels if isinstance(img, Image) else np.asarray(img, dtype=np.float64)
              for img in images]
    c = spec.target_class

    def run_one(index: int):
        x = planes[index]
        stack = model._tap_stack(x[None])
        y = float(_target_scores(model, stack, c)[0])
        if not y > 0.0:
            return f"target confidence {y!r} is not positive"
        per_method = _per_image_method(method, index)
        h1 = _pipeline_heatmap(model, x, stack, spec, per_method)
        ex = explanation_map(x, h1)
        masked = model._tap_stack(np.stack([ex, anti_explanation_map(x, h1)]))
        o, d = (float(v) for v in _target_scores(model, masked, c))
        h2 = _pipeline_heatmap(model, ex, masked[:1], spec, per_method)
        return (max(0.0, y - o) / y,
                coherency(h1, h2),
                complexity(h1),
                1.0 if y < o else 0.0,
                max(0.0, y - d) / y)

    def guarded(index: int):
        try:
            return run_one(index)
        except ValueError as err:
            return str(err)

    results = [guarded(i) for i in range(len(planes))]

    kept = [r for r in results if not isinstance(r, str)]
    skipped = tuple((i, r) for i, r in enumerate(results) if isinstance(r, str))
    if not kept:
        raise ValueError(f"all {len(results)} images failed: {skipped[0][1]}")

    columns = list(zip(*kept))
    ad_mean, coh_mean, com_mean, ic_mean, add_mean = (
        float(np.mean(np.asarray(col, dtype=np.float64))) for col in columns)

    return MetricRecord(
        method=_method_name(method),
        utility=spec.kind,
        arch=model.arch,
        n_images=len(kept),
        skipped=skipped,
        ad=ad_mean,
        coherency=coh_mean,
        complexity=com_mean,
        adcc=adcc(ad_mean, coh_mean, com_mean),
        ic=ic_mean,
        add=add_mean,
        image_ad=tuple(columns[0]),
        image_coherency=tuple(columns[1]),
        image_complexity=tuple(columns[2]),
        image_ic=tuple(columns[3]),
        image_add=tuple(columns[4]),
    )
