"""Heatmap quality metrics and the batch evaluation protocol.

Confidence terms are always post-softmax scores of the target class, no
matter which utility produced the heatmap. Per-image heatmaps go through
normalize -> upsample before masking, and coherency compares the original
heatmap with the one recomputed on the explanation-masked image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from ._rules import _check_class, _checked_array, _checked_unit
from .cam import CamMethod, Heatmap, _as_method, explain_batch
from .imgio import Image
from .postprocess import normalize_minmax, upsample_bilinear
from .utility import UtilitySpec, compute_utility_batch
from .zoo import ToyModel, _chunk_rows

HeatmapSource = Union[str, CamMethod, Callable[..., Heatmap]]


def explanation_map(pixels: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Keep pixels in proportion to their relevance: x * h, heatmap
    broadcast across channels. Pixels are (C, H, W) with up to two leading
    dimensions and heatmaps (H, W) with as many, broadcastable."""
    pixels = _checked_array("pixels", pixels, (3, 4, 5))
    h = _checked_array("h", h, (2, 3, 4))
    if h.shape[-2:] != pixels.shape[-2:]:
        raise ValueError(f"heatmap resolution {h.shape[-2:]} does not match "
                         f"image {pixels.shape[-2:]}")
    return pixels * h[..., None, :, :]


def _drops(y: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Per-image relative confidence lost, max(0, y - o) / y: the AD term
    on the explanation map, the ADD term on the anti-explanation map."""
    return np.maximum(0.0, y - o) / y


def _increases(y: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Per-image IC term: 1 where the confidence strictly rises, else 0."""
    return np.where(y < o, 1.0, 0.0)


def coherency(h_orig: np.ndarray, h_expl: np.ndarray) -> float:
    """Pearson correlation between the heatmap and its re-explanation,
    mapped to [0,1] as 0.5 corr + 0.5, of two 1- or 2-D maps of one
    shape. Zero variance on either side is read as corr = 0."""
    a = _checked_array("h_orig", h_orig, (1, 2))
    b = _checked_array("h_expl", h_expl, (1, 2))
    if a.shape != b.shape:
        raise ValueError(f"heatmap resolutions differ: {a.shape} vs {b.shape}")
    a, b = a.ravel(), b.ravel()
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt(np.sum(da * da) * np.sum(db * db))
    corr = 0.0 if denom == 0.0 else float(np.sum(da * db) / denom)
    return 0.5 * corr + 0.5


def complexity(h: np.ndarray) -> float:
    """Mean absolute value of a 1- or 2-D heatmap; L1 scaled by pixel
    count so the score stays in [0,1] for normalized maps."""
    return float(np.mean(np.abs(_checked_array("h", h, (1, 2)))))


def adcc(ad: float, coh: float, com: float) -> float:
    """Harmonic mean of coherency, 1 - complexity, and 1 - average drop;
    defined as 0 when any term vanishes. Each term is a real number (not a
    bool) in [0,1]."""
    ad, coh, com = (_checked_unit(name, value)
                    for name, value in (("ad", ad), ("coh", coh), ("com", com)))
    terms = (coh, 1.0 - com, 1.0 - ad)
    if any(t == 0.0 for t in terms):
        return 0.0
    return 3.0 / sum(1.0 / t for t in terms)


@dataclass(frozen=True)
class MetricRecord:
    """Batch metrics as fractions in [0,1]; `to_report` scales to
    percentages. Built from the per-image terms, which stay for inspection,
    and `skipped`, which names each image left out as (index, reason). The
    batch values are derived: `n_images` counts the terms, each metric is
    the mean of its terms, and `adcc` is `adcc()` of the three means. The
    five term tuples must have one length of at least 1."""

    method: str
    utility: str
    arch: str
    skipped: tuple
    image_ad: tuple
    image_coherency: tuple
    image_complexity: tuple
    image_ic: tuple
    image_add: tuple
    n_images: int = field(init=False)
    ad: float = field(init=False)
    coherency: float = field(init=False)
    complexity: float = field(init=False)
    adcc: float = field(init=False)
    ic: float = field(init=False)
    add: float = field(init=False)

    def __post_init__(self):
        names = ("ad", "coherency", "complexity", "ic", "add")
        counts = [len(getattr(self, "image_" + name)) for name in names]
        if min(counts) == 0 or len(set(counts)) != 1:
            raise ValueError("per-image term counts must be equal and at least 1, got "
                             + ", ".join(f"{n} {k}" for n, k in zip(names, counts)))
        object.__setattr__(self, "n_images", counts[0])
        for name in names:
            value = float(np.mean(np.asarray(getattr(self, "image_" + name),
                                             dtype=np.float64)))
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "adcc", adcc(self.ad, self.coherency, self.complexity))

    @property
    def n_failed(self) -> int:
        return len(self.skipped)

    def to_report(self) -> dict:
        report = {"method": self.method, "utility": self.utility, "arch": self.arch,
                  "n_images": self.n_images}
        for name in ("ad", "coherency", "complexity", "adcc", "ic", "add"):
            report[name] = round(getattr(self, name) * 100.0, 4)
        if self.n_failed:
            report["n_failed"] = self.n_failed
        return report


def _per_image_method(method, index: int):
    """randomcam draws fresh map coefficients per image, derived from the
    batch seed and the image's position so runs stay reproducible."""
    if isinstance(method, CamMethod) and method.name == "randomcam":
        derived = int(np.random.SeedSequence((method.seed, index)).generate_state(1)[0])
        return CamMethod("randomcam", seed=derived)
    return method


def _pipeline_heatmaps(model: ToyModel, pixels: np.ndarray, stacks: np.ndarray,
                       first: int, spec: UtilitySpec, method) -> np.ndarray:
    """Normalized heatmaps of n images upsampled to their resolution,
    (n, H, W), C-contiguous. Built-in methods read the images' tap stacks
    (n, n_maps, d) in one `explain_batch`; randomcam (a draw per image
    index `first`, `first + 1`, ...) and custom callables build each
    image's own."""
    if not isinstance(method, CamMethod):
        heatmaps = [method(model, x, spec) for x in pixels]
        for h in heatmaps:
            if not isinstance(h, Heatmap):
                raise ValueError(f"heatmap source must return a Heatmap, "
                                 f"got {type(h).__name__}")
    elif method.name == "randomcam":
        heatmaps = [explain_batch(model, stacks[k:k + 1], spec,
                                  _per_image_method(method, first + k))[0]
                    for k in range(len(stacks))]
    else:
        heatmaps = explain_batch(model, stacks, spec, method)
    grids = np.stack([normalize_minmax(h.grid("post")) for h in heatmaps])
    return upsample_bilinear(grids, pixels.shape[2], pixels.shape[3])


def _target_scores(model: ToyModel, stacks: np.ndarray, target_class: int) -> np.ndarray:
    return compute_utility_batch(model.head_batch(stacks),
                                 UtilitySpec(target_class, "post-softmax"))


def _protocol_terms(model: ToyModel, planes: list, first: int, spec: UtilitySpec,
                    method) -> list:
    """The protocol over images `first`, `first + 1`, ... given as `planes`,
    one batched call per stage: the per-image (ad, coherency, complexity,
    ic, add) lists. Raises `ValueError` if any image fails a stage."""
    c = spec.target_class
    pixels = np.stack([_checked_array("image", plane, None) for plane in planes])
    stacks = model._tap_stack(pixels)
    y = _target_scores(model, stacks, c)
    if not np.all(y > 0.0):  # the drop terms divide by the confidence
        raise ValueError(f"target confidence {float(y[np.argmin(y > 0.0)])!r} "
                         "is not positive")
    h1 = _pipeline_heatmaps(model, pixels, stacks, first, spec, method)
    # x * h and x * (1 - h), interleaved as 2n images
    masked = explanation_map(pixels[:, None], np.stack([h1, 1.0 - h1], axis=1))
    masked = masked.reshape((-1,) + pixels.shape[1:])
    del pixels, stacks  # not read again; the 2n tap is the largest stage
    masked_stacks = model._tap_stack(masked)
    o, d = _target_scores(model, masked_stacks, c).reshape(-1, 2).T
    h2 = _pipeline_heatmaps(model, masked[::2], masked_stacks[::2], first, spec, method)
    return [_drops(y, o).tolist(),
            [coherency(a, b) for a, b in zip(h1, h2)],
            [complexity(a) for a in h1],
            _increases(y, o).tolist(),
            _drops(y, d).tolist()]


def evaluate_batch(model: ToyModel, images: Sequence[np.ndarray | Image], spec: UtilitySpec,
                   method: HeatmapSource) -> MetricRecord:
    """Run the protocol stage by stage over stacked images and aggregate.

    Stages: tap the images; score the target class; heatmap -> normalize ->
    upsample; explanation and anti-explanation maps, tapped together as 2n
    images; re-score both; re-explain the explanation maps for coherency.
    Each stage is one batched call (randomcam and custom callables build
    their heatmaps per image); only coherency and complexity are computed
    per image. The protocol takes up to `_BATCH_CELLS` input pixel values
    at a time (five 64x64 RGB images), so memory does not grow with the
    batch. Batch ADCC is the harmonic mean of the batch-mean terms.

    An image is skipped with its reason when a stage raises `ValueError` on
    it (an image `_rules._checked_array` refuses, a shape the model does
    not take, a heatmap source that fails) or when its target confidence
    is not positive (the drop terms divide by it). A chunk of several images that raises reruns the
    whole protocol one image at a time, so only the failing images are left
    out, each with its own message. Every stage maps rows to rows, each row
    bit-identical to its own call, so every kept term is bit-identical to
    running the protocol on that image alone. A bad `method` (an unknown
    name, a seedless randomcam, a non-callable) raises before any image is read."""
    if not callable(method):  # a name becomes its CamMethod; CamMethod checks the rest
        method = _as_method(method)
    try:
        planes = [img.pixels if isinstance(img, Image) else img for img in images]
    except TypeError:
        raise ValueError(f"images must be a sequence of images, got "
                         f"{type(images).__name__}") from None
    if not planes:
        raise ValueError("images must hold at least one image")
    _check_class(spec.target_class, model.num_classes)

    skipped: dict[int, str] = {}
    columns = [[], [], [], [], []]  # ad, coherency, complexity, ic, add
    step = _chunk_rows(int(np.prod(model.in_shape)))
    for first in range(0, len(planes), step):
        chunk = planes[first:first + step]
        try:
            runs = [_protocol_terms(model, chunk, first, spec, method)]
        except ValueError as err:
            if len(chunk) == 1:
                skipped[first] = str(err)
                continue
            runs = []
            for index in range(first, first + len(chunk)):
                try:
                    runs.append(_protocol_terms(model, planes[index:index + 1], index,
                                                spec, method))
                except ValueError as err:
                    skipped[index] = str(err)
        for terms in runs:
            for column, values in zip(columns, terms):
                column.extend(values)
    if not columns[0]:
        raise ValueError(f"all {len(planes)} images failed: {skipped[0]}")

    return MetricRecord(
        method=(method.name if isinstance(method, CamMethod)
                else getattr(method, "cam_name", getattr(method, "__name__", "custom"))),
        utility=spec.kind,
        arch=model.arch,
        skipped=tuple(sorted(skipped.items())),
        image_ad=tuple(columns[0]),
        image_coherency=tuple(columns[1]),
        image_complexity=tuple(columns[2]),
        image_ic=tuple(columns[3]),
        image_add=tuple(columns[4]),
    )
