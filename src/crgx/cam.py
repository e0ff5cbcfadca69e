"""Class activation heatmaps from tap-layer weights.

Every method here reduces to: get per-position weights W (a gradient, a
curvature-corrected gradient, a closed form, or noise), combine them with
the activation stack A under one of a handful of assembly schemes, then
clamp with an outer ReLU. The curvature-corrected weights make the
mean-broadcast and elementwise schemes first- and second-order Shapley
estimates of the masked-utility game over tap positions.

Derivatives are closed forms, not tapes: every head is affine in the tap,
so the gradient is Jᵀ ∇_y u and the curvature term Jᵀ H_y (J·A), with the
K×K logit-space formulas of `utility.utility_derivatives`. `explain_batch`
turns N tap stacks into N heatmaps with a few matmuls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .utility import UtilitySpec, compute_utility, utility_derivatives
from .zoo import TAP_LAYER, ActivationStack, ToyModel

# name -> (weight order, assembly scheme)
_METHOD_TABLE = {
    "cam-gap": ("first", "mean"),
    "gradcam": ("first", "mean"),
    "hirescam": ("first", "elementwise"),
    "gradcam-e": ("first", "inner-relu"),
    "layercam": ("first", "relu-grad"),
    "xgradcam": ("first", "xgrad"),
    "gradcampp": ("first", "gradcampp"),
    "randomcam": (None, "random"),
    "shapleycam": ("second", "mean"),
    "shapleycam-h": ("second", "elementwise"),
    "shapleycam-e": ("second", "inner-relu"),
}

CAM_METHODS = tuple(_METHOD_TABLE)


@dataclass(frozen=True)
class CamMethod:
    """A method name plus, for randomcam, its generator seed."""

    name: str
    seed: Optional[int] = None

    def __post_init__(self):
        if self.name not in _METHOD_TABLE:
            raise ValueError(f"unknown CAM method {self.name!r}; "
                             f"expected one of {CAM_METHODS}")
        if self.name == "randomcam" and self.seed is None:
            raise ValueError("randomcam needs a seed")

    @property
    def order(self) -> Optional[str]:
        return _METHOD_TABLE[self.name][0]

    @property
    def scheme(self) -> str:
        return _METHOD_TABLE[self.name][1]


def _as_method(method) -> CamMethod:
    return method if isinstance(method, CamMethod) else CamMethod(method)


@dataclass(frozen=True)
class Heatmap:
    """Per-position relevance at the tap layer, before and after the outer
    ReLU. `pre_relu` keeps signs; `post_relu` is what gets rendered."""

    pre_relu: np.ndarray
    post_relu: np.ndarray
    spatial: tuple[int, int]
    method: str
    layer: str
    target_class: Optional[int] = None
    utility: Optional[str] = None

    def __post_init__(self):
        if self.pre_relu.shape != self.post_relu.shape:
            raise ValueError("heatmap views disagree in shape")
        if not np.array_equal(self.post_relu, np.maximum(self.pre_relu, 0.0)):
            raise ValueError("post_relu must equal max(pre_relu, 0)")
        if self.spatial[0] * self.spatial[1] != self.pre_relu.shape[0]:
            raise ValueError(f"spatial {self.spatial} does not cover "
                             f"{self.pre_relu.shape[0]} positions")

    def grid(self, view: str = "post") -> np.ndarray:
        values = self.post_relu if view == "post" else self.pre_relu
        return values.reshape(self.spatial)


def shapley_weights(grad: np.ndarray, hvp_full: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-position weights W = grad - hvp_full / 2 (just grad when no
    curvature term is supplied)."""
    grad = np.asarray(grad, dtype=np.float64)
    if hvp_full is None:
        return grad
    hvp_full = np.asarray(hvp_full, dtype=np.float64)
    if hvp_full.shape != grad.shape:
        raise ValueError(f"hvp shape {hvp_full.shape} does not match gradient {grad.shape}")
    return grad - 0.5 * hvp_full


def _assemble(weights: Optional[np.ndarray], maps: np.ndarray, method: CamMethod) -> np.ndarray:
    """Pre-ReLU heatmaps of n stacks: weights and maps (n, n_maps, d) ->
    (n, d). randomcam takes None and applies the same seeded map
    coefficients to every stack."""
    scheme = method.scheme
    if scheme == "random":
        return np.random.default_rng(method.seed).uniform(-1.0, 1.0, maps.shape[1]) @ maps
    if scheme == "mean":
        coeff = np.mean(weights, axis=2)
    elif scheme == "elementwise":
        return np.sum(weights * maps, axis=1)
    elif scheme == "inner-relu":
        return np.sum(np.maximum(weights * maps, 0.0), axis=1)
    elif scheme == "relu-grad":
        return np.sum(np.maximum(weights, 0.0) * maps, axis=1)
    elif scheme == "xgrad":
        num = np.mean(weights * maps, axis=2)
        denom = np.mean(maps, axis=2) + 1e-12
        coeff = np.divide(num, denom, out=np.zeros_like(num), where=denom != 0.0)
    else:  # gradcampp: alpha_j = g_j^2 / (2 g_j^2 + sum(A) g_j^3), zero where
        # the denominator vanishes; map weight = sum_j relu(g_j) alpha_j
        g = weights
        denom = 2.0 * g * g + np.sum(maps, axis=2, keepdims=True) * g ** 3
        alpha = np.divide(g * g, denom, out=np.zeros(denom.shape), where=denom != 0.0)
        coeff = np.sum(np.maximum(g, 0.0) * alpha, axis=2)
    return np.matmul(coeff[:, None, :], maps)[:, 0]


def assemble_heatmap(weights: Optional[np.ndarray], activations: ActivationStack,
                     method, weights_order: str = "first") -> Heatmap:
    """Combine per-position weights with the activation stack.

    `weights` is (n_maps, d) for every method except randomcam, which takes
    None and draws its map coefficients from the method's seed.
    """
    method = _as_method(method)
    maps = activations.maps
    if method.scheme == "random":
        if weights is not None:
            raise ValueError("randomcam draws its own weights; pass None")
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != maps.shape:
            raise ValueError(f"weights shape {weights.shape} does not match "
                             f"activation stack {maps.shape}")
        if method.scheme == "gradcampp" and weights_order == "second":
            raise ValueError("gradcam++ is defined for raw gradients only; "
                             "second-order weights are not meaningful here")
        weights = weights[None]
    pre = _assemble(weights, maps[None], method)[0]
    return Heatmap(pre_relu=pre, post_relu=np.maximum(pre, 0.0),
                   spatial=activations.spatial, method=method.name,
                   layer=activations.layer)


def tap_weights(model: ToyModel, stacks: np.ndarray, spec: UtilitySpec,
                order: str = "first") -> np.ndarray:
    """Per-position weights of n tap stacks in closed form, (n, n_maps, d).

    The head is affine in the tap, y = J·A + b, so the utility's gradient
    at the tap is Jᵀ ∇_y u, and its Hessian applied to the stack is
    Jᵀ H_y (J·A). Second order gives W = Jᵀ (∇_y u - H_y (J·A) / 2): one
    K-vector per image in logit space, mapped back once. No tape is built.
    """
    linear = model.head_linear(stacks)
    grad_y, hvp_y = utility_derivatives(linear + model.head_bias, spec,
                                        linear if order == "second" else None)
    return model.head_transpose(shapley_weights(grad_y, hvp_y))


def explain_batch(model: ToyModel, stacks: np.ndarray, spec: UtilitySpec, method) -> list:
    """N heatmaps from N tap stacks of `model`, (n, n_maps, d), as from
    `model._tap_stack(images)`: closed-form weights for the whole batch,
    then one assembly. randomcam uses the same draw on every stack."""
    method = _as_method(method)
    if method.name == "cam-gap":
        # the original formulation reads the class weight row directly,
        # which is the pre-softmax gradient at a GAP tap
        spec = replace(spec, kind="pre-softmax")
    stacks = np.asarray(stacks, dtype=np.float64)
    weights = None
    if method.scheme != "random":
        weights = tap_weights(model, stacks, spec, method.order)
    pre = _assemble(weights, stacks, method)
    post = np.maximum(pre, 0.0)
    return [Heatmap(pre_relu=p, post_relu=q, spatial=model.tap_spatial(), method=method.name,
                    layer=TAP_LAYER, target_class=spec.target_class, utility=spec.kind)
            for p, q in zip(pre, post)]


def explain(model: ToyModel, image: np.ndarray, spec: UtilitySpec, method) -> Heatmap:
    """One heatmap: the image's tap stack, then `explain_batch` on it. The
    gradient and, for second-order methods, the curvature term are closed
    forms in logit space; randomcam needs neither."""
    stack = model._tap_stack(np.asarray(image, dtype=np.float64)[None])
    return explain_batch(model, stack, spec, method)[0]


def classify_crg(weights: np.ndarray, tol: float = 1e-10) -> dict:
    """Report whether per-map weights are position-independent.

    When every map's weights are constant, rescaling each map by its own
    mean weight and weighting positions individually produce the same
    heatmap for every activation stack, and both coincide with the exact
    Shapley values of a linear head. The two report fields are therefore
    one predicate."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D (maps x positions), got {weights.shape}")
    per_map = []
    for row in weights:
        spread = float(np.max(row) - np.min(row))
        per_map.append(spread <= tol * (1.0 + float(np.max(np.abs(row)))))
    optimal = all(per_map)
    return {"type_i_equals_type_ii": optimal, "optimal": optimal,
            "per_map_constant": per_map}


def _ensemble_inputs(model: ToyModel, image: np.ndarray, method):
    method = _as_method(method)
    if method.order != "first" or method.scheme not in ("mean", "elementwise"):
        raise ValueError(f"{method.name}: ensemble identities hold for first-order "
                         "mean-broadcast or elementwise methods only")
    if model.num_classes < 2:
        raise ValueError("ensemble identities need at least two classes")
    stack = model._tap_stack(np.asarray(image, dtype=np.float64)[None])
    logits = model.head_batch(stack)[0]
    probs = [compute_utility(logits, UtilitySpec(k, "post-softmax"))
             for k in range(model.num_classes)]
    per_class = [explain_batch(model, stack, UtilitySpec(k, "pre-softmax"), method)[0].pre_relu
                 for k in range(model.num_classes)]
    return method, stack, probs, per_class


def theorem3_ensemble(model: ToyModel, image: np.ndarray, spec: UtilitySpec,
                      method) -> tuple[Heatmap, Heatmap]:
    """Post-softmax heatmap two ways: directly, and as the probability-
    weighted ensemble of pre-softmax class heatmaps
    p_c * sum_{k != c} p_k (E_c - E_k). Linear assembly makes them equal."""
    if spec.kind != "post-softmax":
        raise ValueError(f"the ensemble identity is about post-softmax utilities, "
                         f"got {spec.kind!r}")
    method, stack, probs, per_class = _ensemble_inputs(model, image, method)
    c = spec.target_class
    if c >= model.num_classes:
        raise ValueError(f"target_class {c} out of range")
    direct = explain_batch(model, stack, spec, method)[0]
    acc = np.zeros_like(per_class[0])
    for k in range(model.num_classes):
        if k != c:
            acc += probs[k] * (per_class[c] - per_class[k])
    pre = probs[c] * acc
    ensemble = Heatmap(pre_relu=pre, post_relu=np.maximum(pre, 0.0),
                       spatial=direct.spatial, method=method.name,
                       layer=direct.layer, target_class=c, utility=spec.kind)
    return direct, ensemble


def rest_decomposition(model: ToyModel, image: np.ndarray, target_class: int,
                       method) -> tuple[Heatmap, Heatmap]:
    """The rest-utility heatmap equals the class's pre-softmax heatmap plus
    the ensemble correction sum_{k != c} p_k (E_c - E_k)."""
    method, stack, probs, per_class = _ensemble_inputs(model, image, method)
    c = int(target_class)
    if c >= model.num_classes:
        raise ValueError(f"target_class {c} out of range")
    direct = explain_batch(model, stack, UtilitySpec(c, "rest"), method)[0]
    pre = per_class[c].copy()
    for k in range(model.num_classes):
        if k != c:
            pre += probs[k] * (per_class[c] - per_class[k])
    composed = Heatmap(pre_relu=pre, post_relu=np.maximum(pre, 0.0),
                       spatial=direct.spatial, method=method.name,
                       layer=direct.layer, target_class=c, utility="rest")
    return direct, composed
