"""Class activation heatmaps from tap-layer weights.

Every method here reduces to: get per-position weights W (a gradient, a
curvature-corrected gradient, a closed form, or noise), combine them with
the activation stack A under one of a handful of assembly schemes, then
clamp with an outer ReLU. The curvature-corrected weights make the
mean-broadcast and elementwise schemes first- and second-order Shapley
estimates of the masked-utility game over tap positions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from .utility import UtilitySpec, compute_utility, utility_node
from .zoo import ActivationStack, ToyModel

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


def _gradcampp_map_weights(grads: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Closed-form map weights: alpha_j = g_j^2 / (2 g_j^2 + sum(A) g_j^3),
    zero where the denominator vanishes; weight = sum_j relu(g_j) alpha_j."""
    weights = np.empty(maps.shape[0])
    for i in range(maps.shape[0]):
        g = grads[i]
        denom = 2.0 * g * g + float(np.sum(maps[i])) * g ** 3
        alpha = np.divide(g * g, denom, out=np.zeros_like(g), where=denom != 0.0)
        weights[i] = float(np.sum(np.maximum(g, 0.0) * alpha))
    return weights


def assemble_heatmap(weights: Optional[np.ndarray], activations: ActivationStack,
                     method, weights_order: str = "first") -> Heatmap:
    """Combine per-position weights with the activation stack.

    `weights` is (n_maps, d) for every method except randomcam, which takes
    None and draws its map coefficients from the method's seed.
    """
    method = _as_method(method)
    maps = activations.maps
    scheme = method.scheme

    if scheme == "random":
        if weights is not None:
            raise ValueError("randomcam draws its own weights; pass None")
        coeff = np.random.default_rng(method.seed).uniform(-1.0, 1.0, maps.shape[0])
        pre = coeff @ maps
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != maps.shape:
            raise ValueError(f"weights shape {weights.shape} does not match "
                             f"activation stack {maps.shape}")
        if scheme == "gradcampp" and weights_order == "second":
            raise ValueError("gradcam++ is defined for raw gradients only; "
                             "second-order weights are not meaningful here")
        if scheme == "mean":
            pre = np.mean(weights, axis=1) @ maps
        elif scheme == "elementwise":
            pre = np.sum(weights * maps, axis=0)
        elif scheme == "inner-relu":
            pre = np.sum(np.maximum(weights * maps, 0.0), axis=0)
        elif scheme == "relu-grad":
            pre = np.sum(np.maximum(weights, 0.0) * maps, axis=0)
        elif scheme == "xgrad":
            num = np.mean(weights * maps, axis=1)
            denom = np.mean(maps, axis=1) + 1e-12
            coeff = np.divide(num, denom, out=np.zeros_like(num), where=denom != 0.0)
            pre = coeff @ maps
        else:  # gradcampp
            pre = _gradcampp_map_weights(weights, maps) @ maps

    return Heatmap(pre_relu=pre, post_relu=np.maximum(pre, 0.0),
                   spatial=activations.spatial, method=method.name,
                   layer=activations.layer)


def explain(model: ToyModel, image: np.ndarray, spec: UtilitySpec, method) -> Heatmap:
    """One heatmap: a single forward pass, one backward pass for the
    gradient, and one extra backward for the HVP when the method is
    second-order. randomcam skips the backward entirely."""
    method = _as_method(method)
    if method.name == "cam-gap":
        # the original formulation reads the class weight row directly,
        # which is the pre-softmax gradient at a GAP tap
        spec = replace(spec, kind="pre-softmax")
    run = model.forward_with_tap(image)

    if method.scheme == "random":
        heatmap = assemble_heatmap(None, run.activations, method)
    else:
        tape = run.tape
        tap_node = tape.inputs["tap"]
        with tape:
            u = utility_node(tape.outputs["logits"], spec)
            g_node = ad.grad_node(u, tap_node)
            if method.order == "second":
                s = ad.sum(ad.mul(g_node, run.activations.maps))
                hvp_full = ad.grad_node(s, tap_node).value
                weights = shapley_weights(g_node.value, hvp_full)
            else:
                weights = shapley_weights(g_node.value)
        heatmap = assemble_heatmap(weights, run.activations, method,
                                   weights_order=method.order)
    return replace(heatmap, target_class=spec.target_class, utility=spec.kind)


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
    logits = model.forward(image)
    probs = [compute_utility(logits, UtilitySpec(k, "post-softmax"))
             for k in range(model.num_classes)]
    per_class = [explain(model, image, UtilitySpec(k, "pre-softmax"), method).pre_relu
                 for k in range(model.num_classes)]
    return method, probs, per_class


def theorem3_ensemble(model: ToyModel, image: np.ndarray, spec: UtilitySpec,
                      method) -> tuple[Heatmap, Heatmap]:
    """Post-softmax heatmap two ways: directly, and as the probability-
    weighted ensemble of pre-softmax class heatmaps
    p_c * sum_{k != c} p_k (E_c - E_k). Linear assembly makes them equal."""
    if spec.kind != "post-softmax":
        raise ValueError(f"the ensemble identity is about post-softmax utilities, "
                         f"got {spec.kind!r}")
    method, probs, per_class = _ensemble_inputs(model, image, method)
    c = spec.target_class
    if c >= model.num_classes:
        raise ValueError(f"target_class {c} out of range")
    direct = explain(model, image, spec, method)
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
    method, probs, per_class = _ensemble_inputs(model, image, method)
    c = int(target_class)
    if c >= model.num_classes:
        raise ValueError(f"target_class {c} out of range")
    direct = explain(model, image, UtilitySpec(c, "rest"), method)
    pre = per_class[c].copy()
    for k in range(model.num_classes):
        if k != c:
            pre += probs[k] * (per_class[c] - per_class[k])
    composed = Heatmap(pre_relu=pre, post_relu=np.maximum(pre, 0.0),
                       spatial=direct.spatial, method=method.name,
                       layer=direct.layer, target_class=c, utility="rest")
    return direct, composed
