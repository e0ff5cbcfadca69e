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
turns N tap stacks into N heatmaps with a few matmuls. The same affinity
gives the softmax identities their class heatmaps: class k's pre-softmax
weights are Jᵀe_k, so one back-map of the K×K identity and one assembly
yield all K of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .utility import UtilitySpec, softmax_rows, utility_derivatives
from .zoo import ToyModel

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
        if self.name == "randomcam":
            if self.seed is None:
                raise ValueError("randomcam needs a seed")
            if self.seed < 0:
                raise ValueError(f"randomcam seed must be non-negative, got {self.seed}")

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
    ReLU. `pre_relu` keeps signs; `post_relu`, derived from it as
    max(pre_relu, 0), is what gets rendered."""

    pre_relu: np.ndarray
    spatial: tuple[int, int]
    method: str
    target_class: Optional[int] = None
    utility: Optional[str] = None
    post_relu: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.spatial[0] * self.spatial[1] != self.pre_relu.shape[0]:
            raise ValueError(f"spatial {self.spatial} does not cover "
                             f"{self.pre_relu.shape[0]} positions")
        object.__setattr__(self, "post_relu", np.maximum(self.pre_relu, 0.0))

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
        # a signed map whose mean nearly cancels the 1e-12 guard would put
        # the division at a pole: such a map gets coefficient 0, as does a
        # zero denominator
        num = np.mean(weights * maps, axis=2)
        denom = np.mean(maps, axis=2) + 1e-12
        live = np.abs(denom) > 1e-6 * np.mean(np.abs(maps), axis=2)
        coeff = np.divide(num, denom, out=np.zeros_like(num), where=live)
    else:  # gradcampp: alpha_j = g_j^2 / (2 g_j^2 + sum(A) g_j^3), zero where
        # the denominator vanishes; map weight = sum_j relu(g_j) alpha_j
        g = weights
        denom = 2.0 * g * g + np.sum(maps, axis=2, keepdims=True) * g ** 3
        alpha = np.divide(g * g, denom, out=np.zeros(denom.shape), where=denom != 0.0)
        coeff = np.sum(np.maximum(g, 0.0) * alpha, axis=2)
    return np.matmul(coeff[:, None, :], maps)[:, 0]


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
    # randomcam never scores a utility, so the class is checked here for
    # every method rather than left to the logit kernels
    if spec.target_class >= model.num_classes:
        raise ValueError(f"target_class {spec.target_class} out of range "
                         f"for {model.num_classes} classes")
    if method.name == "cam-gap":
        # the original formulation reads the class weight row directly,
        # which is the pre-softmax gradient at a GAP tap
        spec = replace(spec, kind="pre-softmax")
    stacks = np.asarray(stacks, dtype=np.float64)
    weights = None
    if method.scheme != "random":
        weights = tap_weights(model, stacks, spec, method.order)
    return [Heatmap(pre_relu=p, spatial=model.tap_spatial(), method=method.name,
                    target_class=spec.target_class, utility=spec.kind)
            for p in _assemble(weights, stacks, method)]


def explain(model: ToyModel, image: np.ndarray, spec: UtilitySpec, method) -> Heatmap:
    """One heatmap: the image's tap stack, then `explain_batch` on it. The
    gradient and, for second-order methods, the curvature term are closed
    forms in logit space; randomcam needs neither."""
    stack = model._tap_stack(np.asarray(image, dtype=np.float64)[None])
    return explain_batch(model, stack, spec, method)[0]


def _ensemble_pairs(model: ToyModel, image: np.ndarray, c: int, method,
                    kinds: tuple[str, ...]) -> list[tuple[Heatmap, Heatmap]]:
    """For each utility kind in `kinds`, the heatmap of class c and its
    composition from the class probabilities p and the pre-softmax class
    heatmaps E_k, (K, d): the ensemble p_c * sum_{k != c} p_k (E_c - E_k)
    for "post-softmax", E_c plus that sum for "rest". The kinds share one
    tap stack, one softmax, and one back-map Jᵀ of the identity with one
    assembly. The direct heatmaps go first: their utility rejects
    non-finite logits before the softmax sees them."""
    method = _as_method(method)
    if method.order != "first" or method.scheme not in ("mean", "elementwise"):
        raise ValueError(f"{method.name}: ensemble identities hold for first-order "
                         "mean-broadcast or elementwise methods only")
    n_classes = model.num_classes
    if c >= n_classes:
        raise ValueError(f"target_class {c} out of range")
    stack = model._tap_stack(np.asarray(image, dtype=np.float64)[None])
    directs = [explain_batch(model, stack, UtilitySpec(c, kind), method)[0] for kind in kinds]
    p = softmax_rows(model.head_batch(stack))[0]
    per_class = _assemble(model.head_transpose(np.eye(n_classes)),
                          np.broadcast_to(stack, (n_classes,) + stack.shape[1:]), method)
    pairs = []
    for kind, direct in zip(kinds, directs):
        if kind == "post-softmax":
            pre = p[c] * _add_correction(np.zeros_like(per_class[c]), p, per_class, c)
        else:
            pre = _add_correction(per_class[c], p, per_class, c)
        pairs.append((direct, replace(direct, pre_relu=pre)))
    return pairs


def _add_correction(start: np.ndarray, p: np.ndarray, per_class: np.ndarray,
                    c: int) -> np.ndarray:
    """start + sum_{k != c} p_k (E_c - E_k), added in class order."""
    acc = start.copy()
    for k in range(len(p)):
        if k != c:
            acc += p[k] * (per_class[c] - per_class[k])
    return acc


def theorem3_ensemble(model: ToyModel, image: np.ndarray, spec: UtilitySpec,
                      method) -> tuple[Heatmap, Heatmap]:
    """Post-softmax heatmap two ways: directly, and as the probability-
    weighted ensemble of pre-softmax class heatmaps
    p_c * sum_{k != c} p_k (E_c - E_k). Linear assembly makes them equal."""
    if spec.kind != "post-softmax":
        raise ValueError(f"the ensemble identity is about post-softmax utilities, "
                         f"got {spec.kind!r}")
    return _ensemble_pairs(model, image, spec.target_class, method, ("post-softmax",))[0]


def rest_decomposition(model: ToyModel, image: np.ndarray, target_class: int,
                       method) -> tuple[Heatmap, Heatmap]:
    """The rest-utility heatmap equals the class's pre-softmax heatmap plus
    the ensemble correction sum_{k != c} p_k (E_c - E_k)."""
    return _ensemble_pairs(model, image, int(target_class), method, ("rest",))[0]
