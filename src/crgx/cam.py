"""Class activation heatmaps from tap-layer weights.

Every method here reduces to: get per-position weights W (a gradient, a
curvature-corrected gradient, a closed form, or noise), combine them with
the activation stack A under one of a handful of assembly schemes, then
clamp with an outer ReLU. The curvature-corrected weights make the
mean-broadcast and elementwise schemes first- and second-order Shapley
estimates of the masked-utility game over tap positions.

Derivatives are closed forms, not tapes: every head is affine in the tap,
so the gradient is Jᵀ ∇_y u and the curvature term Jᵀ H_y (J·A), with the
K×K logit-space formulas of `utility.utility_derivatives`. The same
affinity gives the softmax identities their class heatmaps: class k's
pre-softmax weights are Jᵀe_k, so the K×K identity back-maps and
assembles with the rest. `_heatmap_sets` does all of it for several
methods and utilities over N tap stacks in a few matmuls; `explain_batch`
is its one-method case, and both identity functions go through its
one-spec case `_ensemble_pair`: one image tapped once, and the direct and
composed heatmaps of one `UtilitySpec`, whose class is checked like any
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ._rules import _check_class, _checked_array, _checked_grid, _checked_int
from .utility import UtilitySpec, _checked_logits, softmax_rows, utility_derivatives
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
        if not isinstance(self.name, str) or self.name not in _METHOD_TABLE:
            raise ValueError(f"unknown CAM method {self.name!r}; "
                             f"expected one of {CAM_METHODS}")
        if self.name == "randomcam":
            if self.seed is None:
                raise ValueError("randomcam needs a seed")
            object.__setattr__(self, "seed", _checked_int("randomcam seed", self.seed, 0))

    @property
    def order(self) -> Optional[str]:
        return _METHOD_TABLE[self.name][0]

    @property
    def scheme(self) -> str:
        return _METHOD_TABLE[self.name][1]


def _as_method(method) -> CamMethod:
    return method if isinstance(method, CamMethod) else CamMethod(method)


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class Heatmap:
    """Per-position relevance at the tap layer, before and after the outer
    ReLU. `pre_relu` keeps signs; `post_relu`, derived from it as
    max(pre_relu, 0), is what gets rendered. `pre_relu` is stored as the
    1-D array of `_rules._checked_array`, and `spatial` as the (h, w) ints
    of `_rules._checked_grid`."""

    pre_relu: np.ndarray
    spatial: tuple[int, int]
    method: str
    target_class: Optional[int] = None
    utility: Optional[str] = None
    post_relu: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pre = _checked_array("pre_relu", self.pre_relu, 1)
        object.__setattr__(self, "spatial", _checked_grid(self.spatial, pre.shape[0]))
        object.__setattr__(self, "pre_relu", pre)
        object.__setattr__(self, "post_relu", np.maximum(pre, 0.0))

    def grid(self, view: str = "post") -> np.ndarray:
        if view not in ("post", "pre"):
            raise ValueError(f"unknown grid view {view!r}; expected 'post' or 'pre'")
        return (self.post_relu if view == "post" else self.pre_relu).reshape(self.spatial)


def shapley_weights(grad: np.ndarray, hvp_full: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-position weights W = grad - hvp_full / 2 (just grad when no
    curvature term is supplied), of one weight vector or a row each."""
    grad = _checked_array("grad", grad, (1, 2))
    if hvp_full is None:
        return grad
    hvp_full = _checked_array("hvp_full", hvp_full, (1, 2))
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


def _utility_kind(method: CamMethod, kind: str) -> str:
    # the original cam-gap reads the class weight row directly, which is
    # the pre-softmax gradient at a GAP tap
    return "pre-softmax" if method.name == "cam-gap" else kind


def _heatmap_sets(model: ToyModel, stacks: np.ndarray, target_class: int, methods,
                  kinds: tuple[str, ...], ensembles: bool = False) -> dict:
    """Pre-ReLU heatmaps of n tap stacks of `model`, (n, n_maps, d), for
    several methods and the utility kinds of one target class c:
    {name: (direct, composed)} in method order, each (n, len(kinds), d).

    The methods share their work: the logits and their softmax are
    computed once, the logit-space weights once per (utility, order), and
    the methods of one weight order map all their weight rows back through
    Jᵀ in one call (cam-gap, whose utility is always pre-softmax, makes its
    own call), then assemble once each. With `ensembles` those rows
    also carry the K×K identity, whose back-maps Jᵀe_k are the pre-softmax
    class weights, so the same assembly yields the class heatmaps E_k, and
    composed[:, i] is kind i's heatmap from them and the probabilities p:
    p_c * sum_{k != c} p_k (E_c - E_k) for "post-softmax", E_c plus that
    sum for "rest". Without `ensembles` composed is None."""
    methods = [_as_method(m) for m in methods]
    if ensembles:
        for method in methods:
            if method.order != "first" or method.scheme not in ("mean", "elementwise"):
                raise ValueError(f"{method.name}: ensemble identities hold for first-order "
                                 "mean-broadcast or elementwise methods only")
    n_classes = model.num_classes
    c = target_class
    # randomcam never scores a utility, so the class is checked here for
    # every method rather than left to the logit kernels
    _check_class(c, n_classes)
    stacks = np.asarray(stacks, dtype=np.float64)
    n, tail = len(stacks), stacks.shape[1:]
    reps = len(kinds) + (n_classes if ensembles else 0)
    maps = (stacks if reps == 1 else
            np.broadcast_to(stacks[:, None], (n, reps) + tail).reshape((n * reps,) + tail))
    layouts: dict = {}  # (order, utility of each kind) -> methods; None for randomcam
    for method in methods:
        key = None if method.order is None else (
            method.order, tuple(_utility_kind(method, k) for k in kinds))
        layouts.setdefault(key, []).append(method)
    if any(key is not None for key in layouts):
        linear = model.head_linear(stacks)
        # non-finite logits are rejected before the softmax sees them
        logits = _checked_logits(linear + model.head_bias, UtilitySpec(c, kinds[0]))
        p = softmax_rows(logits)
    vectors: dict = {}  # (utility, order) -> (n, K) logit-space weights
    heat = {}
    for key, group in layouts.items():
        weights = None
        if key is not None:
            order, utilities = key
            for u in utilities:
                if (u, order) not in vectors:
                    vectors[u, order] = shapley_weights(*utility_derivatives(
                        logits, p, UtilitySpec(c, u), linear if order == "second" else None))
            rows = np.stack([vectors[u, order] for u in utilities], axis=1)
            if ensembles:
                rows = np.concatenate(
                    [rows, np.broadcast_to(np.eye(n_classes), (n, n_classes, n_classes))], axis=1)
            weights = model.head_transpose(rows.reshape(n * reps, n_classes))
        for method in group:
            heat[method.name] = _assemble(weights, maps, method).reshape(n, reps, -1)
    if not ensembles:
        return {method.name: (heat[method.name], None) for method in methods}
    post = np.array([kind == "post-softmax" for kind in kinds])[:, None]
    sets = {}
    for method in methods:
        direct, per_class = heat[method.name][:, :len(kinds)], heat[method.name][:, len(kinds):]
        # start + sum_{k != c} p_k (E_c - E_k), added in class order
        composed = np.where(post, 0.0, per_class[:, c, None])
        for k in range(n_classes):
            if k != c:
                composed += p[:, k, None, None] * (per_class[:, c] - per_class[:, k])[:, None]
        sets[method.name] = (direct, np.where(post, p[:, c, None, None] * composed, composed))
    return sets


def explain_batch(model: ToyModel, stacks: np.ndarray, spec: UtilitySpec, method) -> list:
    """N heatmaps from N tap stacks of `model`, (n, n_maps, d), as from
    `model._tap_stack(images)`: closed-form weights for the whole batch,
    then one assembly. randomcam uses the same draw on every stack."""
    method = _as_method(method)
    direct, _ = _heatmap_sets(model, stacks, spec.target_class, (method,),
                              (spec.kind,))[method.name]
    return [Heatmap(pre_relu=p, spatial=model.tap_spatial(), method=method.name,
                    target_class=spec.target_class, utility=_utility_kind(method, spec.kind))
            for p in direct[:, 0]]


def explain(model: ToyModel, image: np.ndarray, spec: UtilitySpec, method) -> Heatmap:
    """One heatmap: the image's tap stack, then `explain_batch` on it. The
    gradient and, for second-order methods, the curvature term are closed
    forms in logit space; randomcam needs neither."""
    return explain_batch(model, model._tap_stack([image]), spec, method)[0]


def _ensemble_pair(model: ToyModel, image: np.ndarray, spec: UtilitySpec,
                   method) -> tuple[Heatmap, Heatmap]:
    """The heatmap of `spec` and its composition from the class
    probabilities and the pre-softmax class heatmaps (see `_heatmap_sets`),
    from one tap stack."""
    method = _as_method(method)
    direct, composed = _heatmap_sets(model, model._tap_stack([image]), spec.target_class,
                                     (method,), (spec.kind,), ensembles=True)[method.name]
    hm = Heatmap(pre_relu=direct[0, 0], spatial=model.tap_spatial(), method=method.name,
                 target_class=spec.target_class, utility=_utility_kind(method, spec.kind))
    return hm, replace(hm, pre_relu=composed[0, 0])


def theorem3_ensemble(model: ToyModel, image: np.ndarray, spec: UtilitySpec,
                      method) -> tuple[Heatmap, Heatmap]:
    """Post-softmax heatmap two ways: directly, and as the probability-
    weighted ensemble of pre-softmax class heatmaps
    p_c * sum_{k != c} p_k (E_c - E_k). Linear assembly makes them equal."""
    if spec.kind != "post-softmax":
        raise ValueError(f"the ensemble identity is about post-softmax utilities, "
                         f"got {spec.kind!r}")
    return _ensemble_pair(model, image, spec, method)


def rest_decomposition(model: ToyModel, image: np.ndarray, target_class: int,
                       method) -> tuple[Heatmap, Heatmap]:
    """The rest-utility heatmap equals the class's pre-softmax heatmap plus
    the ensemble correction sum_{k != c} p_k (E_c - E_k)."""
    return _ensemble_pair(model, image, UtilitySpec(target_class, "rest"), method)
