"""Scalar utilities over logits: the quantity a heatmap explains.

Values come from one numpy kernel, `compute_utility_batch`, which scores
rows of logits; `compute_utility` is that kernel on a single row.
The post-softmax value is a column of `softmax_rows`, the one softmax
`cam` shares too. `utility_derivatives` gives each utility's logit-space
gradient and Hessian-vector product in closed form from the logits and
that softmax, which is what `cam` differentiates with. The taped
`utility_node` builds the same formula as a node graph in the kernel's op
order, so the value a game enumerates and the value the suites and the
oracle tests differentiate agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from ._rules import _check_class, _checked_array, _checked_int, _checked_name

UTILITY_KINDS = ("pre-softmax", "post-softmax", "log-softmax", "rest")


@dataclass(frozen=True)
class UtilitySpec:
    """Which scalar to explain: a target class plus a logit transform.

    pre-softmax   y_c
    post-softmax  softmax(y)_c
    log-softmax   ln softmax(y)_c
    rest          y_c + ln softmax(y)_c, i.e. 2*y_c - logsumexp(y)
    """

    target_class: int
    kind: str = "rest"

    def __post_init__(self):
        object.__setattr__(self, "kind", _checked_name("utility kind", self.kind, UTILITY_KINDS))
        object.__setattr__(self, "target_class",
                           _checked_int("target_class", self.target_class, 0))


def utility_node(logits, spec: UtilitySpec):
    """Utility of a 1-D logits node as a node graph, for differentiation."""
    if logits.ndim != 1:
        raise ValueError(f"utility: logits must be 1-D, got shape {logits.shape}")
    _check_class(spec.target_class, logits.shape[0])
    c = spec.target_class
    if spec.kind == "pre-softmax":
        return ad.index(logits, c)
    if spec.kind == "post-softmax":
        return ad.index(ad.softmax(logits), c)
    if spec.kind == "log-softmax":
        return ad.sub(ad.index(logits, c), ad.logsumexp(logits))
    # rest: the logit plus its log-probability, fused through logsumexp
    return ad.sub(ad.mul(2.0, ad.index(logits, c)), ad.logsumexp(logits))


def compute_utility(logits: np.ndarray, spec: UtilitySpec) -> float:
    """Scalar utility of a plain logits vector: one row of
    `compute_utility_batch`."""
    logits = _checked_array("logits", logits, 1)
    _check_class(spec.target_class, logits.shape[0])
    return float(_utility_rows(logits[None], spec)[0])


def _checked_logits(logits, spec: UtilitySpec) -> np.ndarray:
    logits = _checked_array("logits", logits, 2)
    _check_class(spec.target_class, logits.shape[1])
    return logits


def compute_utility_batch(logits, spec: UtilitySpec) -> np.ndarray:
    """Utilities of n logit rows, (n, K) -> (n,).

    Plain numpy in the op order of `utility_node` (max shift, exp, row sum,
    log, add the max back), so row i is bit-identical to the value of
    `utility_node` on that row.
    """
    return _utility_rows(_checked_logits(logits, spec), spec)


def _utility_rows(logits: np.ndarray, spec: UtilitySpec) -> np.ndarray:
    """`compute_utility_batch` on checked logits."""
    c = spec.target_class
    y = logits[:, c]
    if spec.kind == "pre-softmax":
        return y.copy()
    if spec.kind == "post-softmax":
        return softmax_rows(logits)[:, c]
    m = np.max(logits, axis=1)
    lse = np.log(np.sum(np.exp(logits - m[:, None]), axis=1)) + m
    if spec.kind == "log-softmax":
        return y - lse
    return 2.0 * y - lse


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (n, K) logits: max shift, exp, times the
    reciprocal of the row sum, the op order of `utility_node`."""
    e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    return e * (1.0 / np.sum(e, axis=1, keepdims=True))


def utility_derivatives(logits: np.ndarray, p, spec: UtilitySpec, v=None):
    """Gradient ∇_y u and, given v, Hessian-vector product H_y v of n
    checked logit rows whose `softmax_rows` p the caller already has, in
    closed form: (n, K) -> (n, K), (n, K) or None.

    With the Fisher product F v = p⊙v - p (p·v):

    pre-softmax   ∇ = e_c,            H v = 0 (exact zeros)
    log-softmax   ∇ = e_c - p,        H v = -F v
    rest          ∇ = 2 e_c - p,      H v = -F v
    post-softmax  ∇ = p_c r,          H v = p_c (r (r·v) - F v), r = e_c - p
    """
    onehot = np.zeros_like(logits)
    onehot[:, spec.target_class] = 1.0
    if spec.kind == "pre-softmax":
        return onehot, None if v is None else np.zeros_like(logits)
    r = onehot - p
    if spec.kind == "post-softmax":
        p_c = p[:, spec.target_class, None]
        grad = p_c * r
    else:
        grad = 2.0 * onehot - p if spec.kind == "rest" else r
    if v is None:
        return grad, None
    v = np.asarray(v, dtype=np.float64)
    pv = p * v
    fisher = pv - p * np.sum(pv, axis=1, keepdims=True)
    if spec.kind == "post-softmax":
        return grad, p_c * (r * np.sum(r * v, axis=1, keepdims=True) - fisher)
    return grad, -fisher
