"""Scalar utilities over logits: the quantity a heatmap explains.

Values come from one numpy kernel, `compute_utility_batch`, which scores
rows of logits; `compute_utility` is that kernel on a single row. The taped
`utility_node` builds the same formula as a node graph for gradients and
HVPs, in the kernel's op order, so the value a game enumerates and the
value a gradient is taken of agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

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
        if self.kind not in UTILITY_KINDS:
            raise ValueError(f"unknown utility kind {self.kind!r}; "
                             f"expected one of {UTILITY_KINDS}")
        if self.target_class < 0:
            raise ValueError(f"target_class must be non-negative, got {self.target_class}")


def utility_node(logits, spec: UtilitySpec):
    """Utility of a 1-D logits node as a node graph, for differentiation."""
    if logits.ndim != 1:
        raise ValueError(f"utility: logits must be 1-D, got shape {logits.shape}")
    n = logits.shape[0]
    if spec.target_class >= n:
        raise ValueError(f"target_class {spec.target_class} out of range "
                         f"for {n} classes")
    c = spec.target_class
    if spec.kind == "pre-softmax":
        return ad.index(logits, c)
    if spec.kind == "post-softmax":
        return ad.index(ad.softmax(logits), c)
    if spec.kind == "log-softmax":
        return ad.sub(ad.index(logits, c), ad.logsumexp(logits))
    # rest: the logit plus its log-probability, fused through logsumexp
    return ad.sub(ad.mul(2.0, ad.index(logits, c)), ad.logsumexp(logits))


def compute_utility(logits, spec: UtilitySpec) -> float:
    """Scalar utility of a plain logits vector: one row of
    `compute_utility_batch`."""
    logits = ad.as_tensor(logits)
    if logits.ndim != 1:
        raise ValueError(f"utility: logits must be 1-D, got shape {logits.shape}")
    return float(compute_utility_batch(logits[None], spec)[0])


def compute_utility_batch(logits, spec: UtilitySpec) -> np.ndarray:
    """Utilities of n logit rows, (n, K) -> (n,).

    Plain numpy in the op order of `utility_node` (max shift, exp, row sum,
    log, add the max back), so row i is bit-identical to the value of
    `utility_node` on that row.
    """
    logits = ad.as_tensor(logits)
    if logits.ndim != 2:
        raise ValueError(f"utility: logits must be 2-D (rows x classes), got {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise ValueError("utility: logits must be finite")
    c = spec.target_class
    if c >= logits.shape[1]:
        raise ValueError(f"target_class {c} out of range for {logits.shape[1]} classes")
    y = logits[:, c]
    if spec.kind == "pre-softmax":
        return y.copy()
    m = np.max(logits, axis=1)
    e = np.exp(logits - m[:, None])
    total = np.sum(e, axis=1)
    if spec.kind == "post-softmax":
        return e[:, c] * (1.0 / total)
    lse = np.log(total) + m
    if spec.kind == "log-softmax":
        return y - lse
    return 2.0 * y - lse
