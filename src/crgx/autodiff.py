"""Reverse-mode automatic differentiation on dense float64 arrays.

Every operation builds a `Node` linked to its parents by reference and
recorded, in creation order, on the active `Tape`; plain array arguments
are wrapped as constant nodes. Backward rules are themselves written in
terms of these operations, so gradients are ordinary node graphs and can be
differentiated again; `hvp` exploits this to compute Hessian-vector
products by double backward.

A backward pass builds only what its result needs: adjoints flow only
into nodes that depend on the variable differentiated against, so no
graph is built for the adjoint of a constant such as a weight matrix, and
a tape keeps each first-order gradient graph it has built, which
`gradient` and every `hvp` on that tape share.

This module only serves derivatives, and no library hot path uses it:
`cam.explain` takes the head's derivatives in closed form. It serves the
verification suites and is the oracle the closed forms are tested
against. Plain values (logits, utilities, scores) come from the numpy
kernels in `zoo` and `utility`.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

import numpy as np

Array = np.ndarray

_STACK = threading.local()


def as_tensor(x) -> Array:
    """Coerce to a float64 ndarray (scalars become shape-() arrays)."""
    return np.asarray(x, dtype=np.float64)


def _check_finite(name: str, value: Array) -> None:
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name}: non-finite values are not allowed")


def _active_tape():
    stack = getattr(_STACK, "stack", None)
    return stack[-1] if stack else None


class Node:
    """One value in a differentiable computation.

    `parents` are the nodes this value was computed from, and `_vjp` maps an
    adjoint node and one flag per parent to one adjoint contribution per
    parent; a parent whose flag is False gets None, and nothing is built
    for it. Leaves (inputs and constants) have no parents and no backward
    rule.
    """

    __slots__ = ("value", "parents", "op", "_vjp")

    def __init__(self, value: Array, parents: tuple = (), op: str = "const"):
        self.value = value
        self.parents = parents
        self.op = op
        self._vjp = None
        tape = _active_tape()
        if tape is not None:
            tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


class Tape:
    """Ordered record of one computation: every node, parents first.

    Entering the tape as a context manager routes node creation here; the
    same tape may be re-entered later to append more nodes (a utility head,
    a backward pass) on top of an existing forward. `grads` holds the
    first-order gradient graph of each (output, wrt) pair built so far.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.inputs: dict[str, Node] = {}
        self.outputs: dict[str, Node] = {}
        self.grads: dict[tuple[Node, Node], Node] = {}

    def input(self, name: str, value) -> Node:
        value = as_tensor(value)
        _check_finite(f"input '{name}'", value)
        with self:
            node = Node(value, (), "input")
        self.inputs[name] = node
        return node

    def __enter__(self):
        stack = getattr(_STACK, "stack", None)
        if stack is None:
            stack = _STACK.stack = []
        stack.append(self)
        return self

    def __exit__(self, *exc):
        _STACK.stack.pop()
        return False


def _as_node(x) -> Node:
    if isinstance(x, Node):
        return x
    return Node(as_tensor(x), (), "const")


def _broadcast_shape(op: str, a_shape, b_shape):
    if a_shape == b_shape or not b_shape:
        return a_shape
    if not a_shape:
        return b_shape
    try:
        return np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise ValueError(f"{op}: shapes {a_shape} and {b_shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# primitives


def _unbroadcast(g, shape):
    """Sum an adjoint back down to `shape` (inverse of numpy broadcasting)."""
    g_shape = g.shape
    if g_shape == shape:
        return g
    extra = len(g_shape) - len(shape)
    if extra > 0:
        g = sum(g, axis=tuple(range(extra)))
        g_shape = g.shape
    axes = tuple(i for i, (gs, s) in enumerate(zip(g_shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = sum(g, axis=axes, keepdims=True)
    return g


def add(a, b):
    a, b = _as_node(a), _as_node(b)
    _broadcast_shape("add", a.shape, b.shape)
    out = Node(a.value + b.value, (a, b), "add")
    out._vjp = lambda g, needs: (_unbroadcast(g, a.shape) if needs[0] else None,
                                 _unbroadcast(g, b.shape) if needs[1] else None)
    return out


def sub(a, b):
    a, b = _as_node(a), _as_node(b)
    _broadcast_shape("sub", a.shape, b.shape)
    out = Node(a.value - b.value, (a, b), "sub")
    out._vjp = lambda g, needs: (_unbroadcast(g, a.shape) if needs[0] else None,
                                 _unbroadcast(neg(g), b.shape) if needs[1] else None)
    return out


def neg(x):
    x = _as_node(x)
    out = Node(-x.value, (x,), "neg")
    out._vjp = lambda g, _: (neg(g),)
    return out


def mul(a, b):
    a, b = _as_node(a), _as_node(b)
    _broadcast_shape("mul", a.shape, b.shape)
    out = Node(a.value * b.value, (a, b), "mul")
    out._vjp = lambda g, needs: (_unbroadcast(mul(g, b), a.shape) if needs[0] else None,
                                 _unbroadcast(mul(g, a), b.shape) if needs[1] else None)
    return out


def reciprocal(x):
    x = _as_node(x)
    if np.any(x.value == 0.0):
        raise ValueError("reciprocal: zero input")
    out = Node(1.0 / x.value, (x,), "reciprocal")
    out._vjp = lambda g, _: (neg(mul(g, mul(out, out))),)
    return out


def matmul(a, b):
    """Matrix-vector (m, k) @ (k,) or dot product (k,) @ (k,)."""
    a, b = _as_node(a), _as_node(b)
    na, nb = a.ndim, b.ndim
    if na not in (1, 2) or nb != 1:
        raise ValueError(f"matmul: unsupported ranks {na} @ {nb}")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul: shapes {a.shape} @ {b.shape} do not align")
    out = Node(np.matmul(a.value, b.value), (a, b), "matmul")

    def vjp(g, needs):
        need_a, need_b = needs
        if na == 2:
            m, k = a.shape
            return (mul(reshape(g, (m, 1)), reshape(b, (1, k))) if need_a else None,
                    matmul(transpose(a), g) if need_b else None)
        return mul(g, b) if need_a else None, mul(g, a) if need_b else None

    out._vjp = vjp
    return out


def exp(x):
    x = _as_node(x)
    with np.errstate(over="ignore"):
        value = np.exp(x.value)
    if not np.all(np.isfinite(value)):
        raise ValueError("exp: overflow")
    out = Node(value, (x,), "exp")
    out._vjp = lambda g, _: (mul(g, out),)
    return out


def log(x):
    x = _as_node(x)
    if np.any(x.value <= 0.0):
        raise ValueError("log: input must be positive")
    out = Node(np.log(x.value), (x,), "log")
    out._vjp = lambda g, _: (mul(g, reciprocal(x)),)
    return out


def _sigmoid_fw(xv):
    """Overflow-free logistic in float64: with e = e^-|x|, 1/(1+e) for
    x >= 0 and e/(1+e) below. Both branches divide by the same 1 + e, and
    their numerator is e^min(x, 0) (exactly 1 for x >= 0, exactly e below),
    so one division gives the bits of `np.where(x >= 0, 1/(1+e), e/(1+e))`
    with no per-element branch."""
    e = np.abs(xv, out=np.empty_like(xv, dtype=np.float64))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.minimum(xv, 0.0, out=np.empty_like(e))
    np.exp(out, out=out)
    e += 1.0
    out /= e
    return out


def sigmoid(x):
    x = _as_node(x)
    out = Node(_sigmoid_fw(x.value), (x,), "sigmoid")
    out._vjp = lambda g, _: (mul(g, mul(out, sub(1.0, out))),)
    return out


def tanh(x):
    x = _as_node(x)
    out = Node(np.tanh(x.value), (x,), "tanh")
    out._vjp = lambda g, _: (mul(g, sub(1.0, mul(out, out))),)
    return out


def softplus(x):
    x = _as_node(x)
    out = Node(np.logaddexp(0.0, x.value), (x,), "softplus")
    out._vjp = lambda g, _: (mul(g, sigmoid(x)),)
    return out


def silu(x):
    return mul(x, sigmoid(x))


def sum(x, axis=None, keepdims=False):  # noqa: A001 - numpy-style name on purpose
    x = _as_node(x)
    if axis is None:
        axes = tuple(range(x.ndim))
    elif isinstance(axis, int):
        axes = (axis % x.ndim,)
    else:
        axes = tuple(a % x.ndim for a in axis)
    kd_shape = tuple(1 if i in axes else s for i, s in enumerate(x.shape))
    out = Node(np.sum(x.value, axis=axes, keepdims=keepdims), (x,), "sum")
    src_shape = x.shape
    out._vjp = lambda g, _: (broadcast_to(reshape(g, kd_shape), src_shape),)
    return out


def mean(x, axis=None, keepdims=False):
    x = _as_node(x)
    total = sum(x, axis=axis, keepdims=keepdims)
    return mul(total, 1.0 / (x.value.size // total.value.size))


def reshape(x, shape):
    x = _as_node(x)
    shape = tuple(shape)
    if x.shape == shape:
        return x
    if math.prod(x.shape) != math.prod(shape):
        raise ValueError(f"reshape: cannot reshape {x.shape} to {shape}")
    out = Node(np.reshape(x.value, shape), (x,), "reshape")
    src_shape = x.shape
    out._vjp = lambda g, _: (reshape(g, src_shape),)
    return out


def transpose(x):
    x = _as_node(x)
    out = Node(np.ascontiguousarray(np.transpose(x.value)), (x,), "transpose")
    out._vjp = lambda g, _: (transpose(g),)
    return out


def broadcast_to(x, shape):
    x = _as_node(x)
    shape = tuple(shape)
    if x.shape == shape:
        return x
    _broadcast_shape("broadcast_to", x.shape, shape)
    out = Node(np.ascontiguousarray(np.broadcast_to(x.value, shape)), (x,), "broadcast_to")
    src_shape = x.shape
    out._vjp = lambda g, _: (_unbroadcast(g, src_shape),)
    return out


def index(x, i):
    """Scalar element x.flat[i]."""
    x = _as_node(x)
    i, size = int(i), x.value.size
    if not 0 <= i < size:
        raise ValueError(f"index: position {i} out of range for size {size}")
    out = Node(x.value.reshape(-1)[i], (x,), "index")
    out._vjp = lambda g, _: (_place(g, i, x.shape),)
    return out


def _place(g, i, shape):
    """`index`'s adjoint: zeros of `shape`, g added at flat i (-0.0 lands as +0.0)."""
    value = np.zeros(shape)
    value.reshape(-1)[i] += g.value
    out = Node(value, (g,), "place")
    out._vjp = lambda gg, _: (index(gg, i),)
    return out


# ---------------------------------------------------------------------------
# composites


def softmax(x):
    """Softmax of a 1-D vector, max-subtracted for stability.

    The subtracted max is detached; softmax is shift-invariant, so this
    changes neither the value nor any derivative.
    """
    x = _as_node(x)
    if x.ndim != 1:
        raise ValueError(f"softmax: expected a 1-D vector, got shape {x.shape}")
    e = exp(sub(x, float(x.value.max())))
    return mul(e, reciprocal(sum(e)))


def logsumexp(x):
    """log(sum(exp(x))) of a 1-D vector via the shifted, overflow-free form."""
    x = _as_node(x)
    if x.ndim != 1:
        raise ValueError(f"logsumexp: expected a 1-D vector, got shape {x.shape}")
    m = float(x.value.max())
    return add(log(sum(exp(sub(x, m)))), m)


# ---------------------------------------------------------------------------
# differentiation


def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # ancestors before descendants


def grad_node(output: Node, wrt: Node) -> Node:
    """Adjoint of a scalar `output` with respect to `wrt`, as a node graph.

    The result is itself differentiable, which is what makes double
    backward (and so `hvp`) possible. Unreachable `wrt` yields exact zeros.
    Only nodes that depend on `wrt` are differentiated: every node that
    adds to such a node's adjoint depends on `wrt` as well, so the adjoint
    of `wrt` is the same sum, added in the same order, as when every
    node's adjoint is built.
    """
    if output.value.shape != ():
        raise ValueError(f"gradient: output must be scalar, got shape {output.value.shape}")
    order = _toposort(output)
    live = {id(wrt)}
    for node in order:
        for p in node.parents:
            if id(p) in live:
                live.add(id(node))
                break
    if id(output) not in live:
        return _as_node(np.zeros(wrt.value.shape))
    adjoint: dict[int, Node] = {id(output): _as_node(np.ones(()))}
    for node in reversed(order):
        if node is wrt:
            break  # every descendant of wrt came before it
        g = adjoint.get(id(node))
        if g is None:
            continue
        parents = node.parents
        needs = tuple(id(p) in live for p in parents)
        for parent, contrib in zip(parents, node._vjp(g, needs)):
            if contrib is None:
                continue
            held = adjoint.get(id(parent))
            adjoint[id(parent)] = contrib if held is None else add(held, contrib)
    return adjoint[id(wrt)]


def _resolve(table: dict[str, Node], key) -> Node:
    if isinstance(key, Node):
        return key
    if key in table:
        return table[key]
    raise KeyError(f"no node named {key!r} on this tape")


def forward(graph: Callable, inputs: dict) -> tuple[dict, Tape]:
    """Run `graph` on named inputs, recording every node on a fresh tape.

    `graph` is called with one keyword argument per input and returns either
    a single node or a dict of named nodes.
    """
    tape = Tape()
    with tape:
        in_nodes = {name: tape.input(name, value) for name, value in inputs.items()}
        result = graph(**in_nodes)
    if isinstance(result, Node):
        result = {"out": result}
    if not isinstance(result, dict) or not all(isinstance(v, Node) for v in result.values()):
        raise TypeError("forward: graph must return a Node or a dict of Nodes")
    tape.outputs.update(result)
    return {name: node.value for name, node in result.items()}, tape


def _first_order(tape: Tape, out_node: Node, wrt_node: Node) -> Node:
    """The tape's gradient graph of `out_node` w.r.t. `wrt_node`, built on
    the first request and shared by every later one."""
    key = (out_node, wrt_node)
    g = tape.grads.get(key)
    if g is None:
        with tape:
            g = tape.grads[key] = grad_node(out_node, wrt_node)
    return g


def gradient(tape: Tape, output, wrt) -> Array:
    """Gradient of a scalar tape output with respect to a tape input, as a
    new array: the graph it comes from is shared by later calls."""
    out_node = _resolve(tape.outputs, output)
    wrt_node = _resolve(tape.inputs, wrt)
    return _first_order(tape, out_node, wrt_node).value.copy()


def hvp(tape: Tape, output, wrt, v) -> Array:
    """Hessian-vector product H @ v of a scalar output w.r.t. one input.

    Computed as the gradient of <gradient(output), v>; needs nothing beyond
    the backward rules already being differentiable node graphs. The
    first-order graph is the tape's shared one, so a second `hvp` builds
    only its own second backward.
    """
    out_node = _resolve(tape.outputs, output)
    wrt_node = _resolve(tape.inputs, wrt)
    v = as_tensor(v)
    if v.shape != wrt_node.value.shape:
        raise ValueError(f"hvp: v has shape {v.shape}, expected {wrt_node.value.shape}")
    g = _first_order(tape, out_node, wrt_node)
    with tape:
        s = sum(mul(g, v))
        h = grad_node(s, wrt_node)
    return h.value
