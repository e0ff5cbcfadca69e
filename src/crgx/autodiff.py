"""Reverse-mode automatic differentiation on dense float64 arrays.

Every operation checks its operands, computes its numpy value once and
hands it to `_op`, the one place that decides what an op returns (but for
`sum`, which returns its value itself in a values-only backward, before
it builds its rule's closure). `_op` builds a `Node` linked to its parents
by reference and recorded, in creation order, on the active `Tape`; plain
array arguments are wrapped as constant nodes, and the node keeps the
op's backward rule. Backward rules are themselves written in terms of
these operations, so a gradient can be an ordinary node graph, which
`hvp` sweeps backward again. Tapes are opened by `forward`, which records
the named inputs and the graph run on them; the same tape can be
re-entered to add nodes on top. A tape input and an `hvp` direction
follow the array rule of the rest of the API, `_rules._checked_array`, at
any rank; `_rules` is the one package module the engine imports.

A backward pass builds nodes only when its result will be differentiated
again. Today that is one graph: the first-order gradient graph that `hvp`
builds once per (output, wrt) pair and keeps on the tape, where every
later `hvp` reads it. `hvp`'s seeded sweep of g, and every `gradient`,
run values-only: the same backward rules on plain arrays, for which `_op`
returns each value bare, so they add no node to the tape and give the same
bits. Values-only or not, adjoints flow only into nodes that depend on the
variable differentiated against, so nothing is computed for the adjoint
of a constant such as a weight matrix.

Every derivative is one reverse sweep, `_backward`, seeded with the ones
scalar at the output for a gradient and with v at g for an `hvp`:
H v = (dg/dx)^T v, reverse over reverse (Pearlmutter, 1994). It walks
its graph in the order of `_toposort`: the DFS postorder from the root,
and with it the set of nodes that depend on the variable. A node's
ancestors never change, so the tape keeps every sort it makes: the
forward graph's, which `gradient` and the first `hvp` share, and the
first-order graph's, beside the graph. So a tape sorts each graph once,
however many `gradient`s and `hvp`s it answers, and after its first
`hvp` records no more nodes. The postorder fixes the order in which a
node with several consumers sums their adjoint contributions, and so the
bits.

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

from ._rules import _checked_array

Array = np.ndarray


class _State(threading.local):
    """Per-thread engine state: the stack of active tapes, and whether a
    values-only backward is running (then every op returns a plain array)."""

    def __init__(self):
        self.tapes: list[Tape] = []
        self.values = False


_STATE = _State()


def as_tensor(x) -> Array:
    """Coerce to a float64 ndarray (scalars become shape-() arrays)."""
    return np.asarray(x, dtype=np.float64)


class Node:
    """One value in a differentiable computation.

    `parents` are the nodes this value was computed from, and `_vjp` maps an
    adjoint, one flag per parent and the node itself to one adjoint
    contribution per parent; a parent whose flag is False gets None, and
    nothing is computed for it.
    Leaves (inputs and constants) have no parents and no backward rule.
    """

    __slots__ = ("value", "shape", "parents", "op", "_vjp")

    def __init__(self, value: Array, parents: tuple = (), op: str = "const"):
        self.value = value
        self.shape = value.shape
        self.parents = parents
        self.op = op
        self._vjp = None
        tapes = _STATE.tapes
        if tapes:
            tapes[-1].nodes.append(self)

    @property
    def ndim(self):
        return len(self.shape)

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.shape})"


class Tape:
    """Ordered record of one computation: every node, parents first.

    `forward` creates a tape and records its inputs. Entering the tape as a
    context manager routes node creation here; the same tape may be
    re-entered later to append more nodes (a utility head, a backward pass)
    on top of an existing forward. `grads` holds the first-order gradient
    graph g of each (output, wrt) pair built so far, which every `hvp`
    sweeps seeded with its v, and `sorts` every `_toposort(root, wrt)` made
    for a backward on the tape, keyed by (root, wrt): the forward graph's
    under (output, wrt) and g's under (g, wrt).
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.inputs: dict[str, Node] = {}
        self.outputs: dict[str, Node] = {}
        self.grads: dict[tuple[Node, Node], Node] = {}
        self.sorts: dict[tuple[Node, Node], tuple[list[Node], set[Node]]] = {}

    def __enter__(self):
        _STATE.tapes.append(self)
        return self

    def __exit__(self, *exc):
        _STATE.tapes.pop()
        return False


def _as_node(x) -> Node:
    return x if type(x) is Node else Node(as_tensor(x), (), "const")


def _value(x) -> Array:
    return x.value if type(x) is Node else np.asarray(x, dtype=np.float64)


def _op(value: Array, parents: tuple, op: str, vjp):
    """What every op returns: `value` itself in a values-only backward,
    otherwise a node over `parents` (plain arrays wrapped as constant nodes,
    in order) whose backward rule is `vjp`."""
    if _STATE.values:
        return value
    out = Node(value, tuple(map(_as_node, parents)), op)
    out._vjp = vjp
    return out


def _unchanged(x, xv: Array):
    """`reshape` or `broadcast_to` onto the shape `x` already has: no new
    op, just `x` as `_op` would give it (its value, or a node)."""
    return xv if _STATE.values else _as_node(x)


def _check_broadcast(op: str, a_shape, b_shape) -> None:
    """Raise unless the two shapes broadcast with each other (a scalar's always does)."""
    if a_shape and b_shape:
        try:
            np.broadcast_shapes(a_shape, b_shape)
        except ValueError:
            raise ValueError(f"{op}: shapes {a_shape} and {b_shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# primitives
#
# Each op checks its operands, computes its value once and returns
# `_op(value, parents, op, rule)`. A rule `(g, needs, out)` reads the parent
# nodes from `out.parents` and returns one adjoint per parent, None where
# `needs` is False. A rule that needs a parameter of the call (an axis, a
# position) closes over it; the others are module functions, so a
# values-only op builds no function object.


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
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        _check_broadcast("add", av.shape, bv.shape)
    return _op(av + bv, (a, b), "add", _add_vjp)


def _add_vjp(g, needs, out):
    a, b = out.parents
    if a.shape == b.shape:  # g has that shape too: nothing to sum away
        return g if needs[0] else None, g if needs[1] else None
    return (_unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(g, b.shape) if needs[1] else None)


def sub(a, b):
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        _check_broadcast("sub", av.shape, bv.shape)
    return _op(av - bv, (a, b), "sub", _sub_vjp)


def _sub_vjp(g, needs, out):
    a, b = out.parents
    if a.shape == b.shape:
        return g if needs[0] else None, neg(g) if needs[1] else None
    return (_unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(neg(g), b.shape) if needs[1] else None)


def neg(x):
    return _op(-_value(x), (x,), "neg", _neg_vjp)


def _neg_vjp(g, needs, out):
    return (neg(g),)


def mul(a, b):
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        _check_broadcast("mul", av.shape, bv.shape)
    return _op(av * bv, (a, b), "mul", _mul_vjp)


def _mul_vjp(g, needs, out):
    a, b = out.parents
    if a.shape == b.shape:
        return mul(g, b) if needs[0] else None, mul(g, a) if needs[1] else None
    return (_unbroadcast(mul(g, b), a.shape) if needs[0] else None,
            _unbroadcast(mul(g, a), b.shape) if needs[1] else None)


def reciprocal(x):
    xv = _value(x)
    if np.any(xv == 0.0):
        raise ValueError("reciprocal: zero input")
    return _op(1.0 / xv, (x,), "reciprocal", _reciprocal_vjp)


def _reciprocal_vjp(g, needs, out):
    return (neg(mul(g, mul(out, out))),)


def matmul(a, b):
    """Matrix-vector (m, k) @ (k,) or dot product (k,) @ (k,)."""
    av, bv = _value(a), _value(b)
    na, nb = av.ndim, bv.ndim
    if na not in (1, 2) or nb != 1:
        raise ValueError(f"matmul: unsupported ranks {na} @ {nb}")
    if av.shape[-1] != bv.shape[0]:
        raise ValueError(f"matmul: shapes {av.shape} @ {bv.shape} do not align")
    return _op(np.matmul(av, bv), (a, b), "matmul", _matmul_vjp)


def _matmul_vjp(g, needs, out):
    a, b = out.parents
    if a.ndim == 2:
        m, k = a.shape
        return (mul(reshape(g, (m, 1)), reshape(b, (1, k))) if needs[0] else None,
                matmul(transpose(a), g) if needs[1] else None)
    return mul(g, b) if needs[0] else None, mul(g, a) if needs[1] else None


def exp(x):
    with np.errstate(over="ignore"):
        value = np.exp(_value(x))
    if not np.all(np.isfinite(value)):
        raise ValueError("exp: overflow")
    return _op(value, (x,), "exp", _exp_vjp)


def _exp_vjp(g, needs, out):
    return (mul(g, out),)


def log(x):
    xv = _value(x)
    if np.any(xv <= 0.0):
        raise ValueError("log: input must be positive")
    return _op(np.log(xv), (x,), "log", _log_vjp)


def _log_vjp(g, needs, out):
    return (mul(g, reciprocal(out.parents[0])),)


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
    return _op(_sigmoid_fw(_value(x)), (x,), "sigmoid", _sigmoid_vjp)


def _sigmoid_vjp(g, needs, out):
    return (mul(g, mul(out, sub(1.0, out))),)


def tanh(x):
    return _op(np.tanh(_value(x)), (x,), "tanh", _tanh_vjp)


def _tanh_vjp(g, needs, out):
    return (mul(g, sub(1.0, mul(out, out))),)


def softplus(x):
    return _op(np.logaddexp(0.0, _value(x)), (x,), "softplus", _softplus_vjp)


def _softplus_vjp(g, needs, out):
    return (mul(g, sigmoid(out.parents[0])),)


def silu(x):
    return mul(x, sigmoid(x))


def sum(x, axis=None, keepdims=False):  # noqa: A001 - numpy-style name on purpose
    xv = _value(x)
    ndim = xv.ndim
    if axis is None:
        axes = tuple(range(ndim))
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        for a in axes:
            if not -ndim <= a < ndim:
                raise ValueError(f"sum: axis {a} out of range for shape {xv.shape}")
        axes = tuple(a % ndim for a in axes)
    value = np.add.reduce(xv, axis=axes, keepdims=keepdims)
    if _STATE.values:
        return value

    def vjp(g, needs, out):
        src_shape = out.parents[0].shape
        kd_shape = tuple(1 if i in axes else s for i, s in enumerate(src_shape))
        return (broadcast_to(reshape(g, kd_shape), src_shape),)

    return _op(value, (x,), "sum", vjp)


def mean(x, axis=None, keepdims=False):
    total = sum(x, axis=axis, keepdims=keepdims)
    shape = _value(x).shape
    axes = range(len(shape)) if axis is None else (axis,) if isinstance(axis, int) else axis
    count = math.prod(shape[a] for a in axes)  # `sum` has checked every axis
    if count == 0:
        raise ValueError(f"mean: axis {axis} of shape {shape} holds no elements")
    return mul(total, 1.0 / count)


def reshape(x, shape):
    xv = _value(x)
    shape = tuple(shape)
    if xv.shape == shape:
        return _unchanged(x, xv)
    if math.prod(xv.shape) != math.prod(shape):
        raise ValueError(f"reshape: cannot reshape {xv.shape} to {shape}")
    return _op(np.reshape(xv, shape), (x,), "reshape", _reshape_vjp)


def _reshape_vjp(g, needs, out):
    return (reshape(g, out.parents[0].shape),)


def transpose(x):
    return _op(np.ascontiguousarray(np.transpose(_value(x))), (x,), "transpose", _transpose_vjp)


def _transpose_vjp(g, needs, out):
    return (transpose(g),)


def broadcast_to(x, shape):
    xv = _value(x)
    shape = tuple(shape)
    if xv.shape == shape:
        return _unchanged(x, xv)
    # numpy's rule, one way: each trailing source extent is 1 or the target's
    lead = len(shape) - xv.ndim
    if lead < 0 or any(s not in (1, t) for s, t in zip(xv.shape, shape[lead:])):
        raise ValueError(f"broadcast_to: shape {xv.shape} does not broadcast onto {shape}")
    value = np.empty(shape)
    value[...] = xv
    return _op(value, (x,), "broadcast_to", _broadcast_to_vjp)


def _broadcast_to_vjp(g, needs, out):
    return (_unbroadcast(g, out.parents[0].shape),)


def index(x, i):
    """Scalar element x.flat[i]."""
    xv = _value(x)
    i, size = int(i), xv.size
    if not 0 <= i < size:
        raise ValueError(f"index: position {i} out of range for size {size}")
    return _op(xv.reshape(-1)[i], (x,), "index",
               lambda g, needs, out: (_place(g, i, out.parents[0].shape),))


def _place(g, i, shape):
    """`index`'s adjoint: zeros of `shape`, g added at flat i (-0.0 lands as +0.0)."""
    value = np.zeros(shape)
    value.reshape(-1)[i] += _value(g)
    return _op(value, (g,), "place", lambda gg, needs, out: (index(gg, i),))


# ---------------------------------------------------------------------------
# composites


def softmax(x):
    """Softmax of a 1-D vector, max-subtracted for stability.

    The subtracted max is detached; softmax is shift-invariant, so this
    changes neither the value nor any derivative.
    """
    xv = _value(x)
    if xv.ndim != 1:
        raise ValueError(f"softmax: expected a 1-D vector, got shape {xv.shape}")
    e = exp(sub(x, float(xv.max())))
    return mul(e, reciprocal(sum(e)))


def logsumexp(x):
    """log(sum(exp(x))) of a 1-D vector via the shifted, overflow-free form."""
    xv = _value(x)
    if xv.ndim != 1:
        raise ValueError(f"logsumexp: expected a 1-D vector, got shape {xv.shape}")
    m = float(xv.max())
    return add(log(sum(exp(sub(x, m)))), m)


# ---------------------------------------------------------------------------
# differentiation


def _toposort(root: Node, wrt: Node) -> tuple[list[Node], set[Node]]:
    """`root` and its ancestors in DFS postorder (ancestors before
    descendants), and the set of them that depend on `wrt`, from one sweep.
    A node is appended only after every parent has been, so whether it
    depends on `wrt` is known as it is appended."""
    order: list[Node] = []
    live: set[Node] = set()
    seen: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            if node is wrt or not live.isdisjoint(node.parents):
                live.add(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    return order, live


_ONE = (True,)  # `needs` of a single-parent node that has an adjoint


def grad_node(output: Node, wrt: Node, tape: Tape):
    """Adjoint of a scalar `output` with respect to `wrt`, as a node graph.

    The result is itself differentiable: `hvp` keeps it on the tape as the
    first-order graph g and sweeps it backward again, seeded with v; in a
    values-only backward the same rules give it as a plain array.
    Unreachable `wrt` yields exact zeros. The sort is read from, or kept
    in, the `sorts` of the `tape` that holds `output`.
    """
    if output.shape != ():
        raise ValueError(f"gradient: output must be scalar, got shape {output.shape}")
    return _backward(output, wrt, *_kept_sort(tape, output, wrt))


def _kept_sort(tape: Tape, root: Node, wrt: Node) -> tuple[list[Node], set[Node]]:
    """`_toposort(root, wrt)`, sorted on the first call for a tape and kept
    in `tape.sorts`."""
    key = (root, wrt)
    found = tape.sorts.get(key)
    if found is None:
        found = tape.sorts[key] = _toposort(root, wrt)
    return found


def _backward(output: Node, wrt: Node, order: list[Node], live: set[Node], seed=None):
    """The reverse sweep of every derivative: the adjoint of `wrt` when
    `output` holds the adjoint `seed` (the ones scalar when None, so a
    gradient of a scalar output), over `_toposort(output, wrt)`'s order and
    live set. Seeded with v at the first-order graph g, it gives
    (dg/dx)^T v = H v.

    Only nodes that depend on `wrt` are differentiated: every node that
    adds to such a node's adjoint depends on `wrt` as well, so the adjoint
    of `wrt` is the same sum, added in the same order, as when every
    node's adjoint is built. So a node that holds an adjoint is live, and
    so is the one parent of a single-parent node other than `wrt`.
    """
    if output not in live:
        return _op(np.zeros(wrt.shape), (), "const", None)
    adjoint = {output: _op(np.ones(()), (), "const", None) if seed is None else seed}
    for node in reversed(order):
        if node is wrt:
            break  # every descendant of wrt came before it
        g = adjoint.get(node)
        if g is None:
            continue
        parents = node.parents
        # every op has one parent or two (add, sub, mul, matmul)
        needs = _ONE if len(parents) == 1 else (parents[0] in live, parents[1] in live)
        for parent, contrib in zip(parents, node._vjp(g, needs, node)):
            if contrib is None:
                continue
            held = adjoint.get(parent)
            adjoint[parent] = contrib if held is None else add(held, contrib)
    return adjoint[wrt]


def _values_only(backward: Callable, *args) -> Array:
    """Run `backward` (`grad_node` or `_backward`) values-only: every op
    returns a plain array, so the adjoint comes back as one and no node is
    built."""
    previous, _STATE.values = _STATE.values, True
    try:
        return backward(*args)
    finally:
        _STATE.values = previous


def _resolve(table: dict[str, Node], key) -> Node:
    if type(key) is Node:
        return key
    if key in table:
        return table[key]
    raise KeyError(f"no node named {key!r} on this tape")


def forward(graph: Callable, inputs: dict) -> tuple[dict, Tape]:
    """Run `graph` on named inputs, recording every node on a fresh tape.

    `graph` is called with one keyword argument per input and returns either
    a single node or a dict of named nodes. Every input follows the array
    rule of `_rules._checked_array` at any rank (`ValueError` otherwise).
    """
    tape = Tape()
    with tape:
        for name, value in inputs.items():
            tape.inputs[name] = Node(_checked_array(f"input '{name}'", value, None), (), "input")
        result = graph(**tape.inputs)
    if isinstance(result, Node):
        result = {"out": result}
    if not isinstance(result, dict) or not all(isinstance(v, Node) for v in result.values()):
        raise TypeError("forward: graph must return a Node or a dict of Nodes")
    tape.outputs.update(result)
    return {name: node.value for name, node in result.items()}, tape


def gradient(tape: Tape, output, wrt) -> Array:
    """Gradient of a scalar tape output with respect to a tape input, as a
    new array, from a values-only backward that adds no node to the tape
    (it keeps the forward graph's sort, if it is the first to make it)."""
    return _values_only(grad_node, _resolve(tape.outputs, output), _resolve(tape.inputs, wrt),
                        tape)


def hvp(tape: Tape, output, wrt, v) -> Array:
    """Hessian-vector product H @ v of a scalar output w.r.t. one input.

    Reverse over reverse: H v = (dg/dx)^T v for the gradient g, so H v is
    one backward sweep of the first-order graph g seeded with v. The first
    `hvp` on a tape builds g, from the forward graph's kept sort, and keeps
    it with its own sort; every `hvp` then sweeps that sort values-only, so
    after the first a tape records no more nodes.
    """
    out_node = _resolve(tape.outputs, output)
    wrt_node = _resolve(tape.inputs, wrt)
    v = _checked_array("hvp direction v", v, None)
    if v.shape != wrt_node.shape:
        raise ValueError(f"hvp direction v has shape {v.shape}, expected {wrt_node.shape}")
    key = (out_node, wrt_node)
    g = tape.grads.get(key)
    if g is None:
        with tape:
            g = tape.grads[key] = grad_node(out_node, wrt_node, tape)
    return _values_only(_backward, g, wrt_node, *_kept_sort(tape, g, wrt_node), v)
