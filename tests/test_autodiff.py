"""Autodiff engine: gradients and HVPs against central differences,
forward determinism, and the error contracts."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from crgx import autodiff as ad


def rel_err(approx, exact):
    approx, exact = np.asarray(approx), np.asarray(exact)
    return float(np.max(np.abs(approx - exact) / (1.0 + np.abs(exact))))


def fd_step(x):
    return 1e-5 * (1.0 + np.abs(x))


def finite_diff_gradient(f, x, h):
    """Central-difference gradient of a scalar function; the test oracle.

    `h` may be a scalar or a per-coordinate array of step sizes.
    """
    x = ad.as_tensor(x)
    steps = np.broadcast_to(ad.as_tensor(h), x.shape)
    g = np.empty_like(x)
    for i in np.ndindex(x.shape):
        xp = x.copy()
        xp[i] += steps[i]
        xm = x.copy()
        xm[i] -= steps[i]
        g[i] = (float(f(xp)) - float(f(xm))) / (2.0 * steps[i])
    return g


def check_gradient(fn, inputs, wrt, tol=1e-6):
    """Taped gradient vs central differences for one named input."""
    outs, tape = ad.forward(fn, inputs)
    grad = ad.gradient(tape, "out", wrt)
    x = np.asarray(inputs[wrt], dtype=np.float64)

    def scalar(xv):
        probe = dict(inputs)
        probe[wrt] = xv
        out, _ = ad.forward(fn, probe)
        return out["out"]

    fd = finite_diff_gradient(scalar, x, fd_step(x))
    assert rel_err(grad, fd) <= tol, f"gradient mismatch for {wrt}: {rel_err(grad, fd)}"
    return grad


def test_linear_gradient_is_exact():
    outs, tape = ad.forward(lambda x: ad.sum(ad.mul(x, np.array([3.0, 5.0]))),
                            {"x": [1.0, -2.0]})
    assert np.array_equal(ad.gradient(tape, "out", "x"), [3.0, 5.0])


def test_softmax_gradient_at_equal_logits():
    outs, tape = ad.forward(lambda y: ad.index(ad.softmax(y), 0), {"y": [0.0, 0.0]})
    np.testing.assert_allclose(ad.gradient(tape, "out", "y"), [0.25, -0.25], atol=1e-15)


def test_exp_matches_finite_differences():
    check_gradient(lambda x: ad.sum(ad.exp(x)), {"x": [0.1, -0.7, 1.3]}, "x")


PRIMITIVE_CASES = [
    ("add", lambda x, y: ad.sum(ad.add(x, y)), {"x": [1.0, 2.0], "y": [0.5, -0.5]}),
    ("add_broadcast", lambda x, y: ad.sum(ad.add(x, y)),
     {"x": np.arange(6.0).reshape(2, 3), "y": [1.0, -1.0, 0.5]}),
    ("sub", lambda x, y: ad.sum(ad.sub(x, y)), {"x": [1.0, 2.0], "y": [0.5, -0.5]}),
    ("mul", lambda x, y: ad.sum(ad.mul(x, y)), {"x": [1.5, -2.0], "y": [0.5, 3.0]}),
    ("mul_broadcast", lambda x, y: ad.sum(ad.mul(x, y)),
     {"x": np.arange(1.0, 7.0).reshape(2, 3), "y": [1.0, -2.0, 0.5]}),
    ("neg", lambda x: ad.sum(ad.neg(x)), {"x": [1.0, -4.0]}),
    ("matmul_21", lambda a, b: ad.sum(ad.matmul(a, b)),
     {"a": np.arange(6.0).reshape(2, 3) / 7, "b": [0.2, -0.4, 0.8]}),
    ("matmul_11", lambda a, b: ad.matmul(a, b), {"a": [0.2, -0.4], "b": [0.7, 0.3]}),
    ("reciprocal", lambda x: ad.sum(ad.reciprocal(x)), {"x": [0.5, -2.0, 4.0]}),
    ("exp", lambda x: ad.sum(ad.exp(x)), {"x": [-1.0, 0.3, 2.0]}),
    ("log", lambda x: ad.sum(ad.log(x)), {"x": [0.5, 1.7, 3.0]}),
    ("sigmoid", lambda x: ad.sum(ad.sigmoid(x)), {"x": [-3.0, 0.4, 5.0]}),
    ("tanh", lambda x: ad.sum(ad.tanh(x)), {"x": [-1.5, 0.2, 2.5]}),
    ("softplus", lambda x: ad.sum(ad.softplus(x)), {"x": [-20.0, -0.5, 0.5, 20.0]}),
    ("silu", lambda x: ad.sum(ad.silu(x)), {"x": [-2.0, 0.5, 3.0]}),
    ("sum_axis", lambda x: ad.sum(ad.mul(ad.sum(x, axis=0), [1.0, 2.0, 3.0])),
     {"x": np.arange(6.0).reshape(2, 3)}),
    ("sum_keepdims", lambda x: ad.sum(ad.mul(x, ad.sum(x, axis=1, keepdims=True))),
     {"x": np.arange(6.0).reshape(2, 3) / 5}),
    ("mean", lambda x: ad.mean(x), {"x": [1.0, 2.0, 4.0]}),
    ("reshape", lambda x: ad.sum(ad.mul(ad.reshape(x, (3, 2)), np.arange(6.0).reshape(3, 2))),
     {"x": np.arange(6.0) / 3},),
    ("transpose", lambda x: ad.sum(ad.mul(ad.transpose(x), np.arange(6.0).reshape(3, 2))),
     {"x": np.arange(6.0).reshape(2, 3) / 3}),
    ("broadcast_to", lambda x: ad.sum(ad.mul(ad.broadcast_to(x, (4, 3)),
                                             np.arange(12.0).reshape(4, 3))),
     {"x": [0.3, -0.6, 0.9]}),
    ("index", lambda x: ad.index(x, 2), {"x": [0.1, 0.2, 0.3, 0.4]}),
    ("softmax", lambda x: ad.index(ad.softmax(x), 1), {"x": [0.5, -0.3, 1.2]}),
    ("logsumexp", lambda x: ad.logsumexp(x), {"x": [0.5, -0.3, 1.2]}),
]


@pytest.mark.parametrize("name,fn,inputs", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, fn, inputs):
    for wrt in inputs:
        check_gradient(fn, inputs, wrt)


def _random_smooth_case(seed):
    """A small random composition of smooth ops ending in a scalar."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    W1 = rng.normal(size=(n + 1, n)) / np.sqrt(n)
    W2 = rng.normal(size=(n + 1,))
    kind = seed % 4

    def fn(x):
        h = ad.matmul(W1, ad.silu(x))
        if kind == 0:
            return ad.logsumexp(ad.tanh(h))
        if kind == 1:
            return ad.sum(ad.mul(ad.softplus(h), W2))
        if kind == 2:
            return ad.index(ad.softmax(h), 0)
        return ad.sum(ad.mul(ad.sigmoid(h), ad.tanh(h)))

    return fn, rng.normal(size=n)


@pytest.mark.parametrize("seed", range(12))
def test_random_smooth_graph_gradients(seed):
    fn, x = _random_smooth_case(seed)
    check_gradient(fn, {"x": x}, "x")


@pytest.mark.parametrize("seed", range(12))
def test_hvp_matches_finite_differences_of_gradient(seed):
    fn, x = _random_smooth_case(seed)
    rng = np.random.default_rng(seed + 1000)
    v = rng.normal(size=x.shape)

    outs, tape = ad.forward(fn, {"x": x})
    hv = ad.hvp(tape, "out", "x", v)

    def grad_at(xv):
        _, t = ad.forward(fn, {"x": xv})
        return ad.gradient(t, "out", "x")

    h = 1e-5
    fd = (grad_at(x + h * v) - grad_at(x - h * v)) / (2.0 * h)
    err = np.linalg.norm(hv - fd) / (np.linalg.norm(hv) + 1e-12)
    assert err <= 1e-4, f"hvp mismatch: {err}"


@pytest.mark.parametrize("seed", range(12))
def test_hessian_symmetry(seed):
    fn, x = _random_smooth_case(seed)
    rng = np.random.default_rng(seed + 2000)
    v1, v2 = rng.normal(size=x.shape), rng.normal(size=x.shape)
    outs, tape = ad.forward(fn, {"x": x})
    s1 = float(v1 @ ad.hvp(tape, "out", "x", v2))
    s2 = float(v2 @ ad.hvp(tape, "out", "x", v1))
    assert abs(s1 - s2) <= 1e-9 * (1.0 + abs(s1))


def test_bilinear_hvp():
    outs, tape = ad.forward(lambda x: ad.mul(ad.index(x, 0), ad.index(x, 1)),
                            {"x": [1.0, 1.0]})
    assert np.array_equal(ad.hvp(tape, "out", "x", [1.0, 0.0]), [0.0, 1.0])


def test_sigmoid_matches_masked_formula_bitwise():
    # the branch-free form must reproduce the masked two-branch formula
    def masked(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    special = np.array([0.0, -0.0, 1e3, -1e3, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0])
    rand = np.random.default_rng(0).normal(scale=30.0, size=(4, 3844))
    for x in (special, rand, np.array(-3.0), np.array(2.0)):
        assert ad._sigmoid_fw(x).tobytes() == masked(x).tobytes()
    assert ad._sigmoid_fw(np.array([-0.0]))[0] == 0.5


def test_forward_same_inputs_same_bits():
    fn, x = _random_smooth_case(5)
    a, _ = ad.forward(fn, {"x": x})
    b, _ = ad.forward(fn, {"x": x.copy()})
    assert a["out"].tobytes() == b["out"].tobytes()


def test_gradient_of_unreached_input_is_zero():
    outs, tape = ad.forward(lambda x, y: ad.sum(ad.mul(x, 2.0)),
                            {"x": [1.0, 2.0], "y": [3.0, 4.0]})
    assert np.array_equal(ad.gradient(tape, "out", "y"), [0.0, 0.0])


def test_non_scalar_gradient_rejected():
    outs, tape = ad.forward(lambda x: ad.mul(x, 2.0), {"x": [1.0, 2.0]})
    with pytest.raises(ValueError, match="scalar"):
        ad.gradient(tape, "out", "x")


def test_non_finite_input_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        ad.forward(lambda x: ad.sum(x), {"x": [1.0, np.nan]})


def test_shape_mismatch_names_the_op():
    with pytest.raises(ValueError, match="matmul"):
        ad.forward(lambda a, b: ad.matmul(a, b),
                   {"a": np.ones((2, 3)), "b": np.ones((4, 2))})
    with pytest.raises(ValueError, match="add"):
        ad.forward(lambda a, b: ad.add(a, b), {"a": np.ones(3), "b": np.ones(4)})


def test_domain_errors():
    with pytest.raises(ValueError, match="log"):
        ad.forward(lambda x: ad.log(x), {"x": [-1.0]})
    with pytest.raises(ValueError, match="reciprocal"):
        ad.forward(lambda x: ad.reciprocal(x), {"x": [0.0]})
    with pytest.raises(ValueError, match="exp"):
        ad.forward(lambda x: ad.exp(x), {"x": [1000.0]})
    with pytest.raises(ValueError, match="index"):
        ad.forward(lambda x: ad.index(x, 5), {"x": [1.0, 2.0]})


def test_matmul_takes_a_vector_on_the_right():
    with pytest.raises(ValueError) as err:
        ad.matmul(np.ones((2, 3)), np.ones((3, 2)))
    assert str(err.value) == "matmul: unsupported ranks 2 @ 2"
    with pytest.raises(ValueError, match=r"matmul: shapes \(2, 3\) @ \(4,\) do not align"):
        ad.matmul(np.ones((2, 3)), np.ones(4))


def test_index_adjoint_lands_negative_zero_as_positive_zero():
    _, tape = ad.forward(lambda x: ad.mul(ad.index(x, 1), -2.0), {"x": [0.5, 1.5, -2.5]})
    grad = ad.gradient(tape, "out", "x")
    assert np.array_equal(grad, [0.0, -2.0, 0.0])
    assert not np.signbit(grad[[0, 2]]).any()
    _, tape = ad.forward(lambda x: ad.mul(ad.index(x, 1), -0.0), {"x": [0.5, 1.5, -2.5]})
    assert not np.signbit(ad.gradient(tape, "out", "x")).any()


@pytest.mark.parametrize("position", [5, -1])
def test_index_out_of_range_raises(position):
    with pytest.raises(ValueError, match=f"index: position {position} out of range for size 2"):
        ad.index(np.array([1.0, 2.0]), position)


def test_hvp_shape_check():
    outs, tape = ad.forward(lambda x: ad.sum(ad.mul(x, x)), {"x": [1.0, 2.0]})
    with pytest.raises(ValueError, match=r"^hvp direction v has shape \(3,\), expected \(2,\)$"):
        ad.hvp(tape, "out", "x", [1.0, 2.0, 3.0])


def test_finite_diff_gradient_on_quadratic():
    # d/dx sum(x^2) = 2x, exact for central differences up to rounding
    x = np.array([0.5, -1.5, 2.0])
    fd = finite_diff_gradient(lambda v: float(np.sum(v * v)), x, 1e-5)
    np.testing.assert_allclose(fd, 2 * x, rtol=1e-9)


# ------------------------------------------------------------ pruned backward

def dfs_order(root):
    """The oracle's own DFS postorder of `root` and its ancestors, parents
    pushed in order and so visited last one first: the order whose
    adjoint sums `grad_node` must reproduce, kept apart from the engine's
    sort so that the two are checked against each other."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    return order


def full_grad_node(output, wrt):
    """The unpruned backward: every node reachable from `output` gets its
    full adjoint, constants included. `grad_node` must return the same
    bits."""
    order = dfs_order(output)
    adjoint = {id(output): ad._as_node(np.ones(()))}
    for node in reversed(order):
        g = adjoint.get(id(node))
        if g is None or node._vjp is None:
            continue
        for parent, contrib in zip(node.parents,
                                   node._vjp(g, (True,) * len(node.parents), node)):
            held = adjoint.get(id(parent))
            adjoint[id(parent)] = contrib if held is None else ad.add(held, contrib)
    result = adjoint.get(id(wrt))
    return ad._as_node(np.zeros(wrt.value.shape)) if result is None else result


def full_gradient_and_hvps(tape, output, wrt, vs):
    """Gradient and HVPs through the unpruned backward, each HVP on its own
    first-order graph."""
    out_node = ad._resolve(tape.outputs, output)
    wrt_node = ad._resolve(tape.inputs, wrt)
    with tape:
        grad = full_grad_node(out_node, wrt_node).value
        hvps = []
        for v in vs:
            s = ad.sum(ad.mul(full_grad_node(out_node, wrt_node), v))
            hvps.append(full_grad_node(s, wrt_node).value)
    return grad, hvps


def assert_same_bits_as_full_backward(make_tape, output, wrt, vs):
    grad_ref, hvps_ref = full_gradient_and_hvps(make_tape(), output, wrt, vs)
    tape = make_tape()
    # hvp first, so the gradient runs on a tape that holds the kept graph
    hvps = [ad.hvp(tape, output, wrt, v) for v in vs]
    grad = ad.gradient(tape, output, wrt)
    assert grad.tobytes() == grad_ref.tobytes()
    for h, h_ref in zip(hvps, hvps_ref):
        assert h.tobytes() == h_ref.tobytes()


@pytest.mark.parametrize("index", range(20))
def test_pruned_backward_matches_full_on_hvp_check_graphs(index):
    from crgx.suites import _random_smooth_graph

    graph, x0, v, u = _random_smooth_graph(77, index)
    assert_same_bits_as_full_backward(
        lambda: ad.forward(lambda x: {"y": graph(x)}, {"x": x0})[1], "y", "x", [v, u])


@pytest.mark.parametrize("index", range(6))
def test_pruned_backward_matches_full_on_quadratic_and_linear_cases(index):
    from crgx.suites import _quadratic_case, _seeded

    d = (4, 8, 12)[index % 3]
    _, _, _, graph = _quadratic_case(2024, index, d)
    ones = np.ones(d)
    assert_same_bits_as_full_backward(
        lambda: ad.forward(lambda x: {"y": graph(x)}, {"x": ones})[1], "y", "x", [ones])

    rng = _seeded(2024, 2, index)
    d = int(rng.integers(3, 13))
    w = rng.normal(0.0, 1.0, d)
    ones = np.ones(d)
    assert_same_bits_as_full_backward(
        lambda: ad.forward(lambda x: {"y": ad.sum(ad.mul(w, x))}, {"x": ones})[1],
        "y", "x", [ones])


@pytest.mark.parametrize("arch", ["cnn-relu", "cnn-smooth", "mlp-smooth"])
@pytest.mark.parametrize("size", [6, 64])
def test_pruned_backward_matches_full_on_model_heads(arch, size):
    from crgx.utility import UTILITY_KINDS, UtilitySpec, utility_node
    from crgx.zoo import build_model

    model = build_model(arch, num_classes=4, seed=3, in_shape=(3, size, size))
    image = np.random.default_rng(size).uniform(0.0, 1.0, model.in_shape)
    maps = model.forward_with_tap(image).activations.maps
    for kind in UTILITY_KINDS:
        def make_tape():
            run = model.forward_with_tap(image)
            with run.tape:
                run.tape.outputs["u"] = utility_node(run.tape.outputs["logits"],
                                                     UtilitySpec(2, kind))
            return run.tape

        assert_same_bits_as_full_backward(make_tape, "u", "tap", [maps])


def test_second_hvp_reuses_the_first_order_graph(monkeypatch):
    fn, x = _random_smooth_case(3)
    rng = np.random.default_rng(7)
    v1, v2 = rng.normal(size=x.shape), rng.normal(size=x.shape)

    graph_backwards, sorts = [], []
    real, real_sort = ad.grad_node, ad._toposort

    def counting(out, wrt, tape):
        if not ad._STATE.values:
            graph_backwards.append(out)
        return real(out, wrt, tape)

    def counting_sort(root, wrt):
        sorts.append(root)
        return real_sort(root, wrt)

    monkeypatch.setattr(ad, "grad_node", counting)
    monkeypatch.setattr(ad, "_toposort", counting_sort)
    _, fresh = ad.forward(fn, {"x": x})
    expected = ad.hvp(fresh, "out", "x", v2)

    _, tape = ad.forward(fn, {"x": x})
    forward_nodes = len(tape.nodes)
    del sorts[:]
    ad.hvp(tape, "out", "x", v1)
    first_hvp_nodes = len(tape.nodes) - forward_nodes
    g = tape.grads[(tape.outputs["out"], tape.inputs["x"])]
    # the first hvp sorts the forward graph, then the first-order graph once
    assert sorts == [tape.outputs["out"], g]
    second = ad.hvp(tape, "out", "x", v2)
    # one graph backward per tape: the first-order graph, kept on the tape
    assert graph_backwards == [fresh.outputs["out"], tape.outputs["out"]]
    # and one sort of it: the second hvp sorts nothing
    assert sorts == [tape.outputs["out"], g]
    # a later hvp records nothing: it sweeps the kept graph seeded with v
    assert len(tape.nodes) == forward_nodes + first_hvp_nodes
    assert tape.nodes[-1] is g
    _, built = ad.forward(fn, {"x": x})
    with built:
        real(built.outputs["out"], built.inputs["x"], built)
    # and the first records the first-order graph alone
    assert first_hvp_nodes == len(built.nodes) - forward_nodes
    # the second hvp has the bits of the same hvp on a fresh tape
    assert second.tobytes() == expected.tobytes()

    n_nodes = len(tape.nodes)
    _, alone = ad.forward(fn, {"x": x})
    del sorts[:]
    assert ad.gradient(tape, "out", "x").tobytes() == ad.gradient(alone, "out", "x").tobytes()
    assert len(graph_backwards) == 2 and len(tape.nodes) == n_nodes
    # a gradient after the hvps reads the forward graph's kept sort: only
    # the fresh tape's gradient sorts
    assert sorts == [alone.outputs["out"]]

    # gradient, then two hvps, as quadratic_check runs them on one tape:
    # the forward graph is sorted once for the gradient and the first hvp,
    # and the first-order graph once for both hvps
    _, tape = ad.forward(fn, {"x": x})
    del sorts[:]
    grad = ad.gradient(tape, "out", "x")
    first = ad.hvp(tape, "out", "x", v1)
    second = ad.hvp(tape, "out", "x", v2)
    g = tape.grads[(tape.outputs["out"], tape.inputs["x"])]
    assert sorts == [tape.outputs["out"], g]
    assert grad.tobytes() == ad.gradient(alone, "out", "x").tobytes()
    assert first.tobytes() == ad.hvp(alone, "out", "x", v1).tobytes()
    assert second.tobytes() == expected.tobytes()


def test_a_tape_stops_growing_after_its_first_hvp():
    fn, x = _random_smooth_case(5)
    rng = np.random.default_rng(11)
    _, tape = ad.forward(fn, {"x": x})
    ad.hvp(tape, "out", "x", rng.normal(size=x.shape))
    n_nodes = len(tape.nodes)
    for _ in range(50):
        v = rng.normal(size=x.shape)
        h = ad.hvp(tape, "out", "x", v)
        assert len(tape.nodes) == n_nodes
        _, fresh = ad.forward(fn, {"x": x})
        assert h.tobytes() == ad.hvp(fresh, "out", "x", v).tobytes()


def test_one_sort_and_one_sweep_serve_every_derivative():
    # the engine orders a backward one way (`_toposort`, kept per tape by
    # `_kept_sort`) and hvp adds no product to differentiate
    tree = ast.parse(Path(ad.__file__).read_text())
    calls = {fn.name: {node.func.id for node in ast.walk(fn)
                       if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
             for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert [name for name, called in calls.items() if "_toposort" in called] == ["_kept_sort"]
    assert not calls["hvp"] & {"mul", "sum", "_toposort"}


def _hvp_sort_cases():
    from crgx.suites import _random_smooth_graph

    for index in range(8):
        graph, x0, v, u = _random_smooth_graph(77, index)
        yield pytest.param(graph, x0, [v, u], id=f"hvp-check-{index}")
    for name, graph, _, _ in TAPE_CASES:
        yield pytest.param(graph, np.array([0.5, 2.0]), [[1.0, -1.0], [0.5, 2.0]], id=name)
    yield pytest.param(lambda x: ad.sum(ad.mul(x, 2.0)), np.array([1.0, -1.0]), [[1.0, 1.0]],
                       id="constant-gradient")


@pytest.mark.parametrize("graph, x0, vs", _hvp_sort_cases())
def test_hvp_differentiates_g_v_in_the_dfs_order(monkeypatch, graph, x0, vs):
    # hvp sweeps the kept first-order graph g seeded with v: the sweep
    # starts at g, walks the DFS postorder of g with the nodes of it that
    # depend on x live, and its seed has v's bits
    calls = []
    real = ad._backward

    def recording(output, wrt, order, live, seed=None):
        calls.append((output, wrt, order, live, seed))
        return real(output, wrt, order, live, seed)

    monkeypatch.setattr(ad, "_backward", recording)
    _, tape = ad.forward(lambda x: {"y": graph(x)}, {"x": x0})
    for v in vs:
        ad.hvp(tape, "y", "x", v)
        output, wrt, order, live, seed = calls[-1]
        assert output is tape.grads[(tape.outputs["y"], tape.inputs["x"])]
        expected = dfs_order(output)
        assert [id(n) for n in order] == [id(n) for n in expected]
        depends = set()
        for node in expected:
            if node is wrt or any(p in depends for p in node.parents):
                depends.add(node)
        assert live == depends
        assert seed.dtype == np.float64 and seed.tobytes() == np.asarray(v, float).tobytes()


def _gradient_cases():
    from crgx.suites import _random_smooth_graph

    for seed in range(12):
        fn, x = _random_smooth_case(seed)
        yield pytest.param(fn, {"x": x}, id=f"smooth-{seed}")
    for index in range(4):
        graph, x0, _, _ = _random_smooth_graph(77, index)
        yield pytest.param(graph, {"x": x0}, id=f"hvp-check-{index}")
    yield pytest.param(lambda x, y: ad.sum(ad.mul(y, 2.0)), {"x": [1.0, 2.0], "y": [3.0, 4.0]},
                       id="unreached")


@pytest.mark.parametrize("fn,inputs", _gradient_cases())
def test_gradient_on_a_fresh_tape_builds_no_node(fn, inputs):
    _, tape = ad.forward(fn, inputs)
    n_nodes = len(tape.nodes)
    grad = ad.gradient(tape, "out", "x")
    assert len(tape.nodes) == n_nodes and tape.grads == {}
    with tape:
        graph = ad.grad_node(tape.outputs["out"], tape.inputs["x"], tape)
    assert isinstance(grad, np.ndarray) and grad.tobytes() == graph.value.tobytes()


@pytest.mark.parametrize("call", ["gradient", "hvp"])
def test_values_mode_ends_when_a_backward_rule_raises(call):
    _, tape = ad.forward(lambda x: ad.sum(ad.tanh(x)), {"x": [0.5, -1.0]})
    if call == "hvp":
        ad.hvp(tape, "out", "x", [1.0, 1.0])  # builds the first-order graph first
    tanh = next(node for node in tape.nodes if node.op == "tanh")

    def broken(g, needs, out):
        raise ValueError("broken rule")

    tanh._vjp = broken
    with pytest.raises(ValueError, match="broken rule"):
        if call == "hvp":
            ad.hvp(tape, "out", "x", [1.0, 1.0])
        else:
            ad.gradient(tape, "out", "x")
    assert ad._STATE.values is False
    assert isinstance(ad.add(1.0, 2.0), ad.Node)


# The ops each primitive and composite records on a tape, in order: on the
# forward and on the first hvp (the kept first-order graph); a gradient and
# every later hvp record none.
_W = np.array([[0.5, -1.0], [2.0, 0.25]])
TAPE_CASES = [
    ("add", lambda x: ad.sum(ad.mul(ad.add(x, 1.0), x)),
     ["input", "const", "add", "mul", "sum"],
     ["const", "reshape", "broadcast_to", "mul", "mul", "add"]),
    ("sub", lambda x: ad.sum(ad.mul(ad.sub(1.0, x), x)),
     ["input", "const", "sub", "mul", "sum"],
     ["const", "reshape", "broadcast_to", "mul", "mul", "neg", "add"]),
    ("neg", lambda x: ad.sum(ad.mul(ad.neg(x), x)),
     ["input", "neg", "mul", "sum"],
     ["const", "reshape", "broadcast_to", "mul", "mul", "neg", "add"]),
    ("mul", lambda x: ad.sum(ad.mul(ad.mul(x, x), [2.0, 3.0])),
     ["input", "mul", "const", "mul", "sum"],
     ["const", "reshape", "broadcast_to", "mul", "mul", "mul", "add"]),
    ("reciprocal", lambda x: ad.sum(ad.reciprocal(x)),
     ["input", "reciprocal", "sum"],
     ["const", "reshape", "broadcast_to", "mul", "mul", "neg"]),
    ("matmul", lambda x: ad.matmul(x, ad.matmul(_W, x)),
     ["input", "const", "matmul", "matmul"],
     ["const", "mul", "mul", "transpose", "matmul", "add"]),
    ("exp", lambda x: ad.sum(ad.exp(x)),
     ["input", "exp", "sum"],
     ["const", "reshape", "broadcast_to", "mul"]),
    ("log", lambda x: ad.sum(ad.log(x)),
     ["input", "log", "sum"],
     ["const", "reshape", "broadcast_to", "reciprocal", "mul"]),
    ("sigmoid", lambda x: ad.sum(ad.sigmoid(x)),
     ["input", "sigmoid", "sum"],
     ["const", "reshape", "broadcast_to", "const", "sub", "mul", "mul"]),
    ("tanh", lambda x: ad.sum(ad.tanh(x)),
     ["input", "tanh", "sum"],
     ["const", "reshape", "broadcast_to", "mul", "const", "sub", "mul"]),
    ("softplus", lambda x: ad.sum(ad.softplus(x)),
     ["input", "softplus", "sum"],
     ["const", "reshape", "broadcast_to", "sigmoid", "mul"]),
    ("sum", lambda x: ad.sum(ad.mul(ad.sum(ad.mul(ad.reshape(x, (2, 1)), x), axis=0), x)),
     ["input", "reshape", "mul", "sum", "mul", "sum"],
     ["const", "reshape", "broadcast_to", "mul", "mul", "reshape", "broadcast_to", "mul", "sum",
      "mul", "sum", "add", "reshape", "add"]),
    ("reshape", lambda x: ad.sum(ad.mul(ad.reshape(x, (1, 2)), ad.reshape(x, (2, 1)))),
     ["input", "reshape", "reshape", "mul", "sum"],
     ["const", "reshape", "broadcast_to", "mul", "sum", "mul", "sum", "reshape", "reshape", "add"]),
    ("transpose", lambda x: ad.sum(ad.mul(ad.transpose(ad.reshape(x, (2, 1))), x)),
     ["input", "reshape", "transpose", "mul", "sum"],
     ["const", "reshape", "broadcast_to", "mul", "mul", "sum", "transpose", "reshape", "add"]),
    ("broadcast_to", lambda x: ad.sum(ad.mul(ad.broadcast_to(x, (3, 2)), x)),
     ["input", "broadcast_to", "mul", "sum"],
     ["const", "reshape", "broadcast_to", "mul", "mul", "sum", "sum", "add"]),
    ("index", lambda x: ad.mul(ad.index(x, 1), ad.index(x, 0)),
     ["input", "index", "index", "mul"],
     ["const", "mul", "mul", "place", "place", "add"]),
    ("place", lambda x: ad.sum(ad.mul(ad._place(ad.index(x, 0), 1, (2,)), x)),
     ["input", "index", "place", "mul", "sum"],
     ["const", "reshape", "broadcast_to", "mul", "mul", "index", "place", "add"]),
    ("silu", lambda x: ad.sum(ad.silu(x)),
     ["input", "sigmoid", "mul", "sum"],
     ["const", "reshape", "broadcast_to", "mul", "mul", "const", "sub", "mul", "mul", "add"]),
    ("mean", lambda x: ad.mul(ad.mean(x), ad.mean(x)),
     ["input", "sum", "const", "mul", "sum", "const", "mul", "mul"],
     ["const", "mul", "mul", "mul", "reshape", "broadcast_to", "mul", "reshape", "broadcast_to",
      "add"]),
    ("softmax", lambda x: ad.index(ad.softmax(x), 0),
     ["input", "const", "sub", "exp", "sum", "reciprocal", "mul", "index"],
     ["const", "place", "mul", "mul", "sum", "mul", "mul", "neg", "reshape", "broadcast_to",
      "add", "mul"]),
    ("logsumexp", lambda x: ad.logsumexp(x),
     ["input", "const", "sub", "exp", "sum", "log", "const", "add"],
     ["const", "reciprocal", "mul", "reshape", "broadcast_to", "mul"]),
]


@pytest.mark.parametrize("name,graph,forward_ops,first_hvp_ops", TAPE_CASES,
                         ids=[c[0] for c in TAPE_CASES])
def test_every_op_records_the_same_nodes(name, graph, forward_ops, first_hvp_ops):
    _, tape = ad.forward(graph, {"x": [0.5, 2.0]})

    def ops():
        return [node.op for node in tape.nodes]

    assert ops() == forward_ops
    ad.gradient(tape, "out", "x")
    assert ops() == forward_ops
    ad.hvp(tape, "out", "x", [1.0, -1.0])
    assert ops() == forward_ops + first_hvp_ops
    ad.hvp(tape, "out", "x", [0.5, 2.0])
    assert ops() == forward_ops + first_hvp_ops
    # a backward reads `needs` for one parent or two
    assert all(len(node.parents) <= 2 for node in tape.nodes)


def test_gradient_returns_a_new_array_each_call():
    # writing to one returned gradient must not change what the next call
    # returns
    _, tape = ad.forward(lambda x: ad.sum(ad.mul(x, x)), {"x": [1.0, -2.0]})
    first = ad.gradient(tape, "out", "x")
    first[:] = 0.0
    assert np.array_equal(ad.gradient(tape, "out", "x"), [2.0, -4.0])


def test_pruned_backward_builds_no_adjoint_for_constants():
    w = np.arange(6.0).reshape(2, 3) / 7
    _, tape = ad.forward(lambda x: ad.sum(ad.matmul(w, x)), {"x": [0.5, -1.0, 2.0]})
    before = len(tape.nodes)
    ad.hvp(tape, "out", "x", np.ones(3))
    # the first-order graph hvp keeps on the tape, and nothing after it
    assert tape.nodes[-1] is tape.grads[(tape.outputs["out"], tape.inputs["x"])]
    ops = [node.op for node in tape.nodes[before:]]
    # sum's backward (a reshape, a broadcast) and matmul's transpose for x;
    # no product building w's adjoint
    assert "mul" not in ops
    assert ops.count("transpose") == 1


@pytest.mark.parametrize("op,a_shape,b_shape", [
    ("add", (2, 3), (3, 2)),
    ("sub", (3,), (4,)),
    ("mul", (2, 1, 3), (4, 2)),
])
def test_shapes_that_do_not_broadcast_raise(op, a_shape, b_shape):
    message = f"{op}: shapes {a_shape} and {b_shape} do not broadcast"
    with pytest.raises(ValueError) as err:
        getattr(ad, op)(np.ones(a_shape), np.ones(b_shape))
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        ad.broadcast_to(np.ones(a_shape), b_shape)
    assert str(err.value) == f"broadcast_to: shape {a_shape} does not broadcast onto {b_shape}"


@pytest.mark.parametrize("a_shape,b_shape", [
    ((2, 3), (2, 3)), ((), (4,)), ((4,), ()), ((2, 3), (3,)), ((2, 1), (1, 3)), ((), ()),
    ((0, 1), (1, 3)), ((2, 1), (2, 0)),
])
def test_shapes_that_broadcast_give_numpys_shape(a_shape, b_shape):
    expected = np.broadcast_shapes(a_shape, b_shape)
    for op in (ad.add, ad.sub, ad.mul):
        assert op(np.ones(a_shape), np.ones(b_shape)).shape == expected
    assert ad.broadcast_to(np.ones(a_shape), expected).shape == expected


@pytest.mark.parametrize("src,target", [((3,), (1,)), ((2, 3), (3,)), ((0,), (1,)),
                                        ((2, 2), (3, 2, 1))])
def test_broadcast_to_only_broadcasts_onto_the_target(src, target):
    # the two shapes broadcast with each other, but not src onto target
    with pytest.raises(ValueError) as err:
        ad.broadcast_to(np.ones(src), target)
    assert str(err.value) == f"broadcast_to: shape {src} does not broadcast onto {target}"


@pytest.mark.parametrize("src,target", [((1,), (3,)), ((3,), (2, 3)), ((), (2,)), ((1,), (0,))])
def test_broadcast_to_onto_a_larger_shape(src, target):
    x = np.arange(1.0, 1.0 + math.prod(src)).reshape(src)
    assert np.array_equal(ad.broadcast_to(x, target).value, np.broadcast_to(x, target))


@pytest.mark.parametrize("shape,axis", [((2, 3), 5), ((2, 3), -3), ((2, 3), 2), ((2, 3), (0, 2)),
                                        ((), 0), ((), -1)])
def test_sum_rejects_an_axis_out_of_range(shape, axis):
    bad = axis if isinstance(axis, int) else axis[1]
    for op in (ad.sum, ad.mean):
        with pytest.raises(ValueError) as err:
            op(np.ones(shape), axis=axis)
        assert str(err.value) == f"sum: axis {bad} out of range for shape {shape}"


@pytest.mark.parametrize("axis", [0, 1, -1, -2, (0, 1), (-1,)])
def test_sum_takes_every_axis_in_range(axis):
    x = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(ad.sum(x, axis=axis).value, np.sum(x, axis=axis))


@pytest.mark.parametrize("shape,axis", [((0, 3), 0), ((2, 0), 1), ((0,), None)])
def test_mean_over_no_elements_raises(shape, axis):
    with pytest.raises(ValueError) as err:
        ad.mean(np.ones(shape), axis=axis)
    assert str(err.value) == f"mean: axis {axis} of shape {shape} holds no elements"


def test_mean_to_an_empty_result_over_a_nonempty_axis():
    assert ad.mean(np.ones((0, 3)), axis=1).value.shape == (0,)
