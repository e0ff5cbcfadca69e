"""Autodiff engine: gradients and HVPs against central differences,
forward determinism, and the error contracts."""

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
    ("matmul_22", lambda a, b: ad.sum(ad.matmul(a, b)),
     {"a": np.arange(6.0).reshape(2, 3) / 7, "b": np.arange(12.0).reshape(3, 4) / 11}),
    ("matmul_21", lambda a, b: ad.sum(ad.matmul(a, b)),
     {"a": np.arange(6.0).reshape(2, 3) / 7, "b": [0.2, -0.4, 0.8]}),
    ("matmul_12", lambda a, b: ad.sum(ad.matmul(a, b)),
     {"a": [0.2, -0.4, 0.8], "b": np.arange(12.0).reshape(3, 4) / 11}),
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
    ("gather", lambda x: ad.sum(ad.mul(ad.gather(x, [0, 2, 2, 3]), [1.0, 2.0, 3.0, 4.0])),
     {"x": [0.1, 0.2, 0.3, 0.4]}),
    ("scatter_add", lambda x: ad.sum(ad.mul(ad.scatter_add(x, [0, 2, 2], 4),
                                            [1.0, 2.0, 3.0, 4.0])),
     {"x": [0.5, 0.25, -0.75]}),
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
    for x in (special, rand):
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
    with pytest.raises(ValueError, match="gather"):
        ad.forward(lambda x: ad.gather(x, [5]), {"x": [1.0, 2.0]})


def test_hvp_shape_check():
    outs, tape = ad.forward(lambda x: ad.sum(ad.mul(x, x)), {"x": [1.0, 2.0]})
    with pytest.raises(ValueError, match="hvp"):
        ad.hvp(tape, "out", "x", [1.0, 2.0, 3.0])


def test_finite_diff_gradient_on_quadratic():
    # d/dx sum(x^2) = 2x, exact for central differences up to rounding
    x = np.array([0.5, -1.5, 2.0])
    fd = finite_diff_gradient(lambda v: float(np.sum(v * v)), x, 1e-5)
    np.testing.assert_allclose(fd, 2 * x, rtol=1e-9)
