"""Model zoo: seeded reproducibility, tap semantics, input validation."""

import numpy as np
import pytest

from crgx import autodiff as ad
from crgx import zoo


def rand_image(seed, shape=(3, 6, 6)):
    return np.random.default_rng(seed).uniform(0.0, 1.0, shape)


@pytest.mark.parametrize("arch", zoo.ARCHS)
def test_rebuild_is_bit_identical(arch):
    a = zoo.build_model(arch, 3, 42)
    b = zoo.build_model(arch, 3, 42)
    assert set(a.weights) == set(b.weights)
    for name in a.weights:
        assert np.array_equal(a.weights[name], b.weights[name])


def test_different_seeds_differ():
    a = zoo.build_model("cnn-relu", 3, 0)
    b = zoo.build_model("cnn-relu", 3, 1)
    assert not np.array_equal(a.weights["conv_w"], b.weights["conv_w"])


def test_init_scale_respects_fan_in():
    m = zoo.build_model("cnn-relu", 3, 0)
    bound = 0.5 / np.sqrt(27)  # conv fan-in: 3 channels x 3 x 3
    assert np.max(np.abs(m.weights["conv_w"])) <= bound
    assert np.max(np.abs(m.weights["fc_w"])) <= 0.5 / np.sqrt(4)


def reference_draw(rng, shape, fan_in):
    # the affine form of the weight draw, kept as its oracle
    return rng.uniform(-0.5, 0.5, shape) / np.sqrt(fan_in)


@pytest.mark.parametrize("arch", zoo.ARCHS)
@pytest.mark.parametrize("in_shape", [(3, 6, 6), (1, 5, 5), (3, 64, 64)])
@pytest.mark.parametrize("classes", [2, 3, 5])
def test_weights_match_the_affine_uniform_draw_bitwise(arch, in_shape, classes):
    # same bits and the same stream consumed, tensor by tensor
    for seed in (0, 1, 42, 2**40 + 3):
        model = zoo.build_model(arch, classes, seed, in_shape=in_shape)
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        specs = zoo._tensor_specs(arch, classes, in_shape)
        assert list(model.weights) == [name for name, _, _ in specs]
        for name, shape, fan_in in specs:
            want = reference_draw(ref_rng, shape, fan_in)
            got = zoo._init_tensor(rng, shape, fan_in)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert model.weights[name].tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("arch", zoo.ARCHS)
def test_default_tap_shape(arch):
    run = zoo.build_model(arch, 3, 5).forward_with_tap(rand_image(0))
    assert run.activations.maps.shape == (4, 16)
    assert run.activations.spatial == (4, 4)
    assert run.activations.d == 16


def test_cnn_valid_conv_spatial_size():
    m = zoo.build_model("cnn-smooth", 2, 1, in_shape=(3, 8, 10))
    run = m.forward_with_tap(rand_image(2, (3, 8, 10)))
    assert run.activations.spatial == (6, 8)
    assert run.activations.maps.shape == (4, 48)


@pytest.mark.parametrize("arch", ["cnn-relu", "cnn-smooth"])
@pytest.mark.parametrize("shape", [(3, 6, 6), (1, 6, 6), (3, 7, 5)])
def test_tap_stack_matches_loop_convolution(arch, shape):
    m = zoo.build_model(arch, 3, 4, in_shape=shape)
    x = np.random.default_rng(11).uniform(-1.0, 1.0, shape)
    w, b = m.weights["conv_w"], m.weights["conv_b"]
    cout, cin, kh, kw = w.shape
    ho, wo = shape[1] - kh + 1, shape[2] - kw + 1
    z = np.empty((cout, ho, wo))
    for o in range(cout):
        for r in range(ho):
            for c in range(wo):
                z[o, r, c] = b[o] + sum(w[o, i, u, v] * x[i, r + u, c + v]
                                        for i in range(cin) for u in range(kh) for v in range(kw))
    act = np.maximum(z, 0.0) if arch == "cnn-relu" else z / (1.0 + np.exp(-z))
    np.testing.assert_allclose(m._tap_stack(x[None])[0], act.reshape(cout, -1),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("arch", zoo.ARCHS)
def test_stacked_tap_rows_match_single_image_bitwise(arch):
    # 160 small images cross a CNN im2col chunk; 64x64 ones are one a chunk
    for shape, n in (((3, 6, 6), 160), ((1, 6, 6), 5), ((3, 7, 5), 5), ((3, 64, 64), 8)):
        m = zoo.build_model(arch, 3, 6, in_shape=shape)
        images = np.random.default_rng(12).uniform(-1.0, 1.0, (n,) + shape)
        stacked = m._tap_stack(images)
        assert stacked.shape == (n, 4, 16 if arch == "mlp-smooth" else
                                 (shape[1] - 2) * (shape[2] - 2))
        for i, image in enumerate(images):
            assert m._tap_stack(image[None])[0].tobytes() == stacked[i].tobytes(), (shape, i)


def test_tap_stack_bounds_its_im2col_buffer():
    # eight 64x64 images: the CNN convolves one image per chunk into a
    # preallocated output (all eight in one im2col call peaked at 12.1 MiB)
    import tracemalloc

    m = zoo.build_model("cnn-smooth", 3, 6, in_shape=(3, 64, 64))
    images = np.random.default_rng(13).uniform(-1.0, 1.0, (8, 3, 64, 64))
    tracemalloc.start()
    try:
        m._tap_stack(images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20, peak


def test_oversized_model_is_refused_before_any_draw():
    # 10^8 classes need 4.0 GB of weights (3.2 GB of it fc_w); the refusal
    # allocates none of it
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            zoo.build_model("cnn-smooth", 10**8, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("cnn-smooth with 100000000 classes on in_shape (3, 6, 6) "
                              "needs 4000000896 bytes of weights, more than the "
                              "1073741824 allowed")
    assert peak < 2 ** 20, peak
    # the largest model any command builds stays well below the bound
    zoo.build_model("mlp-smooth", 3, 0, in_shape=(3, 64, 64))


def test_tap_stack_takes_a_stack_of_images():
    m = zoo.build_model("cnn-smooth", 3, 0)
    with pytest.raises(ValueError, match=r"image shape \(6, 6\) does not match"):
        m._tap_stack(rand_image(0))  # one image, not a stack of them


def test_head_transpose_is_the_adjoint_of_head_linear():
    # <J·A, g> = <A, Jᵀg> for every architecture
    for arch in zoo.ARCHS:
        m = zoo.build_model(arch, 5, 1)
        rng = np.random.default_rng(2)
        stacks = rng.normal(size=(3, 4, 16))
        g = rng.normal(size=(3, 5))
        lhs = np.sum(m.head_linear(stacks) * g, axis=1)
        rhs = np.sum(stacks * m.head_transpose(g), axis=(1, 2))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-15)
        assert np.array_equal(m.head_batch(stacks), m.head_linear(stacks) + m.head_bias)


@pytest.mark.parametrize("arch", zoo.ARCHS)
def test_head_transpose_rows_match_single_rows_bitwise(arch):
    # explain_batch maps every image back through one head_transpose call,
    # so a row must not depend on how many rows share the call
    rng = np.random.default_rng(3)
    for trial in range(40):
        m = zoo.build_model(arch, int(rng.integers(2, 9)), trial)
        g = rng.normal(size=(int(rng.integers(2, 9)), m.num_classes))
        batch = m.head_transpose(g)
        for i in range(len(g)):
            assert batch[i].tobytes() == m.head_transpose(g[i:i + 1])[0].tobytes()


@pytest.mark.parametrize("arch", zoo.ARCHS)
def test_forward_matches_tap_path_bitwise(arch):
    # forward is the numpy kernel, the tap path the taped head: plain values
    # and the values gradients are taken of must agree bit for bit
    for shape in ((3, 6, 6), (1, 6, 6), (3, 7, 5), (3, 64, 64)):
        m = zoo.build_model(arch, 4, 9, in_shape=shape)
        img = rand_image(3, shape)
        run = m.forward_with_tap(img)
        assert m.forward(img).tobytes() == run.logits.tobytes(), shape


def test_zero_image_oracle_cnn_smooth():
    # Zero input: conv output is the bias map, so logits are
    # fc_w @ silu(conv_b) + fc_b.
    m = zoo.build_model("cnn-smooth", 2, 7)
    logits = m.forward(np.zeros((3, 6, 6)))
    silu_b = m.weights["conv_b"] / (1.0 + np.exp(-m.weights["conv_b"]))
    expected = m.weights["fc_w"] @ silu_b + m.weights["fc_b"]
    np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-15)


def test_zero_image_oracle_cnn_relu():
    m = zoo.build_model("cnn-relu", 3, 11)
    logits = m.forward(np.zeros((3, 6, 6)))
    expected = m.weights["fc_w"] @ np.maximum(m.weights["conv_b"], 0.0) + m.weights["fc_b"]
    np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-15)


def test_logit_gradient_wrt_tap_is_fc_row_over_d():
    m = zoo.build_model("cnn-relu", 3, 0)
    run = m.forward_with_tap(rand_image(1))
    d = run.activations.d
    for c in range(3):
        with run.tape:
            u = ad.index(run.tape.outputs["logits"], c)
        g = ad.gradient(run.tape, u, "tap")
        expected = np.repeat(m.weights["fc_w"][c][:, None], d, axis=1) / d
        np.testing.assert_allclose(g, expected, rtol=0, atol=1e-15)


def test_tap_gradient_ignores_pre_tap_layers():
    # The tap is the independent variable: the head of mlp-smooth is linear,
    # so its HVP against the tap is exactly zero even though tanh precedes it.
    m = zoo.build_model("mlp-smooth", 3, 2)
    run = m.forward_with_tap(rand_image(4))
    with run.tape:
        u = ad.index(run.tape.outputs["logits"], 0)
    hv = ad.hvp(run.tape, u, "tap", np.ones_like(run.activations.maps))
    assert np.all(hv == 0.0)


def test_input_validation():
    m = zoo.build_model("cnn-relu", 2, 0)
    with pytest.raises(ValueError, match="shape"):
        m.forward(np.zeros((3, 5, 5)))
    bad = np.zeros((3, 6, 6))
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        m.forward(bad)
    with pytest.raises(ValueError, match="num_classes"):
        zoo.build_model("cnn-relu", 1, 0)
    with pytest.raises(ValueError, match="architecture"):
        zoo.build_model("resnet", 2, 0)
    with pytest.raises(ValueError, match="in_shape"):
        zoo.build_model("cnn-relu", 2, 0, in_shape=(2, 6, 6))
    for in_shape in ((3, 6), (3, 6, 6, 1), None, 6, "366"):
        with pytest.raises(ValueError, match=r"^in_shape must be \(channels in \{1,3\}, h, w\)"):
            zoo.build_model("cnn-relu", 2, 0, in_shape=in_shape)
    with pytest.raises(ValueError, match="3x3"):
        zoo.build_model("cnn-relu", 2, 0, in_shape=(3, 2, 6))



def test_numpy_integer_arguments_build_the_same_model():
    a = zoo.build_model("cnn-smooth", 3, 4, in_shape=(3, 7, 6))
    b = zoo.build_model("cnn-smooth", np.int64(3), np.uint32(4),
                        in_shape=np.array([3, 7, 6]))
    assert b.in_shape == (3, 7, 6) and type(b.in_shape[1]) is int
    for name, w in a.weights.items():
        assert w.tobytes() == b.weights[name].tobytes()
