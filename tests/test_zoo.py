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


def im2col_tap(model, images):
    """The CNN tap from `sliding_window_view`'s im2col, the whole batch in
    one stacked matmul: the oracle of `_tap_stack`'s strided view."""
    from numpy.lib.stride_tricks import sliding_window_view

    w = model.weights["conv_w"]
    kernel = w.reshape(len(w), -1)
    windows = sliding_window_view(images, w.shape[2:], axis=(2, 3))
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))
    z = np.matmul(kernel, cols.reshape(len(cols), kernel.shape[1], -1))
    z += model.weights["conv_b"].reshape(-1, 1)
    if model.arch == "cnn-relu":
        return np.maximum(z, 0.0, out=z)
    z *= ad._sigmoid_fw(z)
    return z


def _tap_layouts():
    rng = np.random.default_rng(14)
    batch = rng.uniform(-1.0, 1.0, (4, 3, 6, 6))
    frozen = batch.copy()
    frozen.setflags(write=False)
    yield "c-order", batch
    yield "reversed-columns", batch[..., ::-1]
    yield "fortran-order", np.asfortranarray(batch)
    yield "read-only", frozen
    yield "one-channel", rng.uniform(-1.0, 1.0, (3, 1, 6, 6))
    yield "non-square", rng.uniform(-1.0, 1.0, (3, 3, 7, 5))
    # 27 x 62 x 62 cells per image: one image a chunk
    yield "three-64px", rng.uniform(-1.0, 1.0, (3, 3, 64, 64))


@pytest.mark.parametrize("arch", ["cnn-relu", "cnn-smooth"])
@pytest.mark.parametrize("name,images", [pytest.param(name, images, id=name)
                                         for name, images in _tap_layouts()])
def test_tap_stack_matches_the_im2col_oracle_bitwise(arch, name, images):
    m = zoo.build_model(arch, 3, 8, in_shape=images.shape[1:])
    got = m._tap_stack(images)
    assert got.tobytes() == im2col_tap(m, images).tobytes(), name
    if name == "three-64px":
        assert zoo._chunk_rows(27 * 62 * 62) == 1


def test_a_directly_built_model_follows_the_input_rule():
    # the 3x3 kernel does not fit a 2x2 or 1x1 image, whoever builds the model
    weights = zoo.build_model("cnn-smooth", 3, 0).weights
    for in_shape in ((3, 2, 2), (3, 1, 1)):
        with pytest.raises(ValueError, match=r"^cnn-smooth needs at least a 3x3 input"):
            zoo.ToyModel(arch="cnn-smooth", num_classes=3, seed=0, in_shape=in_shape,
                         weights=weights)
    with pytest.raises(ValueError, match=r"^in_shape must be \(channels in \{1,3\}, h, w\)"):
        zoo.ToyModel(arch="cnn-smooth", num_classes=3, seed=0, in_shape=(2, 6, 6),
                     weights=weights)
    # an MLP takes any size; its in_shape is stored as a tuple of ints
    built = zoo.build_model("mlp-smooth", 3, 0, in_shape=(3, 2, 2))
    m = zoo.ToyModel(arch="mlp-smooth", num_classes=3, seed=0, in_shape=np.array([3, 2, 2]),
                     weights=built.weights)
    assert m.in_shape == (3, 2, 2) and type(m.in_shape[1]) is int
    image = np.random.default_rng(15).uniform(0.0, 1.0, (1, 3, 2, 2))
    assert m._tap_stack(image).tobytes() == built._tap_stack(image).tobytes()


_CNN = zoo.build_model("cnn-smooth", 3, 0).weights
_MLP_6PX = zoo.build_model("mlp-smooth", 3, 0).weights

# case -> (ToyModel arguments over a 3-class cnn-smooth at (3, 6, 6), the
# message that refuses them)
MISMATCHED_MODELS = {
    "5-classes-on-3-class-weights": (
        {"num_classes": 5},
        "weights['fc_w'] must be a float64 array of shape (5, 4), "
        "got float64 array of shape (3, 4)"),
    "1-channel-on-3-channel-weights": (
        {"in_shape": (1, 6, 6)},
        "weights['conv_w'] must be a float64 array of shape (4, 1, 3, 3), "
        "got float64 array of shape (4, 3, 3, 3)"),
    "mlp-at-2x2-on-6x6-weights": (
        {"arch": "mlp-smooth", "in_shape": (3, 2, 2), "weights": _MLP_6PX},
        "weights['fc1_w'] must be a float64 array of shape (64, 12), "
        "got float64 array of shape (64, 108)"),
    "no-weights": ({"weights": {}},
                   "weights must hold the tensors ['conv_w', 'conv_b', 'fc_w', 'fc_b'], got []"),
    "2.5-classes": ({"num_classes": 2.5}, "num_classes must be an integer, got 2.5"),
    "seed-below-0": ({"seed": -1}, "seed must be at least 0, got -1"),
    "float32-tensor": (
        {"weights": {**_CNN, "conv_b": _CNN["conv_b"].astype(np.float32)}},
        "weights['conv_b'] must be a float64 array of shape (4,), "
        "got float32 array of shape (4,)"),
    "list-for-a-tensor": ({"weights": {**_CNN, "fc_b": [0.0, 0.0, 0.0]}},
                          "weights['fc_b'] must be a float64 array of shape (3,), got list"),
    "tensor-of-another-arch": (
        {"weights": {**_CNN, "fc1_w": _MLP_6PX["fc1_w"]}},
        "weights must hold the tensors ['conv_w', 'conv_b', 'fc_w', 'fc_b'], "
        "got ['conv_w', 'conv_b', 'fc_w', 'fc_b', 'fc1_w']"),
    "weights-not-a-dict": ({"weights": list(_CNN.values())},
                           "weights must hold the tensors ['conv_w', 'conv_b', 'fc_w', 'fc_b'], "
                           "got list"),
}


@pytest.mark.parametrize("case", sorted(MISMATCHED_MODELS))
def test_a_directly_built_model_checks_its_weights(case):
    changes, message = MISMATCHED_MODELS[case]
    arguments = {"arch": "cnn-smooth", "num_classes": 3, "seed": 0, "in_shape": (3, 6, 6),
                 "weights": _CNN, **changes}
    with pytest.raises(Exception) as caught:
        zoo.ToyModel(**arguments)
    assert caught.type is ValueError, caught.value
    assert str(caught.value) == message


def test_a_directly_built_model_keeps_its_weight_arrays():
    # neither copied nor scanned: read-only arrays stay read-only, and an
    # in-place scaling after construction reaches the model
    weights = {name: w.copy() for name, w in _CNN.items()}
    weights["conv_w"].flags.writeable = False
    m = zoo.ToyModel(arch="cnn-smooth", num_classes=np.int64(3), seed=np.uint8(0),
                     in_shape=(3, 6, 6), weights=weights)
    assert all(m.weights[name] is w for name, w in weights.items())
    assert type(m.num_classes) is int and type(m.seed) is int
    image = rand_image(16)
    before = m.forward(image)
    weights["fc_w"] *= 2.0
    assert not np.array_equal(m.forward(image), before)


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
