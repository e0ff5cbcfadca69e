"""Model zoo: seeded reproducibility, tap semantics, weight manifest."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    for shape in ((3, 6, 6), (1, 6, 6), (3, 7, 5), (3, 64, 64)):
        m = zoo.build_model(arch, 3, 6, in_shape=shape)
        images = np.random.default_rng(12).uniform(-1.0, 1.0, (5,) + shape)
        stacked = m._tap_stack(images)
        assert stacked.shape == (5, 4, 16 if arch == "mlp-smooth" else
                                 (shape[1] - 2) * (shape[2] - 2))
        for i, image in enumerate(images):
            assert m._tap_stack(image[None])[0].tobytes() == stacked[i].tobytes(), (shape, i)


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


# -- weight manifest --------------------------------------------------------


@pytest.mark.parametrize("arch", zoo.ARCHS)
def test_manifest_roundtrip_byte_identical(arch):
    m = zoo.build_model(arch, 3, 13)
    blob = zoo.save_weights(m).to_bytes()
    m2 = zoo.load_weights(zoo.WeightManifest.from_bytes(blob))
    assert zoo.save_weights(m2).to_bytes() == blob
    for name in m.weights:
        assert np.array_equal(m.weights[name], m2.weights[name])
    assert (m2.arch, m2.num_classes, m2.seed, m2.in_shape) == \
        (m.arch, m.num_classes, m.seed, m.in_shape)


def test_manifest_file_roundtrip(tmp_path):
    m = zoo.build_model("cnn-smooth", 2, 3)
    path = tmp_path / "m.weights"
    zoo.save_weights_file(m, path)
    m2 = zoo.load_weights_file(path)
    img = rand_image(7)
    assert m.forward(img).tobytes() == m2.forward(img).tobytes()


def test_truncated_payload_names_last_tensor():
    blob = zoo.save_weights(zoo.build_model("cnn-relu", 3, 0)).to_bytes()
    with pytest.raises(ValueError, match="fc_b"):
        zoo.WeightManifest.from_bytes(blob[:-8])


@pytest.mark.parametrize("edit", [
    lambda header: header["tensors"][0].pop("shape"),
    lambda header: header["tensors"][0].pop("offset"),
    lambda header: header.update(tensors=5),
    lambda header: header.update(tensors=[1]),
], ids=["no-shape", "no-offset", "tensors-not-list", "entry-not-object"])
def test_malformed_header_raises_value_error(edit):
    manifest = zoo.save_weights(zoo.build_model("cnn-relu", 3, 0))
    edit(manifest.header)
    with pytest.raises(ValueError):
        zoo.WeightManifest.from_bytes(manifest.to_bytes())


@pytest.mark.parametrize("edit", [
    lambda header: header["tensors"][0].pop("name"),
    lambda header: header["tensors"][0].update(name=[1]),
    lambda header: header.update(in_shape=5),
    lambda header: header.update(num_classes=None),
], ids=["no-name", "list-name", "scalar-in-shape", "null-num-classes"])
def test_mistyped_header_fields_raise_value_error(edit):
    # from_bytes accepts these headers; load_weights must not trust the types
    manifest = zoo.save_weights(zoo.build_model("cnn-relu", 3, 0))
    edit(manifest.header)
    with pytest.raises(ValueError):
        zoo.load_weights(zoo.WeightManifest.from_bytes(manifest.to_bytes()))


def test_non_finite_weights_rejected():
    manifest = zoo.save_weights(zoo.build_model("cnn-relu", 3, 0))
    nan = np.array([np.nan], dtype="<f8").tobytes()
    manifest.payload = manifest.payload[:-8] + nan
    with pytest.raises(ValueError, match="fc_b"):
        zoo.load_weights(zoo.WeightManifest.from_bytes(manifest.to_bytes()))


_BLOB = zoo.save_weights(zoo.build_model("cnn-relu", 3, 0)).to_bytes()
_HEADER_END = 4 + int.from_bytes(_BLOB[:4], "little")


def _replace_byte(position_value):
    position, value = position_value
    return _BLOB[:position] + bytes([value]) + _BLOB[position + 1:]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(
    st.binary(max_size=300),
    st.tuples(st.integers(0, _HEADER_END - 1), st.integers(0, 255)).map(_replace_byte),
    st.tuples(st.integers(0, len(_BLOB) - 1), st.integers(0, 255)).map(_replace_byte),
    st.integers(0, len(_BLOB) - 1).map(lambda n: _BLOB[:n]),
))
def test_fuzzed_weight_blobs_fail_only_with_value_error(blob):
    try:
        zoo.load_weights(zoo.WeightManifest.from_bytes(blob))
    except ValueError:
        pass


def test_truncated_header_rejected_with_offset():
    blob = zoo.save_weights(zoo.build_model("cnn-relu", 3, 0)).to_bytes()
    with pytest.raises(ValueError, match="byte 2"):
        zoo.WeightManifest.from_bytes(blob[:2])


def test_wrong_shape_names_tensor():
    manifest = zoo.save_weights(zoo.build_model("cnn-relu", 3, 0))
    for entry in manifest.header["tensors"]:
        if entry["name"] == "fc_w":
            entry["shape"] = [4, 4]
    with pytest.raises(ValueError, match="fc_w"):
        zoo.load_weights(manifest)


def test_unknown_header_tensor_rejected():
    manifest = zoo.save_weights(zoo.build_model("cnn-relu", 3, 0))
    manifest.header["tensors"][0]["name"] = "mystery"
    with pytest.raises(ValueError, match="mystery"):
        zoo.load_weights(manifest)
