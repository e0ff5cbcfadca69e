"""Normalization, upsampling, colormap overlay, PPM/PGM round-trips, and
the one rule for the integer arguments of the public API."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crgx import postprocess as pp
from crgx import suites
from crgx.cam import CamMethod, Heatmap, explain, rest_decomposition
from crgx.game import CooperativeGame, ShapleyVector, shapley_exact, shapley_mc
from crgx.imgio import Image, encode_image_bytes, parse_image_bytes, read_image, write_image
from crgx.utility import UtilitySpec
from crgx.zoo import ActivationStack, build_model


# ------------------------------------------------------------- normalization

def test_normalize_hand_values():
    assert np.array_equal(pp.normalize_minmax([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])
    assert np.array_equal(pp.normalize_minmax([-1.0, 1.0]), [0.0, 1.0])
    assert np.array_equal(pp.normalize_minmax([3.0, 3.0, 3.0]), [0.0, 0.0, 0.0])


def test_normalize_affine_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = rng.normal(size=(5, 7))
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.normal())
        base = pp.normalize_minmax(h)
        moved = pp.normalize_minmax(a * h + b)
        assert np.max(np.abs(base - moved)) <= 1e-12


# ---------------------------------------------------------------- upsampling

def test_upsample_identity_same_size():
    rng = np.random.default_rng(1)
    src = rng.normal(size=(4, 5))
    out = pp.upsample_bilinear(src, 4, 5)
    assert np.array_equal(out, src)


def test_upsample_two_by_two_checker():
    src = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = pp.upsample_bilinear(src, 3, 3)
    expected = np.array([[0.0, 0.5, 1.0],
                         [0.5, 0.5, 0.5],
                         [1.0, 0.5, 0.0]])
    assert np.max(np.abs(out - expected)) <= 1e-15


def test_upsample_one_by_one_broadcasts():
    out = pp.upsample_bilinear(np.array([[0.7]]), 4, 6)
    assert out.shape == (4, 6)
    assert np.array_equal(out, np.full((4, 6), 0.7))


def test_upsample_corners_preserved():
    rng = np.random.default_rng(2)
    src = rng.normal(size=(3, 4))
    out = pp.upsample_bilinear(src, 9, 13)
    assert out[0, 0] == src[0, 0]
    assert out[0, -1] == src[0, -1]
    assert out[-1, 0] == src[-1, 0]
    assert out[-1, -1] == src[-1, -1]


def test_upsample_range_preserved():
    rng = np.random.default_rng(3)
    for _ in range(10):
        src = rng.normal(size=(4, 4))
        out = pp.upsample_bilinear(src, 11, 7)
        assert out.min() >= src.min() - 1e-12
        assert out.max() <= src.max() + 1e-12


def test_upsample_singleton_target_uses_first_sample():
    src = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = pp.upsample_bilinear(src, 1, 3)
    assert np.array_equal(out, [[1.0, 2.0, 3.0]])


def test_upsample_stack_matches_single_maps():
    # each plane of a stack is laid out (C order) and valued as the
    # single-map call would give it, byte for byte
    rng = np.random.default_rng(9)
    for (h, w), (out_h, out_w) in (((62, 62), (64, 64)), ((4, 4), (6, 6)), ((1, 5), (7, 3))):
        stack = rng.uniform(0.0, 1.0, (5, h, w))
        out = pp.upsample_bilinear(stack, out_h, out_w)
        assert out.shape == (5, out_h, out_w) and out.flags.c_contiguous
        for plane, src in zip(out, stack):
            single = pp.upsample_bilinear(src, out_h, out_w)
            assert single.flags.c_contiguous
            assert plane.tobytes() == single.tobytes()


def test_upsample_rejects_bad_dims():
    with pytest.raises(ValueError, match="^out_h must be at least 1, got 0$"):
        pp.upsample_bilinear(np.ones((2, 2)), 0, 3)
    with pytest.raises(ValueError, match="2-D"):
        pp.upsample_bilinear(np.ones(4), 2, 2)
    with pytest.raises(ValueError, match="2-D"):
        pp.upsample_bilinear(np.ones((1, 2, 2, 2)), 2, 2)


def test_upsample_target_dims_must_be_integers():
    with pytest.raises(ValueError, match="out_h must be an integer, got 2.5"):
        pp.upsample_bilinear(np.ones((2, 2)), 2.5, 2)
    with pytest.raises(ValueError, match="out_w must be an integer"):
        pp.upsample_bilinear(np.ones((2, 2)), 2, np.float64(3.0))
    want = pp.upsample_bilinear(np.eye(2), 3, 4)
    for out_h, out_w in ((np.int64(3), np.int32(4)), (np.uint16(3), 4)):
        assert pp.upsample_bilinear(np.eye(2), out_h, out_w).tobytes() == want.tobytes()


# ------------------------------------------------------------------ colormap

def test_colormap_table_shape_and_range():
    table = pp.JET
    assert table.shape == (256, 3)
    assert table.min() >= 0.0 and table.max() <= 1.0
    # jet-like anchors: dark blue start, dark red end
    assert table[0, 2] > 0.0 and table[0, 0] == 0.0
    assert table[255, 0] > 0.0 and table[255, 2] == 0.0


def test_colormap_matches_the_shipped_table():
    # digest and rows of the 256-entry jet table crgx used to ship as data
    digest = hashlib.sha256(pp.JET.tobytes())
    assert digest.hexdigest() == (
        "3316560fd8daa21e2c89324abb9a7557e478a1092decb776ffab3800718d6629")
    anchors = {0: (0.0, 0.0, 0.5), 32: (0.0, 0.001961, 1.0),
               127: (0.492157, 1.0, 0.507843), 128: (0.507843, 1.0, 0.492157),
               255: (0.5, 0.0, 0.0)}
    for row, rgb in anchors.items():
        assert tuple(pp.JET[row]) == rgb


def test_colormap_is_read_only():
    with pytest.raises(ValueError, match="read-only"):
        pp.JET[0] = 1.0
    assert np.array_equal(pp.apply_colormap(np.array([[0.0]]))[:, 0, 0], [0.0, 0.0, 0.5])


def test_apply_colormap_endpoints():
    planes = pp.apply_colormap(np.array([[0.0, 1.0]]))
    assert planes.shape == (3, 1, 2)
    assert np.array_equal(planes[:, 0, 0], pp.JET[0])
    assert np.array_equal(planes[:, 0, 1], pp.JET[255])


def test_apply_colormap_validates_input():
    with pytest.raises(ValueError, match="normalize"):
        pp.apply_colormap(np.array([[1.5]]))
    with pytest.raises(ValueError, match="2-D"):
        pp.apply_colormap(np.ones(3))


@pytest.mark.parametrize("render", [pp.apply_colormap,
                                    lambda h: pp.overlay(np.full((3, 1, 2), 0.5), h)],
                         ids=["apply_colormap", "overlay"])
def test_nan_heatmap_rejected(render):
    with pytest.raises(ValueError, match="finite"):
        render(np.array([[np.nan, 0.5]]))


# ------------------------------------------------------------------- overlay

def test_overlay_alpha_extremes():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, (3, 2, 2))
    h = np.array([[0.0, 0.25], [0.5, 1.0]])
    assert np.array_equal(pp.overlay(x, h, alpha=0.0), x)
    assert np.array_equal(pp.overlay(x, h, alpha=1.0),
                          pp.apply_colormap(h))


def test_overlay_midpoint_pixel():
    x = np.full((3, 1, 1), 0.2)
    h = np.array([[1.0]])
    entry = pp.JET[255]
    out = pp.overlay(x, h, alpha=0.5)
    assert np.max(np.abs(out[:, 0, 0] - 0.5 * (0.2 + entry))) <= 1e-15


def test_overlay_broadcasts_gray_input():
    x = np.full((1, 2, 3), 0.5)
    h = np.zeros((2, 3))
    out = pp.overlay(x, h)
    assert out.shape == (3, 2, 3)


def test_overlay_validation():
    with pytest.raises(ValueError, match="resolution"):
        pp.overlay(np.zeros((3, 2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="alpha"):
        pp.overlay(np.zeros((3, 2, 2)), np.zeros((2, 2)), alpha=1.5)


# ------------------------------------------------------------------ image IO

def test_parse_p6_minimal():
    data = b"P6\n2 1\n255\n" + bytes([10, 20, 30, 250, 0, 128])
    img = parse_image_bytes(data)
    assert img.channels == 3 and img.height == 1 and img.width == 2
    assert np.array_equal(img.pixels[:, 0, 0], np.array([10, 20, 30]) / 255.0)
    assert np.array_equal(img.pixels[:, 0, 1], np.array([250, 0, 128]) / 255.0)


def test_parse_p5_and_comment():
    data = b"P5 # gray\n2 2\n# another note\n255\n" + bytes([0, 64, 128, 255])
    img = parse_image_bytes(data)
    assert img.channels == 1
    assert np.array_equal(img.pixels[0].ravel(), np.array([0, 64, 128, 255]) / 255.0)


def test_parse_rejects_wrong_magic():
    with pytest.raises(ValueError, match="byte 0"):
        parse_image_bytes(b"P3\n1 1\n255\n000")


def test_parse_rejects_high_maxval():
    with pytest.raises(ValueError, match="maxval 65535"):
        parse_image_bytes(b"P6\n1 1\n65535\n" + bytes(6))


def test_parse_reports_truncation_offset():
    data = b"P6\n2 2\n255\n" + bytes(5)
    with pytest.raises(ValueError, match="truncated") as err:
        parse_image_bytes(data)
    assert "byte" in str(err.value)


def test_parse_rejects_bad_header_fields():
    with pytest.raises(ValueError, match="decimal integer"):
        parse_image_bytes(b"P6\nx 1\n255\n")
    with pytest.raises(ValueError, match="positive"):
        parse_image_bytes(b"P6\n0 1\n255\n")
    with pytest.raises(ValueError, match="ran out of data"):
        parse_image_bytes(b"P6\n2 2")


@pytest.mark.parametrize("data,message", [
    (b"P6\t\x0b\x0c\rx 1 255\n", "byte 6: width must be a decimal integer, got b'x'"),
    (b"P5\r2\r\r1\r255\r\x00", "byte 13: pixel payload truncated: expected 2 bytes, got 1"),
    (b"P6\n2 2\n# no end", "byte 15: ran out of data reading maxval"),
    (b"P6 # magic\n#", "byte 12: ran out of data reading width"),
    (b"P6\n2#3 1\n255\n", "byte 3: width must be a decimal integer, got b'2#3'"),
    (b"P5 1 1 255#\n\x00", "byte 7: maxval must be a decimal integer, got b'255#'"),
    (b"P6", "byte 2: ran out of data reading width"),
    (b"P6 -1 1 255\n", "byte 3: width must be a decimal integer, got b'-1'"),
    (b"P6\n\xb2 1\n255\n", "byte 3: width must be a decimal integer, got b'\\xb2'"),
], ids=["tab-vt-ff-cr", "cr-only", "comment-to-eof", "bare-comment", "hash-in-width",
        "hash-in-maxval", "bare-magic", "negative-width", "high-byte-width"])
def test_header_errors_name_the_byte(data, message):
    with pytest.raises(ValueError) as err:
        parse_image_bytes(data)
    assert str(err.value) == f"malformed image file at {message}"


_IMAGE_FILES = (b"P6\n# rgb\n3 2\n255\n" + bytes(range(0, 180, 10)),
                b"P5 2 2 255\n" + bytes([0, 64, 128, 255]))


def _mutated(file_position_value):
    data, position, value = file_position_value
    position %= len(data)
    return data[:position] + bytes([value]) + data[position + 1:]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.tuples(st.sampled_from(_IMAGE_FILES), st.integers(0, 63),
              st.integers(0, 255)).map(_mutated),
    st.tuples(st.sampled_from(_IMAGE_FILES), st.integers(0, 63)).map(
        lambda file_cut: file_cut[0][:file_cut[1] % len(file_cut[0])]),
))
def test_fuzzed_image_bytes_fail_only_with_value_error(data):
    try:
        parse_image_bytes(data)
    except ValueError:
        pass


def test_write_rounds_half_away_from_zero():
    values = np.array([[[0.5 / 255, 1.5 / 255, 2.5 / 255]]])
    img = Image(np.broadcast_to(values, (3, 1, 3)))
    raw = encode_image_bytes(img)
    assert raw.startswith(b"P6\n3 1\n255\n")
    payload = raw[len(b"P6\n3 1\n255\n"):]
    assert list(payload[:3]) == [1, 1, 1]
    assert list(payload[3:6]) == [2, 2, 2]
    assert list(payload[6:9]) == [3, 3, 3]


def test_round_trip_through_files(tmp_path):
    rng = np.random.default_rng(5)
    img = Image(rng.uniform(0, 1, (3, 4, 6)))
    path = tmp_path / "out.ppm"
    write_image(path, img)
    back = read_image(path)
    assert np.max(np.abs(back.pixels - img.pixels)) <= 1.0 / 510 + 1e-12
    # a quantized image re-encodes to identical bytes
    write_image(tmp_path / "again.ppm", back)
    assert (tmp_path / "again.ppm").read_bytes() == path.read_bytes()


def test_gray_writes_as_p6(tmp_path):
    img = Image(np.linspace(0, 1, 6).reshape(1, 2, 3))
    path = tmp_path / "gray.ppm"
    write_image(path, img)
    back = read_image(path)
    assert back.channels == 3
    assert np.array_equal(back.pixels[0], back.pixels[1])
    assert np.max(np.abs(back.pixels[0] - img.pixels[0])) <= 1.0 / 510 + 1e-12


def test_image_validation():
    with pytest.raises(ValueError, match="planes"):
        Image(np.zeros((2, 3, 3)))
    with pytest.raises(ValueError, match="clamp"):
        Image(np.full((1, 2, 2), 1.5))
    with pytest.raises(ValueError, match="finite"):
        Image(np.full((1, 2, 2), np.nan))


ARRAY_RECORDS = {
    "Heatmap": lambda: Heatmap(pre_relu=np.array([1.0, -2.0]), spatial=(1, 2), method="gradcam"),
    "ActivationStack": lambda: ActivationStack(maps=np.ones((2, 4)), spatial=(2, 2)),
    "ToyModel": lambda: build_model("cnn-relu", num_classes=3, seed=0),
    "ShapleyVector": lambda: ShapleyVector(values=np.array([0.5, 0.5]), method="exact"),
    "Image": lambda: Image(np.full((1, 2, 2), 0.5)),
}


GRID_REFUSALS = [
    ((8.0, 2.0), "spatial[0] must be an integer, got 8.0"),
    ((-4, -4), "spatial[0] must be at least 1, got -4"),
    ((4, True), "spatial[1] must be an integer, got True"),
    ((3, 5), "spatial (3, 5) does not cover 16 positions"),
    ((16,), "spatial must be (h, w), got (16,)"),
    (None, "spatial must be (h, w), got None"),
]


@pytest.mark.parametrize("spatial, message", GRID_REFUSALS,
                         ids=["float", "negative", "bool", "product", "one-size", "none"])
def test_heatmap_and_activation_stack_share_one_grid_rule(spatial, message):
    for build in (lambda: Heatmap(pre_relu=np.zeros(16), spatial=spatial, method="gradcam"),
                  lambda: ActivationStack(maps=np.zeros((2, 16)), spatial=spatial)):
        with pytest.raises(Exception) as caught:
            build()
        assert caught.type is ValueError, caught.value
        assert str(caught.value) == message
    for record in (Heatmap(pre_relu=np.zeros(16), spatial=(np.int64(2), np.uint8(8)),
                           method="gradcam"),
                   ActivationStack(maps=np.zeros((2, 16)), spatial=(np.int64(2), np.uint8(8)))):
        assert record.spatial == (2, 8)
        assert [type(v) for v in record.spatial] == [int, int]


@pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
def test_array_records_compare_and_hash_by_identity(name):
    # a generated __eq__ compares the arrays inside a tuple compare and
    # raises on their ambiguous truth value; these records go by identity
    record = ARRAY_RECORDS[name]()
    copy = dataclasses.replace(record)
    assert type(copy) is type(record)
    assert record == record
    assert (record == copy) is False
    assert record != copy
    assert hash(record) == hash(record)
    assert len({record, copy, record}) == 2


# ------------------------------------------------------- integer arguments

_MODEL = build_model("cnn-smooth", num_classes=3, seed=2)
_IMAGE = np.random.default_rng(4).uniform(0.0, 1.0, _MODEL.in_shape)
_TABLE = CooperativeGame.from_table(np.random.default_rng(8).normal(size=8))


def _model_bits(model):
    return (model.num_classes, model.seed, model.in_shape,
            [w.tobytes() for w in model.weights.values()])


def _grid_bits(hm):
    return hm.spatial, [type(v) for v in hm.spatial], hm.grid("pre").tobytes()


def _report(suite, **args):
    return json.dumps(suite(**args), sort_keys=True)


# (parameter as its message names it, floor, a valid value, call on a value)
INTEGER_ARGUMENTS = {
    "CamMethod.seed": ("randomcam seed", 0, 3, lambda v: explain(
        _MODEL, _IMAGE, UtilitySpec(1), CamMethod("randomcam", seed=v)).pre_relu.tobytes()),
    "CooperativeGame.d": ("d", 1, 3, lambda v: shapley_exact(CooperativeGame(
        v, lambda masks: masks @ np.arange(1.0, 4.0))).values.tobytes()),
    "shapley_mc.samples": ("samples", 1, 5, lambda v: shapley_mc(_TABLE, v, seed=5).stderr.tobytes()),
    "shapley_mc.seed": ("seed", 0, 5, lambda v: shapley_mc(_TABLE, 5, seed=v).values.tobytes()),
    "upsample_bilinear.out_h": ("out_h", 1, 3,
                                lambda v: pp.upsample_bilinear(np.eye(2), v, 4).tobytes()),
    "upsample_bilinear.out_w": ("out_w", 1, 3,
                                lambda v: pp.upsample_bilinear(np.eye(2), 4, v).tobytes()),
    "UtilitySpec.target_class": ("target_class", 0, 1, lambda v: explain(
        _MODEL, _IMAGE, UtilitySpec(v, "rest"), "shapleycam").pre_relu.tobytes()),
    "rest_decomposition.target_class": ("target_class", 0, 1, lambda v: tuple(
        hm.pre_relu.tobytes() for hm in rest_decomposition(_MODEL, _IMAGE, v, "gradcam"))),
    "Heatmap.spatial[0]": ("spatial[0]", 1, 4, lambda v: _grid_bits(Heatmap(
        pre_relu=np.arange(16.0), spatial=(v, 4), method="gradcam"))),
    "Heatmap.spatial[1]": ("spatial[1]", 1, 4, lambda v: _grid_bits(Heatmap(
        pre_relu=np.arange(16.0), spatial=(4, v), method="gradcam"))),
    "build_model.num_classes": ("num_classes", 2, 3,
                                lambda v: _model_bits(build_model("mlp-smooth", v, 0))),
    "build_model.seed": ("seed", 0, 3, lambda v: _model_bits(build_model("mlp-smooth", 3, v))),
    "build_model.in_shape": ("in_shape[1]", 1, 6, lambda v: _model_bits(
        build_model("cnn-smooth", 3, 0, in_shape=(3, v, 6)))),
    "axiom_check.seed": ("seed", 0, 3, lambda v: _report(suites.axiom_check, seed=v, n_games=3)),
    "axiom_check.n_games": ("n_games", 1, 3, lambda v: _report(suites.axiom_check, n_games=v)),
    "quadratic_check.seed": ("seed", 0, 3,
                             lambda v: _report(suites.quadratic_check, seed=v, n_games=2)),
    "quadratic_check.n_games": ("n_games", 1, 2,
                                lambda v: _report(suites.quadratic_check, n_games=v)),
    "linear_check.seed": ("seed", 0, 3, lambda v: _report(suites.linear_check, seed=v, n_games=2)),
    "linear_check.n_games": ("n_games", 1, 2, lambda v: _report(suites.linear_check, n_games=v)),
    "spatial_check.seed": ("seed", 0, 3, lambda v: _report(suites.spatial_check, seed=v)),
    "mc_check.seed": ("seed", 0, 3,
                      lambda v: _report(suites.mc_check, seed=v, n_seeds=1, samples=20)),
    "mc_check.n_seeds": ("n_seeds", 1, 2,
                         lambda v: _report(suites.mc_check, n_seeds=v, samples=20)),
    "mc_check.samples": ("samples", 2, 20,
                         lambda v: _report(suites.mc_check, n_seeds=1, samples=v)),
    "shapley_suite.seed": ("seed", 0, 3, lambda v: _report(
        suites.shapley_suite, seed=v, mc_seeds=1, mc_samples=20)),
    "shapley_suite.mc_seeds": ("mc_seeds", 1, 1, lambda v: _report(
        suites.shapley_suite, mc_seeds=v, mc_samples=20)),
    "shapley_suite.mc_samples": ("mc_samples", 2, 20, lambda v: _report(
        suites.shapley_suite, mc_seeds=1, mc_samples=v)),
    "hvp_suite.seed": ("seed", 0, 3, lambda v: _report(suites.hvp_suite, seed=v, graphs=3)),
    "hvp_suite.graphs": ("graphs", 1, 3, lambda v: _report(suites.hvp_suite, graphs=v)),
    "theorem_suite.seeds": ("seeds", 1, 1, lambda v: _report(suites.theorem_suite, seeds=v)),
}


@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_follow_one_rule(argument):
    name, floor, good, call = INTEGER_ARGUMENTS[argument]
    for bad in (True, False, 2.5, "3", None, floor - 1):
        if bad is None and name == "randomcam seed":
            message = "randomcam needs a seed"
        elif bad == floor - 1 and type(bad) is int:
            message = f"{name} must be at least {floor}, got {bad}"
        else:
            message = f"{name} must be an integer, got {bad!r}"
        # ValueError and nothing else: no TypeError or IndexError escapes
        with pytest.raises(Exception) as caught:
            call(bad)
        assert caught.type is ValueError, (bad, caught.value)
        assert re.fullmatch(re.escape(message), str(caught.value)), (bad, caught.value)
    want = call(good)
    for as_numpy in (np.int64, np.uint8):
        assert call(as_numpy(good)) == want, as_numpy
