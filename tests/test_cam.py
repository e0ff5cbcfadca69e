"""Heatmap assembly schemes, utility scalars, and the ensemble identities."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crgx import autodiff as ad
from crgx.cam import (
    CAM_METHODS,
    CamMethod,
    Heatmap,
    _as_method,
    _assemble,
    _heatmap_sets,
    explain,
    explain_batch,
    rest_decomposition,
    shapley_weights,
    theorem3_ensemble,
)
from crgx.game import make_spatial_game, shapley_exact
from crgx.utility import (UTILITY_KINDS, UtilitySpec, compute_utility,
                          compute_utility_batch, softmax_rows, utility_derivatives)
from crgx.zoo import ARCHS, build_model


def rel_err(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return np.max(np.abs(actual - expected) / (1.0 + np.abs(expected)))


def small_stack():
    return np.array([[2.0, -4.0, 1.0, 0.5],
                     [0.0, 3.0, -2.0, 1.5]])


def assemble(weights, maps, method):
    """Pre-ReLU heatmap of one stack through the batched assembly that
    `explain_batch` runs."""
    weights = None if weights is None else weights[None]
    return _assemble(weights, maps[None], _as_method(method))[0]


def make_image(seed=0, shape=(3, 6, 6)):
    return np.random.default_rng(seed).uniform(0.0, 1.0, shape)


# ---------------------------------------------------------------- utilities

def test_rest_utility_value():
    # 2 * y_c - logsumexp(y) at y = (2, 0), c = 0
    value = compute_utility(np.array([2.0, 0.0]), UtilitySpec(0, "rest"))
    assert value == pytest.approx(1.873071988957028, abs=1e-14)
    assert value == pytest.approx(4.0 - np.logaddexp(2.0, 0.0), abs=1e-15)


def test_utility_kinds_against_numpy():
    y = np.array([0.3, -1.2, 2.4])
    shifted = np.exp(y - y.max())
    p = shifted / shifted.sum()
    lse = y.max() + np.log(shifted.sum())
    for c in range(3):
        assert compute_utility(y, UtilitySpec(c, "pre-softmax")) == y[c]
        assert compute_utility(y, UtilitySpec(c, "post-softmax")) == pytest.approx(p[c], abs=1e-15)
        assert compute_utility(y, UtilitySpec(c, "log-softmax")) == pytest.approx(y[c] - lse, abs=1e-15)
        assert compute_utility(y, UtilitySpec(c, "rest")) == pytest.approx(2 * y[c] - lse, abs=1e-15)


def test_non_finite_logits_rejected():
    # an overflowing head gives infinite logits; no utility is defined there
    for logits in ([np.inf, 0.0], [-np.inf, 0.0], [np.nan, 0.0]):
        for kind in UTILITY_KINDS:
            with pytest.raises(ValueError, match="finite"):
                compute_utility(np.array(logits), UtilitySpec(0, kind))


_finite = st.floats(-30.0, 30.0, allow_nan=False)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(lambda k: st.tuples(
    st.lists(st.lists(_finite, min_size=k, max_size=k), min_size=1, max_size=4),
    st.lists(_finite, min_size=k, max_size=k),
    st.integers(0, k - 1))),
    st.floats(-100.0, 100.0, allow_nan=False))
def test_softmax_shift_invariance(case, t):
    # adding t to every logit leaves softmax, and so every derivative, as
    # it is; pre-softmax and rest move by t, the softmax kinds stay put
    rows, v, c = case
    logits = np.array(rows)
    v = np.broadcast_to(np.array(v), logits.shape)
    for kind in UTILITY_KINDS:
        spec = UtilitySpec(c, kind)
        grad, hvp = utility_derivatives(logits, softmax_rows(logits), spec, v)
        grad_t, hvp_t = utility_derivatives(logits + t, softmax_rows(logits + t), spec, v)
        assert rel_err(grad_t, grad) <= 1e-12
        assert rel_err(hvp_t, hvp) <= 1e-12
        moved = t if kind in ("pre-softmax", "rest") else 0.0
        assert rel_err(compute_utility_batch(logits + t, spec),
                       compute_utility_batch(logits, spec) + moved) <= 1e-12


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(lambda k: st.tuples(
    st.lists(st.lists(_finite, min_size=k, max_size=k), min_size=1, max_size=4),
    st.lists(_finite, min_size=k, max_size=k))))
def test_rest_and_ensemble_identities_on_drawn_logits(case):
    # ReST: rest = pre-softmax + log-softmax in value and gradient, and its
    # curvature is log-softmax's alone. Ensemble: the post-softmax gradient
    # is p_c sum_{k != c} p_k (e_c - e_k), the softmax-weighted logit gaps.
    rows, v = case
    logits = np.array(rows)
    v = np.broadcast_to(np.array(v), logits.shape)
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = shifted / shifted.sum(axis=1, keepdims=True)
    eye = np.eye(logits.shape[1])
    for c in range(logits.shape[1]):
        value, grad, hvp = {}, {}, {}
        for kind in UTILITY_KINDS:
            spec = UtilitySpec(c, kind)
            value[kind] = compute_utility_batch(logits, spec)
            grad[kind], hvp[kind] = utility_derivatives(logits, softmax_rows(logits), spec, v)
        assert rel_err(value["rest"], value["pre-softmax"] + value["log-softmax"]) <= 1e-12
        assert rel_err(grad["rest"], grad["pre-softmax"] + grad["log-softmax"]) <= 1e-12
        assert rel_err(hvp["rest"], hvp["log-softmax"]) <= 1e-12
        ensemble = sum(p[:, c, None] * p[:, k, None] * (eye[c] - eye[k])
                       for k in range(len(eye)) if k != c)
        assert rel_err(grad["post-softmax"], ensemble) <= 1e-12


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.floats(-800.0, 800.0, allow_nan=False), min_size=k, max_size=k),
             min_size=1, max_size=4),
    st.integers(0, k - 1))))
def test_post_softmax_utility_is_the_softmax_column_bitwise(case):
    # the utility kernel and the heatmap core share one softmax; spreads
    # of hundreds saturate it to 0 and 1 up to underflow
    rows, c = case
    for logits in (np.array(rows), 30000.0 * np.array(rows)):
        spec = UtilitySpec(c, "post-softmax")
        assert (compute_utility_batch(logits, spec).tobytes()
                == softmax_rows(logits)[:, c].tobytes())


def test_utility_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        UtilitySpec(0, "logits")
    with pytest.raises(ValueError):
        UtilitySpec(-1, "rest")


# ------------------------------------------------------- assembly schemes

def test_mean_scheme_hand_values():
    stack = small_stack()
    w = np.array([[1.0, 3.0, -2.0, 2.0],
                  [0.5, 0.5, 0.5, 0.5]])
    expected = np.mean(w, axis=1) @ stack
    assert np.array_equal(assemble(w, stack, "gradcam"), expected)


def test_elementwise_scheme_hand_values():
    stack = small_stack()
    w = np.array([[1.0, -1.0, 2.0, 0.0],
                  [3.0, 1.0, -1.0, 2.0]])
    expected = (w * stack).sum(axis=0)
    assert np.array_equal(assemble(w, stack, "hirescam"), expected)


def test_inner_relu_scheme_hand_values():
    stack = small_stack()
    w = np.array([[1.0, 1.0, 2.0, 0.0],
                  [3.0, 1.0, -1.0, 2.0]])
    expected = np.maximum(w * stack, 0.0).sum(axis=0)
    pre = assemble(w, stack, "gradcam-e")
    assert np.array_equal(pre, expected)
    # the inner clamp keeps contributions the elementwise scheme cancels
    assert np.any(pre != (w * stack).sum(axis=0))


def test_relu_grad_scheme_hand_values():
    stack = small_stack()
    w = np.array([[1.0, -1.0, 2.0, 0.0],
                  [-3.0, 1.0, -1.0, 2.0]])
    expected = (np.maximum(w, 0.0) * stack).sum(axis=0)
    assert np.array_equal(assemble(w, stack, "layercam"), expected)


def test_xgrad_scheme_hand_values():
    stack = small_stack()
    w = np.array([[1.0, 2.0, -1.0, 0.5],
                  [0.0, 1.0, 1.0, -2.0]])
    num = np.mean(w * stack, axis=1)
    denom = np.mean(stack, axis=1) + 1e-12
    expected = (num / denom) @ stack
    assert rel_err(assemble(w, stack, "xgradcam"), expected) <= 1e-15


def test_xgrad_zeroes_a_map_whose_mean_cancels_the_guard():
    # map 0 has magnitude 1e-6 and a mean of -1e-12 to within an ulp, so
    # mean + 1e-12 is ~2.5e-23: dividing by it would scale the map by ~1e10
    maps = np.array([[1e-6, -1e-6, 1e-6, -1e-6 - 4e-12],
                     [0.5, 0.25, 1.0, 0.0]])
    assert 0.0 < abs(np.mean(maps[0]) + 1e-12) < 1e-20
    w = np.full_like(maps, 0.7)
    pre = assemble(w, maps, "xgradcam")
    live = np.mean(w[1] * maps[1]) / (np.mean(maps[1]) + 1e-12)
    assert rel_err(pre, live * maps[1]) <= 1e-15
    assert np.max(np.abs(pre)) <= 1.0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.integers(1, 8).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d), min_size=n, max_size=n),
    st.lists(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n)))),
    st.integers(-9, 3))
def test_xgrad_heatmaps_are_finite_and_bounded_on_signed_maps(case, exponent):
    # a kept map has |mean + 1e-12| > 1e-6 mean|A|, so its coefficient is
    # below 1e6 max|w|; flagged maps are shifted to put their mean at the
    # guard's pole, -1e-12
    rows, w, cancel = case
    maps = np.array(rows) * 10.0 ** exponent
    shifted = maps - (np.mean(maps, axis=1) + 1e-12)[:, None]
    maps = np.where(np.array(cancel)[:, None], shifted, maps)
    w = np.array(w)
    pre = assemble(w, maps, "xgradcam")
    assert np.all(np.isfinite(pre))
    bound = 1e6 * (np.max(np.abs(w), axis=1) @ np.abs(maps))
    assert np.all(np.abs(pre) <= bound * (1.0 + 1e-9))


def test_gradcampp_scheme_matches_direct_formula():
    stack = small_stack()
    g = np.array([[0.7, -0.4, 0.0, 1.1],
                  [-0.2, 0.9, 0.3, -1.0]])
    coeff = np.zeros(2)
    for i in range(2):
        s = stack[i].sum()
        total = 0.0
        for j in range(4):
            den = 2.0 * g[i, j] ** 2 + s * g[i, j] ** 3
            if den != 0.0:
                total += max(g[i, j], 0.0) * (g[i, j] ** 2 / den)
        coeff[i] = total
    expected = coeff @ stack
    assert rel_err(assemble(g, stack, "gradcampp"), expected) <= 1e-14


def test_randomcam_is_seeded_and_weightless():
    stack = small_stack()
    a = assemble(None, stack, CamMethod("randomcam", seed=7))
    b = assemble(None, stack, CamMethod("randomcam", seed=7))
    c = assemble(None, stack, CamMethod("randomcam", seed=8))
    expected = np.random.default_rng(7).uniform(-1.0, 1.0, 2) @ stack
    assert np.array_equal(a, b)
    assert np.array_equal(a, expected)
    assert not np.array_equal(a, c)


def test_method_validation():
    with pytest.raises(ValueError, match="unknown CAM method"):
        CamMethod("scorecam")
    with pytest.raises(ValueError, match="seed"):
        CamMethod("randomcam")
    with pytest.raises(ValueError, match="^randomcam seed must be at least 0, got -1$"):
        CamMethod("randomcam", seed=-1)
    with pytest.raises(ValueError, match=r"unknown CAM method \['gradcam'\]"):
        CamMethod(["gradcam"])  # unhashable: a name is checked as a str first
    m = CamMethod("shapleycam")
    assert m.order == "second"
    assert m.scheme == "mean"


def test_randomcam_seed_must_be_an_integer():
    with pytest.raises(ValueError, match="randomcam seed must be an integer, got 1.5"):
        CamMethod("randomcam", seed=1.5)
    with pytest.raises(ValueError, match="seed must be an integer"):
        CamMethod("randomcam", seed="7")
    for seed in (7, np.int64(7), np.uint32(7)):
        assert np.array_equal(CamMethod("randomcam", seed=seed).seed, 7)


def test_utility_spec_target_class_must_be_an_integer():
    with pytest.raises(ValueError, match="target_class must be an integer, got 1.5"):
        UtilitySpec(1.5, "rest")
    with pytest.raises(ValueError, match="target_class must be an integer"):
        UtilitySpec(np.float64(1.0), "rest")
    for c in (1, np.int64(1), np.uint8(1)):
        assert UtilitySpec(c, "rest").target_class == 1


def test_shapley_weights_combines_curvature():
    g = np.array([[1.0, 2.0], [3.0, 4.0]])
    h = np.array([[0.5, 0.5], [1.0, -1.0]])
    assert np.array_equal(shapley_weights(g), g)
    assert np.array_equal(shapley_weights(g, h), g - 0.5 * h)
    with pytest.raises(ValueError, match="shape"):
        shapley_weights(g, np.ones(3))


def test_heatmap_invariants():
    with pytest.raises(ValueError, match="spatial"):
        Heatmap(pre_relu=np.zeros(4), spatial=(3, 2), method="gradcam")
    hm = Heatmap(pre_relu=np.array([-1.0, 2.0, 0.5, -0.25]), spatial=(2, 2), method="gradcam")
    assert hm.grid("pre").shape == (2, 2)
    assert np.array_equal(hm.grid("pre").ravel(), hm.pre_relu)
    assert np.array_equal(hm.grid(), np.maximum(hm.grid("pre"), 0.0))
    # any array-like of one value per position, stored as float64
    listed = Heatmap(pre_relu=[-1.0, 2.0, 0.5, -0.25], spatial=(2, 2), method="gradcam")
    assert listed.pre_relu.dtype == np.float64
    assert listed.pre_relu.tobytes() == hm.pre_relu.tobytes()
    for pre_relu in (np.float64(1.0), np.zeros((4, 1)), [[1.0, 2.0], [3.0, 4.0]]):
        with pytest.raises(ValueError, match=r"^pre_relu must be 1-D \(one value per position\)"):
            Heatmap(pre_relu=pre_relu, spatial=(2, 2), method="gradcam")
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"^pre_relu: non-finite values are not allowed$"):
            Heatmap(pre_relu=[-1.0, 2.0, value, -0.25], spatial=(2, 2), method="gradcam")
    for view in ("posts", "Pre", None):
        with pytest.raises(ValueError) as caught:
            hm.grid(view)
        assert str(caught.value) == f"unknown grid view {view!r}; expected 'post' or 'pre'"


@pytest.mark.parametrize("arch", ARCHS)
def test_post_relu_is_the_relu_of_pre_relu_bit_for_bit(arch):
    # tobytes tells -0.0 from 0.0, so the sign bit of every zero agrees too
    model = build_model(arch, num_classes=3, seed=8)
    image = make_image(9)
    for name in CAM_METHODS:
        method = CamMethod(name, seed=4) if name == "randomcam" else name
        for kind in UTILITY_KINDS:
            hm = explain(model, image, UtilitySpec(1, kind), method)
            assert hm.post_relu.tobytes() == np.maximum(hm.pre_relu, 0.0).tobytes()
    for direct, ensemble in (theorem3_ensemble(model, image, UtilitySpec(1, "post-softmax"),
                                               "gradcam"),
                             rest_decomposition(model, image, 1, "hirescam")):
        for hm in (direct, ensemble):
            assert hm.post_relu.tobytes() == np.maximum(hm.pre_relu, 0.0).tobytes()


@pytest.mark.parametrize("name", ["post_relu", "layer"])
def test_heatmap_takes_no_derived_or_constant_fields(name):
    with pytest.raises(TypeError):
        Heatmap(pre_relu=np.zeros(4), spatial=(2, 2), method="gradcam", **{name: np.zeros(4)})


# ------------------------------------------------- first/second order collapse

def test_shapleycam_equals_gradcam_on_piecewise_linear_head():
    # pre-softmax utility on the relu CNN is linear past the tap, so the
    # curvature term is exactly zero and the second-order method collapses
    model = build_model("cnn-relu", num_classes=3, seed=5)
    image = make_image(2)
    spec = UtilitySpec(1, "pre-softmax")
    first = explain(model, image, spec, "gradcam")
    second = explain(model, image, spec, "shapleycam")
    assert np.array_equal(first.pre_relu, second.pre_relu)

    first_h = explain(model, image, spec, "hirescam")
    second_h = explain(model, image, spec, "shapleycam-h")
    assert np.array_equal(first_h.pre_relu, second_h.pre_relu)


def test_shapleycam_differs_from_gradcam_under_curvature():
    model = build_model("mlp-smooth", num_classes=3, seed=5)
    image = make_image(2)
    spec = UtilitySpec(1, "post-softmax")
    first = explain(model, image, spec, "gradcam")
    second = explain(model, image, spec, "shapleycam")
    assert np.max(np.abs(first.pre_relu - second.pre_relu)) > 1e-12


def test_gradcam_equals_hirescam_at_gap_tap():
    # per-map gradients are position-independent right before global average
    # pooling, so broadcasting the mean weight changes nothing
    model = build_model("cnn-relu", num_classes=4, seed=9)
    image = make_image(3)
    spec = UtilitySpec(2, "pre-softmax")
    a = explain(model, image, spec, "gradcam")
    b = explain(model, image, spec, "hirescam")
    assert np.max(np.abs(a.pre_relu - b.pre_relu)) <= 1e-12


def test_xgradcam_matches_gradcam_at_gap_tap():
    model = build_model("cnn-relu", num_classes=3, seed=11)
    image = make_image(4)
    spec = UtilitySpec(0, "pre-softmax")
    a = explain(model, image, spec, "gradcam")
    b = explain(model, image, spec, "xgradcam")
    assert np.max(np.abs(a.pre_relu - b.pre_relu)) <= 1e-10


def test_cam_gap_forces_pre_softmax_and_matches_gradcam():
    model = build_model("cnn-relu", num_classes=3, seed=7)
    image = make_image(6)
    gap = explain(model, image, UtilitySpec(2, "post-softmax"), "cam-gap")
    ref = explain(model, image, UtilitySpec(2, "pre-softmax"), "gradcam")
    assert gap.utility == "pre-softmax"
    assert np.array_equal(gap.pre_relu, ref.pre_relu)


def test_shapleycam_recovers_exact_shapley_vector():
    model = build_model("cnn-relu", num_classes=3, seed=1)
    image = make_image(1)
    spec = UtilitySpec(0, "pre-softmax")
    exact = shapley_exact(make_spatial_game(model, image, spec))
    hm = explain(model, image, spec, "shapleycam")
    assert rel_err(hm.pre_relu, exact.values) <= 1e-9


def test_first_order_weights_are_the_utility_gradient():
    # recompute the gradient through the public tape API and rebuild two
    # scheme outputs from it; explain() must agree to round-off
    from crgx.utility import utility_node

    model = build_model("cnn-smooth", num_classes=3, seed=4)
    image = make_image(5)
    spec = UtilitySpec(1, "rest")
    run = model.forward_with_tap(image)
    with run.tape:
        u = utility_node(run.tape.outputs["logits"], spec)
    grad = ad.gradient(run.tape, u, "tap")

    elementwise = explain(model, image, spec, "hirescam")
    assert rel_err(elementwise.pre_relu, (grad * run.activations.maps).sum(axis=0)) <= 1e-12
    assert abs(elementwise.pre_relu.sum() - np.sum(grad * run.activations.maps)) <= 1e-10

    layer = explain(model, image, spec, "layercam")
    assert rel_err(layer.pre_relu,
                   (np.maximum(grad, 0.0) * run.activations.maps).sum(axis=0)) <= 1e-12


def test_randomcam_ignores_the_utility():
    model = build_model("cnn-relu", num_classes=3, seed=3)
    image = make_image(8)
    method = CamMethod("randomcam", seed=21)
    a = explain(model, image, UtilitySpec(0, "pre-softmax"), method)
    b = explain(model, image, UtilitySpec(2, "rest"), method)
    assert np.array_equal(a.pre_relu, b.pre_relu)
    assert a.utility == "pre-softmax"
    assert b.utility == "rest"


@pytest.mark.parametrize("name", CAM_METHODS)
def test_every_method_rejects_an_out_of_range_class(name):
    # randomcam scores no utility, so only explain_batch's own check stops it
    model = build_model("cnn-relu", num_classes=3, seed=3)
    method = CamMethod(name, seed=1 if name == "randomcam" else None)
    with pytest.raises(ValueError, match="target_class 99 out of range for 3 classes"):
        explain(model, make_image(9), UtilitySpec(99, "rest"), method)


# ------------------------------------------------------- ensemble identities

THEOREM_TOL = 1e-8


@pytest.mark.parametrize("arch", ["cnn-smooth", "mlp-smooth"])
@pytest.mark.parametrize("method", ["gradcam", "hirescam"])
def test_theorem3_ensemble_identity(arch, method):
    model = build_model(arch, num_classes=3, seed=11)
    image = make_image(1011)
    c = int(np.argmax(model.forward(image)))
    direct, ensemble = theorem3_ensemble(model, image, UtilitySpec(c, "post-softmax"), method)
    assert np.max(np.abs(direct.pre_relu - ensemble.pre_relu)) <= THEOREM_TOL


def test_theorem3_symmetric_two_class_case():
    # shift one bias so both logits coincide: p = (1/2, 1/2) exactly and the
    # ensemble reduces to (E_0 - E_1) / 4
    model = build_model("cnn-smooth", num_classes=2, seed=13)
    image = make_image(13)
    y = model.forward(image)
    model.weights["fc_b"][1] += y[0] - y[1]
    logits = model.forward(image)
    assert abs(logits[0] - logits[1]) <= 1e-12 * (1.0 + abs(logits[0]))
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    assert abs(probs[0] - 0.5) <= 1e-14

    e0 = explain(model, image, UtilitySpec(0, "pre-softmax"), "gradcam").pre_relu
    e1 = explain(model, image, UtilitySpec(1, "pre-softmax"), "gradcam").pre_relu
    direct, ensemble = theorem3_ensemble(model, image, UtilitySpec(0, "post-softmax"), "gradcam")
    assert np.max(np.abs(ensemble.pre_relu - 0.25 * (e0 - e1))) <= 1e-13
    assert np.max(np.abs(direct.pre_relu - 0.25 * (e0 - e1))) <= 1e-12


def test_theorem3_input_validation():
    model = build_model("cnn-smooth", num_classes=3, seed=11)
    image = make_image(1011)
    with pytest.raises(ValueError, match="post-softmax"):
        theorem3_ensemble(model, image, UtilitySpec(0, "pre-softmax"), "gradcam")
    with pytest.raises(ValueError, match="first-order"):
        theorem3_ensemble(model, image, UtilitySpec(0, "post-softmax"), "shapleycam")
    with pytest.raises(ValueError, match="first-order"):
        theorem3_ensemble(model, image, UtilitySpec(0, "post-softmax"), "gradcam-e")
    with pytest.raises(ValueError, match="out of range"):
        theorem3_ensemble(model, image, UtilitySpec(7, "post-softmax"), "gradcam")
    # non-finite logits are rejected before any softmax runs on them
    model.weights["fc_b"][0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        theorem3_ensemble(model, image, UtilitySpec(1, "post-softmax"), "gradcam")
    with pytest.raises(ValueError, match="finite"):
        rest_decomposition(model, image, 1, "gradcam")


@pytest.mark.parametrize("arch", ["cnn-smooth", "mlp-smooth"])
@pytest.mark.parametrize("method", ["gradcam", "hirescam"])
def test_rest_decomposition_identity(arch, method):
    model = build_model(arch, num_classes=3, seed=11)
    image = make_image(1011)
    c = int(np.argmax(model.forward(image)))
    direct, composed = rest_decomposition(model, image, c, method)
    assert direct.utility == "rest"
    assert np.max(np.abs(direct.pre_relu - composed.pre_relu)) <= THEOREM_TOL


@pytest.mark.parametrize("arch", ["cnn-relu", "cnn-smooth", "mlp-smooth"])
@pytest.mark.parametrize("num_classes", [2, 3, 5])
@pytest.mark.parametrize("method", ["gradcam", "hirescam"])
def test_ensembles_equal_the_per_class_formula_bit_for_bit(arch, num_classes, method):
    # the oracle runs one explain and one utility per class and adds the
    # correction p_k (E_c - E_k) in class order
    model = build_model(arch, num_classes=num_classes, seed=21)
    image = make_image(2021)
    logits = model.forward(image)
    per_class = [explain(model, image, UtilitySpec(k, "pre-softmax"), method).pre_relu
                 for k in range(num_classes)]
    probs = [compute_utility(logits, UtilitySpec(k, "post-softmax"))
             for k in range(num_classes)]
    for c in range(num_classes):
        correction = np.zeros_like(per_class[c])
        composed_pre = per_class[c].copy()
        for k in range(num_classes):
            if k != c:
                correction += probs[k] * (per_class[c] - per_class[k])
                composed_pre += probs[k] * (per_class[c] - per_class[k])
        _, ensemble = theorem3_ensemble(model, image, UtilitySpec(c, "post-softmax"), method)
        _, composed = rest_decomposition(model, image, c, method)
        assert np.array_equal(ensemble.pre_relu, probs[c] * correction)
        assert np.array_equal(composed.pre_relu, composed_pre)
        assert (ensemble.method, ensemble.target_class, ensemble.utility) == (
            method, c, "post-softmax")
        assert (composed.method, composed.target_class, composed.utility) == (method, c, "rest")


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("num_classes", [2, 3, 5])
def test_heatmap_sets_equal_the_single_method_functions_bit_for_bit(arch, num_classes):
    # one call for every method and utility shares logits, weights and
    # back-maps; each of its heatmaps must be the one-method call's
    model = build_model(arch, num_classes=num_classes, seed=31)
    images = np.stack([make_image(3031), make_image(3032)])
    stacks = model._tap_stack(images)
    methods = [CamMethod(name, seed=6) if name == "randomcam" else CamMethod(name)
               for name in CAM_METHODS]
    ensemble_methods = ("cam-gap", "gradcam", "hirescam")
    for c in range(num_classes):
        sets = _heatmap_sets(model, stacks, c, methods, UTILITY_KINDS)
        for method in methods:
            direct, composed = sets[method.name]
            assert composed is None
            for i, kind in enumerate(UTILITY_KINDS):
                single = explain_batch(model, stacks, UtilitySpec(c, kind), method)
                for row, hm in zip(direct[:, i], single):
                    assert row.tobytes() == hm.pre_relu.tobytes()
        sets = _heatmap_sets(model, stacks[:1], c, ensemble_methods,
                             ("post-softmax", "rest"), ensembles=True)
        for name in ensemble_methods:
            direct, composed = sets[name]
            pairs = [theorem3_ensemble(model, images[0], UtilitySpec(c, "post-softmax"), name),
                     rest_decomposition(model, images[0], c, name)]
            for i, pair in enumerate(pairs):
                assert direct[0, i].tobytes() == pair[0].pre_relu.tobytes()
                assert composed[0, i].tobytes() == pair[1].pre_relu.tobytes()


def scaled_probe_model():
    model = build_model("cnn-smooth", num_classes=2, seed=110)
    model.weights["fc_w"] *= 50.0
    model.weights["fc_b"] *= 50.0
    return model, make_image(0)


def test_saturated_softmax_starves_post_softmax_but_not_rest():
    # with the winning probability at 1 - 6e-13, post-softmax gradients
    # vanish while the rest utility keeps a full-size heatmap
    model, image = scaled_probe_model()
    c = int(np.argmax(model.forward(image)))
    direct, ensemble = theorem3_ensemble(model, image, UtilitySpec(c, "post-softmax"), "gradcam")
    assert np.max(np.abs(direct.pre_relu)) < 1e-8
    assert np.max(np.abs(direct.pre_relu - ensemble.pre_relu)) <= THEOREM_TOL

    rest_direct, rest_composed = rest_decomposition(model, image, c, "gradcam")
    assert np.max(np.abs(rest_direct.pre_relu)) > 1e-3
    assert np.max(np.abs(rest_direct.pre_relu - rest_composed.pre_relu)) <= THEOREM_TOL


def test_rest_composition_approaches_class_heatmap_at_saturation():
    # as p_c -> 1 every correction term carries a vanishing p_k factor, so
    # the composed map collapses onto the class's pre-softmax heatmap
    model, image = scaled_probe_model()
    c = int(np.argmax(model.forward(image)))
    class_map = explain(model, image, UtilitySpec(c, "pre-softmax"), "gradcam").pre_relu
    _, composed = rest_decomposition(model, image, c, "gradcam")
    assert np.max(np.abs(composed.pre_relu - class_map)) <= 1e-8


# ------------------------------------------------ closed form vs taped oracle

def taped_weights(model, image, spec):
    """Gradient and second-order weights at the tap from the autodiff tape:
    the oracle the closed-form derivatives are held to."""
    from crgx.utility import utility_node

    run = model.forward_with_tap(image)
    with run.tape:
        u = utility_node(run.tape.outputs["logits"], spec)
    grad = ad.gradient(run.tape, u, "tap")
    hvp = ad.hvp(run.tape, u, "tap", run.activations.maps)
    return run.activations, grad, shapley_weights(grad, hvp)


def assert_rel_close(actual, expected, tol=1e-12):
    # relative to the largest entry; below the smallest normal float (a
    # saturated softmax leaves probabilities there) no computation keeps
    # relative precision, so that is the absolute floor
    scale = np.max(np.abs(expected))
    assert np.all(np.isfinite(actual))
    err = np.max(np.abs(actual - expected))
    assert err <= tol * scale + np.finfo(np.float64).tiny, (err, scale)


HEAD_WEIGHT = {"cnn-relu": "fc_w", "cnn-smooth": "fc_w", "mlp-smooth": "fc2_w"}


@pytest.mark.parametrize("saturate", [False, True], ids=["plain", "saturated"])
@pytest.mark.parametrize("num_classes", [2, 3, 5])
@pytest.mark.parametrize("kind", UTILITY_KINDS)
@pytest.mark.parametrize("arch", ["cnn-relu", "cnn-smooth", "mlp-smooth"])
def test_closed_form_matches_taped_oracle(arch, kind, num_classes, saturate):
    # every method at once through the shared core, and each alone through
    # `explain`, against the taped weights assembled per method
    model = build_model(arch, num_classes=num_classes, seed=num_classes)
    if saturate:
        # softmax saturates: probabilities are 0 or 1 up to underflow
        model.weights[HEAD_WEIGHT[arch]] *= 30000
    image = make_image(40 + num_classes)
    methods = [CamMethod(name, seed=3 if name == "randomcam" else None) for name in CAM_METHODS]
    for c in range(num_classes):
        spec = UtilitySpec(c, kind)
        activations, grad, second = taped_weights(model, image, spec)
        sets = _heatmap_sets(model, activations.maps[None], c, methods, (kind,))
        # cam-gap explains the pre-softmax logit whatever the utility
        gap_grad = taped_weights(model, image, UtilitySpec(c, "pre-softmax"))[1]
        for method in methods:
            weights = {"cam-gap": gap_grad, "randomcam": None}.get(
                method.name, second if method.order == "second" else grad)
            expected = assemble(weights, activations.maps, method)
            assert_rel_close(sets[method.name][0][0, 0], expected)
            assert_rel_close(explain(model, image, spec, method).pre_relu, expected)


# the tensors that make tap map i (rows of the first two) and read it
# (columns of the third); an MLP map is a block of 16 hidden units
TAP_PARAMS = {"cnn-relu": ("conv_w", "conv_b", "fc_w"),
              "cnn-smooth": ("conv_w", "conv_b", "fc_w"),
              "mlp-smooth": ("fc1_w", "fc1_b", "fc2_w")}


def drawn_model_and_images(draw, arch):
    num_classes = draw(st.integers(2, 5))
    model = build_model(arch, num_classes, draw(st.integers(0, 1000)),
                        in_shape=(3, draw(st.integers(4, 8)), draw(st.integers(4, 8))))
    rng = np.random.default_rng(draw(st.integers(0, 1000)))
    images = rng.uniform(0.0, 1.0, (3,) + model.in_shape)
    return model, images, draw(st.integers(0, num_classes - 1))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
@pytest.mark.parametrize("arch", ["cnn-relu", "cnn-smooth", "mlp-smooth"])
def test_permuting_the_tap_maps_leaves_every_heatmap_unchanged(arch, data):
    # every scheme sums over maps, so relabelling them consistently through
    # the weights that make and read them moves nothing but rounding
    from crgx.cam import explain_batch

    model, images, c = drawn_model_and_images(data.draw, arch)
    make_w, make_b, read_w = TAP_PARAMS[arch]
    perm = np.array(data.draw(st.permutations(range(4))))
    block = len(model.weights[make_b]) // 4
    rows = (perm[:, None] * block + np.arange(block)).ravel()
    weights = dict(model.weights)
    weights.update({make_w: weights[make_w][rows], make_b: weights[make_b][rows],
                    read_w: weights[read_w][:, rows]})
    permuted = replace(model, weights=weights)
    stacks, permuted_stacks = model._tap_stack(images), permuted._tap_stack(images)
    assert_rel_close(permuted_stacks, stacks[:, perm])
    for kind in UTILITY_KINDS:
        spec = UtilitySpec(c, kind)
        for name in CAM_METHODS:
            if name == "randomcam":      # its coefficients follow map order
                continue
            for a, b in zip(explain_batch(permuted, permuted_stacks, spec, name),
                            explain_batch(model, stacks, spec, name)):
                assert_rel_close(a.pre_relu, b.pre_relu)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data(), st.floats(0.01, 100.0))
@pytest.mark.parametrize("arch", ["cnn-relu", "cnn-smooth", "mlp-smooth"])
def test_scaling_the_head_scales_every_pre_softmax_heatmap(arch, data, t):
    # logits scale by t, and so does every weight of the pre-softmax
    # utility; gradcam++'s alpha is not homogeneous in the weights
    from crgx.cam import explain_batch

    model, images, c = drawn_model_and_images(data.draw, arch)
    head_w = HEAD_WEIGHT[arch]
    head_b = head_w.replace("_w", "_b")
    scaled = replace(model, weights=dict(model.weights, **{
        head_w: t * model.weights[head_w], head_b: t * model.weights[head_b]}))
    stacks = model._tap_stack(images)
    spec = UtilitySpec(c, "pre-softmax")
    for name in CAM_METHODS:
        if name in ("randomcam", "gradcampp"):
            continue
        for a, b in zip(explain_batch(scaled, stacks, spec, name),
                        explain_batch(model, stacks, spec, name)):
            assert_rel_close(a.pre_relu, t * b.pre_relu)


@pytest.mark.parametrize("num_classes", [2, 3, 5])
def test_gradcam_equals_shapleycam_bitwise_on_relu_cnn(num_classes):
    # H_y is exactly zero for pre-softmax, so the curvature term vanishes
    # exactly and the second-order weights are the gradient bit for bit
    from crgx.cam import explain_batch

    model = build_model("cnn-relu", num_classes=num_classes, seed=num_classes + 20)
    images = np.stack([make_image(s) for s in range(4)])
    stacks = model._tap_stack(images)
    for c in range(num_classes):
        spec = UtilitySpec(c, "pre-softmax")
        for first, second in (("gradcam", "shapleycam"), ("hirescam", "shapleycam-h"),
                              ("gradcam-e", "shapleycam-e")):
            a = explain_batch(model, stacks, spec, first)
            b = explain_batch(model, stacks, spec, second)
            for ha, hb in zip(a, b):
                assert ha.pre_relu.tobytes() == hb.pre_relu.tobytes()


@pytest.mark.parametrize("arch", ["cnn-relu", "cnn-smooth", "mlp-smooth"])
def test_explain_batch_rows_match_single_explain(arch):
    from crgx.cam import CAM_METHODS, explain_batch

    model = build_model(arch, num_classes=3, seed=8)
    images = np.stack([make_image(s) for s in range(3)])
    stacks = model._tap_stack(images)
    spec = UtilitySpec(1, "rest")
    for name in CAM_METHODS:
        method = CamMethod(name, seed=4 if name == "randomcam" else None)
        batch = explain_batch(model, stacks, spec, method)
        assert len(batch) == 3
        for image, hm in zip(images, batch):
            single = explain(model, image, spec, method)
            assert hm.method == single.method and hm.utility == single.utility
            assert hm.target_class == single.target_class and hm.spatial == single.spatial
            assert hm.pre_relu.tobytes() == single.pre_relu.tobytes()
