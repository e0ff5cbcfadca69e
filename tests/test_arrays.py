"""The one rule for the array arguments of the public API
(`utility._checked_array`), held by one table, and the one rule for its
fractions (`utility._checked_unit`)."""

import inspect
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crgx
from crgx import metrics, zoo

_MODEL = crgx.build_model("cnn-smooth", num_classes=3, seed=2)
_IMAGE = np.random.default_rng(4).uniform(0.0, 1.0, _MODEL.in_shape)
_SPEC = crgx.UtilitySpec(1, "rest")
_GAME = crgx.CooperativeGame.from_table(np.arange(8.0))
_MAP = np.array([[0.25, 0.5], [0.75, 1.0]])
_PLANES = np.full((3, 2, 2), 0.5)


def _skipped(record):
    """`record` of a two-image `evaluate_batch`, or the reason its second
    image was skipped, raised."""
    if record.skipped:
        assert record.n_images == 1 and [i for i, _ in record.skipped] == [1]
        raise ValueError(record.skipped[0][1])
    return record


# argument -> (name as its messages give it, a valid value, the ranks it
# accepts or None for the model's input shape, call on a value). Declared
# pass-throughs: `hvp_full=None` means no curvature term, and a malformed
# image of `evaluate_batch` is skipped with its reason, which `_skipped`
# raises.
ARRAY_ARGUMENTS = {
    "Heatmap.pre_relu": ("pre_relu", np.linspace(-1.0, 1.0, 16), (1,), lambda v: crgx.Heatmap(
        pre_relu=v, spatial=(4, 4), method="gradcam")),
    "shapley_weights.grad": ("grad", _MAP, (1, 2), lambda v: crgx.shapley_weights(v)),
    "shapley_weights.hvp_full": ("hvp_full", _MAP, (1, 2),
                                 lambda v: crgx.shapley_weights(_MAP, v)),
    "ActivationStack.maps": ("maps", np.ones((2, 16)), (2,),
                             lambda v: zoo.ActivationStack(maps=v, spatial=(4, 4))),
    "ToyModel.forward.image": ("image", _IMAGE, None, _MODEL.forward),
    "ToyModel.forward_with_tap.image": ("image", _IMAGE, None, _MODEL.forward_with_tap),
    "explain.image": ("image", _IMAGE, None,
                      lambda v: crgx.explain(_MODEL, v, _SPEC, "shapleycam")),
    "make_spatial_game.image": ("image", _IMAGE, None,
                                lambda v: crgx.make_spatial_game(_MODEL, v, _SPEC)),
    "theorem3_ensemble.image": ("image", _IMAGE, None, lambda v: crgx.theorem3_ensemble(
        _MODEL, v, crgx.UtilitySpec(1, "post-softmax"), "gradcam")),
    "rest_decomposition.image": ("image", _IMAGE, None,
                                 lambda v: crgx.rest_decomposition(_MODEL, v, 1, "gradcam")),
    "evaluate_batch.images": ("image", _IMAGE, None, lambda v: _skipped(
        crgx.evaluate_batch(_MODEL, [_IMAGE, v], _SPEC, "gradcam"))),
    "Image.pixels": ("pixels", np.full((1, 2, 2), 0.5), (3,), crgx.Image),
    "normalize_minmax.h": ("h", _MAP, (1, 2), crgx.normalize_minmax),
    "upsample_bilinear.src": ("src", _MAP, (2, 3), lambda v: crgx.upsample_bilinear(v, 3, 3)),
    "apply_colormap.h": ("h", _MAP, (2,), crgx.apply_colormap),
    "overlay.pixels": ("pixels", _PLANES, (3,), lambda v: crgx.overlay(v, _MAP)),
    "overlay.h": ("h", _MAP, (2,), lambda v: crgx.overlay(_PLANES, v)),
    "explanation_map.pixels": ("pixels", _PLANES, (3, 4, 5),
                               lambda v: metrics.explanation_map(v, _MAP)),
    "explanation_map.h": ("h", _MAP, (2, 3, 4), lambda v: metrics.explanation_map(_PLANES, v)),
    "coherency.h_orig": ("h_orig", _MAP, (1, 2), lambda v: crgx.coherency(v, _MAP)),
    "coherency.h_expl": ("h_expl", _MAP, (1, 2), lambda v: crgx.coherency(_MAP, v)),
    "complexity.h": ("h", _MAP, (1, 2), crgx.complexity),
    "compute_utility.logits": ("logits", np.array([0.5, -1.0, 2.0]), (1,),
                               lambda v: crgx.compute_utility(v, _SPEC)),
    "CooperativeGame.from_table.table": ("table", np.arange(8.0), (1,),
                                         crgx.CooperativeGame.from_table),
    "axiom_suite.values": ("values", np.array([1.0, 2.0, 4.0]), (1,),
                           lambda v: crgx.axiom_suite(_GAME, v)),
}

# the calls no malformed value of an argument reaches, each with its result
PASS_THROUGHS = {("shapley_weights.hvp_full", "none"): lambda out: np.array_equal(out, _MAP)}

MALFORMED = ("none", "str", "dict", "ragged", "object", "bool", "complex", "rank", "empty",
             "nan", "inf", "-inf")


def _ranks_text(ranks) -> str:
    return " or ".join(f"{k}-D" for k in ranks)


@st.composite
def _malformed(draw, kind, good, ranks):
    """A malformed value of `kind` for an argument whose valid value is
    `good`, and the message that refuses it with `{name}` to fill in."""
    unconvertible = "{name} must be an array of real numbers, got "
    fixed = {"none": (None, "dtype object"), "str": ("0.5", "dtype <U3"),
             "dict": ({"a": 0.5}, "dtype object"),
             "ragged": ([[0.5, 0.5], [0.5]], "a list numpy cannot convert"),
             "object": (good.astype(object), "dtype object"), "bool": (good > 0.5, "dtype bool"),
             "complex": (good + 1j, "dtype complex128")}
    if kind in fixed:
        value, got = fixed[kind]
        return value, unconvertible + got
    if kind == "rank":
        rank = draw(st.sampled_from([k for k in range(7) if k not in (ranks or (3,))]))
        value = np.full(draw(st.lists(st.integers(1, 2), min_size=rank, max_size=rank)), 0.5)
        if ranks is None:
            return value, f"image shape {value.shape} does not match model input (3, 6, 6)"
        return value, f"{{name}} must be {_ranks_text(ranks)}, got shape {value.shape}"
    if kind == "empty":
        rank = draw(st.sampled_from(ranks or (3,)))
        shape = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank)
                     .filter(lambda dims: 0 in dims))
        value = [] if shape == [0] and draw(st.booleans()) else np.zeros(shape)
        return value, "{name} must hold at least one value, got an empty array"
    value = good.astype(np.float64)
    # None marks every position; otherwise a drawn set of them
    where = draw(st.none() | st.sets(st.integers(0, value.size - 1), min_size=1))
    value.flat[list(range(value.size)) if where is None else sorted(where)] = float(kind)
    return value, "{name}: non-finite values are not allowed"


@pytest.mark.parametrize("kind", MALFORMED)
@pytest.mark.parametrize("argument", sorted(ARRAY_ARGUMENTS))
@settings(max_examples=6)
@given(data=st.data())
def test_array_arguments_follow_one_rule(argument, kind, data):
    name, good, ranks, call = ARRAY_ARGUMENTS[argument]
    call(good)
    value, message = data.draw(_malformed(kind, good, ranks))
    check = PASS_THROUGHS.get((argument, kind))
    if check is not None:
        assert check(call(value))
        return
    # ValueError and nothing else: no TypeError, no NaN returned
    with pytest.raises(Exception) as caught:
        call(value)
    assert caught.type is ValueError, caught.value
    assert str(caught.value) == message.format(name=name)


def test_evaluate_batch_refuses_what_is_not_a_sequence_of_images():
    for images, message in ((None, "images must be a sequence of images, got NoneType"),
                            ([], "images must hold at least one image")):
        with pytest.raises(ValueError) as caught:
            crgx.evaluate_batch(_MODEL, images, _SPEC, "gradcam")
        assert str(caught.value) == message


# callables in crgx.__all__ that take no array argument, and the records
# that the rule does not cover, with why
NO_ARRAY_ARGUMENTS = {"CamMethod", "MetricRecord", "UtilitySpec", "adcc", "build_model",
                      "hvp_suite", "read_image", "shapley_exact", "shapley_mc", "shapley_suite",
                      "theorem_suite", "write_image"}
EXEMPT = {"ShapleyVector": "a result record of shapley_exact and shapley_mc; axiom_suite "
                          "checks the values it reads"}
_TARGETS = SimpleNamespace(**{name: getattr(crgx, name) for name in crgx.__all__},
                           ActivationStack=zoo.ActivationStack,
                           explanation_map=metrics.explanation_map)


def _array_parameters(target) -> set:
    """The parameters of `target` annotated as arrays: np.ndarray anywhere
    but inside a callable's or a dict's type."""
    return {p.name for p in inspect.signature(target).parameters.values()
            if "ndarray" in str(p.annotation)
            and not re.match(r"(Callable|dict)\[", str(p.annotation))}


def test_every_export_with_an_array_argument_has_a_row():
    rows = {}
    for argument in ARRAY_ARGUMENTS:
        path, _, parameter = argument.rpartition(".")
        rows.setdefault(path.split(".")[0], set()).add((path, parameter))
    for name in crgx.__all__:
        if not callable(getattr(crgx, name)) or name in EXEMPT:
            continue
        assert (name in rows) != (name in NO_ARRAY_ARGUMENTS), (
            f"{name}: give each array argument a row, or list it as taking none")
        for parameter in _array_parameters(getattr(crgx, name)):
            assert (name, parameter) in rows.get(name, ()), f"{name}.{parameter} has no row"
    for path, parameter in set().union(*rows.values()):
        target = _TARGETS
        for part in path.split("."):
            target = getattr(target, part)
        assert parameter in _array_parameters(target), f"{path} takes no array {parameter}"


# (name as its messages give it, call on a value)
UNIT_ARGUMENTS = {
    "overlay.alpha": ("alpha", lambda v: crgx.overlay(_PLANES, _MAP, alpha=v)),
    "adcc.ad": ("ad", lambda v: crgx.adcc(v, 0.5, 0.5)),
    "adcc.coh": ("coh", lambda v: crgx.adcc(0.5, v, 0.5)),
    "adcc.com": ("com", lambda v: crgx.adcc(0.5, 0.5, v)),
}


@pytest.mark.parametrize("argument", sorted(UNIT_ARGUMENTS))
def test_fraction_arguments_follow_one_rule(argument):
    name, call = UNIT_ARGUMENTS[argument]
    for bad in ("x", None, True, False, [0.5], np.array(0.5)):
        with pytest.raises(Exception) as caught:
            call(bad)
        assert caught.type is ValueError, (bad, caught.value)
        assert str(caught.value) == f"{name} must be a real number, got {bad!r}"
    for bad in (-0.25, 1.5, float("nan"), np.float32(-1.0)):
        with pytest.raises(Exception) as caught:
            call(bad)
        assert caught.type is ValueError, (bad, caught.value)
        assert str(caught.value) == f"{name} must lie in [0,1], got {bad}"
    for good, same in ((np.float64(0.25), 0.25), (np.int64(1), 1.0), (0, 0.0)):
        assert np.array_equal(call(good), call(same)), good
