"""The five rules for the arguments of the API, each held by one table of
declared cases: arrays (`_rules._checked_array`; the public API's and the
autodiff engine's tape inputs and `hvp` direction), fractions
(`_rules._checked_unit`), integers (`_rules._checked_int`), names
(`_rules._checked_name`) and the labels of result records
(`_rules._checked_label`). The rules have one home, `crgx._rules`, which
the engine imports and which imports nothing from the package."""

import ast
import functools
import inspect
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import crgx
from crgx import autodiff as ad
from crgx import metrics, suites, zoo

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


def _hvp_direction(v):
    """`hvp` along `v` on a fresh tape; a refused direction builds no node."""
    _, tape = ad.forward(lambda x: ad.sum(ad.tanh(x)), {"x": _MAP})
    try:
        return ad.hvp(tape, "out", "x", v)
    except ValueError:
        assert [node.op for node in tape.nodes] == ["input", "tanh", "sum"] and tape.grads == {}
        raise


# every rank a row tries, for an argument the rule takes at any rank
_ANY_RANK = tuple(range(7))

# argument -> (name as its messages give it, a valid value, the ranks it
# accepts or None for the model's input shape, call on a value). Declared
# pass-throughs: `hvp_full=None` means no curvature term, and a malformed
# image of `evaluate_batch` is skipped with its reason, which `_skipped`
# raises. The engine's two rows take any rank; an `hvp` direction's shape
# is then checked against its input's.
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
    "autodiff.forward.inputs": ("input 'x'", _MAP, _ANY_RANK,
                                lambda v: ad.forward(lambda x: ad.sum(x), {"x": v})),
    "autodiff.hvp.v": ("hvp direction v", _MAP, _ANY_RANK, _hvp_direction),
}

# the calls no malformed value of an argument reaches, each with its result
PASS_THROUGHS = {("shapley_weights.hvp_full", "none"): lambda out: np.array_equal(out, _MAP)}

MALFORMED = ("none", "str", "dict", "ragged", "object", "bool", "complex", "rank", "empty",
             "nan", "inf", "-inf")


def _ranks_text(ranks) -> str:
    return " or ".join(f"{k}-D" for k in ranks)


def _malformed(kind, good, ranks):
    """The declared malformed values of `kind` for an argument whose valid
    value is `good` and whose accepted ranks are `ranks` (None: the model's
    input shape, of rank 3), each as (case, value, the message that refuses
    it with `{name}` to fill in)."""
    unconvertible = "{name} must be an array of real numbers, got "
    fixed = {"none": (None, "dtype object"), "str": ("0.5", "dtype <U3"),
             "dict": ({"a": 0.5}, "dtype object"),
             "ragged": ([[0.5, 0.5], [0.5]], "a list numpy cannot convert"),
             "object": (good.astype(object), "dtype object"), "bool": (good > 0.5, "dtype bool"),
             "complex": (good + 1j, "dtype complex128")}
    if kind in fixed:
        value, got = fixed[kind]
        return [(kind, value, unconvertible + got)]
    accepted = ranks or (3,)
    if kind == "rank":
        cases = []
        for rank in (k for k in range(7) if k not in accepted):
            value = np.full((2,) * rank, 0.5)
            message = (f"image shape {value.shape} does not match model input (3, 6, 6)"
                       if ranks is None else
                       f"{{name}} must be {_ranks_text(ranks)}, got shape {value.shape}")
            cases.append((f"rank {rank}", value, message))
        return cases
    if kind == "empty":
        empties = [np.zeros((0,) + (2,) * (rank - 1)) for rank in accepted if rank]
        empties += [[]] if 1 in accepted else []
        return [(f"empty {type(value).__name__} of shape {np.shape(value)}", value,
                 "{name} must hold at least one value, got an empty array") for value in empties]
    cases = []
    for where, index in (("every", slice(None)), ("first", 0), ("middle", good.size // 2),
                         ("last", -1)):
        value = good.astype(np.float64)
        value.flat[index] = float(kind)
        cases.append((f"{kind} at {where} position", value,
                      "{name}: non-finite values are not allowed"))
    return cases


@pytest.mark.parametrize("kind", MALFORMED)
@pytest.mark.parametrize("argument", sorted(ARRAY_ARGUMENTS))
def test_array_arguments_follow_one_rule(argument, kind):
    name, good, ranks, call = ARRAY_ARGUMENTS[argument]
    call(good)
    check = PASS_THROUGHS.get((argument, kind))
    for case, value, message in _malformed(kind, good, ranks):
        if check is not None:
            assert check(call(value)), case
            continue
        # ValueError and nothing else: no TypeError, no NaN returned
        with pytest.raises(Exception) as caught:
            call(value)
        assert caught.type is ValueError, (case, caught.value)
        assert str(caught.value) == message.format(name=name), case


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
                           explanation_map=metrics.explanation_map, autodiff=ad)


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
        # the engine annotates no array: a tape's inputs come in a dict
        arrays = (inspect.signature(target).parameters if path.startswith("autodiff.")
                  else _array_parameters(target))
        assert parameter in arrays, f"{path} takes no array {parameter}"


_RULES = {"_checked_int", "_checked_array", "_checked_unit", "_check_class", "_checked_grid",
          "_checked_name", "_checked_label"}


def _package_imports(tree) -> set:
    """The crgx modules a parsed module imports from."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "crgx":
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names if alias.name.split(".")[0] == "crgx"}
    return names


def test_the_rules_have_one_home_below_the_engine():
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(crgx.__file__).parent.glob("*.py")}
    for name, tree in trees.items():
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert defined & _RULES == (_RULES if name == "_rules.py" else set()), name
    assert _package_imports(trees["_rules.py"]) == set()
    assert _package_imports(trees["autodiff.py"]) == {"_rules"}


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


_TABLE = crgx.CooperativeGame.from_table(np.random.default_rng(8).normal(size=8))


def _model_bits(model):
    return (model.arch, type(model.arch), model.num_classes, model.seed, model.in_shape,
            [w.tobytes() for w in model.weights.values()])


def _grid_bits(hm):
    return hm.spatial, [type(v) for v in hm.spatial], hm.grid("pre").tobytes()


def _stack_grid(stack):
    return stack.spatial, [type(v) for v in stack.spatial]


def _report(suite, **args):
    return json.dumps(suite(**args), sort_keys=True)


def _small_heatmap(**fields):
    return crgx.Heatmap(pre_relu=np.arange(4.0), spatial=(2, 2), **{"method": "gradcam", **fields})


# (parameter as its message names it, floor, a valid value, call on a value)
INTEGER_ARGUMENTS = {
    "CamMethod.seed": ("randomcam seed", 0, 3, lambda v: crgx.explain(
        _MODEL, _IMAGE, crgx.UtilitySpec(1), crgx.CamMethod("randomcam", seed=v)
    ).pre_relu.tobytes()),
    "CooperativeGame.d": ("d", 1, 3, lambda v: crgx.shapley_exact(crgx.CooperativeGame(
        v, lambda masks: masks @ np.arange(1.0, 4.0))).values.tobytes()),
    "shapley_mc.samples": ("samples", 1, 5,
                           lambda v: crgx.shapley_mc(_TABLE, v, seed=5).stderr.tobytes()),
    "shapley_mc.seed": ("seed", 0, 5,
                        lambda v: crgx.shapley_mc(_TABLE, 5, seed=v).values.tobytes()),
    "upsample_bilinear.out_h": ("out_h", 1, 3,
                                lambda v: crgx.upsample_bilinear(np.eye(2), v, 4).tobytes()),
    "upsample_bilinear.out_w": ("out_w", 1, 3,
                                lambda v: crgx.upsample_bilinear(np.eye(2), 4, v).tobytes()),
    "UtilitySpec.target_class": ("target_class", 0, 1, lambda v: crgx.explain(
        _MODEL, _IMAGE, crgx.UtilitySpec(v, "rest"), "shapleycam").pre_relu.tobytes()),
    "rest_decomposition.target_class": ("target_class", 0, 1, lambda v: tuple(
        hm.pre_relu.tobytes() for hm in crgx.rest_decomposition(_MODEL, _IMAGE, v, "gradcam"))),
    "Heatmap.spatial[0]": ("spatial[0]", 1, 4, lambda v: _grid_bits(crgx.Heatmap(
        pre_relu=np.arange(16.0), spatial=(v, 4), method="gradcam"))),
    "Heatmap.spatial[1]": ("spatial[1]", 1, 4, lambda v: _grid_bits(crgx.Heatmap(
        pre_relu=np.arange(16.0), spatial=(4, v), method="gradcam"))),
    "ActivationStack.spatial[0]": ("spatial[0]", 1, 4, lambda v: _stack_grid(
        zoo.ActivationStack(maps=np.ones((2, 16)), spatial=(v, 4)))),
    "ActivationStack.spatial[1]": ("spatial[1]", 1, 4, lambda v: _stack_grid(
        zoo.ActivationStack(maps=np.ones((2, 16)), spatial=(4, v)))),
    "build_model.num_classes": ("num_classes", 2, 3,
                                lambda v: _model_bits(crgx.build_model("mlp-smooth", v, 0))),
    "build_model.seed": ("seed", 0, 3,
                         lambda v: _model_bits(crgx.build_model("mlp-smooth", 3, v))),
    "build_model.in_shape": ("in_shape[1]", 1, 6, lambda v: _model_bits(
        crgx.build_model("cnn-smooth", 3, 0, in_shape=(3, v, 6)))),
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
    "Heatmap.target_class": ("target_class", 0, 1,
                             lambda v: repr(_small_heatmap(target_class=v).target_class)),
}

# the integer arguments that take None for "not given", with what None gives
INTEGER_NONE = {"Heatmap.target_class": "None"}


@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_follow_one_rule(argument):
    name, floor, good, call = INTEGER_ARGUMENTS[argument]
    # a None seed would draw fresh OS entropy, a count below its floor would
    # let a suite pass on no case, and an integral numpy float is a float
    for bad in (True, False, 2.5, np.float64(good), "3", None, floor - 1):
        if bad is None and argument in INTEGER_NONE:
            assert call(None) == INTEGER_NONE[argument]
            continue
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
        assert str(caught.value) == message, (bad, caught.value)
    want = call(good)
    for as_numpy in (np.int64, np.int32, np.uint8, np.uint16, np.uint32):
        assert call(as_numpy(good)) == want, as_numpy


def _heat_bits(*heatmaps):
    return [(hm.method, type(hm.method), hm.utility, type(hm.utility), hm.pre_relu.tobytes())
            for hm in heatmaps]


_HEATMAP = crgx.Heatmap(pre_relu=np.linspace(-1.0, 1.0, 16), spatial=(4, 4), method="gradcam")
_RELU_WEIGHTS = crgx.build_model("cnn-relu", 3, 0).weights

# argument -> (what its message calls it, a valid name, the names it takes,
# call on a value)
NAME_ARGUMENTS = {
    "CamMethod.name": ("CAM method", "shapleycam", crgx.CAM_METHODS, lambda v: _heat_bits(
        crgx.explain(_MODEL, _IMAGE, _SPEC, crgx.CamMethod(v)))),
    "UtilitySpec.kind": ("utility kind", "post-softmax", crgx.UTILITY_KINDS, lambda v: _heat_bits(
        crgx.explain(_MODEL, _IMAGE, crgx.UtilitySpec(1, v), "shapleycam"))),
    "ToyModel.arch": ("architecture", "cnn-relu", crgx.ARCHS, lambda v: _model_bits(
        crgx.ToyModel(arch=v, num_classes=3, seed=0, in_shape=(3, 6, 6), weights=_RELU_WEIGHTS))),
    "build_model.arch": ("architecture", "mlp-smooth", crgx.ARCHS, lambda v: (
        _model_bits(crgx.build_model(v, 3, 0)), json.dumps(crgx.evaluate_batch(
            crgx.build_model(v, 3, 0), [_IMAGE], _SPEC, "gradcam").to_report()))),
    "Heatmap.grid.view": ("grid view", "pre", ("post", "pre"),
                          lambda v: _HEATMAP.grid(v).tobytes()),
    "explain.method": ("CAM method", "hirescam", crgx.CAM_METHODS,
                       lambda v: _heat_bits(crgx.explain(_MODEL, _IMAGE, _SPEC, v))),
    "evaluate_batch.method": ("CAM method", "gradcam", crgx.CAM_METHODS, lambda v: json.dumps(
        crgx.evaluate_batch(_MODEL, [_IMAGE], _SPEC, v).to_report())),
    "theorem3_ensemble.method": ("CAM method", "gradcam", crgx.CAM_METHODS, lambda v: _heat_bits(
        *crgx.theorem3_ensemble(_MODEL, _IMAGE, crgx.UtilitySpec(1, "post-softmax"), v))),
    "rest_decomposition.method": ("CAM method", "hirescam", crgx.CAM_METHODS, lambda v: _heat_bits(
        *crgx.rest_decomposition(_MODEL, _IMAGE, 1, v))),
}


@pytest.mark.parametrize("argument", sorted(NAME_ARGUMENTS))
def test_name_arguments_follow_one_rule(argument):
    what, good, choices, call = NAME_ARGUMENTS[argument]
    # an unknown name, a wrong case, an empty or a bytes name, what is no
    # str at all, and arrays, which must neither compare nor hash their way in
    for bad in ("resnet", good.upper(), "", good.encode(), 42, None, [good], np.array([good]),
                np.array([good, good])):
        # ValueError and nothing else: no TypeError from hashing an array
        with pytest.raises(Exception) as caught:
            call(bad)
        assert caught.type is ValueError, (bad, caught.value)
        assert str(caught.value) == f"unknown {what} {bad!r}; expected one of {choices}", bad
    assert call(np.str_(good)) == call(good)


def _small_record(**labels):
    return crgx.MetricRecord(**{"method": "gradcam", "utility": "rest", "arch": "cnn-smooth",
                                "skipped": (), "image_ad": (0.5,), "image_coherency": (0.5,),
                                "image_complexity": (0.5,), "image_ic": (0.0,),
                                "image_add": (0.5,), **labels})


# name parameters that label a record rather than pick a variant: (name as
# its message gives it, whether None means "not given", call on a value
# giving the stored label)
LABEL_ARGUMENTS = {
    "Heatmap.method": ("method", False, lambda v: _small_heatmap(method=v).method),
    "Heatmap.utility": ("utility", True, lambda v: _small_heatmap(utility=v).utility),
    "MetricRecord.method": ("method", False, lambda v: _small_record(method=v).method),
    "MetricRecord.utility": ("utility", False, lambda v: _small_record(utility=v).utility),
    "MetricRecord.arch": ("arch", False, lambda v: _small_record(arch=v).arch),
}


@pytest.mark.parametrize("argument", sorted(LABEL_ARGUMENTS))
def test_label_arguments_follow_one_rule(argument):
    what, optional, call = LABEL_ARGUMENTS[argument]
    # what is no str: a number, bytes, a list, arrays of one and of two
    # names, and None where the label is not optional
    for bad in (42, b"x", ["x"], np.array(["x"]), np.array(["x", "x"]), None):
        if bad is None and optional:
            assert call(None) is None
            continue
        with pytest.raises(Exception) as caught:
            call(bad)
        assert caught.type is ValueError, (bad, caught.value)
        assert str(caught.value) == f"{what} must be a str, got {bad!r}", bad
    for good in ("gradcam", np.str_("gradcam"), "a label nothing looks up"):
        stored = call(good)
        assert stored == good and type(stored) is str, good


def test_a_custom_sources_label_is_checked_before_any_image(monkeypatch):
    def tapped(*args):
        raise AssertionError("an image was tapped")

    def source(model, x, spec):
        return _HEATMAP

    monkeypatch.setattr(zoo.ToyModel, "_tap_stack", tapped)
    source.cam_name = 42
    with pytest.raises(ValueError) as caught:
        crgx.evaluate_batch(_MODEL, [_IMAGE], _SPEC, source)
    assert str(caught.value) == "method must be a str, got 42"
    monkeypatch.undo()
    # the label is `cam_name`, then `__name__`, then "custom"
    source.cam_name = np.str_("mine")
    assert type(crgx.evaluate_batch(_MODEL, [_IMAGE], _SPEC, source).method) is str
    del source.cam_name
    assert crgx.evaluate_batch(_MODEL, [_IMAGE], _SPEC, source).method == "source"
    nameless = functools.partial(source)
    assert crgx.evaluate_batch(_MODEL, [_IMAGE], _SPEC, nameless).method == "custom"


# a result record whose label is not checked, with why
NAME_LABELS = {"ShapleyVector.method": "a record of shapley_exact and shapley_mc, which set "
                                       "its label themselves; axiom_suite reads only its values"}


def _name_parameters() -> set:
    """Each parameter of a callable of `crgx.__all__`, or of a public method
    of an exported class, that takes a name: annotated str, or a method."""
    found = set()
    for name in crgx.__all__:
        target = getattr(crgx, name)
        if not callable(target):
            continue
        members = [(name, target)]
        if inspect.isclass(target):
            members += [(f"{name}.{attr}", f) for attr, f in vars(target).items()
                        if not attr.startswith("_") and inspect.isfunction(f)]
        for path, member in members:
            found |= {f"{path}.{p.name}" for p in inspect.signature(member).parameters.values()
                      if p.name == "method" or p.annotation in ("str", "Optional[str]")}
    return found


def test_every_export_with_a_name_argument_has_a_row():
    assert _name_parameters() == set(NAME_ARGUMENTS) | set(LABEL_ARGUMENTS) | set(NAME_LABELS)
