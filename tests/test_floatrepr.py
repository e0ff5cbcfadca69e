"""The sidecar's float formatter against Python's own float text."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import crgx
from crgx import _floatrepr
from crgx.cli import _report_text


def python_texts(values):
    """What `json.dumps(values.tolist())` writes for each element: repr for
    finite values."""
    return [repr(v) if math.isfinite(v) else json.dumps(v) for v in values.tolist()]


def assert_matches_python(values):
    values = np.asarray(values, dtype=np.float64)
    assert _floatrepr.float_texts(values) == python_texts(values)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True)))
@example([])
@example([5e-324, -2.225073858507201e-308, 1.5e-310, 0.0, -0.0])
@example([float("nan"), float("inf"), -float("inf"), 1.0])
def test_report_text_of_an_array_is_json_dumps_of_its_list(floats):
    arr = np.array(floats, dtype=np.float64)
    assert _report_text({"v": arr}) == json.dumps({"v": arr.tolist()}, indent=2,
                                                   sort_keys=True) + "\n"


@pytest.mark.parametrize("size", [0, 1, 3844])
def test_report_text_of_a_sidecar_is_json_dumps_of_its_list(size):
    # the array sits between other keys, beside strings that look like the
    # placeholder json writes in its place
    values = np.random.default_rng(size).normal(0.0, 1.0, size)
    values[:6] = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300][:size]
    sidecar = {"image": "\\u0000pre_relu\\u0000", "method": "pre_relu", "alpha": 0.35,
               "pre_relu": values, "spatial": [62, 62], "tap": "[]",
               "outputs": {"heatmap": "\\u0000", "overlay": "a.ppm"}}
    listed = dict(sidecar, pre_relu=values.tolist())
    assert _report_text(sidecar) == json.dumps(listed, indent=2, sort_keys=True) + "\n"


def test_random_bit_patterns_match_repr():
    bits = np.random.default_rng(20181).integers(0, 2 ** 64, 200_000, dtype=np.uint64,
                                                 endpoint=False)
    values = bits.view(np.float64)
    assert_matches_python(values)
    # the fast path carries almost all of them: only a few exponents fall back
    assert np.mean(_floatrepr._shortest(values)[0]) > 0.95


def _layout_boundaries():
    """Values at and next to every point where repr's layout changes: the
    fixed/exponent switch at 1e-4 and 1e16, the digit count of the integer
    part, two and three exponent digits, and the ends of the float range."""
    anchors = [1e-4, 1e-5, 1e15, 1e16, 1e17, 1e-99, 1e-100, 1e99, 1e100, 1.0, 10.0,
               0.001, 0.5, 2.0 ** 53, 2.0 ** 54, 1e22, 1e23, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308]
    anchors += [10.0 ** k for k in range(-20, 21)]
    out = []
    for a in anchors:
        out += [math.nextafter(a, 0.0), a, math.nextafter(a, math.inf)]
    return out


def test_named_edge_cases_match_repr():
    named = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             1e-4, 1e-5, 9.999999999999999e-5, 1e15, 1e16, 9999999999999998.0,
             0.1, 0.2, 0.3, 0.1 + 0.2, 2.0 ** 53 - 1, 2.0 ** 53]
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    integers = np.concatenate([np.arange(0.0, 100_000.0),
                               np.unique(np.geomspace(1.0, 2.0 ** 53, 5000).round())])
    for values in (named, powers, integers, _layout_boundaries()):
        values = np.asarray(values, dtype=np.float64)
        assert_matches_python(values)
        assert_matches_python(-values)


def test_integral_values_below_1e16_fall_back():
    # the fast path writes no ".0": every value repr ends in ".0" must fall back
    rng = np.random.default_rng(11)
    integral = np.concatenate([np.arange(-50_000.0, 50_000.0),
                               rng.integers(-10 ** 16 + 1, 10 ** 16, 50_000).astype(np.float64)])
    assert not _floatrepr._shortest(integral)[0].any()


def test_strided_and_scaled_arrays_match_repr():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(40_000) * 10.0 ** rng.integers(-30, 30, 40_000)
    assert_matches_python(values)
    assert_matches_python(values[::3])
    assert_matches_python(rng.random(40_000))
    assert_matches_python(np.round(rng.random(40_000), 3))


def test_real_sidecar_takes_only_the_fast_path():
    pixels = np.random.default_rng(3).uniform(0.0, 1.0, (3, 64, 64))
    model = crgx.build_model("cnn-smooth", num_classes=3, seed=0, in_shape=pixels.shape)
    pre_relu = crgx.explain(model, pixels, crgx.UtilitySpec(0, "rest"), "shapleycam").pre_relu
    assert pre_relu.shape == (3844,)
    assert int(np.sum(~_floatrepr._shortest(pre_relu)[0])) == 0
    assert_matches_python(pre_relu)


def test_ryu_table_is_read_only_and_in_range():
    table = _floatrepr._ryu_table()
    assert table is _floatrepr._ryu_table() and not table.flags.writeable
    right, left, mask = table[4:7]
    fast = mask != 0
    # every fast exponent shifts its 128-bit window by 1 to 63 bits
    assert np.all((right[fast] > 0) & (right[fast] < 64) & (left[fast] == 64 - right[fast]))
    # 32-bit limbs of a multiplier below 2^125 on every fast exponent
    assert np.all(table[:4] < 2 ** 32) and np.all(table[3][fast] < 2 ** 29)


def test_cold_import_leaves_the_formatter_unbuilt():
    src = str(Path(crgx.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        "import crgx\n"
        "assert 'crgx._floatrepr' not in sys.modules\n"
        "import crgx.cli, numpy\n"
        "from crgx import _floatrepr as f\n"
        "assert f._ryu_table.cache_info().currsize == 0\n"
        "assert f.float_texts(numpy.array([1.5, 2e-7])) == ['1.5', '2e-07']\n"
        "assert f._ryu_table.cache_info().currsize == 1\n")
    result = subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": src},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
