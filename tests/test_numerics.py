"""NumPy-only numerics: ``erf`` and the edge-mode stencils.

``erf`` is held to ``math.erf`` on a dense grid and to its exact special
values; both stencils are held to pure-Python loop references written
from their definitions, and, where SciPy is installed, to
``scipy.ndimage``.  The Black–Scholes oracle's two-``erf`` formula is
held bit for bit to the four-call formula it replaced.
"""

from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.numerics import convolve1d_nearest, erf, sobel_nearest
from repro.workloads.blackscholes import (RISK_FREE, VOLATILITY,
                                          black_scholes_reference)
from repro.workloads.images import GAUSS

EPS = np.finfo(np.float64).eps
#: Absolute bound on erf against math.erf, and on each stencil against
#: SciPy's.
ABS_TOL = 4e-15
#: Relative bound on erf for 0 < |x| < 1.
REL_TOL = 1e-14
#: The loop references sum in another order; each output sums at most
#: five products of magnitude <= 16 (a Sobel on [0, 1) data in 3-D).
LOOP_TOL = 5 * 16 * EPS

GRID = np.linspace(-10.0, 10.0, 200_001)


def _math_erf(xs: np.ndarray) -> np.ndarray:
    return np.array([math.erf(v) for v in xs.tolist()])


class TestErf:
    def test_absolute_error_on_a_dense_grid(self):
        err = np.abs(erf(GRID) - _math_erf(GRID))
        assert err.max() <= ABS_TOL, GRID[err.argmax()]

    def test_relative_error_under_one(self):
        tiny = np.logspace(-300, 0, 2001)[:-1]
        xs = np.concatenate([tiny, -tiny, GRID[np.abs(GRID) < 1.0]])
        xs = xs[xs != 0.0]
        want = _math_erf(xs)
        rel = np.abs(erf(xs) - want) / np.abs(want)
        assert rel.max() <= REL_TOL, xs[rel.argmax()]

    def test_special_values_are_exact(self):
        got = erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert got[0] == 0.0 and not np.signbit(got[0])
        assert got[1] == 0.0 and np.signbit(got[1])
        assert got[2] == 1.0 and got[3] == -1.0
        assert np.isnan(got[4])

    def test_saturates_to_one_past_the_table(self):
        xs = np.array([5.95, 6.0, 6.5, 1e3, 1e300, np.finfo(float).max])
        assert (erf(xs) == 1.0).all() and (erf(-xs) == -1.0).all()

    def test_bitwise_odd(self):
        assert np.array_equal(erf(-GRID).view(np.int64),
                              (-erf(GRID)).view(np.int64))

    def test_dtype_and_shape_follow_the_input(self):
        x32 = np.linspace(-3, 3, 12, dtype=np.float32).reshape(3, 4)
        got = erf(x32)
        assert got.dtype == np.float32 and got.shape == (3, 4)
        assert np.allclose(got, _math_erf(x32.ravel().astype(float))
                           .reshape(3, 4), rtol=0, atol=1e-7)
        assert erf(np.arange(3)).dtype == np.float64
        strided = GRID[:-1].reshape(1000, -1)[::7, ::3]
        assert np.array_equal(erf(strided), erf(strided.copy()))

    def test_a_scalar_gives_a_scalar(self):
        got = erf(0.5)
        assert isinstance(got, np.float64)
        assert abs(got - math.erf(0.5)) <= ABS_TOL
        assert isinstance(erf(np.float32(0.5)), np.float32)

    def test_loading_and_fitting_pull_in_nothing_beyond_numpy(self):
        """The module alone, loaded after NumPy and exercised, adds no
        NumPy or third-party module (``numpy.polynomial`` or
        ``numpy.linalg`` would)."""
        path = pathlib.Path(__file__).resolve().parents[1] / "src" / \
            "repro" / "numerics.py"
        code = f"""
import importlib.util, json, sys
import numpy as np
before = set(sys.modules)
spec = importlib.util.spec_from_file_location("numerics", {str(path)!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.erf(np.linspace(-7, 7, 99))
module.convolve1d_nearest(np.ones((3, 4)), [1.0, 2.0, 1.0], 0)
module.sobel_nearest(np.ones((3, 4)), 1)
print(json.dumps(sorted(m for m in set(sys.modules) - before
                        if m.partition(".")[0] not in sys.stdlib_module_names)))
"""
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": ""})
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"


# -- loop references -----------------------------------------------------------

def _clamp(i: int, size: int) -> int:
    return min(max(i, 0), size - 1)


def _loop_convolve(data: np.ndarray, weights, axis: int) -> np.ndarray:
    """``out[i] = sum_k w[k] * data[i + n // 2 - k]``, edges clamped."""
    n, size = len(weights), data.shape[axis]
    out = np.zeros(data.shape)
    for index in np.ndindex(*data.shape):
        total = 0.0
        for k, weight in enumerate(weights):
            source = list(index)
            source[axis] = _clamp(index[axis] + n // 2 - k, size)
            total += weight * data[tuple(source)]
        out[index] = total
    return out


def _loop_sobel(data: np.ndarray, axis: int) -> np.ndarray:
    """``x[i + 1] - x[i - 1]`` along ``axis``, then ``[1, 2, 1]``
    along each other axis, edges clamped."""
    axis %= data.ndim

    def shifted(a, ax, index, by):
        source = list(index)
        source[ax] = _clamp(index[ax] + by, a.shape[ax])
        return a[tuple(source)]

    out = np.zeros(data.shape)
    for index in np.ndindex(*data.shape):
        out[index] = (shifted(data, axis, index, 1)
                      - shifted(data, axis, index, -1))
    for other in range(data.ndim):
        if other == axis:
            continue
        src, out = out, np.zeros(data.shape)
        for index in np.ndindex(*data.shape):
            out[index] = (shifted(src, other, index, -1)
                          + 2.0 * src[index]
                          + shifted(src, other, index, 1))
    return out


def _plane(seed: int, shape=(2, 7, 9)) -> np.ndarray:
    return np.random.default_rng(seed).random(shape)


WEIGHTS = {"gauss": GAUSS, "even2": [1.0, 2.0], "even4": [1.0, 2.0, 3.0, 4.0],
           "skewed": [0.3, -1.0, 2.5]}


class TestStencilsAgainstLoops:
    @pytest.mark.parametrize("axis", [0, 1, 2, -1, -2])
    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_convolve1d(self, name, axis):
        data = _plane(1)
        got = convolve1d_nearest(data, np.asarray(WEIGHTS[name]), axis)
        want = _loop_convolve(data, WEIGHTS[name], axis)
        assert got.shape == data.shape
        assert np.abs(got - want).max() <= LOOP_TOL

    @pytest.mark.parametrize("axis", [0, 1, 2, -1, -2])
    def test_sobel(self, axis):
        data = _plane(2)
        got = sobel_nearest(data, axis)
        assert got.shape == data.shape
        assert np.abs(got - _loop_sobel(data, axis)).max() <= LOOP_TOL

    def test_one_sample_wide_axis_repeats_its_edge(self):
        data = _plane(3, (1, 5))
        assert np.allclose(convolve1d_nearest(data, GAUSS, 0),
                           data * GAUSS.sum(), rtol=0, atol=LOOP_TOL)
        assert (sobel_nearest(data, 0) == 0.0).all()

    def test_float32_stays_float32(self):
        data = _plane(4).astype(np.float32)
        assert convolve1d_nearest(data, GAUSS, 1).dtype == np.float32
        assert sobel_nearest(data, 1).dtype == np.float32


class TestAgainstScipy:
    """Cross-checks where SciPy is installed; skipped where it is not."""

    @pytest.mark.parametrize("axis", [0, -1, -2])
    def test_stencils_match_ndimage(self, axis):
        ndimage = pytest.importorskip("scipy.ndimage")
        data = _plane(5, (2, 48, 48))
        for weights in WEIGHTS.values():
            want = ndimage.convolve1d(data, weights, axis=axis,
                                      mode="nearest")
            got = convolve1d_nearest(data, np.asarray(weights), axis)
            assert np.abs(got - want).max() <= ABS_TOL
        want = ndimage.sobel(data, axis=axis, mode="nearest")
        assert np.abs(sobel_nearest(data, axis) - want).max() <= ABS_TOL

    def test_erf_matches_special(self):
        special = pytest.importorskip("scipy.special")
        assert np.abs(erf(GRID) - special.erf(GRID)).max() <= ABS_TOL


def _four_call_prices(spot, strike, tmat):
    """The oracle as it read with one ``erf`` call per CDF term."""
    def norm_cdf(x):
        return 0.5 * (1.0 + erf(x / math.sqrt(2.0)))

    sqrt_t = np.sqrt(tmat)
    d1 = (np.log(spot / strike)
          + (RISK_FREE + 0.5 * VOLATILITY ** 2) * tmat) \
        / (VOLATILITY * sqrt_t)
    d2 = d1 - VOLATILITY * sqrt_t
    disc = np.exp(-RISK_FREE * tmat)
    call = spot * norm_cdf(d1) - strike * disc * norm_cdf(d2)
    put = strike * disc * norm_cdf(-d2) - spot * norm_cdf(-d1)
    return call, put


@pytest.mark.parametrize("seed", range(4))
def test_two_erf_black_scholes_equals_four_calls_bitwise(seed):
    rng = np.random.default_rng(seed)
    n = 4096
    spot = rng.uniform(1.0, 400.0, n)
    strike = rng.uniform(1.0, 400.0, n)
    tmat = rng.uniform(1e-3, 5.0, n)
    call, put = black_scholes_reference(spot, strike, tmat)
    want_call, want_put = _four_call_prices(spot, strike, tmat)
    assert np.array_equal(call.view(np.int64), want_call.view(np.int64))
    assert np.array_equal(put.view(np.int64), want_put.view(np.int64))
