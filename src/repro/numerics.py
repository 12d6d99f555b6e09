"""NumPy-only special functions and stencils for the workload kernels.

Black–Scholes, the image pipeline and the kernel-C math table need the
error function and two edge-mode (``"nearest"``) stencils, each on
arrays of a few thousand elements.  This module provides them on NumPy's
core alone, so that neither a served request nor a kernel-C program
loads a scientific library, and each kernel shares its function with
its verification oracle.

``erf`` is a table of piecewise polynomials, fitted once at import from
:func:`math.erf`: 384 pieces of degree 5 tile ``0 <= |x| < 6``, each a
Chebyshev interpolant of ``erf(x) / x`` rewritten in powers of the
piece's local coordinate.  Fitting ``erf(x) / x`` keeps the relative
error small as ``x -> 0``.  Every element is evaluated at once: its
piece's coefficients are gathered with ``take`` and one Horner pass
runs over the whole array.  Against ``math.erf`` on ``[-10, 10]`` the
absolute error stays under 2e-15.

The stencils follow the semantics of SciPy's ``ndimage`` with
``mode="nearest"``: an edge sample repeats past the border.
:func:`convolve1d_nearest` flips its weights, as ``convolve1d`` does, and
:func:`sobel_nearest` differentiates along one axis and smooths with
``[1, 2, 1]`` along every other axis.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erf", "convolve1d_nearest", "sobel_nearest"]

#: ``|x|`` from which ``erf(x)`` rounds to ``+-1.0`` in float64 (true
#: from about 5.93).
_ERF_LIMIT = 6.0
#: Polynomial pieces tiling ``[0, _ERF_LIMIT)``; 384 makes each piece
#: 1/64 wide, so locating an element's piece is exact.
_ERF_PIECES = 384
#: Degree of each piece's polynomial (5 is as fast as SciPy's erf on
#: 4,096 elements; degree 9 over 48 pieces took 1.6x as long).
_ERF_DEGREE = 5


def _fit_erf() -> np.ndarray:
    """Power coefficients of every piece, one row per power, plus one
    last column that reads 1 for every ``|x| >= _ERF_LIMIT``.

    Elementwise NumPy and :mod:`math` only: a first matrix product and
    ``np.cos`` here added about 0.7 MiB of resident BLAS and SIMD code
    to every process that imports the workloads, and BLAS may round
    differently from host to host.
    """
    n = _ERF_DEGREE + 1
    theta = [(k + 0.5) * math.pi / n for k in range(n)]
    # Chebyshev interpolation: the values at a piece's n Chebyshev nodes,
    # times this cosine basis, give its T_0..T_(n-1) coefficients.
    basis = np.array([[(2.0 if j else 1.0) / n * math.cos(j * t)
                       for j in range(n)] for t in theta])
    # T_j(2s - 1) in powers of s, the coordinate that runs 0..1 across
    # a piece: T_j = 2 (2s - 1) T_(j-1) - T_(j-2).
    powers = np.zeros((n, n))
    powers[0, 0] = 1.0
    powers[1, :2] = (-1.0, 2.0)
    for j in range(2, n):
        powers[j, 1:] = 4.0 * powers[j - 1, :-1]
        powers[j] -= 2.0 * powers[j - 1] + powers[j - 2]
    width = _ERF_LIMIT / _ERF_PIECES
    nodes = [(piece + 0.5 + 0.5 * math.cos(t)) * width
             for piece in range(_ERF_PIECES) for t in theta]
    ratio = np.array([math.erf(v) / v for v in nodes]).reshape(-1, n)
    # Chebyshev coefficients first, then powers: the small high-order
    # coefficients keep their relative precision through the change of
    # basis.
    cheb = sum(ratio[:, k, None] * basis[k] for k in range(n))
    table = np.zeros((n, _ERF_PIECES + 1))
    table[:, :_ERF_PIECES] = sum(cheb[:, j, None] * powers[j]
                                 for j in range(n)).T
    # |x| >= _ERF_LIMIT lands here: |x| * 1 >= 1 is then clipped to 1.
    table[0, _ERF_PIECES] = 1.0
    return table


_ERF_TABLE = _fit_erf()


def erf(x):
    """The error function, elementwise, for real ``x``.

    Exactly odd, with ``erf(+-0) = +-0``, ``erf(+-inf) = +-1`` and
    ``erf(nan) = nan``.  Like SciPy's ufunc, float32 (or narrower) input
    gives float32 and other real input float64; a scalar gives a scalar.
    """
    x = np.asarray(x)
    dtype = np.result_type(x.dtype, np.float32)
    flat = x.astype(np.float64, copy=False).ravel()
    a = np.abs(flat)
    # fmin maps NaN to the saturated piece, whose product with NaN
    # stays NaN.
    s = np.fmin(a, _ERF_LIMIT)
    s *= _ERF_PIECES / _ERF_LIMIT
    piece = s.astype(np.intp)
    s -= piece
    coef = _ERF_TABLE.take(piece, axis=1)
    y = coef[_ERF_DEGREE]
    for power in range(_ERF_DEGREE - 1, -1, -1):
        y *= s
        y += coef[power]
    y *= a
    np.minimum(y, 1.0, out=y)
    np.copysign(y, flat, out=y)
    return y.reshape(x.shape).astype(dtype, copy=False)[()]


def _correlate_nearest(data: np.ndarray, weights, axis: int,
                       centre: int) -> np.ndarray:
    """``out[i] = sum_j weights[j] * data[i + j - centre]`` along
    ``axis``, indices clamped to the array (edge mode)."""
    data = np.asarray(data)
    axis %= data.ndim
    size = data.shape[axis]
    taps = len(weights)
    index = np.arange(-centre, size + taps - 1 - centre)
    np.clip(index, 0, size - 1, out=index)
    padded = data.take(index, axis=axis)
    window = [slice(None)] * data.ndim
    out = None
    for j, weight in enumerate(weights):
        window[axis] = slice(j, j + size)
        term = padded[tuple(window)] * float(weight)
        if out is None:
            out = term
        else:
            out += term
    return out


def convolve1d_nearest(data: np.ndarray, weights, axis: int = -1
                       ) -> np.ndarray:
    """1-D convolution along ``axis``, edges repeated: what SciPy's
    ``ndimage.convolve1d(data, weights, axis, mode="nearest")`` computes,
    to rounding."""
    return _correlate_nearest(data, weights[::-1], axis,
                              (len(weights) - 1) // 2)


def sobel_nearest(data: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sobel derivative along ``axis``, edges repeated: what SciPy's
    ``ndimage.sobel(data, axis, mode="nearest")`` computes, to rounding:
    ``[-1, 0, 1]`` along ``axis``, then ``[1, 2, 1]`` along every other
    axis."""
    data = np.asarray(data)
    axis %= data.ndim
    out = _correlate_nearest(data, (-1.0, 0.0, 1.0), axis, 1)
    for other in range(data.ndim):
        if other != axis:
            out = _correlate_nearest(out, (1.0, 2.0, 1.0), other, 1)
    return out
