"""IMG — an image-enhancement pipeline (GrCUDA suite style).

Not one of the paper's three evaluation workloads, but the kind of
multi-stage vision pipeline the GrCUDA suite ships (blur → edges →
unsharp-mask → combine) and a demonstration that the suite is open:
five kernels per chunk with a diamond dependency structure, verified
against a NumPy reference that shares the kernels' stencils.

Per image-batch chunk::

        x ──────────────┬──────────────┐
        │               │              │
    blur_h → blur_v ────┤              │
        (separable)     ▼              ▼
                      sobel         sharpen(x, blur)
                        │              │
                        └── combine ◄──┘
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import (
    AccessPattern,
    ArrayAccess,
    Direction,
    KernelSpec,
)
from repro.numerics import convolve1d_nearest, sobel_nearest
from repro.workloads.base import FOOTPRINT_FILL, Workload

#: Real backing: a small square image batch per chunk.
REAL_SIDE = 48
BATCH = 2

#: 1-D Gaussian tap weights (sigma ~1, 5 taps) for the separable blur.
GAUSS = np.array([0.06136, 0.24477, 0.38774, 0.24477, 0.06136],
                 dtype=np.float64)

SHARPEN_AMOUNT = 0.6
EDGE_WEIGHT = 0.35


def _blur_axis(data: np.ndarray, axis: int) -> np.ndarray:
    return convolve1d_nearest(data, GAUSS, axis)


def _sobel_mag(data: np.ndarray) -> np.ndarray:
    gx = sobel_nearest(data, -1)
    gy = sobel_nearest(data, -2)
    return np.sqrt(gx * gx + gy * gy)


def reference_pipeline(x: np.ndarray) -> np.ndarray:
    """The NumPy oracle of one chunk's full pipeline."""
    blur = _blur_axis(_blur_axis(x, -1), -2)
    sobel = _sobel_mag(blur)
    sharpen = np.clip(x + SHARPEN_AMOUNT * (x - blur), 0.0, 1.0)
    return np.clip(sharpen * (1.0 - EDGE_WEIGHT * sobel), 0.0, 1.0)


class ImagePipeline(Workload):
    """Chunked unsharp-masking pipeline over an image corpus."""

    name = "img"

    def __init__(self, footprint_bytes: int, *, n_chunks: int | None = None,
                 seed: int = 0):
        super().__init__(footprint_bytes, n_chunks=n_chunks, seed=seed)
        # Footprint = corpus + intermediates (blur, sobel, sharpen, out
        # are materialised per chunk -> 5 equal-size planes).
        plane = int(FOOTPRINT_FILL * self.footprint_bytes) // 5
        self._plane_bytes = max(4096, plane // self.n_chunks)
        self.chunks: list[dict] = []

    # -- kernels -----------------------------------------------------------

    def _conv_kernel(self, name: str, axis: int) -> KernelSpec:
        def executor(src, dst):
            dst.data[:] = _blur_axis(src.data, axis)

        def access_fn(args):
            src, dst = args
            return [ArrayAccess(src, Direction.IN, AccessPattern.STRIDED,
                                passes=float(len(GAUSS))),
                    ArrayAccess(dst, Direction.OUT,
                                AccessPattern.SEQUENTIAL)]

        def flops_fn(args):
            return 2.0 * len(GAUSS) * (self._plane_bytes / 4)

        return KernelSpec(name, executor=executor, access_fn=access_fn,
                          flops_fn=flops_fn)

    def _sobel_kernel(self) -> KernelSpec:
        def executor(src, dst):
            dst.data[:] = _sobel_mag(src.data)

        def access_fn(args):
            src, dst = args
            return [ArrayAccess(src, Direction.IN, AccessPattern.STRIDED,
                                passes=6.0),
                    ArrayAccess(dst, Direction.OUT,
                                AccessPattern.SEQUENTIAL)]

        def flops_fn(args):
            return 20.0 * (self._plane_bytes / 4)

        return KernelSpec("img_sobel", executor=executor,
                          access_fn=access_fn, flops_fn=flops_fn)

    def _sharpen_kernel(self) -> KernelSpec:
        def executor(x, blur, dst):
            dst.data[:] = np.clip(
                x.data + SHARPEN_AMOUNT * (x.data - blur.data), 0.0, 1.0)

        def access_fn(args):
            x, blur, dst = args
            seq = AccessPattern.SEQUENTIAL
            return [ArrayAccess(x, Direction.IN, seq),
                    ArrayAccess(blur, Direction.IN, seq),
                    ArrayAccess(dst, Direction.OUT, seq)]

        def flops_fn(args):
            return 4.0 * (self._plane_bytes / 4)

        return KernelSpec("img_sharpen", executor=executor,
                          access_fn=access_fn, flops_fn=flops_fn)

    def _combine_kernel(self) -> KernelSpec:
        def executor(sharpen, sobel, dst):
            dst.data[:] = np.clip(
                sharpen.data * (1.0 - EDGE_WEIGHT * sobel.data), 0.0, 1.0)

        def access_fn(args):
            sharpen, sobel, dst = args
            seq = AccessPattern.SEQUENTIAL
            return [ArrayAccess(sharpen, Direction.IN, seq),
                    ArrayAccess(sobel, Direction.IN, seq),
                    ArrayAccess(dst, Direction.OUT, seq)]

        def flops_fn(args):
            return 3.0 * (self._plane_bytes / 4)

        return KernelSpec("img_combine", executor=executor,
                          access_fn=access_fn, flops_fn=flops_fn)

    # -- workload protocol ---------------------------------------------------

    def tuned_vector(self, n_workers: int) -> list[int]:
        """One chunk's whole 5-kernel diamond per node."""
        return [5]

    def build(self, rt) -> None:
        """Allocate the corpus chunks and their four stage planes."""
        shape = (BATCH, REAL_SIDE, REAL_SIDE)
        for c in range(self.n_chunks):
            chunk = {
                name: rt.device_array(
                    shape, np.float64, virtual_nbytes=self._plane_bytes,
                    name=f"img.{name}{c}")
                for name in ("x", "blur", "sobel", "sharpen", "out")
            }
            self.chunks.append(chunk)
            pixels = np.random.default_rng(self.seed + c) \
                .random(shape)

            def init(chunk=chunk, values=pixels):
                chunk["x"].data[:] = values

            self._count(rt.host_write(chunk["x"], init,
                                      label=f"img.init{c}"))

    def run(self, rt) -> None:
        """Launch the five-stage diamond for every chunk."""
        blur_h = self._conv_kernel("img_blur_h", -1)
        blur_v = self._conv_kernel("img_blur_v", -2)
        sobel = self._sobel_kernel()
        sharpen = self._sharpen_kernel()
        combine = self._combine_kernel()
        for c, chunk in enumerate(self.chunks):
            # Horizontal pass writes into `blur`, vertical refines it.
            self._count(rt.launch(blur_h, 256, 256,
                                  (chunk["x"], chunk["blur"]),
                                  label=f"img.blur_h{c}"))
            self._count(rt.launch(blur_v, 256, 256,
                                  (chunk["blur"], chunk["blur"]),
                                  label=f"img.blur_v{c}"))
            self._count(rt.launch(sobel, 256, 256,
                                  (chunk["blur"], chunk["sobel"]),
                                  label=f"img.sobel{c}"))
            self._count(rt.launch(sharpen, 256, 256,
                                  (chunk["x"], chunk["blur"],
                                   chunk["sharpen"]),
                                  label=f"img.sharpen{c}"))
            self._count(rt.launch(combine, 256, 256,
                                  (chunk["sharpen"], chunk["sobel"],
                                   chunk["out"]),
                                  label=f"img.combine{c}"))

    def verify(self) -> bool:
        """Compare every chunk against the reference pipeline."""
        for chunk in self.chunks:
            expected = reference_pipeline(chunk["x"].data)
            if not np.allclose(chunk["out"].data, expected,
                               rtol=1e-10, atol=1e-10):
                return False
        return True
