"""Black–Scholes — the paper's motivating example (Fig. 1).

European call/put pricing over N independent options: five arrays (spot,
strike, maturity, call, put), embarrassingly parallel, arithmetic-heavy
(~85 FLOP per option), chunked so the runtime can distribute it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpu.kernel import (
    AccessPattern,
    ArrayAccess,
    Direction,
    KernelSpec,
)
from repro.numerics import erf
from repro.workloads.base import Workload, real_elements

RISK_FREE = 0.05
VOLATILITY = 0.30

#: FLOP per option priced (matches the kernel-C analyser on the same code).
FLOPS_PER_OPTION = 85.0


def _norm_cdf_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Phi(x), Phi(-x))`` from one ``erf`` call: ``erf`` is exactly
    odd, so ``0.5 * (1 - erf(x / sqrt 2))`` is ``Phi(-x)`` bit for bit."""
    e = erf(x / math.sqrt(2.0))
    return 0.5 * (1.0 + e), 0.5 * (1.0 - e)


def black_scholes_reference(spot: np.ndarray, strike: np.ndarray,
                            tmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form call/put prices (the verification oracle)."""
    sqrt_t = np.sqrt(tmat)
    d1 = (np.log(spot / strike)
          + (RISK_FREE + 0.5 * VOLATILITY ** 2) * tmat) \
        / (VOLATILITY * sqrt_t)
    d2 = d1 - VOLATILITY * sqrt_t
    disc = np.exp(-RISK_FREE * tmat)
    cdf_d1, cdf_neg_d1 = _norm_cdf_pair(d1)
    cdf_d2, cdf_neg_d2 = _norm_cdf_pair(d2)
    call = spot * cdf_d1 - strike * disc * cdf_d2
    put = strike * disc * cdf_neg_d2 - spot * cdf_neg_d1
    return call, put


def make_bs_kernel() -> KernelSpec:
    """The pricing kernel: 5 streaming arrays, ~4.2 FLOP/byte."""

    def executor(spot, strike, tmat, call, put, n):
        c, p = black_scholes_reference(
            spot.data.astype(np.float64),
            strike.data.astype(np.float64),
            tmat.data.astype(np.float64))
        call.data[:] = c.astype(call.dtype)
        put.data[:] = p.astype(put.dtype)

    def access_fn(args):
        spot, strike, tmat, call, put, n = args
        seq = AccessPattern.SEQUENTIAL
        return [
            ArrayAccess(spot, Direction.IN, seq),
            ArrayAccess(strike, Direction.IN, seq),
            ArrayAccess(tmat, Direction.IN, seq),
            ArrayAccess(call, Direction.OUT, seq),
            ArrayAccess(put, Direction.OUT, seq),
        ]

    def flops_fn(args):
        n = args[-1]
        return FLOPS_PER_OPTION * float(n)

    return KernelSpec("black_scholes", executor=executor,
                      access_fn=access_fn, flops_fn=flops_fn)


class BlackScholes(Workload):
    """Chunked Black–Scholes pricing with a given modeled footprint."""

    name = "bs"

    #: bytes of modeled data per option (5 float32 arrays).
    BYTES_PER_OPTION = 5 * 4

    def __init__(self, footprint_bytes: int, *, n_chunks: int | None = None,
                 seed: int = 0):
        super().__init__(footprint_bytes, n_chunks=n_chunks, seed=seed)
        self.options = max(
            self.n_chunks,
            int(0.98 * self.footprint_bytes) // self.BYTES_PER_OPTION)
        self.kernel = make_bs_kernel()
        self.chunks: list[dict] = []

    def build(self, rt) -> None:
        """Allocate and initialise the option-book chunks."""
        per_chunk_virtual = self.options // self.n_chunks
        array_virtual_bytes = per_chunk_virtual * 4
        n_real = real_elements(per_chunk_virtual)
        for c in range(self.n_chunks):
            chunk = {
                name: rt.device_array(
                    n_real, np.float32,
                    virtual_nbytes=array_virtual_bytes,
                    name=f"bs.{name}{c}")
                for name in ("spot", "strike", "tmat", "call", "put")
            }
            self.chunks.append(chunk)
            rng = np.random.default_rng(self.seed + c)
            spot = rng.uniform(10.0, 200.0, n_real).astype(np.float32)
            strike = rng.uniform(10.0, 200.0, n_real).astype(np.float32)
            tmat = rng.uniform(0.1, 2.0, n_real).astype(np.float32)

            def init(chunk=chunk, s=spot, k=strike, t=tmat):
                chunk["spot"].data[:] = s
                chunk["strike"].data[:] = k
                chunk["tmat"].data[:] = t

            self._count(rt.host_write(
                [chunk["spot"], chunk["strike"], chunk["tmat"]], init,
                label=f"bs.init{c}"))

    def run(self, rt) -> None:
        """Launch one pricing kernel per chunk."""
        for c, chunk in enumerate(self.chunks):
            n_virtual = self.options // self.n_chunks
            args = (chunk["spot"], chunk["strike"], chunk["tmat"],
                    chunk["call"], chunk["put"], n_virtual)
            self._count(rt.launch(self.kernel, 4096, 256, args,
                                  label=f"bs{c}"))

    def verify(self) -> bool:
        """Check prices against the closed-form oracle."""
        for chunk in self.chunks:
            call, put = black_scholes_reference(
                chunk["spot"].data.astype(np.float64),
                chunk["strike"].data.astype(np.float64),
                chunk["tmat"].data.astype(np.float64))
            if not np.allclose(chunk["call"].data, call, rtol=1e-4,
                               atol=1e-4):
                return False
            if not np.allclose(chunk["put"].data, put, rtol=1e-4,
                               atol=1e-4):
                return False
        return True
