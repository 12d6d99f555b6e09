"""Monte-Carlo option pricing — a from-scratch CUDA C workload.

Shows the depth of the runtime kernel front-end: ``__device__`` helper
functions (an in-kernel LCG random generator and a Box–Muller transform),
per-thread ``for`` loops, ``atomicAdd`` reductions — compiled from source
at runtime, distributed by GrOUT, and validated against the Black–Scholes
closed form.

Run:  python examples/montecarlo_pricing.py
"""

import math

from repro import GroutRuntime
from repro.numerics import erf
from repro.polyglot import GrOUT, polyglot

KERNEL = """
__device__ int lcg_next(int state) {
    return (state * 1103515245 + 12345) & 2147483647;
}

__device__ float lcg_uniform(int state) {
    return (state + 1.0) / 2147483648.0;
}

__global__ void mc_price(float* acc, float s0, float k, float r,
                         float vol, float t, int paths, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        int state = lcg_next(i * 7919 + 17);
        float drift = (r - 0.5 * vol * vol) * t;
        float diffusion = vol * sqrt(t);
        float total = 0.0;
        for (int p = 0; p < paths; p += 1) {
            state = lcg_next(state);
            float u1 = lcg_uniform(state);
            state = lcg_next(state);
            float u2 = lcg_uniform(state);
            float z = sqrt(0.0 - 2.0 * log(u1))
                      * cos(6.283185307179586 * u2);
            float st = s0 * exp(drift + diffusion * z);
            float payoff = st > k ? st - k : 0.0;
            total += payoff;
        }
        atomicAdd(&acc[0], total);
    }
}
"""

S0, STRIKE, RATE, VOL, MATURITY = 100.0, 105.0, 0.05, 0.25, 1.0
THREADS, PATHS_PER_THREAD = 4096, 64


def closed_form() -> float:
    """Black–Scholes reference price of the same call."""
    sqrt_t = math.sqrt(MATURITY)
    d1 = (math.log(S0 / STRIKE)
          + (RATE + 0.5 * VOL ** 2) * MATURITY) / (VOL * sqrt_t)
    d2 = d1 - VOL * sqrt_t
    cdf = lambda x: 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    return (S0 * cdf(d1)
            - STRIKE * math.exp(-RATE * MATURITY) * cdf(d2))


def main() -> None:
    runtime = GroutRuntime(n_workers=2)
    polyglot.bind(GrOUT, runtime)

    build = polyglot.eval(GrOUT, "buildkernel")
    mc_price = build(KERNEL)
    acc = polyglot.eval(GrOUT, "double[1]")

    mc_price(THREADS // 256, 256)(
        acc, S0, STRIKE, RATE, VOL, MATURITY, PATHS_PER_THREAD, THREADS)

    n_paths = THREADS * PATHS_PER_THREAD
    price = math.exp(-RATE * MATURITY) * acc[0] / n_paths
    reference = closed_form()
    error = abs(price - reference) / reference
    print(f"paths simulated   : {n_paths:,}")
    print(f"Monte-Carlo price : {price:8.4f}")
    print(f"closed-form price : {reference:8.4f}")
    print(f"relative error    : {error:8.2%}")
    print(f"simulated time    : {runtime.elapsed * 1e3:.2f} ms on 2 nodes")
    assert error < 0.05, "Monte-Carlo estimate drifted off the reference"


if __name__ == "__main__":
    main()
