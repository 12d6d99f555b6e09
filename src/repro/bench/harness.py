"""Shared experiment drivers for the figure-reproduction harness.

Every paper experiment boils down to: build a runtime (GrCUDA single node
or GrOUT over N workers), instantiate a suite workload at a modeled
footprint, execute with the paper's 2.5 h cap, and collect the simulated
time.  This module owns those mechanics plus the sizing conventions
(footprint sweep, adaptive UVM page granularity for cheap simulation).
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass

from repro.core.config import RuntimeConfig, page_size_for
from repro.core.policies import ExplorationLevel, Policy
from repro.core.runtime import HostRuntime
from repro.gpu.specs import GIB
from repro.sim import FaultPlan
from repro.workloads import make_workload

__all__ = [
    "ExperimentResult", "NODE_GPU_BYTES", "PAPER_SIZES_GB",
    "RUN_CAP_SECONDS", "page_size_for", "run_experiment", "run_grout",
    "run_single_node", "slowdown_series", "step_ratios",
]

#: The paper's footprint sweep: 4 GB → 160 GB (= 5× OSF on 2×16 GB × 1 node).
PAPER_SIZES_GB = (4, 8, 16, 32, 64, 96, 128, 160)

#: The paper's per-run wall cap: 2.5 hours.
RUN_CAP_SECONDS = 2.5 * 3600

#: Node memory of the paper's worker (2 × V100 16 GB).
NODE_GPU_BYTES = 32 * GIB


@dataclass(frozen=True, slots=True)
class ExperimentResult:
    """One (workload, footprint, configuration) measurement."""

    workload: str
    mode: str                 # "grcuda" or "grout"
    footprint_bytes: int
    n_workers: int
    policy: str
    elapsed_seconds: float
    completed: bool
    verified: bool
    oversubscription: float   # vs a single node's GPU memory

    @property
    def footprint_gb(self) -> float:
        """Modeled footprint in GiB."""
        return self.footprint_bytes / GIB


def run_single_node(workload: str, footprint_bytes: int, *,
                    config: RuntimeConfig | None = None,
                    cap: float | None = RUN_CAP_SECONDS,
                    page_size: int | None = None,
                    check: bool = True,
                    seed: int = 0,
                    repeats: int = 1,
                    uvm_backend: str | None = None,
                    **workload_kwargs) -> ExperimentResult:
    """One GrCUDA (single-node, 2×V100) run — the Fig. 1/6a baseline.

    ``config`` carries the runtime knobs (its ``seed`` becomes the base
    repetition seed); the individual keyword knobs are shorthand for a
    config, so setting one away from its default next to ``config``
    raises ``ValueError``.  ``repeats > 1`` follows the paper's protocol
    (§V-A: ten repetitions, arithmetic mean): each repetition gets a
    distinct seed, so stochastic model components (random page sets,
    random eviction) average out.
    """
    if config is None:
        config = RuntimeConfig(page_size=page_size, seed=seed,
                               uvm_backend=uvm_backend)
    else:
        _refuse_shorthand(run_single_node, page_size=page_size, seed=seed,
                          uvm_backend=uvm_backend)
    result, _ = run_experiment(workload, footprint_bytes,
                               config.merge(mode="grcuda"), cap=cap,
                               check=check, repeats=repeats,
                               **workload_kwargs)
    return result


def run_grout(workload: str, footprint_bytes: int, *,
              config: RuntimeConfig | None = None,
              n_workers: int = 2,
              policy: Policy | str = "vector-step",
              level: ExplorationLevel = ExplorationLevel.MEDIUM,
              cap: float | None = RUN_CAP_SECONDS,
              page_size: int | None = None,
              check: bool = True,
              seed: int = 0,
              repeats: int = 1,
              faults: FaultPlan | None = None,
              request_replacement: bool = False,
              chunk_bytes: int | None = None,
              collectives: bool = False,
              uvm_backend: str | None = None,
              **workload_kwargs) -> ExperimentResult:
    """One GrOUT run on ``n_workers`` paper nodes with a given policy.

    ``config`` carries every runtime knob at once (its ``seed`` becomes
    the base repetition seed); the individual keyword knobs are
    shorthand for a config, so setting one away from its default next
    to ``config`` raises ``ValueError``.  ``repeats`` averages over
    per-repetition seeds (paper protocol §V-A).  The armed
    :class:`FaultPlan` fires on every repetition before the workload
    executes; ``chunk_bytes`` pipelines fabric transfers at that granule
    and ``collectives`` turns broadcast-shaped replication into relay
    chains — both default off (the paper's serial sends).
    """
    knobs = dict(n_workers=n_workers, policy=policy, level=level,
                 page_size=page_size, seed=seed, uvm_backend=uvm_backend,
                 chunk_bytes=chunk_bytes, collectives=collectives,
                 faults=faults)
    if config is None:
        config = RuntimeConfig(replace_crashed=request_replacement,
                               **knobs)
    else:
        _refuse_shorthand(run_grout, request_replacement=request_replacement,
                          **knobs)
    result, _ = run_experiment(workload, footprint_bytes,
                               config.merge(mode="grout"), cap=cap,
                               check=check, repeats=repeats,
                               **workload_kwargs)
    return result


def _refuse_shorthand(driver, **knobs: object) -> None:
    """Refuse a shorthand knob set next to ``config=``, which carries
    every knob and would silently win."""
    defaults = inspect.signature(driver).parameters
    for name, value in knobs.items():
        if value != defaults[name].default:
            raise ValueError(
                f"{driver.__name__}: {name}={value!r} is ignored when "
                "config= is given; set it on the config instead")


def run_experiment(workload: str, footprint_bytes: int,
                   config: RuntimeConfig, *,
                   cap: float | None = RUN_CAP_SECONDS,
                   check: bool = True,
                   repeats: int = 1,
                   **workload_kwargs
                   ) -> tuple[ExperimentResult, HostRuntime]:
    """Run ``workload`` ``repeats`` times on runtimes built from ``config``.

    Returns the mean :class:`ExperimentResult` and the last
    repetition's runtime, shut down: its traces, metrics and run report
    stay readable.  Repetition ``i`` uses seed ``config.seed + i``.  On
    GrOUT one policy instance serves every repetition, reset between
    them, so a caller-provided stateful policy keeps working.
    """
    if config.mode == "grout":
        policy = config.build_policy(make_workload(
            workload, footprint_bytes, seed=config.seed, **workload_kwargs))
        config = config.merge(policy=policy)
        n_workers, policy_name = config.n_workers, policy.name
    else:
        policy, n_workers, policy_name = None, 1, "intra-node"
    results = []
    for s in range(config.seed, config.seed + max(1, repeats)):
        wl = make_workload(workload, footprint_bytes, seed=s,
                           **workload_kwargs)
        if policy is not None:
            policy.reset()
        runtime = config.merge(seed=s).build_runtime(
            footprint_bytes=footprint_bytes)
        res = wl.execute(runtime, timeout=cap, check=check)
        runtime.shutdown()
        results.append(ExperimentResult(
            workload=wl.name,
            mode=config.mode,
            footprint_bytes=footprint_bytes,
            n_workers=n_workers,
            policy=policy_name,
            elapsed_seconds=res.elapsed_seconds,
            completed=res.completed,
            verified=res.verified,
            oversubscription=footprint_bytes / NODE_GPU_BYTES,
        ))
    return _mean_of(results), runtime


def _mean_of(results: list[ExperimentResult]) -> ExperimentResult:
    """Arithmetic mean of repeated runs (identical configuration)."""
    if len(results) == 1:
        return results[0]
    first = results[0]
    return dataclasses.replace(
        first,
        elapsed_seconds=sum(r.elapsed_seconds for r in results)
        / len(results),
        completed=all(r.completed for r in results),
        verified=all(r.verified for r in results),
    )


def slowdown_series(results: list[ExperimentResult]) -> list[float]:
    """Per-size slowdown vs the smallest footprint (Fig. 6's y-axis)."""
    if not results:
        return []
    base = results[0].elapsed_seconds
    if base <= 0:
        raise ValueError("baseline run has non-positive elapsed time")
    return [r.elapsed_seconds / base for r in results]


def step_ratios(results: list[ExperimentResult]) -> list[float]:
    """Ratio between consecutive footprint steps (the paper's cliffs)."""
    out = []
    for prev, cur in zip(results, results[1:]):
        out.append(cur.elapsed_seconds / prev.elapsed_seconds
                   if prev.elapsed_seconds > 0 else float("inf"))
    return out
