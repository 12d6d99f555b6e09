"""RuntimeConfig — every construction knob of a GrOUT/GrCUDA runtime.

Historically the knobs lived in three places at once: positional
arguments of :class:`~repro.core.runtime.GroutRuntime`, keyword
arguments of :class:`~repro.core.controller.Controller`, and four
hand-copied kwargs blocks in ``cli.py``.  Every new knob meant touching
all of them.  :class:`RuntimeConfig` is now the single owner: the CLI
parses into it (:meth:`from_args`), the serve daemon deserialises it
(:meth:`from_dict`), benchmarks overlay it (:meth:`merge`), and all of
them construct runtimes the same way (:meth:`build_runtime`).

The defaults reproduce the paper configuration exactly — a
``RuntimeConfig()`` built runtime is schedule-identical to
``GroutRuntime(paper_cluster(2))``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Mapping

from repro.core.policies import ExplorationLevel, Policy
from repro.gpu.specs import MIB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import FaultPlan

__all__ = ["RuntimeConfig", "page_size_for"]

#: Modes a config can build.
MODES = ("grout", "grcuda")


def page_size_for(footprint_bytes: int) -> int:
    """Adaptive UVM granule: coarse pages for big sweeps, capped both ways.

    Timing depends only on byte counts, so granularity is a pure
    simulation-speed knob; it must merely stay small relative to the
    per-kernel working sets.
    """
    target = min(max(footprint_bytes // 4096, 256 * 1024), 32 * MIB)
    # Power of two so the granule divides every device memory size.
    return 1 << (int(target).bit_length() - 1)


@dataclass(frozen=True, slots=True)
class RuntimeConfig:
    """One immutable record of every runtime-construction knob.

    Field groups mirror the layers they configure: the runtime/controller
    pair (``policy`` .. ``prune_every``), the cluster under it
    (``n_workers`` .. ``seed``) and the fault plan armed on top
    (``faults``/``replace_crashed``).  ``policy`` and ``gpu_spec`` accept
    either resolved objects or registry names, so configs stay
    JSON-serialisable end to end (:meth:`as_dict`/:meth:`from_dict`).
    """

    # -- what to build ---------------------------------------------------------
    mode: str = "grout"                    # "grout" | "grcuda"

    # -- runtime / controller knobs --------------------------------------------
    policy: "Policy | str" = "vector-step"
    level: "ExplorationLevel | str" = "medium"
    max_streams_per_gpu: int = 4
    chunk_bytes: int | None = None
    collectives: bool = False
    fair_share_window: int = 32
    prune_every: int = 256
    plan_cache: bool = False
    shards: int | None = None
    shard_window: float | None = None
    shard_max_outstanding: int | None = None

    # -- cluster knobs ---------------------------------------------------------
    n_workers: int = 2
    gpus_per_worker: int = 2
    gpu_spec: object | None = None         # GpuSpec instance or name
    page_size: int | None = None           # None -> adaptive per footprint
    uvm_backend: str | None = None
    seed: int = 0

    # -- fault injection -------------------------------------------------------
    faults: "FaultPlan | str | None" = None
    replace_crashed: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, "
                             f"got {self.mode!r}")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.gpus_per_worker < 1:
            raise ValueError("gpus_per_worker must be >= 1")
        if self.chunk_bytes is not None and self.chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        if self.fair_share_window < 2:
            raise ValueError("fair_share_window must be >= 2")
        if self.prune_every < 1:
            raise ValueError("prune_every must be >= 1")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.page_size is not None and self.page_size < 1:
            raise ValueError("page_size must be >= 1")

    # -- construction from other shapes ----------------------------------------

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """Every config field, declaration order."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_args(cls, args: object, **overrides: object) -> "RuntimeConfig":
        """Build from an ``argparse.Namespace`` (unknown attrs ignored).

        The CLI spells two fields differently (``--workers`` →
        ``n_workers``, ``--replace-crashed`` → ``replace_crashed``);
        everything else maps by name.  Explicit ``overrides`` win over
        namespace values.
        """
        picked: dict[str, object] = {}
        aliases = {"n_workers": "workers"}
        for name in cls.field_names():
            for attr in (name, aliases.get(name, name)):
                if hasattr(args, attr):
                    picked[name] = getattr(args, attr)
                    break
        picked.update(overrides)
        return cls(**picked)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RuntimeConfig":
        """Build from a JSON-shaped mapping; unknown keys raise."""
        unknown = set(payload) - set(cls.field_names())
        if unknown:
            raise ValueError(
                f"unknown runtime config key(s): {sorted(unknown)}")
        return cls(**dict(payload))

    def merge(self, other: "Mapping[str, object] | RuntimeConfig | None"
              = None, **overrides: object) -> "RuntimeConfig":
        """A new config with ``other``'s keys (then ``overrides``) applied.

        ``other`` may be a partial mapping (only the named fields change)
        or another config (whose full field set replaces this one's).
        """
        changes: dict[str, object] = {}
        if isinstance(other, RuntimeConfig):
            changes.update(other.as_dict(resolved=True))
        elif other is not None:
            unknown = set(other) - set(self.field_names())
            if unknown:
                raise ValueError(
                    f"unknown runtime config key(s): {sorted(unknown)}")
            changes.update(other)
        changes.update(overrides)
        return dataclasses.replace(self, **changes)

    # -- serialisation ---------------------------------------------------------

    def as_dict(self, *, resolved: bool = False) -> dict[str, object]:
        """The config as a plain dict.

        With ``resolved=False`` (the JSON shape) non-serialisable values
        are reduced to names: a :class:`Policy` instance becomes its
        ``name``, a ``GpuSpec`` its ``name`` attribute, an armed
        :class:`FaultPlan` its spec string.  ``resolved=True`` keeps the
        objects as-is (lossless, for :meth:`merge`).
        """
        out: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if not resolved:
                if f.name == "policy" and isinstance(value, Policy):
                    value = value.name
                elif f.name == "level" and isinstance(value,
                                                      ExplorationLevel):
                    value = value.name.lower()
                elif f.name == "gpu_spec" and value is not None \
                        and not isinstance(value, str):
                    value = getattr(value, "name", str(value))
                elif f.name == "faults" and value is not None \
                        and not isinstance(value, str):
                    value = getattr(value, "spec", str(value))
            out[f.name] = value
        return out

    # -- resolution helpers ----------------------------------------------------

    @property
    def exploration_level(self) -> ExplorationLevel:
        """``level`` as the enum the policy registry expects."""
        if isinstance(self.level, ExplorationLevel):
            return self.level
        return ExplorationLevel[str(self.level).upper()]

    def fault_plan(self) -> "FaultPlan | None":
        """``faults`` parsed into a :class:`FaultPlan` (or ``None``)."""
        if self.faults is None:
            return None
        if isinstance(self.faults, str):
            from repro.sim import FaultPlan
            return FaultPlan.parse(self.faults)
        return self.faults

    def resolve_gpu_spec(self):
        """``gpu_spec`` as a ``GpuSpec`` (names looked up in ``repro.gpu``)."""
        if self.gpu_spec is None or not isinstance(self.gpu_spec, str):
            return self.gpu_spec
        import repro.gpu as gpu_mod
        spec = getattr(gpu_mod, self.gpu_spec, None)
        if spec is None:
            raise ValueError(f"unknown GPU spec name {self.gpu_spec!r}")
        return spec

    def build_policy(self, workload: object | None = None) -> Policy:
        """The inter-node policy this config names.

        ``vector-step`` is the offline roofline and needs the workload's
        profiled vector (``workload.tuned_vector(n_workers)``); every
        other name resolves through the policy registry.  Passing a
        prebuilt :class:`Policy` instance short-circuits both.
        """
        from repro.core.policies import VectorStepPolicy, make_policy
        if isinstance(self.policy, Policy):
            return self.policy
        if self.policy == "vector-step":
            if workload is None:
                raise ValueError(
                    "policy 'vector-step' needs the workload (its tuned "
                    "placement vector); pass workload= or pick an online "
                    "policy such as 'round-robin'")
            return VectorStepPolicy(workload.tuned_vector(self.n_workers))
        return make_policy(self.policy, level=self.exploration_level)

    # -- builders --------------------------------------------------------------

    def cluster_kwargs(self, footprint_bytes: int | None = None) -> dict:
        """Keyword arguments for :func:`repro.cluster.paper_cluster`."""
        page_size = self.page_size
        if page_size is None and footprint_bytes is not None:
            page_size = page_size_for(footprint_bytes)
        kwargs: dict[str, object] = {
            "page_size": page_size,
            "seed": self.seed,
            "uvm_backend": self.uvm_backend,
            "gpus_per_worker": self.gpus_per_worker,
        }
        spec = self.resolve_gpu_spec()
        if spec is not None:
            kwargs["gpu_spec"] = spec
        return kwargs

    def to_kwargs(self) -> dict[str, object]:
        """Keyword arguments for ``GroutRuntime(cluster, policy=..., **kw)``.

        Covers the runtime/controller knobs only — the cluster is built
        separately (:meth:`build_cluster`) and the policy through
        :meth:`build_policy`, so callers with a prebuilt cluster keep
        full control.
        """
        return {
            "max_streams_per_gpu": self.max_streams_per_gpu,
            "chunk_bytes": self.chunk_bytes,
            "collectives": self.collectives,
            "fair_share_window": self.fair_share_window,
            "prune_every": self.prune_every,
            "plan_cache": self.plan_cache,
            "shards": self.shards,
            "shard_window": self.shard_window,
            "shard_max_outstanding": self.shard_max_outstanding,
        }

    def build_cluster(self, footprint_bytes: int | None = None):
        """A fresh :class:`~repro.cluster.Cluster` per this config."""
        from repro.cluster import paper_cluster
        return paper_cluster(self.n_workers,
                             **self.cluster_kwargs(footprint_bytes))

    def build_runtime(self, *, workload: object | None = None,
                      footprint_bytes: int | None = None,
                      cluster: object | None = None):
        """Construct the configured runtime, fault plan armed.

        ``mode == "grcuda"`` returns the single-node baseline: one node
        of ``gpus_per_worker`` GPUs (``gpu_spec``) with up to
        ``max_streams_per_gpu`` streams each; faults, chunking,
        collectives, the plan cache and shards are refused.  ``"grout"``
        builds the cluster (unless one is passed in), the policy
        (``workload`` feeds ``vector-step``) and the distributed runtime.
        ``footprint_bytes`` sizes the adaptive UVM granule when
        ``page_size`` is unset.
        """
        if self.mode == "grcuda":
            if self.faults is not None:
                raise ValueError("fault injection requires mode='grout'")
            if self.chunk_bytes is not None or self.collectives \
                    or self.plan_cache or self.shards is not None:
                raise ValueError("chunk_bytes/collectives/plan_cache/shards "
                                 "require mode='grout'")
            from repro.cluster.node import PAPER_WORKER
            from repro.core.grcuda import GrCudaRuntime
            # The one node takes the knobs a grout worker node takes.
            kwargs = self.cluster_kwargs(footprint_bytes)
            node = dataclasses.replace(
                PAPER_WORKER, n_gpus=kwargs.pop("gpus_per_worker"))
            return GrCudaRuntime(
                spec=node, max_streams_per_gpu=self.max_streams_per_gpu,
                **kwargs)
        from repro.core.runtime import GroutRuntime
        if cluster is None:
            cluster = self.build_cluster(footprint_bytes)
        runtime = GroutRuntime(cluster,
                               policy=self.build_policy(workload),
                               **self.to_kwargs())
        plan = self.fault_plan()
        if plan is not None:
            runtime.install_faults(
                plan, request_replacement=self.replace_crashed)
        return runtime

    # -- CLI plumbing ----------------------------------------------------------

    @staticmethod
    def add_cli_args(parser, *, default_policy: str = "vector-step") -> None:
        """Declare the shared runtime flags on an argparse (sub)parser.

        One declaration instead of a hand-copied block per subcommand;
        :meth:`from_args` reads the resulting namespace back.
        """
        from repro.uvm import DEFAULT_BACKEND, PAGING_BACKENDS
        parser.add_argument("--workers", type=int, default=2,
                            help="GrOUT worker count (default 2)")
        parser.add_argument("--policy", default=default_policy,
                            help="any name from "
                                 "repro.core.available_policies()")
        parser.add_argument("--level", default="medium",
                            choices=("low", "medium", "high"),
                            help="exploration level for online policies")
        parser.add_argument("--chunk-bytes", type=int, default=None,
                            metavar="N", dest="chunk_bytes",
                            help="pipeline fabric transfers as N-byte "
                                 "chunks (grout only; default: "
                                 "whole-array sends)")
        parser.add_argument("--collectives", action="store_true",
                            help="coalesce broadcast-shaped replication "
                                 "into relay chains (grout only)")
        parser.add_argument("--uvm-backend", default=DEFAULT_BACKEND,
                            choices=sorted(PAGING_BACKENDS),
                            dest="uvm_backend",
                            help="paging backend pricing UVM faults "
                                 "(default cpu-pme, the paper's "
                                 "CPU-driven page-migration engine)")
        parser.add_argument("--fair-share-window", type=int, default=32,
                            metavar="N", dest="fair_share_window",
                            help="admission window interleaving "
                                 "concurrent sessions (default 32)")
        parser.add_argument("--plan-cache", action="store_true",
                            dest="plan_cache",
                            help="memoize per-session scheduling "
                                 "decisions and replay them for "
                                 "repeated programs (default off)")

    def __repr__(self) -> str:
        knobs = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                knobs.append(f"{f.name}={value!r}")
        return f"<RuntimeConfig {' '.join(knobs) or 'paper defaults'}>"
