"""RuntimeConfig — every construction knob of a GrOUT/GrCUDA runtime.

Historically the knobs lived in three places at once: positional
arguments of :class:`~repro.core.runtime.GroutRuntime`, keyword
arguments of :class:`~repro.core.controller.Controller`, and four
hand-copied kwargs blocks in ``cli.py``.  Every new knob meant touching
all of them.  :class:`RuntimeConfig` is now the single owner: the CLI
parses into it (:meth:`from_args`), the serve daemon deserialises it
(:meth:`from_dict`), benchmarks overlay it (:meth:`merge`), and all of
them construct runtimes the same way (:meth:`build_runtime`).

It is also the one place that decides what runs: every config checks
:data:`REFUSALS` when built, so a refused knob value or combination
raises ``ValueError`` before any cluster, engine or shard process
exists.  Guards on operations no config can foresee (``install_faults``
on a sharded runtime, say) stay with the operation and raise
``SimError``.

The defaults reproduce the paper configuration exactly — a
``RuntimeConfig()`` built runtime is schedule-identical to
``GroutRuntime(paper_cluster(2))``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.policies import ExplorationLevel, Policy
from repro.gpu.specs import MIB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import FaultPlan

__all__ = ["RuntimeConfig", "REFUSALS", "page_size_for"]

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
    pair (``policy`` .. ``shard_window``), the cluster under it
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
    plan_cache: bool = False
    shards: int | None = None
    shard_window: float | None = None

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
        for refused, message in REFUSALS:
            if refused(self):
                raise ValueError(message.format(self))

    # -- construction from other shapes ----------------------------------------

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """Every config field, declaration order."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_args(cls, args: object, **overrides: object) -> "RuntimeConfig":
        """Build from an ``argparse.Namespace`` (unknown attrs ignored).

        The CLI spells one field differently (``--workers`` →
        ``n_workers``); everything else maps by name.  Explicit
        ``overrides`` win over namespace values.
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
        ``max_streams_per_gpu`` streams each (:data:`GROUT_ONLY` knobs
        were refused when the config was built).  ``"grout"`` builds the
        cluster (unless one is passed in), the policy (``workload`` feeds
        ``vector-step``) and the distributed runtime.  ``footprint_bytes``
        sizes the adaptive UVM granule when ``page_size`` is unset.
        """
        if self.mode == "grcuda":
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
        runtime = GroutRuntime(
            cluster, policy=self.build_policy(workload),
            **{name: getattr(self, name) for name in RUNTIME_KNOBS})
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
        parser.add_argument("--workers", type=int,
                            default=_DEFAULTS["n_workers"],
                            help="GrOUT worker count (default %(default)s)")
        parser.add_argument("--policy", default=default_policy,
                            help="any name from "
                                 "repro.core.available_policies()")
        parser.add_argument("--level", default=_DEFAULTS["level"],
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
        parser.add_argument("--fair-share-window", type=int,
                            default=_DEFAULTS["fair_share_window"],
                            metavar="N", dest="fair_share_window",
                            help="admission window interleaving "
                                 "concurrent sessions (default "
                                 "%(default)s; grout only)")
        parser.add_argument("--plan-cache", action="store_true",
                            dest="plan_cache",
                            help="memoize per-session scheduling "
                                 "decisions and replay them for "
                                 "repeated programs (default off)")

    def __repr__(self) -> str:
        knobs = [f"{name}={getattr(self, name)!r}"
                 for name, default in _DEFAULTS.items()
                 if getattr(self, name) != default]
        return f"<RuntimeConfig {' '.join(knobs) or 'paper defaults'}>"


#: The knobs ``GroutRuntime`` takes as keywords and its ``Controller``
#: reads; the rest of a config is the cluster's or the builder's.
RUNTIME_KNOBS = ("max_streams_per_gpu", "chunk_bytes", "collectives",
                 "fair_share_window", "plan_cache", "shards",
                 "shard_window")

#: Knobs only the distributed runtime reads: ``mode="grcuda"`` refuses
#: each one set away from its default.  ``policy``, ``level`` and
#: ``n_workers`` mean nothing to the single node either, but they stay
#: accepted: ``sweep`` and ``run_single_node`` build the GrCUDA side of
#: a GrCUDA-vs-GrOUT comparison by merging ``mode="grcuda"`` into the
#: comparison's shared config, which carries them.
GROUT_ONLY = ("faults", "replace_crashed", "chunk_bytes", "collectives",
              "plan_cache", "shards", "shard_window", "fair_share_window")

_DEFAULTS = {f.name: f.default for f in fields(RuntimeConfig)}

#: Every refused knob value and combination, as (condition, message);
#: ``{0}`` in a message is the refused config.  The first row whose
#: condition holds raises.
REFUSALS: tuple[tuple[Callable[[RuntimeConfig], bool], str], ...] = (
    # -- ranges
    (lambda c: c.mode not in MODES,
     f"mode must be one of {MODES}, got {{0.mode!r}}"),
    (lambda c: c.n_workers < 1, "n_workers must be >= 1"),
    (lambda c: c.gpus_per_worker < 1, "gpus_per_worker must be >= 1"),
    (lambda c: c.chunk_bytes is not None and c.chunk_bytes < 1,
     "chunk_bytes must be >= 1"),
    (lambda c: c.fair_share_window < 2, "fair_share_window must be >= 2"),
    (lambda c: c.shards is not None and c.shards < 1,
     "shards must be >= 1"),
    (lambda c: c.shard_window is not None and c.shard_window <= 0,
     "shard_window must be > 0"),
    (lambda c: c.page_size is not None and c.page_size < 1,
     "page_size must be >= 1"),
    # -- the single-node baseline
    *((lambda c, name=name: c.mode == "grcuda"
       and getattr(c, name) != _DEFAULTS[name],
       f"{name} requires mode='grout'") for name in GROUT_ONLY),
    # -- combinations
    (lambda c: c.replace_crashed and c.faults is None,
     "replace_crashed requires faults"),
    (lambda c: c.shard_window is not None and c.shards is None,
     "shard_window requires shards"),
    (lambda c: c.shards is not None and c.faults is not None,
     "shards excludes faults: crash recovery needs in-process worker "
     "state"),
    (lambda c: c.shards is not None and c.collectives,
     "shards excludes collectives: relay legs would need cross-process "
     "stream state"),
    (lambda c: c.shards is not None and c.plan_cache,
     "shards excludes plan_cache: recorded plans replay against "
     "in-process worker state"),
    (lambda c: c.plan_cache and c.chunk_bytes is not None,
     "plan_cache excludes chunk_bytes: recorded plans replay "
     "whole-array point-to-point transfers"),
    (lambda c: c.plan_cache and c.collectives,
     "plan_cache excludes collectives: recorded plans replay "
     "whole-array point-to-point transfers"),
)
