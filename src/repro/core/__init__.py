"""GrOUT's core: CEs, dependency DAGs, hierarchical scheduling, coherence.

Public entry points are :class:`GroutRuntime` (distributed, the paper's
contribution) and :class:`GrCudaRuntime` (single-node baseline).
"""

from repro.core.autoscale import KpiAutoscaler, ScalingDecision
from repro.core.arrays import (
    CONTROLLER,
    ArrayState,
    Directory,
    DirectoryRepair,
    ManagedArray,
    partition_rows,
)
from repro.core.ce import CeKind, ComputationalElement, depends_on
from repro.core.config import RuntimeConfig, page_size_for
from repro.core.controller import (
    Controller,
    ControllerStats,
    RecoveryReport,
)
from repro.core.dag import DependencyDag
from repro.core.grcuda import GrCudaRuntime
from repro.core.intranode import IntraNodeScheduler
from repro.core.pipeline import (
    AdmissionStage,
    CoherenceStage,
    DataMovementStage,
    DispatchStage,
    FairShareGate,
    PlacementStage,
    SchedulingPipeline,
    SchedulingState,
    Stage,
)
from repro.core.planner import RelayPlan, TransferPlanner
from repro.core.policies import (
    ExplorationLevel,
    LeastLoadedPolicy,
    MinTransferSizePolicy,
    MinTransferTimePolicy,
    Policy,
    RoundRobinPolicy,
    SchedulingContext,
    VectorStepPolicy,
    available_policies,
    make_policy,
    register_policy,
)
from repro.core.runtime import GroutRuntime
from repro.core.session import Session, SessionClosedError

__all__ = [
    "AdmissionStage",
    "CONTROLLER",
    "ArrayState",
    "CeKind",
    "CoherenceStage",
    "ComputationalElement",
    "Controller",
    "ControllerStats",
    "DataMovementStage",
    "DependencyDag",
    "DispatchStage",
    "FairShareGate",
    "PlacementStage",
    "SchedulingPipeline",
    "SchedulingState",
    "Session",
    "Stage",
    "Directory",
    "DirectoryRepair",
    "ExplorationLevel",
    "GrCudaRuntime",
    "GroutRuntime",
    "IntraNodeScheduler",
    "KpiAutoscaler",
    "LeastLoadedPolicy",
    "ManagedArray",
    "ScalingDecision",
    "MinTransferSizePolicy",
    "MinTransferTimePolicy",
    "Policy",
    "RecoveryReport",
    "RelayPlan",
    "RoundRobinPolicy",
    "RuntimeConfig",
    "SchedulingContext",
    "SessionClosedError",
    "TransferPlanner",
    "VectorStepPolicy",
    "available_policies",
    "depends_on",
    "make_policy",
    "page_size_for",
    "register_policy",
    "partition_rows",
]
