"""The controller's staged scheduling pipeline (Algorithm 1, decomposed).

Five stages behind one interface — ``Stage.process(ce, state)`` — that
the :class:`~repro.core.controller.Controller` threads every CE through:
admission, placement, data movement, coherence, dispatch.  See
:mod:`repro.core.pipeline.base` for the contract and the behaviour-
preservation guarantee.
"""

from repro.core.pipeline.admission import AdmissionStage, FairShareGate
from repro.core.pipeline.base import (SchedulingPipeline, SchedulingState,
                                      Stage)
from repro.core.pipeline.coherence import CoherenceStage
from repro.core.pipeline.dispatch import HOST_MEM_BANDWIDTH, DispatchStage
from repro.core.pipeline.movement import NODE_CRASH, DataMovementStage, Move
from repro.core.pipeline.placement import PlacementStage

__all__ = [
    "AdmissionStage",
    "CoherenceStage",
    "DataMovementStage",
    "DispatchStage",
    "FairShareGate",
    "HOST_MEM_BANDWIDTH",
    "Move",
    "NODE_CRASH",
    "PlacementStage",
    "SchedulingPipeline",
    "SchedulingState",
    "Stage",
]
