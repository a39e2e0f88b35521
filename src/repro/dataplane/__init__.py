"""The ChameleMon data plane: classifier, flow encoders, and edge switches."""

from .classifier import SAMPLE_HASH_RANGE, FlowClassifier
from .config import EncoderLayout, MonitoringConfig, SwitchResources
from .encoder import (
    DownstreamFlowEncoder,
    EncoderParts,
    UpstreamFlowEncoder,
    accumulate_parts,
)
from .hierarchy import FlowHierarchy
from .switch import (
    EdgeSwitch,
    EpochStatistics,
    HierarchySegments,
    SketchGroup,
    process_downstream,
    process_upstream,
)

__all__ = [
    "DownstreamFlowEncoder",
    "EdgeSwitch",
    "EncoderLayout",
    "EncoderParts",
    "EpochStatistics",
    "FlowClassifier",
    "FlowHierarchy",
    "HierarchySegments",
    "MonitoringConfig",
    "SAMPLE_HASH_RANGE",
    "SketchGroup",
    "SwitchResources",
    "UpstreamFlowEncoder",
    "accumulate_parts",
    "process_downstream",
    "process_upstream",
]
