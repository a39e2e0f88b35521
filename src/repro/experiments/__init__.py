"""Experiment drivers that regenerate the paper's tables and figures."""

from .accumulation import (
    ALL_ALGORITHMS,
    TASK_ALGORITHMS,
    AccumulationResult,
    build_sketch,
    evaluate_tasks,
    insert_trace,
)
from .attention import (
    AttentionPoint,
    AttentionSweep,
    stable_point,
    sweep_num_flows,
    sweep_victim_ratio,
)
from .loss_detection import (
    SCHEMES,
    LossDetectionMeasurement,
    compare_schemes,
    measure,
    minimum_memory,
)

__all__ = [
    "ALL_ALGORITHMS",
    "AccumulationResult",
    "AttentionPoint",
    "AttentionSweep",
    "LossDetectionMeasurement",
    "SCHEMES",
    "TASK_ALGORITHMS",
    "build_sketch",
    "compare_schemes",
    "evaluate_tasks",
    "insert_trace",
    "measure",
    "minimum_memory",
    "stable_point",
    "sweep_num_flows",
    "sweep_victim_ratio",
]
