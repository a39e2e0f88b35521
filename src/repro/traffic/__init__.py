"""Workload generation: columnar traces, flow-size distributions, trace synthesis."""

from .distributions import (
    WORKLOAD_NAMES,
    FlowSizeDistribution,
    empirical_cdf,
    get_distribution,
    zipf_sizes_array,
)
from .flow import (
    FIVE_TUPLE_WIDTHS,
    FlowKey,
    FlowRecord,
    FlowRow,
    FlowView,
    Trace,
    TraceColumns,
    pack_flow_ids,
)
from .generator import (
    generate_caida_like_trace,
    generate_workload,
    ground_truth_heavy_changes,
    ground_truth_heavy_hitters,
    largest_flows,
    restrict_to_flows,
    take_flows,
)
from .store import (
    BinaryTraceReader,
    TraceFormatError,
    inspect_binary_trace,
    is_binary_trace,
    write_binary_trace,
)

__all__ = [
    "BinaryTraceReader",
    "FIVE_TUPLE_WIDTHS",
    "FlowKey",
    "FlowRecord",
    "FlowRow",
    "FlowSizeDistribution",
    "FlowView",
    "Trace",
    "TraceColumns",
    "TraceFormatError",
    "WORKLOAD_NAMES",
    "empirical_cdf",
    "generate_caida_like_trace",
    "generate_workload",
    "get_distribution",
    "ground_truth_heavy_changes",
    "ground_truth_heavy_hitters",
    "inspect_binary_trace",
    "is_binary_trace",
    "largest_flows",
    "pack_flow_ids",
    "restrict_to_flows",
    "take_flows",
    "write_binary_trace",
    "zipf_sizes_array",
]
