"""Network-wide analysis of collected sketches (paper section 4.2).

Every epoch the central controller collects, from each edge switch, the flow
classifier, the upstream flow encoder (HH + HL + LL parts), and the downstream
flow encoder (HL + LL parts).  This module implements the analysis pipeline:

1. decode each switch's upstream HH encoder into its HH Flowset;
2. add up the HL (and LL) encoders of all switches, upstream and downstream
   separately, re-insert the HH Flowsets into the cumulative upstream HL
   encoder, and subtract downstream from upstream;
3. decode the delta HL/LL encoders to obtain the victim flows and their loss
   counts.

The stages run under the caller's tracer as the spans ``hh_decode`` (step 1),
``delta_build`` (step 2), ``hl_decode`` and ``ll_decode`` (step 3).  Nothing
here reads a clock: what an epoch spent decoding is the sum of the three
decode spans, which is how the streaming engine derives ``decode_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..dataplane.encoder import accumulate_parts
from ..dataplane.switch import SketchGroup
from ..obs.tracing import NULL_TRACER
from ..sketches.base import DecodeResult
from ..sketches.fermat import FermatSketch
from ..sketches.linear_counting import estimate_flows_per_bucket_array

SwitchId = object


@dataclass
class HHDecode:
    """Per-switch result of decoding the upstream HH encoder."""

    flowset: Dict[int, int]
    success: bool
    num_candidates: int


@dataclass
class LossReport:
    """Outcome of network-wide packet-loss detection for one epoch."""

    heavy_losses: Dict[int, int] = field(default_factory=dict)
    light_losses: Dict[int, int] = field(default_factory=dict)
    hh_decodes: Dict[SwitchId, HHDecode] = field(default_factory=dict)
    hl_decode_success: bool = False
    ll_decode_success: bool = True
    hl_flow_count_estimate: float = 0.0
    ll_flow_count_estimate: float = 0.0
    analysis_completed: bool = False

    def all_losses(self) -> Dict[int, int]:
        """Every reported victim flow with its estimated lost packets.

        A flow present in both Flowsets gets the sum of its sizes, as the
        paper prescribes.
        """
        combined = dict(self.heavy_losses)
        for flow_id, count in self.light_losses.items():
            combined[flow_id] = combined.get(flow_id, 0) + count
        return combined

    def num_heavy_losses(self) -> int:
        return len(self.heavy_losses)

    def num_light_losses(self) -> int:
        return len(self.light_losses)


def decode_hh_encoders(
    groups: Mapping[SwitchId, SketchGroup], destructive: bool = False
) -> Dict[SwitchId, HHDecode]:
    """Decode every switch's upstream HH encoder into its HH Flowset.

    ``destructive=True`` decodes each encoder in place instead of copying it
    first — the fast path when the caller owns throwaway collected groups
    (the controller's per-epoch analysis, the streaming engine).  The decode
    results are identical either way; only the encoder's residual state
    differs (drained instead of intact).
    """
    results: Dict[SwitchId, HHDecode] = {}
    for switch_id, group in groups.items():
        hh = group.upstream.parts.hh
        if hh is None:
            results[switch_id] = HHDecode(flowset={}, success=True, num_candidates=0)
            continue
        decoded = hh.decode() if destructive else hh.decode_nondestructive()
        flows = decoded.positive_flows()
        results[switch_id] = HHDecode(
            flowset=flows, success=decoded.success, num_candidates=len(flows)
        )
    return results


def compute_delta_encoders(
    groups: Mapping[SwitchId, SketchGroup],
    hh_decodes: Mapping[SwitchId, HHDecode],
) -> Tuple[Optional[FermatSketch], Optional[FermatSketch]]:
    """Build the delta HL and delta LL encoders for the whole network.

    The HH Flowset of every switch is re-inserted into the cumulative upstream
    HL encoder first (HH candidates' packets are encoded into the *downstream*
    HL encoder at the egress, so they must be matched on the upstream side).
    All switches' flowsets go in as one ``insert_batch``, which leaves the
    same state as one ``insert`` per flow.
    """

    def total(side: str, part_name: str) -> Optional[FermatSketch]:
        return accumulate_parts(
            [getattr(group, side).parts.part(part_name) for group in groups.values()]
        )

    upstream_hl = total("upstream", "hl")
    downstream_hl = total("downstream", "hl")
    upstream_ll = total("upstream", "ll")
    downstream_ll = total("downstream", "ll")

    delta_hl: Optional[FermatSketch] = None
    if upstream_hl is not None and downstream_hl is not None:
        delta_hl = upstream_hl  # already a copy
        flow_ids = [flow_id for decode in hh_decodes.values() for flow_id in decode.flowset]
        sizes = [size for decode in hh_decodes.values() for size in decode.flowset.values()]
        if flow_ids:
            delta_hl.insert_batch(flow_ids, sizes)
        delta_hl.subtract(downstream_hl)
    delta_ll: Optional[FermatSketch] = None
    if upstream_ll is not None and downstream_ll is not None:
        delta_ll = upstream_ll
        delta_ll.subtract(downstream_ll)
    return delta_hl, delta_ll


def packet_loss_detection(
    groups: Mapping[SwitchId, SketchGroup],
    destructive: bool = False,
    tracer: Optional[object] = None,
) -> LossReport:
    """Full packet-loss analysis for one epoch (section 4.2, first task).

    ``destructive=True`` decodes the collected HH encoders in place (no
    per-switch sketch copies) — safe whenever the caller will not reuse the
    groups' Fermat encoders afterwards, which is how the controller and the
    streaming engine run every epoch.  The delta HL/LL encoders are always
    decoded in place: they are built (and owned) here and discarded after
    analysis, so the pre-decode copy the scalar pipeline used to make was
    pure overhead.  ``tracer`` (a :class:`~repro.obs.tracing.StageTracer`)
    times the ``hh_decode``, ``delta_build``, ``hl_decode`` and ``ll_decode``
    stages; it is observational only.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    report = LossReport()
    with tracer.span("hh_decode"):
        report.hh_decodes = decode_hh_encoders(groups, destructive=destructive)

    if not all(decode.success for decode in report.hh_decodes.values()):
        # The controller stops here: the delta HL encoder cannot be built
        # without re-inserting the (unknown) HH candidates.
        report.analysis_completed = False
        return report

    with tracer.span("delta_build"):
        delta_hl, delta_ll = compute_delta_encoders(groups, report.hh_decodes)

    if delta_hl is not None:
        # Decoding drains the sketch, so snapshot one array's counts first:
        # the linear-counting fallback needs the pre-decode occupancy.
        hl_counts_row0 = delta_hl.counts_array(0)
        with tracer.span("hl_decode"):
            hl_result: DecodeResult = delta_hl.decode()
        report.hl_decode_success = hl_result.success
        if hl_result.success:
            report.heavy_losses = hl_result.positive_flows()
            report.hl_flow_count_estimate = float(len(report.heavy_losses))
        else:
            report.hl_flow_count_estimate = estimate_flows_per_bucket_array(
                [int(c) for c in hl_counts_row0]
            )
    else:
        report.hl_decode_success = False

    if delta_ll is not None:
        ll_counts_row0 = delta_ll.counts_array(0)
        with tracer.span("ll_decode"):
            ll_result = delta_ll.decode()
        report.ll_decode_success = ll_result.success
        if ll_result.success:
            decoded_ll = ll_result.positive_flows()
            report.light_losses = {
                flow_id: count
                for flow_id, count in decoded_ll.items()
                if flow_id not in report.heavy_losses
            }
            # Flows present in both flowsets contribute both parts of their loss.
            for flow_id, count in decoded_ll.items():
                if flow_id in report.heavy_losses:
                    report.heavy_losses[flow_id] += count
            report.ll_flow_count_estimate = float(len(decoded_ll))
        else:
            report.ll_flow_count_estimate = estimate_flows_per_bucket_array(
                [int(c) for c in ll_counts_row0]
            )
    else:
        report.ll_decode_success = True  # nothing to decode (no LL encoder allocated)

    report.analysis_completed = True
    return report
