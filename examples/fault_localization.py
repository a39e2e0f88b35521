#!/usr/bin/env python3
"""Fault injection: using ChameleMon's victim-flow report to localise a failure.

A grey link failure (a flaky transceiver dropping 20 % of packets) is injected
on one host-facing link of the fat-tree.  ChameleMon reports the victim flows
and their loss counts; because every victim flow turns out to share the same
edge switch, the operator can localise the failure without per-packet traces —
the complementary use-case the paper's introduction motivates.

Run:  python examples/fault_localization.py
"""

from __future__ import annotations

from collections import Counter

from repro import ChameleMon, SwitchResources, generate_workload
from repro.network import LinkFailure, apply_faults

FAULTY_HOST = 3
LOSS_RATE = 0.2
NUM_FLOWS = 800


def main() -> None:
    system = ChameleMon(resources=SwitchResources.scaled(0.1), seed=5)
    topology = system.simulator.topology

    # Healthy traffic, then a flaky link towards one host.
    base = generate_workload(
        "HADOOP", num_flows=NUM_FLOWS, victim_ratio=0.0,
        num_hosts=system.num_hosts, seed=5,
    )
    faulty_edge = topology.edge_switch_of_host(FAULTY_HOST)
    fault = LinkFailure(faulty_edge, topology.host(FAULTY_HOST), loss_rate=LOSS_RATE)
    trace = apply_faults(base, topology, [fault], seed=5)
    print(f"injected fault: {LOSS_RATE:.0%} loss on link {faulty_edge} <-> host {FAULTY_HOST}")
    print(f"ground truth: {trace.num_victims()} victim flows, "
          f"{trace.total_losses()} lost packets\n")

    # Two epochs: the first lets the controller size the HL encoders.
    for _ in range(2):
        result = system.run_epoch(trace)
    losses = result.report.loss_report.all_losses()
    accuracy = result.loss_accuracy()
    print(f"ChameleMon reported {len(losses)} victim flows "
          f"(precision {accuracy['precision']:.2f}, recall {accuracy['recall']:.2f})\n")

    # Localise: which hosts do the victim flows touch?
    flows_by_id = {flow.flow_id: flow for flow in trace.flows}
    endpoint_counts: Counter[int] = Counter()
    for flow_id in losses:
        flow = flows_by_id.get(flow_id)
        if flow is None:
            continue
        endpoint_counts[flow.src_host] += 1
        endpoint_counts[flow.dst_host] += 1
    print("victim flows per host endpoint (top 5):")
    for host, count in endpoint_counts.most_common(5):
        marker = "  <-- faulty link" if host == FAULTY_HOST else ""
        print(f"  host {host}: {count} victim flows{marker}")

    suspected = endpoint_counts.most_common(1)[0][0]
    print(f"\nlocalised the failure to host {suspected}'s link: "
          f"{'correct' if suspected == FAULTY_HOST else 'incorrect'}")


if __name__ == "__main__":
    main()
