"""Aggregate span JSONL into a self/cumulative stage-breakdown profile.

``repro.cli perf report`` drives this module: load the spans a traced run
wrote (:class:`~repro.obs.tracing.JsonlSpanSink`), group them by hierarchical
stage path, and render a profiler-style tree table where every stage shows

* **count** — how many spans hit the stage,
* **total** — cumulative milliseconds (the stage and everything under it),
* **self** — total minus the children's totals (time spent in the stage's
  own code),
* **mean** — total / count, and
* **%** — share of the root stages' combined total.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

Path = Tuple[str, ...]


def load_spans(path: str) -> List[Dict[str, Any]]:
    """Read a span JSONL file (one span dict per line)."""
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def aggregate_spans(spans: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Fold spans into one profile node per stage path, in tree preorder.

    Within each level siblings are ordered by descending total time, so the
    hottest path reads top-to-bottom.  A parent stage missing from the spans
    (possible when the spans were filtered, e.g. by epoch) is synthesized
    with zero self time.
    """
    totals: Dict[Path, List[float]] = {}
    for span in spans:
        path = tuple(span["path"])
        entry = totals.setdefault(path, [0, 0.0])
        entry[0] += 1
        entry[1] += span["duration_ns"]
    # Synthesize missing intermediate parents so the tree is connected,
    # deepest first so a parent's roll-up sees its synthesized children.
    for path in list(totals):
        for depth in range(len(path) - 1, 0, -1):
            parent = path[:depth]
            if parent not in totals:
                child_sum = sum(
                    t for p, (_, t) in totals.items()
                    if len(p) == depth + 1 and p[:depth] == parent
                )
                totals[parent] = [0, child_sum]
    children_ns: Dict[Path, float] = {}
    for path, (_, total) in totals.items():
        if len(path) > 1:
            parent = path[:-1]
            children_ns[parent] = children_ns.get(parent, 0.0) + total
    root_total = sum(t for p, (_, t) in totals.items() if len(p) == 1) or 1.0

    def children_of(parent: Path) -> List[Path]:
        depth = len(parent) + 1
        kids = [
            p for p in totals
            if len(p) == depth and p[: len(parent)] == parent
        ]
        return sorted(kids, key=lambda p: (-totals[p][1], p))

    nodes: List[Dict[str, Any]] = []

    def visit(path: Path) -> None:
        count, total = totals[path]
        self_ns = max(0.0, total - children_ns.get(path, 0.0))
        nodes.append({
            "stage": "/".join(path),
            "name": path[-1],
            "depth": len(path) - 1,
            "count": int(count),
            "total_ms": total / 1e6,
            "self_ms": self_ns / 1e6,
            "mean_ms": (total / count / 1e6) if count else 0.0,
            "pct": 100.0 * total / root_total,
        })
        for child in children_of(path):
            visit(child)

    for root in children_of(()):
        visit(root)
    return nodes


def render_report(nodes: List[Dict[str, Any]]) -> str:
    """The profile tree as a fixed-width text table."""
    if not nodes:
        return "(no spans)"
    name_width = max(len("  " * n["depth"] + n["name"]) for n in nodes)
    name_width = max(name_width, len("stage"))
    header = (
        f"{'stage':<{name_width}}  {'count':>7}  {'total ms':>10}  "
        f"{'self ms':>10}  {'mean ms':>9}  {'%':>6}"
    )
    lines = [header, "-" * len(header)]
    for node in nodes:
        label = "  " * node["depth"] + node["name"]
        lines.append(
            f"{label:<{name_width}}  {node['count']:>7}  "
            f"{node['total_ms']:>10.2f}  {node['self_ms']:>10.2f}  "
            f"{node['mean_ms']:>9.3f}  {node['pct']:>6.1f}"
        )
    return "\n".join(lines)


def report_dict(nodes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The profile as a JSON-able artifact (the CI stage-breakdown upload)."""
    return {
        "total_ms": sum(n["total_ms"] for n in nodes if n["depth"] == 0),
        "stages": nodes,
    }
