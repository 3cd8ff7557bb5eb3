"""Run reports and the temporal CSV export.

CSV layout (golden-tested, loadable as a Gephi dynamic graph):

``nodes.csv`` has the header ``Id,Label,Communities,Interval``.  ``Interval``
is the node's lifetime as half-open segments ``<[start,end); ...>`` merged
into maximal runs; ``Communities`` lists one ``[start,end,label)`` segment
per maximal run of constant community label.  ``edges.csv`` has the header
``Source,Target,Type,Interval`` with ``Type`` always ``Undirected`` and the
same interval syntax.  Snapshot ``t`` covers ``[t, t+1)``.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigurationError
from .lifecycle import EventRecord, render_event_table


@dataclass
class SnapshotMetrics:
    t: int
    nodes: int
    links: int
    communities: int
    assortativity: float
    assortativity_degenerate: bool
    modularity: float
    wiring_repairs: int
    disconnected_communities: list[int] = field(default_factory=list)


@dataclass
class BoundaryReport:
    t_from: int
    t_to: int
    vi: float
    contingency: list[list[int]]
    row_labels: list[str]
    col_labels: list[str]
    temporal_degree_correlation: float
    correlation_degenerate: bool
    deaths: int
    births: int
    seed_pool_vi: list[float]
    events: list[EventRecord] = field(default_factory=list)


@dataclass
class RunReport:
    seed: int
    config: dict
    snapshots: list[SnapshotMetrics] = field(default_factory=list)
    boundaries: list[BoundaryReport] = field(default_factory=list)

    @property
    def temporal_correlation_series(self) -> list[float]:
        return [b.temporal_degree_correlation for b in self.boundaries]


def _merge_runs(timesteps) -> list[tuple[int, int]]:
    """Merge sorted integer timesteps into maximal half-open [t, t+1) runs."""
    runs = []
    for t in sorted(timesteps):
        if runs and runs[-1][1] == t:
            runs[-1][1] = t + 1
        else:
            runs.append([t, t + 1])
    return [(a, b) for a, b in runs]


def _interval_text(runs) -> str:
    return "<" + "; ".join(f"[{a},{b})" for a, b in runs) + ">"


def _community_text(segments) -> str:
    return "<" + "; ".join(f"[{a},{b},{label})" for a, b, label in segments) + ">"


def export_temporal_csv(snapshots, outdir) -> tuple[str, str]:
    """Write ``nodes.csv`` and ``edges.csv`` for the snapshot sequence."""
    if not snapshots:
        raise ConfigurationError("nothing to export: no snapshots")
    os.makedirs(outdir, exist_ok=True)
    node_presence: dict[int, list[int]] = {}
    node_community: dict[int, dict[int, int]] = {}
    edge_presence: dict[tuple[int, int], list[int]] = {}
    for snap in snapshots:
        for nid, node in snap.nodes.items():
            node_presence.setdefault(nid, []).append(snap.t)
            label = snap.community_labels[node.community]
            node_community.setdefault(nid, {})[snap.t] = label
        for edge in snap.links:
            edge_presence.setdefault(edge, []).append(snap.t)

    nodes_path = os.path.join(outdir, "nodes.csv")
    with open(nodes_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Id", "Label", "Communities", "Interval"])
        for nid in sorted(node_presence):
            times = sorted(node_presence[nid])
            segments = []
            for t in times:
                label = node_community[nid][t]
                if segments and segments[-1][1] == t and segments[-1][2] == label:
                    segments[-1][1] = t + 1
                else:
                    segments.append([t, t + 1, label])
            writer.writerow(
                [
                    nid,
                    f"n{nid}",
                    _community_text([tuple(s) for s in segments]),
                    _interval_text(_merge_runs(times)),
                ]
            )

    edges_path = os.path.join(outdir, "edges.csv")
    with open(edges_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Source", "Target", "Type", "Interval"])
        for u, v in sorted(edge_presence):
            writer.writerow(
                [u, v, "Undirected", _interval_text(_merge_runs(edge_presence[(u, v)]))]
            )
    return nodes_path, edges_path


def _parse_interval(text: str) -> list[tuple[int, int]]:
    body = text.strip()
    if not body.startswith("<") or not body.endswith(">"):
        raise ConfigurationError(f"bad interval syntax: {text!r}")
    out = []
    for seg in body[1:-1].split(";"):
        seg = seg.strip()
        if not seg.startswith("[") or not seg.endswith(")"):
            raise ConfigurationError(f"bad interval segment: {seg!r}")
        parts = seg[1:-1].split(",")
        out.append(tuple(int(p) for p in parts))
    return out


def read_temporal_csv(nodes_path, edges_path):
    """Parse the exported CSVs back into per-timestep node/community/edge maps.

    Returns ``(communities, edges)`` where ``communities[t]`` maps node id to
    community label and ``edges[t]`` is the set of node-id pairs alive at t.
    """
    communities: dict[int, dict[int, int]] = {}
    edges: dict[int, set[tuple[int, int]]] = {}
    with open(nodes_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            nid = int(row["Id"])
            for a, b, label in _parse_interval(row["Communities"]):
                for t in range(a, b):
                    communities.setdefault(t, {})[nid] = label
    with open(edges_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            u, v = int(row["Source"]), int(row["Target"])
            for a, b in _parse_interval(row["Interval"]):
                for t in range(a, b):
                    edges.setdefault(t, set()).add((u, v))
    for t in communities:
        edges.setdefault(t, set())
    return communities, edges


def _contingency_lines(boundary: BoundaryReport) -> list[str]:
    u = np.asarray(boundary.contingency)
    width = max(
        [len(lbl) for lbl in boundary.row_labels + boundary.col_labels] + [5]
    )
    head = " " * (width + 1) + " ".join(f"{lbl:>{width}}" for lbl in boundary.col_labels)
    lines = [head]
    for i, lbl in enumerate(boundary.row_labels):
        cells = " ".join(f"{int(x):>{width}}" for x in u[i])
        lines.append(f"{lbl:>{width}} {cells}")
    return lines


def render_report(report: RunReport) -> str:
    """Human-readable run report with every boundary's table, VI and events."""
    lines = [f"temporal network run (seed {report.seed})", ""]
    for sm in report.snapshots:
        flag = " (degenerate)" if sm.assortativity_degenerate else ""
        extra = (
            f" disconnected={sm.disconnected_communities}"
            if sm.disconnected_communities
            else ""
        )
        lines.append(
            f"T{sm.t}: nodes={sm.nodes} links={sm.links} communities={sm.communities}"
            f" assortativity={sm.assortativity:+.4f}{flag}"
            f" modularity={sm.modularity:.4f} repairs={sm.wiring_repairs}{extra}"
        )
    for b in report.boundaries:
        lines.append("")
        lines.append(f"== boundary T{b.t_from} -> T{b.t_to} ==")
        lines.append(
            f"VI={b.vi:.6f} deaths={b.deaths} births={b.births}"
            f" temporal_degree_correlation={b.temporal_degree_correlation:+.4f}"
            + (" (degenerate)" if b.correlation_degenerate else "")
        )
        pool = " ".join(f"{v:.4f}" for v in b.seed_pool_vi)
        lines.append(f"seed pool VI: [{pool}]")
        lines.append(f"contingency (rows: T{b.t_from}, cols: T{b.t_to}):")
        lines.extend(_contingency_lines(b))
        lines.append("")
        lines.append(
            render_event_table(
                b.events,
                b.t_from,
                labels_t=b.row_labels,
                labels_t1=b.col_labels,
            )
        )
    return "\n".join(lines) + "\n"


def write_report(report: RunReport, outdir) -> tuple[str, str]:
    """Write ``report.txt`` (human readable) and ``report.json`` (structured).

    ``report.json`` also carries the package ``version`` that wrote it.
    """
    os.makedirs(outdir, exist_ok=True)
    txt_path = os.path.join(outdir, "report.txt")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(render_report(report))
    json_path = os.path.join(outdir, "report.json")
    payload = asdict(report)
    payload["temporal_correlation_series"] = report.temporal_correlation_series
    payload["version"] = __version__
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return txt_path, json_path
