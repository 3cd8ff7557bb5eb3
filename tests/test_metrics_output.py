"""Reported metrics, CSV export round-trips and report files."""

import json
from pathlib import Path

import numpy as np
import pytest

from temponet import (
    CommunitySpec,
    ConfigurationError,
    Node,
    SamplerConfig,
    ShapeParams,
    Snapshot,
    __version__,
    assemble_snapshot,
    assortativity_coefficient,
    export_temporal_csv,
    fix_parity,
    modularity,
    read_temporal_csv,
    sample_degrees,
    split_degrees,
    temporal_degree_correlation,
)
from temponet.metrics import assortativity_details, temporal_degree_correlation_details
from temponet.output import RunReport, SnapshotMetrics, write_report

from oracles import modularity_reference, pearson_reference, reference_export_temporal_csv


def _snapshot(t, memberships, links, degrees=None):
    nodes = {}
    k = max(memberships.values()) + 1
    clustering = [set() for _ in range(k)]
    realized = {nid: 0 for nid in memberships}
    intra = {nid: 0 for nid in memberships}
    for u, v in links:
        realized[u] += 1
        realized[v] += 1
        if memberships[u] == memberships[v]:
            intra[u] += 1
            intra[v] += 1
    for nid, c in memberships.items():
        d = realized[nid] if degrees is None else degrees[nid]
        nodes[nid] = Node(id=nid, degree=d, intra_degree=intra[nid], community=c)
        clustering[c].add(nid)
    return Snapshot(t=t, nodes=nodes, links=set(links), clustering=clustering)


def test_assortativity_star_is_minus_one():
    members = {i: 0 for i in range(6)}
    star = _snapshot(0, members, {(0, i) for i in range(1, 6)})
    assert assortativity_coefficient(star) == pytest.approx(-1.0)


def test_assortativity_regular_graph_flagged_zero():
    members = {i: 0 for i in range(4)}
    k4 = _snapshot(0, members, {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)})
    value, degenerate = assortativity_details(k4)
    assert value == 0.0 and degenerate


def test_assortativity_matches_corrcoef():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        links = set()
        for _ in range(n * 2):
            u, v = rng.integers(0, n, 2)
            if u != v:
                links.add((min(int(u), int(v)), max(int(u), int(v))))
        if not links:
            continue
        snap = _snapshot(0, {i: 0 for i in range(n)}, links)
        deg = {nid: node.degree for nid, node in snap.nodes.items()}
        xs, ys = [], []
        for u, v in links:
            xs += [deg[u], deg[v]]
            ys += [deg[v], deg[u]]
        if np.std(xs) < 1e-12:
            continue
        assert assortativity_coefficient(snap) == pytest.approx(
            pearson_reference(xs, ys), abs=1e-10
        )


def test_modularity_trivial_partition_is_zero():
    members = {i: 0 for i in range(5)}
    snap = _snapshot(0, members, {(0, 1), (1, 2), (2, 3), (3, 4)})
    assert modularity(snap) == pytest.approx(0.0)


def test_modularity_two_triangles_hand_value():
    # two K3s joined by one edge, ground truth = the triangles:
    # Q = 2 * (3/7 - (7/14)^2) = 5/14 by direct evaluation of the sum
    members = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
    links = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)}
    snap = _snapshot(0, members, links)
    assert modularity(snap) == pytest.approx(5 / 14)
    assert modularity(snap) == pytest.approx(modularity_reference(snap), abs=1e-12)


def test_modularity_matches_reference_on_random_snapshots():
    rng = np.random.default_rng(1)
    done = 0
    while done < 15:
        n = int(rng.integers(6, 30))
        k = int(rng.integers(1, 4))
        memberships = {i: int(rng.integers(0, k)) for i in range(n)}
        links = set()
        for _ in range(n * 2):
            u, v = rng.integers(0, n, 2)
            if u != v:
                links.add((min(int(u), int(v)), max(int(u), int(v))))
        if not links:
            continue
        if max(memberships.values()) + 1 != k:
            continue
        snap = _snapshot(0, memberships, links)
        assert modularity(snap) == pytest.approx(modularity_reference(snap), abs=1e-10)
        done += 1


def test_temporal_correlation_identical_degrees_is_one():
    members = {i: 0 for i in range(5)}
    links = {(0, 1), (1, 2), (2, 3), (3, 4)}  # path: degrees vary
    a = _snapshot(0, members, links)
    b = _snapshot(1, members, links)
    assert temporal_degree_correlation(a, b) == pytest.approx(1.0)


def test_temporal_correlation_constant_series_flagged():
    members = {i: 0 for i in range(4)}
    k4 = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    value, degenerate = temporal_degree_correlation_details(
        _snapshot(0, members, k4), _snapshot(1, members, k4)
    )
    assert value == 0.0 and degenerate


def test_csv_export_round_trip_and_intervals(tmp_path):
    # node 2 dies after t=0, node 3 is born at t=1; edge (0,1) persists
    snap0 = _snapshot(0, {0: 0, 1: 0, 2: 1, 4: 1}, {(0, 1), (2, 4)})
    snap1 = _snapshot(1, {0: 0, 1: 0, 3: 1, 4: 1}, {(0, 1), (3, 4)})
    snap0.community_labels = [0, 1]
    snap1.community_labels = [0, 1]
    nodes_path, edges_path = export_temporal_csv([snap0, snap1], tmp_path)
    communities, edges = read_temporal_csv(nodes_path, edges_path)
    for snap in (snap0, snap1):
        want = {nid: snap.community_labels[n.community] for nid, n in snap.nodes.items()}
        assert communities[snap.t] == want
        assert edges[snap.t] == snap.links
    text = Path(nodes_path).read_text()
    assert "<[0,2)>" in text  # persistent nodes got one merged interval


def test_csv_golden_layout(tmp_path):
    snap = _snapshot(0, {0: 0, 1: 0, 2: 1}, {(0, 1), (1, 2)})
    snap.community_labels = [5, 9]
    nodes_path, edges_path = export_temporal_csv([snap], tmp_path)
    assert Path(nodes_path).read_text() == (
        "Id,Label,Communities,Interval\n"
        '0,n0,"<[0,1,5)>","<[0,1)>"\n'
        '1,n1,"<[0,1,5)>","<[0,1)>"\n'
        '2,n2,"<[0,1,9)>","<[0,1)>"\n'
    )
    assert Path(edges_path).read_text() == (
        "Source,Target,Type,Interval\n"
        '0,1,Undirected,"<[0,1)>"\n'
        '1,2,Undirected,"<[0,1)>"\n'
    )


def _random_snapshot(t, rng) -> Snapshot:
    """A small snapshot over node ids 0..11 with random labels; degrees are not checked."""
    ids = sorted(int(x) for x in rng.choice(12, size=int(rng.integers(0, 10)), replace=False))
    k = int(rng.integers(1, 4))
    clustering = [set() for _ in range(k)]
    nodes = {}
    for nid in ids:
        c = int(rng.integers(k))
        clustering[c].add(nid)
        nodes[nid] = Node(id=nid, degree=1, intra_degree=0, community=c)
    links = set()
    for _ in range(int(rng.integers(0, 2 * len(ids) + 1))):
        u, v = rng.choice(ids, size=2, replace=False) if len(ids) > 1 else (0, 0)
        if u != v:
            links.add((int(min(u, v)), int(max(u, v))))
    labels = [int(x) for x in rng.integers(0, 4, k)]
    return Snapshot(t=t, nodes=nodes, links=links, clustering=clustering, community_labels=labels)


def test_export_matches_the_per_field_reference(tmp_path):
    # gaps between timesteps, label changes, empty snapshots and shuffled input
    rng = np.random.default_rng(303)
    for case in range(240):
        steps = rng.choice(10, size=int(rng.integers(1, 8)), replace=False)
        if case % 2:
            steps = np.sort(steps)
        snaps = [_random_snapshot(int(t), rng) for t in steps]
        want = reference_export_temporal_csv(snaps, tmp_path / f"ref{case}")
        got = export_temporal_csv(snaps, tmp_path / f"new{case}")
        for a, b in zip(want, got):
            assert Path(a).read_bytes() == Path(b).read_bytes(), case


def test_export_requires_snapshots(tmp_path):
    with pytest.raises(ConfigurationError):
        export_temporal_csv([], tmp_path)


def test_export_empty_network_writes_header_only_files(tmp_path):
    empty = Snapshot(t=0, nodes={}, links=set(), clustering=[])
    nodes_path, edges_path = export_temporal_csv([empty], tmp_path)
    assert Path(nodes_path).read_text() == "Id,Label,Communities,Interval\n"
    assert Path(edges_path).read_text() == "Source,Target,Type,Interval\n"


def test_report_files(tmp_path):
    report = RunReport(
        seed=5,
        config={"timesteps": 1},
        snapshots=[
            SnapshotMetrics(
                t=0, nodes=4, links=3, communities=2, assortativity=-0.5,
                assortativity_degenerate=False, modularity=0.1, wiring_repairs=0,
            )
        ],
        boundaries=[],
    )
    txt, js = write_report(report, tmp_path)
    text = Path(txt).read_text()
    assert "seed 5" in text and "T0:" in text
    payload = json.loads(Path(js).read_text())
    assert payload["seed"] == 5
    assert payload["snapshots"][0]["nodes"] == 4
    assert payload["temporal_correlation_series"] == []
    assert payload["version"] == __version__


def test_large_uniform_network_assortativity_near_zero():
    # structural sanity at n = 10^4: uniform pairing keeps the coefficient
    # within +-0.05 of zero
    rng = np.random.default_rng(77)
    sizes = CommunitySpec((10_000,))
    total = sample_degrees(SamplerConfig("uniform", 5, 30), 10_000, rng)
    spec = fix_parity(split_degrees(total, 1.0, "fixed", "nearest", rng), rng, (5, 30))
    snap = assemble_snapshot(0, sizes, spec, rng, pairing_shape=ShapeParams(1, 1))
    assert abs(assortativity_coefficient(snap)) < 0.05
