"""Reported metrics, CSV export round-trips and report files."""

import dataclasses
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
    export_temporal_csv,
    fix_parity,
    modularity,
    read_temporal_csv,
    sample_degrees,
    split_degrees,
)
from temponet import output
from temponet.metrics import assortativity_details, temporal_degree_correlation_details
from temponet.output import RunReport, SnapshotMetrics, write_report

from oracles import (
    modularity_reference,
    pearson_reference,
    reference_assortativity_details,
    reference_export_temporal_csv,
    reference_modularity,
    snapshot_from_nodes,
)


def _snapshot(t, memberships, links, degrees=None, community_count=None):
    nodes = {}
    k = max(memberships.values()) + 1 if community_count is None else community_count
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
    return snapshot_from_nodes(t, nodes, list(links), k)


def test_assortativity_star_is_minus_one():
    members = {i: 0 for i in range(6)}
    star = _snapshot(0, members, {(0, i) for i in range(1, 6)})
    assert assortativity_details(star)[0] == pytest.approx(-1.0)


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
        assert assortativity_details(snap)[0] == pytest.approx(
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


def _scattered_snapshot(rng, ring: bool) -> Snapshot:
    """A snapshot over scattered ids (some >= 2**32), given in shuffled order,
    with isolated nodes, empty communities and both link orientations.  With
    ``ring`` the links form one cycle, so every endpoint has degree 2."""
    pool = np.concatenate([
        rng.integers(0, 50, 20),
        rng.integers(2**32 - 5, 2**32 + 5, 10),
        rng.integers(2**40, 2**41, 20),
    ])
    ids = [int(x) for x in rng.permutation(sorted(set(pool.tolist())))]
    ids = ids[: int(rng.integers(3, len(ids) + 1))]
    k = int(rng.integers(1, 6))
    memberships = {nid: int(rng.integers(k)) for nid in ids}
    if ring:
        cycle = ids[: int(rng.integers(3, len(ids) + 1))]
        links = {(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1])}
    else:
        links = set()
        for _ in range(int(rng.integers(1, 2 * len(ids)))):
            u, v = rng.choice(ids, 2)
            if u != v:
                links.add((int(u), int(v)))
        if not links:
            links.add((ids[0], ids[1]))
    # one community past the last one named: it is empty
    return _snapshot(0, memberships, links, community_count=max(memberships.values()) + 2)


def test_snapshot_metrics_equal_the_loop_references():
    # floats and flags compared with ==, so a changed summation order shows
    rng = np.random.default_rng(41)
    flags = set()
    for trial in range(300):
        snap = _scattered_snapshot(rng, ring=trial % 4 == 0)
        got = assortativity_details(snap)
        assert got == reference_assortativity_details(snap)
        assert modularity(snap) == reference_modularity(snap)
        flags.add(got[1])
    assert flags == {False, True}


@pytest.mark.parametrize(
    "unknown", [-1, 3, 2**31, 2**40], ids=["below", "between", "wide_gap", "above"]
)
def test_snapshot_metrics_raise_on_a_link_to_an_unknown_id(unknown):
    metrics = (
        reference_assortativity_details, assortativity_details, reference_modularity, modularity
    )
    snap = _snapshot(0, {0: 0, 2: 0, 5: 1, 2**32: 1}, {(0, 2), (2, 5), (5, 2**32)})
    snap = dataclasses.replace(snap, endpoints=np.vstack([snap.endpoints, [(2, unknown)]]))
    for fn in metrics:
        with pytest.raises(KeyError):
            fn(snap)
    snap = dataclasses.replace(snap, endpoints=[])
    for fn in metrics:
        with pytest.raises(ConfigurationError):
            fn(snap)


def test_temporal_correlation_identical_degrees_is_one():
    members = {i: 0 for i in range(5)}
    links = {(0, 1), (1, 2), (2, 3), (3, 4)}  # path: degrees vary
    a = _snapshot(0, members, links)
    b = _snapshot(1, members, links)
    assert temporal_degree_correlation_details(a, b)[0] == pytest.approx(1.0)


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
    nodes = {}
    for nid in ids:
        c = int(rng.integers(k))
        nodes[nid] = Node(id=nid, degree=1, intra_degree=0, community=c)
    links = set()
    for _ in range(int(rng.integers(0, 2 * len(ids) + 1))):
        u, v = rng.choice(ids, size=2, replace=False) if len(ids) > 1 else (0, 0)
        if u != v:
            links.add((int(min(u, v)), int(max(u, v))))
    labels = [int(x) for x in rng.integers(0, 4, k)]
    return snapshot_from_nodes(t, nodes, links, k, community_labels=labels)


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


def _sticky_snapshots(rng, steps, n) -> list[Snapshot]:
    """``steps`` snapshots in shuffled order over ``n`` ids above 2**32 and a
    few small ones, with labels above 2**31.  Presence, labels and links follow
    sticky chains: runs are long, and gaps and label changes fall inside
    lifetimes.  The last third of the ids never get a link."""
    ids = np.unique(np.concatenate([rng.integers(0, 50, 5), 2**32 + rng.integers(0, 2**40, n)]))
    values = [2**31, 2**31 + 7, 2**45 + 1]
    linkable = 2 * len(ids) // 3
    ends = rng.integers(0, linkable, (2, 2 * len(ids)))
    pairs = sorted({(min(a, b), max(a, b)) for a, b in ends.T.tolist() if a != b})
    alive = rng.random(len(ids)) < 0.7
    label = rng.integers(0, len(values), len(ids))
    linked = rng.random(len(pairs)) < 0.5
    snaps = []
    for t in range(steps):
        alive ^= rng.random(len(ids)) < 0.15
        moved = rng.random(len(ids)) < 0.1
        label[moved] = rng.integers(0, len(values), int(moved.sum()))
        linked ^= rng.random(len(pairs)) < 0.2
        order = rng.permutation(len(values))
        community = np.argsort(order)  # label index -> community index
        nodes = {}
        for i in np.flatnonzero(alive).tolist():
            nid, c = int(ids[i]), int(community[label[i]])
            nodes[nid] = Node(id=nid, degree=0, intra_degree=0, community=c)
        links = {
            (int(ids[a]), int(ids[b]))
            for (a, b), on in zip(pairs, linked.tolist())
            if on and alive[a] and alive[b]
        }
        labels = [values[k] for k in order.tolist()]
        snaps.append(snapshot_from_nodes(t, nodes, links, len(values), community_labels=labels))
    return [snaps[i] for i in rng.permutation(steps)]


def test_export_matches_the_reference_on_wide_ids_and_long_runs(tmp_path):
    # ids and labels past 32 bits, 30+ timesteps, linkless nodes, shuffled
    # input, and one network whose node and edge keys span several blocks
    rng = np.random.default_rng(808)
    cases = [(int(rng.integers(30, 46)), 40) for _ in range(12)] + [(3, 4000)]
    for case, (steps, n) in enumerate(cases):
        snaps = _sticky_snapshots(rng, steps, n)
        want = reference_export_temporal_csv(snaps, tmp_path / f"ref{case}")
        got = export_temporal_csv(snaps, tmp_path / f"new{case}")
        for a, b in zip(want, got):
            assert Path(a).read_bytes() == Path(b).read_bytes(), case
    for path in got:
        assert len(Path(path).read_text().splitlines()) > 2 * output._BLOCK + 1


@pytest.mark.parametrize("spread", [2**8, 2**31, 2**62])
def test_edge_order_matches_lexsort_on_ids_past_32_bits(tmp_path, spread):
    # ids from 2**32 on, spread over ``spread`` values: at 2**8 and 2**31 the
    # single (u, v) sort key fits in int64, at 2**62 the export falls back to
    # np.lexsort.  Pairs recur across timesteps, so the sort must be stable.
    rng = np.random.default_rng(spread % 997)
    ids = np.unique(2**32 + rng.integers(0, spread, 40))
    pool = {tuple(sorted(p)) for p in rng.choice(ids, (60, 2)).tolist() if p[0] != p[1]}
    pool = sorted(pool)
    snaps = []
    for t in rng.permutation(6).tolist():
        nodes = {int(nid): Node(int(nid), 0, 0, 0) for nid in ids}
        links = [pool[i] for i in rng.permutation(len(pool))[: len(pool) // 2]]
        snaps.append(snapshot_from_nodes(t, nodes, links, 1))
    ordered = sorted(snaps, key=lambda s: s.t)
    u = np.concatenate([s.endpoints[:, 0] for s in ordered])
    v = np.concatenate([s.endpoints[:, 1] for s in ordered])
    assert np.array_equal(output._pair_order(u, v), np.lexsort((v, u)))
    want = reference_export_temporal_csv(snaps, tmp_path / "ref")
    got = export_temporal_csv(snaps, tmp_path / "new")
    for a, b in zip(want, got):
        assert Path(a).read_bytes() == Path(b).read_bytes()


@pytest.mark.parametrize("block", [1, 2, 3])
def test_export_matches_the_reference_at_block_edges(tmp_path, monkeypatch, block):
    # blocks of 1-3 keys: the many runs of the sticky keys end and start
    # at every block edge, and a network with no links at all writes a
    # header-only edges.csv through the same blocks
    monkeypatch.setattr(output, "_BLOCK", block)
    rng = np.random.default_rng(909)
    cases = [_sticky_snapshots(rng, int(rng.integers(5, 30)), 12) for _ in range(4)]
    cases.append(
        [
            snapshot_from_nodes(
                s.t, s.nodes, [], s.community_count, community_labels=s.community_labels
            )
            for s in cases[0]
        ]
    )
    for case, snaps in enumerate(cases):
        want = reference_export_temporal_csv(snaps, tmp_path / f"ref{case}")
        got = export_temporal_csv(snaps, tmp_path / f"new{case}")
        for a, b in zip(want, got):
            assert Path(a).read_bytes() == Path(b).read_bytes(), case
    assert Path(got[1]).read_text() == "Source,Target,Type,Interval\n"


@pytest.mark.parametrize(
    "name, text, segment",
    [
        ("edges.csv", "<[0,x)>", "[0,x)"),
        ("edges.csv", "<[0,1); [0,1,5)>", "[0,1,5)"),
        ("edges.csv", "<[0)>", "[0)"),
        ("nodes.csv", "<[0)>", "[0)"),
        ("nodes.csv", "<[0,1,5); [1,2)>", "[1,2)"),
    ],
)
def test_read_rejects_a_malformed_interval(tmp_path, name, text, segment):
    # the bad field sits in the second row of its file
    good = {
        "nodes.csv": 'Id,Label,Communities,Interval\n0,n0,"<[0,2,5)>","<[0,2)>"\n',
        "edges.csv": 'Source,Target,Type,Interval\n0,1,Undirected,"<[0,2)>"\n',
    }
    bad = {"nodes.csv": f'1,n1,"{text}","<[0,2)>"\n', "edges.csv": f'0,2,Undirected,"{text}"\n'}
    for file, head in good.items():
        (tmp_path / file).write_text(head + (bad[file] if file == name else ""))
    with pytest.raises(ConfigurationError) as info:
        read_temporal_csv(tmp_path / "nodes.csv", tmp_path / "edges.csv")
    assert str(info.value) == f"{tmp_path / name} row 2: bad interval segment {segment!r}"


@pytest.mark.parametrize(
    "name, row, problem",
    [
        ("nodes.csv", '1x,n1,"<[0,2,5)>","<[0,2)>"', "bad Id '1x'"),
        ("edges.csv", '0,two,Undirected,"<[0,2)>"', "bad Target 'two'"),
        ("edges.csv", ',2,Undirected,"<[0,2)>"', "bad Source ''"),
        ("nodes.csv", '1,n1,"<[0,2,5)>"', "3 fields, the header names 4"),
        ("edges.csv", "0,2", "2 fields, the header names 4"),
    ],
)
def test_read_rejects_a_bad_id_or_a_short_row(tmp_path, name, row, problem):
    # the bad row is the second of its file
    good = {
        "nodes.csv": 'Id,Label,Communities,Interval\n0,n0,"<[0,2,5)>","<[0,2)>"\n',
        "edges.csv": 'Source,Target,Type,Interval\n0,1,Undirected,"<[0,2)>"\n',
    }
    for file, head in good.items():
        (tmp_path / file).write_text(head + (row + "\n" if file == name else ""))
    with pytest.raises(ConfigurationError) as info:
        read_temporal_csv(tmp_path / "nodes.csv", tmp_path / "edges.csv")
    assert str(info.value) == f"{tmp_path / name} row 2: {problem}"


def test_export_requires_snapshots(tmp_path):
    with pytest.raises(ConfigurationError):
        export_temporal_csv([], tmp_path)


def test_export_empty_network_writes_header_only_files(tmp_path):
    empty = snapshot_from_nodes(0, {}, [], 0)
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


def test_contingency_rows_align_to_the_widest_label():
    boundary = output.BoundaryReport(
        t_from=0, t_to=1, vi=0.5, contingency=[[3, 0, 12], [0, 1234567, 0]],
        row_labels=["7", "births"], col_labels=["1000000", "9", "deaths"],
        temporal_degree_correlation=0.0, correlation_degenerate=False,
        deaths=12, births=1234567, seed_pool_vi=[0.5],
    )
    assert output._contingency_lines(boundary) == [
        "        1000000       9  deaths",
        "      7       3       0      12",
        " births       0 1234567       0",
    ]
    boundary.row_labels, boundary.col_labels = ["0", "1"], ["0", "1", "2"]
    assert output._contingency_lines(boundary)[1:] == [
        "    0     3     0    12",
        "    1     0 1234567     0",
    ]


def test_large_uniform_network_assortativity_near_zero():
    # structural sanity at n = 10^4: uniform pairing keeps the coefficient
    # within +-0.05 of zero
    rng = np.random.default_rng(77)
    sizes = CommunitySpec((10_000,))
    total = sample_degrees(SamplerConfig("uniform", 5, 30), 10_000, rng)
    spec = fix_parity(split_degrees(total, 1.0, "fixed", "nearest", rng), rng, (5, 30))
    snap = assemble_snapshot(0, sizes, spec, rng, pairing_shape=ShapeParams(1, 1))
    assert abs(assortativity_details(snap)[0]) < 0.05
