"""Node assignment, the modified configuration model and its repairs."""

import copy
import dataclasses
import hashlib
import json
import re
from collections import Counter

import numpy as np
import pytest

from temponet import (
    CommunitySpec,
    ConfigurationError,
    DegreeSpec,
    GraphabilityError,
    Node,
    SamplerConfig,
    ShapeParams,
    Snapshot,
    WiringError,
    assemble_snapshot,
    assign_nodes,
    check_connectivity,
    check_graphable,
    fix_parity,
    modularity,
    sample_degrees,
    split_degrees,
    wire_inter,
    wire_intra,
)
from temponet import assembler
from temponet.assembler import ASSIGNMENT_ATTEMPTS, repair_intra_parity
from temponet.metrics import assortativity_details

from oracles import (
    column_api,
    degree_joint_distribution_baseline,
    first_fit_assign_nodes,
    node_columns,
    placement_columns,
    placement_dict,
    realizable_with_parts,
    reference_assign_nodes,
    reference_check_connectivity,
    reference_repair_intra_parity,
    reference_validate,
    reference_wire_intra,
    reference_wire_phase,
    rooms_admit_tuples,
    snapshot_from_nodes,
    spectral_component_count,
)

WORKED_SIZES = CommunitySpec((4, 4, 2))
WORKED_SPEC = DegreeSpec((4, 4, 4, 3, 3, 3, 3, 2, 2, 2), (3, 3, 3, 2, 2, 2, 2, 1, 1, 1))


def random_graphable_spec(rng, n_max=120):
    """Sample sizes/degrees until the pre-assignment gate accepts.

    Candidates can still fail the full membership-dependent gate inside the
    assembler (odd community parity with no swap, concentrated inter
    aggregates); callers skip those by catching ``GraphabilityError``.
    """
    while True:
        k = int(rng.integers(2, 6))
        sizes = CommunitySpec(tuple(int(rng.integers(5, max(6, n_max // k))) for _ in range(k)))
        total = sample_degrees(SamplerConfig("uniform", 2, 8), sizes.node_count, rng)
        spec = split_degrees(total, float(rng.uniform(0.4, 0.8)), "bernoulli", "stochastic", rng)
        spec = fix_parity(spec, rng)
        if check_graphable(sizes, spec).ok:
            return sizes, spec


def assembled_graphable_spec(rng, n_max=120):
    """A (sizes, spec, snapshot) triple that passed the full gate and wired."""
    while True:
        sizes, spec = random_graphable_spec(rng, n_max)
        try:
            snap = assemble_snapshot(0, sizes, spec, rng)
        except GraphabilityError:
            continue
        return sizes, spec, snap


def test_shape_params_validation():
    with pytest.raises(ConfigurationError):
        ShapeParams(0.0, 1.0)


def test_assign_bootstrap_respects_capacity():
    rng = np.random.default_rng(0)
    sizes = CommunitySpec((4, 2))
    spec = DegreeSpec((3, 3, 3, 3, 1, 1), (3, 3, 3, 3, 1, 1))
    for _ in range(30):
        ids, community, degree, intra = assign_nodes(sizes, spec, rng)
        assert (intra <= np.array(sizes.sizes)[community] - 1).all()
        assert np.bincount(community).tolist() == [4, 2]
        assert degree.tolist() == [spec.total[i] for i in ids]
        # the e=3 slots only fit into the size-4 community
        assert (community[ids < 4] == 0).all()


def test_assign_single_community_takes_everyone():
    rng = np.random.default_rng(1)
    sizes = CommunitySpec((5,))
    spec = DegreeSpec((2, 2, 2, 2, 2), (2, 2, 2, 2, 2))
    _, community, _, _ = assign_nodes(sizes, spec, rng, temporal_shape=ShapeParams(9, 1))
    assert (community == 0).all()


def _temporal_correlation(shape, spec, rng):
    """The correlation of 40 ids' previous degrees 1..40 with their new degrees."""
    ids = np.arange(40)
    prev = ids + 1  # distinct previous degrees
    placed, _, new_d, _ = assign_nodes(
        CommunitySpec((40,)), spec, rng, ids=ids, community=np.zeros(40, np.int64),
        temporal_shape=shape, prev_degree=prev,
    )
    return np.corrcoef(prev[placed], new_d)[0, 1]


def test_assign_temporal_uniform_shape_uncorrelated():
    # alpha = beta = 1 reverts to a uniform draw: repeating the assignment
    # many times shows no systematic degree correlation
    rng = np.random.default_rng(2)
    total = tuple(int(x) for x in rng.integers(1, 20, 40))
    spec = DegreeSpec(total, (0,) * 40)
    corrs = [_temporal_correlation(ShapeParams(1, 1), spec, rng) for _ in range(120)]
    assert abs(np.mean(corrs)) < 0.05


def test_assign_temporal_skewed_shape_correlates():
    rng = np.random.default_rng(3)
    total = tuple(sorted(int(x) for x in rng.integers(1, 30, 40)))
    spec = DegreeSpec(total, (0,) * 40)
    assert _temporal_correlation(ShapeParams(50, 1), spec, rng) > 0.9


def _counting_assign(monkeypatch):
    calls = []
    real = assembler.assign_nodes

    def counted(*args, **kw):
        calls.append(None)
        return real(*args, **kw)

    monkeypatch.setattr(assembler, "assign_nodes", counted)
    return calls


def test_exhausted_assignment_names_timestep_attempts_and_conditions(monkeypatch):
    # the singleton can only take the intra-degree-0 slot, whose 4 inter stubs
    # outnumber everyone else's, so every assignment pass fails the inter gate
    sizes = CommunitySpec((1, 3))
    spec = DegreeSpec((4, 2, 2, 2), (0, 2, 2, 2))
    assert check_graphable(sizes, spec).ok
    calls = _counting_assign(monkeypatch)
    with pytest.raises(GraphabilityError) as info:
        assemble_snapshot(5, sizes, spec, np.random.default_rng(0))
    message = str(info.value)
    assert message.startswith(f"timestep 5: {ASSIGNMENT_ATTEMPTS} assignment attempt(s) failed:")
    assert "inter_max" in message and f"(x{ASSIGNMENT_ATTEMPTS})" in message
    # a failed gate ends an attempt after a single pass
    assert len(calls) == ASSIGNMENT_ATTEMPTS


def test_unmatchable_placement_raises_once_before_any_draw(monkeypatch):
    # node 0 stays in the singleton, where no intra degree 2 fits: Hall's
    # count fails, so placement raises before its first draw and the snapshot
    # ends at once, since every pass would fail the same way
    sizes = CommunitySpec((1, 3))
    spec = DegreeSpec((2, 2, 2, 2), (2, 2, 2, 2))
    calls = _counting_assign(monkeypatch)
    rng = np.random.default_rng(0)
    with pytest.raises(GraphabilityError) as info:
        assemble_snapshot(2, sizes, spec, rng, ids=[0, 1, 2, 3], community=[0, 1, 1, 1])
    assert str(info.value) == (
        "timestep 2: degree tuples could not be matched to the flow-dictated communities"
    )
    assert len(calls) == 1
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def _lists(columns) -> list[list[int]]:
    return [np.asarray(column).tolist() for column in columns]


def _check_repair(assignment, sizes) -> None:
    """Check that ``repair_intra_parity`` of an id -> (c, d, e) dict swaps
    only (d, e) entries, leaves every community's intra sum even and keeps
    the tuple multiset."""
    placed = placement_columns(assignment)
    fixed = repair_intra_parity(*placed, sizes)
    assert _lists(fixed[:2]) == _lists(placed[:2])
    assert (np.bincount(fixed[1], weights=fixed[3]) % 2 == 0).all()
    assert sorted(zip(*_lists(fixed[2:]))) == sorted(zip(*_lists(placed[2:])))


def test_repair_intra_parity_fixes_odd_communities():
    sizes = CommunitySpec((3, 3))
    # community 0 holds {3: e=1}, {4: e=2}, {5: e=2} -> odd; community 1 odd too
    assignment = {
        0: (0, 4, 1), 1: (0, 4, 2), 2: (0, 4, 2),
        3: (1, 4, 2), 4: (1, 4, 1), 5: (1, 4, 2),
    }
    _check_repair(assignment, sizes)


def test_repair_intra_parity_unequal_degree_fallback():
    # deterministic split: e is a function of d, so equal-degree swaps cannot
    # change parity and the unequal-degree fallback must engage
    sizes = CommunitySpec((6, 6))
    assignment = {
        0: (0, 5, 5), 1: (0, 4, 4), 2: (0, 4, 4),
        3: (1, 5, 5), 4: (1, 5, 5), 5: (1, 4, 4),
    }
    # community sums: 13 odd, 14 even -> odd count of odd communities
    with pytest.raises(GraphabilityError):
        repair_intra_parity(*placement_columns(assignment), sizes)
    assignment[5] = (1, 5, 5)  # sums 13, 15: swap a 4-tuple against a 5-tuple
    _check_repair(assignment, sizes)


def _outcome(fn, *args):
    """``("ok", result)`` or the text of the expected exception."""
    try:
        result = fn(*args)
    except (GraphabilityError, AssertionError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", result


def test_parity_repair_matches_the_two_loop_reference():
    # assignments from both assign_nodes orders (bootstrap: by intra degree;
    # temporal: survivors by previous degree, then newborns) over deterministic
    # ("nearest": e is a function of d) and stochastic intra splits
    rng = np.random.default_rng(2024)
    tally = {"even": 0, "swapped": 0, "raised": 0}
    cases = 0
    while cases < 2400:
        k = int(rng.integers(2, 7))
        sizes = CommunitySpec(tuple(int(x) for x in rng.integers(2, 9, k)))
        n = sizes.node_count
        total = sample_degrees(SamplerConfig("uniform", 1, 8), n, rng)
        rounding = ("nearest", "stochastic")[cases % 2]
        spec = split_degrees(total, float(rng.uniform(0.0, 0.7)), "fixed", rounding, rng)
        placement = {}
        if cases % 4 >= 2:
            ids = [int(x) for x in rng.permutation(3 * n)[:n]]
            membership = rng.permutation(np.repeat(np.arange(k), sizes.sizes))
            prev = [int(rng.integers(1, 9)) for _ in ids[: n // 2]] + [0] * (n - n // 2)
            placement = dict(ids=ids, community=membership, prev_degree=prev)
        try:
            placed = assign_nodes(sizes, spec, rng, **placement)
        except GraphabilityError:
            continue
        cases += 1
        assignment = placement_dict(*placed)
        want = _outcome(reference_repair_intra_parity, assignment, sizes)
        got = _outcome(repair_intra_parity, *placed, sizes)
        if want[0] == "ok":
            # equal content in equal order
            assert got[0] == "ok" and _lists(got[1]) == _lists(placement_columns(want[1]))
            tally["even" if want[1] == assignment else "swapped"] += 1
        else:
            assert got == want
            tally["raised"] += 1
    assert min(tally.values()) >= 200, tally


# sha256 of the outcomes below as placement on id-keyed dicts ({id:
# community} in, {id: (community, d, e)} out, in placement order) made them
PLACEMENT_DIGEST = "f4e657ec2dfba133cee5b4b9d66077fb07fd858c8a30fe87de60efd4150f6ee2"


def test_placement_and_parity_make_the_pinned_picks():
    """2,000 placement-plus-parity passes hash to ``PLACEMENT_DIGEST``.

    Bootstrap and temporal placement (without previous degrees, with them
    for every node, and for about half), both roundings and four temporal
    shapes, on specs with even global sums; each outcome hashes the four
    columns in placement order, or the error text, and the final generator
    state.  So the column API makes the dict API's picks, swaps and
    generator calls, and the parity scan's order (equal-degree candidates
    in placement order, the rest in id order) is pinned.
    """
    gen = np.random.default_rng(3030)
    shapes = [(1, 1), (5, 1), (1, 5), (0.5, 0.5)]
    h = hashlib.sha256()
    tally = Counter()
    for trial in range(2000):
        k = int(gen.integers(1, 7))
        sizes = CommunitySpec(tuple(int(x) for x in gen.integers(2, 10, k)))
        n = sizes.node_count
        total = sample_degrees(SamplerConfig("uniform", 1, 9), n, gen)
        rounding = ("nearest", "stochastic")[trial % 2]
        spec = fix_parity(
            split_degrees(total, float(gen.uniform(0.0, 0.8)), "fixed", rounding, gen), gen
        )
        ids = community = prev = None
        mode = trial // 2 % 4  # bootstrap, then temporal with no, all or some history
        if mode:
            ids = gen.permutation(3 * n)[:n].tolist()
            community = gen.permutation(np.repeat(np.arange(k), sizes.sizes)).tolist()
            if mode > 1:
                share = (1.0, 0.5)[mode - 2]
                prev = [int(gen.integers(1, 12)) if gen.random() < share else 0 for _ in ids]
        rng = np.random.default_rng(trial)
        try:
            placed = assign_nodes(
                sizes, spec, rng, ids=ids, community=community,
                temporal_shape=ShapeParams(*shapes[trial % 4]), prev_degree=prev,
            )
            fixed = repair_intra_parity(*placed, sizes)
            outcome = _lists(fixed)
            tally["swapped" if outcome != _lists(placed) else "even"] += 1
        except GraphabilityError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
            tally["raised"] += 1
        h.update(json.dumps([outcome, rng.bit_generator.state], sort_keys=True).encode())
    assert h.hexdigest() == PLACEMENT_DIGEST
    assert min(tally.values()) >= 300, tally


@pytest.mark.parametrize(
    "ids, community, prev, match",
    [
        (range(6), [0, 0, 0, 1, 1, -1], None, "slot 5: community index -1 out of range"),
        (range(6), [0, 0, 0, 1, 1, 2], None, "slot 5: community index 2 out of range"),
        (range(6), [0, 0, 0, 0, 1, 1], None, "community 0: membership places 4 nodes, size is 3"),
        ([0, 1, 2, 3, 4, 4], [0, 0, 0, 1, 1, 1], None, "node id 4 repeats"),
        (range(6), [0, 0, 0, 1, 1, 1], [3, 3, -1, 0, 0, 0], "previous degrees must be >= 0"),
        (range(6), [0, 0, 0, 1, 1], None, "the node columns differ in length"),
    ],
)
def test_placement_refuses_bad_membership_columns_before_any_draw(ids, community, prev, match):
    # two triangles' worth of tuples, which the right columns assemble
    sizes = CommunitySpec((3, 3))
    spec = DegreeSpec((2,) * 6, (2,) * 6)
    placement = dict(ids=list(ids), community=community, prev_degree=prev)
    for place in (
        lambda rng: assign_nodes(sizes, spec, rng, **placement),
        lambda rng: assemble_snapshot(1, sizes, spec, rng, **placement),
    ):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match=re.escape(match)):
            place(rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    good = dict(ids=list(range(6)), community=[0, 0, 0, 1, 1, 1], prev_degree=[3, 3, 3, 0, 0, 0])
    assert assemble_snapshot(1, sizes, spec, np.random.default_rng(0), **good).link_count == 6


def _with_row(snap: Snapshot, row, at: int) -> Snapshot:
    """``snap`` with the link row ``row`` inserted before row ``at``."""
    return dataclasses.replace(snap, endpoints=np.insert(snap.endpoints, at, row, axis=0))


def _with_entry(snap: Snapshot, name: str, i: int, value: int) -> Snapshot:
    """``snap`` with entry ``i`` of the node column ``name`` set to ``value``."""
    column = getattr(snap, name).copy()
    column[i] = value
    return dataclasses.replace(snap, **{name: column})


def _mutate(snap: Snapshot, kind: str, rng) -> Snapshot:
    """Break one postcondition of a valid snapshot, in a new snapshot.

    A link fault inserts its row at a random place among the rows; the other
    faults edit one entry of a node column.
    """
    ids = snap.ids.tolist()
    i = int(rng.integers(len(ids)))
    nid = ids[i]
    links = sorted(snap.links)
    if kind in ("self_loop", "unknown_node", "duplicate"):
        if kind == "self_loop":
            row = (nid, nid)
        elif kind == "unknown_node":
            row = (nid, ids[-1] + 1 + int(rng.integers(3)))
        else:
            u, v = links[int(rng.integers(len(links)))]
            row = (v, u)
        return _with_row(snap, row, int(rng.integers(snap.link_count + 1)))
    if kind == "community_range":
        return _with_entry(snap, "community", i, (-1, snap.community_count)[i % 2])
    if kind == "degree":
        return _with_entry(snap, "degree", i, snap.degree[i] + 1)
    if kind == "intra_degree":
        delta = -1 if snap.intra_degree[i] else 1
        return _with_entry(snap, "intra_degree", i, snap.intra_degree[i] + delta)
    raise ValueError(kind)


def test_validate_matches_the_two_pass_reference():
    # one to three mutations per trial, so the first failing check decides
    kinds = ["self_loop", "unknown_node", "duplicate", "community_range", "degree", "intra_degree"]
    checks = (
        "self-loop", "unknown nodes", "duplicate link", "outside the", "realized degree",
        "realized intra degree",
    )
    rng = np.random.default_rng(31)
    bases = [assembled_graphable_spec(rng, n_max=40)[2] for _ in range(6)]
    seen = set()
    for trial in range(800):
        snap = bases[trial % len(bases)]
        assert _outcome(Snapshot.validate, snap) == ("ok", None)
        count = 1 if trial < 400 else int(rng.integers(2, 4))
        for kind in (kinds[trial % len(kinds)], *rng.choice(kinds, count - 1)):
            snap = _mutate(snap, str(kind), rng)
        want = _outcome(reference_validate, snap)
        assert want[0] == "AssertionError"
        assert _outcome(Snapshot.validate, snap) == want
        seen.update(check for check in checks if check in want[1])
    assert seen == set(checks)


def _relabelled(snap: Snapshot, relabel) -> Snapshot:
    """``snap`` with every node id ``nid`` renamed to ``relabel(nid)``."""
    return snapshot_from_nodes(
        snap.t,
        {
            relabel(nid): Node(relabel(nid), node.degree, node.intra_degree, node.community)
            for nid, node in snap.nodes.items()
        },
        [(relabel(u), relabel(v)) for u, v in snap.endpoints.tolist()],
        snap.community_count,
    )


@pytest.mark.parametrize("gap", [3, 2**20], ids=["table", "binary_search"])
@pytest.mark.parametrize("case", ["below", "between", "above", "reversed_first"])
def test_validate_matches_the_reference_at_the_edges_of_the_id_lookup(case, gap):
    # ids 2**32 + gap * i leave room below the smallest id, between ids and
    # above the largest, and a gap of 2**20 is too sparse for the id table;
    # an unknown id there, or a reversed copy of the first link placed before
    # it, must fail as in the two-pass reference
    rng = np.random.default_rng(37)
    for trial in range(12):
        snap = _relabelled(
            assembled_graphable_spec(rng, n_max=40)[2], lambda nid: 2**32 + gap * nid
        )
        assert _outcome(Snapshot.validate, snap) == ("ok", None)
        ids = snap.ids.tolist()
        known = ids[int(rng.integers(len(ids)))]
        if case == "reversed_first":
            u, v = snap.endpoints[0].tolist()
            snap = _with_row(snap, (v, u), 0)
        else:
            unknown = {"below": ids[0] - 1, "between": ids[1] - 1, "above": ids[-1] + 1}[case]
            row = (known, unknown) if trial % 2 else (unknown, known)
            snap = _with_row(snap, row, int(rng.integers(snap.link_count + 1)))
        want = _outcome(reference_validate, snap)
        assert want[0] == "AssertionError"
        assert _outcome(Snapshot.validate, snap) == want


@pytest.mark.parametrize("community", [-1, 2], ids=["negative", "past_the_end"])
def test_validate_rejects_a_community_index_outside_the_clustering(community):
    # -1 would pick the last community when used as a list index, so only a
    # range check catches it
    snap = snapshot_from_nodes(0, {0: Node(0, 0, 0, community), 1: Node(1, 0, 0, 0)}, [], 2)
    with pytest.raises(AssertionError, match=f"node 0: community index {community} outside"):
        snap.validate()


def _columns(**changes) -> dict:
    """Keyword arguments of a valid 3-node, 1-link snapshot, with ``changes``."""
    kwargs = dict(
        t=0,
        ids=[2, 5, 9],
        degree=[1, 1, 0],
        intra_degree=[1, 1, 0],
        community=[0, 0, 1],
        community_count=2,
        endpoints=[(2, 5)],
    )
    return {**kwargs, **changes}


@pytest.mark.parametrize(
    "ids",
    [[2, 9, 5], [2, 5, 5], [5, 5, 9], [9, 5, 2]],
    ids=["swapped", "duplicate_last", "duplicate_first", "descending"],
)
def test_snapshot_rejects_ids_that_do_not_strictly_ascend(ids):
    Snapshot(**_columns()).validate()
    with pytest.raises(ConfigurationError, match="do not strictly ascend"):
        Snapshot(**_columns(ids=ids))


@pytest.mark.parametrize("name", ["ids", "degree", "intra_degree", "community"])
@pytest.mark.parametrize("length", [2, 4])
def test_snapshot_rejects_node_columns_of_unequal_length(name, length):
    column = (_columns()[name] + [10, 11])[:length]
    with pytest.raises(ConfigurationError, match="differ in length"):
        Snapshot(**_columns(**{name: column}))


@pytest.mark.parametrize(
    "endpoints",
    [np.array([[2, 5, 9], [5, 9, 2]]), np.array([2, 5, 5, 9]), [(2, 5, 9), (5, 9, 2)]],
    ids=["two_by_three", "flat", "triples"],
)
def test_snapshot_rejects_endpoints_that_are_not_pairs(endpoints):
    with pytest.raises(ConfigurationError, match=r"not \(m, 2\) rows"):
        Snapshot(**_columns(endpoints=endpoints))


@pytest.mark.parametrize(
    "endpoints", [[], (), np.array([]), np.empty((0, 2))], ids=["list", "tuple", "flat", "rows"]
)
def test_snapshot_takes_empty_endpoints_as_no_rows(endpoints):
    changes = dict(degree=[0, 0, 0], intra_degree=[0, 0, 0], endpoints=endpoints)
    snap = Snapshot(**_columns(**changes))
    assert snap.endpoints.shape == (0, 2) and snap.endpoints.dtype == np.int64
    snap.validate()


_ARRAYS = ("ids", "degree", "intra_degree", "community", "endpoints")


def _assert_read_only(snap: Snapshot) -> None:
    for name in _ARRAYS:
        with pytest.raises(ValueError):
            getattr(snap, name)[0] = 7


def test_snapshot_columns_are_read_only():
    # given as lists, as writeable int64 arrays and as int32 arrays
    for dtype in (None, np.int64, np.int32):
        given = {
            name: _columns()[name] if dtype is None else np.array(_columns()[name], dtype)
            for name in _ARRAYS
        }
        snap = Snapshot(**_columns(**given))
        assert all(getattr(snap, name).dtype == np.int64 for name in _ARRAYS)
        _assert_read_only(snap)
    _assert_read_only(assembled_graphable_spec(np.random.default_rng(61), n_max=40)[2])


def test_a_deep_copy_keeps_every_column_read_only():
    snap = assembled_graphable_spec(np.random.default_rng(67), n_max=40)[2]
    twin = copy.deepcopy(snap)
    _assert_read_only(twin)
    for f in dataclasses.fields(Snapshot):
        a, b = getattr(snap, f.name), getattr(twin, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name
    assert twin.ids is not snap.ids and twin.community_labels is not snap.community_labels


def test_snapshots_compare_by_identity():
    snap = Snapshot(**_columns())
    assert snap == snap
    assert (snap == copy.copy(snap)) is False
    assert snap != Snapshot(**_columns())


def _metric_outcome(metric, snap):
    """``repr`` of a metric's result, exact to the last bit, or its error."""
    try:
        return repr(metric(snap))
    except (KeyError, ValueError, ConfigurationError) as exc:
        return type(exc).__name__, str(exc)


def test_link_rows_come_out_sorted_whatever_order_they_go_in():
    # valid snapshots and their _mutate faults, given again with their rows
    # permuted and a random subset of them reversed: the same endpoints, the
    # same validate outcome and bit-equal metrics
    kinds = ["self_loop", "unknown_node", "duplicate", "community_range", "degree", "intra_degree"]
    rng = np.random.default_rng(79)
    bases = [assembled_graphable_spec(rng, n_max=40)[2] for _ in range(6)]
    for trial in range(240):
        snap = bases[trial % len(bases)]
        if trial % 4:
            snap = _mutate(snap, kinds[trial % len(kinds)], rng)
        rows = snap.endpoints
        assert (np.diff(rows, axis=1) >= 0).all()
        assert np.array_equal(rows, sorted(rows.tolist()))
        given = rows[rng.permutation(len(rows))]
        flip = rng.random(len(rows)) < 0.5
        given[flip] = given[flip, ::-1]
        twin = dataclasses.replace(snap, endpoints=given)
        assert twin.endpoints is not given and given.flags.writeable
        assert np.array_equal(twin.endpoints, rows), trial
        assert _outcome(Snapshot.validate, twin) == _outcome(Snapshot.validate, snap), trial
        for metric in (assortativity_details, modularity):
            assert _metric_outcome(metric, twin) == _metric_outcome(metric, snap), trial


def _link_set(endpoints: np.ndarray) -> set[tuple[int, int]]:
    """The rows of a wiring result as a set, after checking that they are
    (m, 2) int64 rows (u, v) with u < v and no row twice, which a set hides."""
    assert endpoints.dtype == np.int64 and endpoints.ndim == 2 and endpoints.shape[1] == 2
    assert (endpoints[:, 0] < endpoints[:, 1]).all()
    links = set(map(tuple, endpoints.tolist()))
    assert len(links) == len(endpoints)
    return links


def _rows(links) -> np.ndarray:
    """A set of (u, v) tuples as (m, 2) int64 link rows."""
    return np.array(sorted(links), dtype=np.int64).reshape(-1, 2)


def test_wire_intra_forced_k4():
    links, repairs = wire_intra(
        *node_columns([(0, 3, 3, 0), (1, 3, 3, 0), (2, 3, 3, 0), (3, 3, 3, 0)]),
        ShapeParams(),
        np.random.default_rng(0),
    )
    assert _link_set(links) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def test_wire_intra_exactness_on_random_graphable_communities():
    rng = np.random.default_rng(5)
    from temponet import erdos_gallai

    done = 0
    repaired_runs = 0
    while done < 1000:
        n = int(rng.integers(3, 14))
        seq = sorted((int(x) for x in rng.integers(0, n, n)), reverse=True)
        if sum(seq) % 2 or not erdos_gallai(seq):
            continue
        members = [(i, seq[i], seq[i], 0) for i in range(n)]
        links, repairs = wire_intra(*node_columns(members), ShapeParams(), rng)
        repaired_runs += repairs > 0
        deg = {i: 0 for i in range(n)}
        for u, v in _link_set(links):
            assert u != v
            deg[u] += 1
            deg[v] += 1
        assert [deg[i] for i in range(n)] == seq
        done += 1
    # dense sequences regularly dead-end; exactness above proves the
    # link-breaking repair reaches full degree satisfaction
    assert repaired_runs > 0


def test_wire_inter_single_bridge():
    from temponet import wire_inter

    links, _ = wire_inter(
        *node_columns([(0, 1, 1, 0), (1, 1, 1, 1)]), ShapeParams(), np.random.default_rng(0)
    )
    assert _link_set(links) == {(0, 1)}


def test_gate_accepted_memberships_always_wire():
    # end-to-end contract: whatever the full membership gate accepts, the
    # wiring stage realizes (possibly after repairs)
    from temponet import wire_inter

    rng = np.random.default_rng(47)
    accepted = 0
    while accepted < 100:
        k = int(rng.integers(2, 4))
        sizes = [int(rng.integers(3, 6)) for _ in range(k)]
        n = sum(sizes)
        membership = []
        for c, s in enumerate(sizes):
            membership.extend([c] * s)
        intra = [int(rng.integers(0, min(4, sizes[membership[i]] - 1) + 1)) for i in range(n)]
        for c in range(k):
            idx = [i for i in range(n) if membership[i] == c]
            if sum(intra[i] for i in idx) % 2:
                j = idx[int(rng.integers(len(idx)))]
                intra[j] += 1 if intra[j] + 1 <= sizes[c] - 1 else -1
        inter = [int(rng.integers(1, max(2, (n - sizes[membership[i]]) // 2) + 1)) for i in range(n)]
        if sum(inter) % 2:
            j = int(rng.integers(n))
            cap = max(1, (n - sizes[membership[j]]) // 2)
            inter[j] += 1 if inter[j] + 1 <= cap else -1
        total = [max(1, e + f) for e, f in zip(intra, inter)]
        spec = DegreeSpec(tuple(total), tuple(intra))
        if not check_graphable(CommunitySpec(tuple(sizes)), spec, membership).ok:
            continue
        intra_rows, _ = wire_intra(
            *node_columns((i, total[i], intra[i], membership[i]) for i in range(n)),
            ShapeParams(),
            rng,
        )
        all_links = _link_set(intra_rows)
        inter_rows, _ = wire_inter(
            *node_columns((i, total[i], spec.inter[i], membership[i]) for i in range(n)),
            ShapeParams(),
            rng,
        )
        inter_links = _link_set(inter_rows)
        assert not (all_links & inter_links)
        all_links |= inter_links
        deg = {i: 0 for i in range(n)}
        for u, v in all_links:
            deg[u] += 1
            deg[v] += 1
        assert [deg[i] for i in range(n)] == total
        accepted += 1


def test_wiring_error_on_ungraphable_injection():
    # demand 3 with a single possible partner bypasses the gate: after the one
    # link, node 0's only partner is its neighbour and no node is saturated,
    # so no link can be rewired, whatever the repair bound
    with pytest.raises(WiringError, match="no candidate links to rewire"):
        wire_intra(
            *node_columns([(0, 3, 3, 0), (1, 3, 3, 0)]), ShapeParams(), np.random.default_rng(0)
        )


def test_wiring_gives_up_after_50_repairs_per_node():
    # the gate accepts this inter phase, whose inter checks are necessary but
    # not sufficient, yet no graph realizes it: nodes 0 and 2 each need all 5
    # nodes outside community 0, so node 7 (f = 1) would need 2 links.
    # Repairs cycle until the fixed bound of 50 * 8 ends them.
    sizes, community = CommunitySpec((3, 2, 3)), [0, 0, 0, 1, 1, 2, 2, 2]
    f = (5, 4, 5, 5, 5, 2, 5, 1)
    assert check_graphable(sizes, DegreeSpec(f, (0,) * 8), community).ok
    assert not realizable_with_parts(f, community)
    nodes = [(i, f[i], f[i], community[i]) for i in range(8)]
    for seed in range(1, 7):
        with pytest.raises(WiringError, match=r"wiring repair budget \(400\) exhausted"):
            wire_inter(*node_columns(nodes), ShapeParams(), np.random.default_rng(seed))


def test_exhausted_repair_budget_leaves_the_generator_like_the_reference():
    # the budget check comes before the read of the phase's remaining
    # variates, so the generator stops where one Beta call per draw would;
    # the inter phase of test_wiring_gives_up_after_50_repairs_per_node
    community = [0, 0, 0, 1, 1, 2, 2, 2]
    f = (5, 4, 5, 5, 5, 2, 5, 1)
    entries = [(i, f[i], f[i]) for i in range(8)]
    nodes = [(i, f[i], f[i], community[i]) for i in range(8)]
    for seed in range(1, 4):
        rng = np.random.default_rng(seed)
        with pytest.raises(WiringError, match="exhausted"):
            reference_wire_phase(entries, ShapeParams(), rng, 50 * 8, dict(enumerate(community)))
        want = rng.bit_generator.state
        rng = np.random.default_rng(seed)
        with pytest.raises(WiringError, match="exhausted"):
            wire_inter(*node_columns(nodes), ShapeParams(), rng)
        assert rng.bit_generator.state == want, seed


def test_worked_example_snapshot_counts_and_exactness():
    rng = np.random.default_rng(11)
    snap = assemble_snapshot(0, WORKED_SIZES, WORKED_SPEC, rng)
    assert snap.node_count == 10
    assert snap.link_count == 15  # sum(D) / 2
    nodes = snap.nodes
    inter = sum(1 for u, v in snap.links if nodes[u].community != nodes[v].community)
    assert inter == 5  # (sum(D) - sum(E)) / 2
    snap.validate()


def test_assembled_specs_wire_exactly():
    rng = np.random.default_rng(17)
    for _ in range(100):
        sizes, spec, snap = assembled_graphable_spec(rng)
        snap.validate()  # exact degrees, simplicity, community indices in range
        nodes = snap.nodes
        assert sorted(zip(
            (nodes[i].degree for i in sorted(nodes)),
            (nodes[i].intra_degree for i in sorted(nodes)),
        )) == sorted(zip(spec.total, spec.intra))


def _communities(rng, ids, count):
    """A community index per id.  With more than two communities, community
    0 holds one node and the last one none."""
    if not len(ids) or count <= 2:
        return rng.integers(0, count, len(ids))
    community = rng.integers(1, count - 1, len(ids))
    community[int(rng.integers(len(ids)))] = 0
    return community


def _members(ids, community, c):
    return {nid for nid, x in zip(ids, community.tolist()) if x == c}


def test_check_connectivity_matches_spectral_oracle():
    k4 = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    ids = np.arange(6)
    # K4 in community 0, two unlinked nodes in 1, nobody in 2; the link (3, 4)
    # joins two communities and does not count
    community = np.array([0, 0, 0, 0, 1, 1])
    got = check_connectivity(ids, community, _rows(k4 | {(3, 4)}), 3)
    assert got.tolist() == [1, 2, 0]
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 50))
        count = int(rng.integers(1, 6))
        ids = list(range(n))
        community = _communities(rng, ids, count)
        links = set()
        for _ in range(int(rng.integers(0, 2 * n))):
            u, v = rng.integers(0, n, 2)
            if u != v:
                links.add((min(int(u), int(v)), max(int(u), int(v))))
        got = check_connectivity(np.array(ids), community, _rows(links), count)
        assert got.tolist() == [
            spectral_component_count(_members(ids, community, c), links) for c in range(count)
        ]


def test_check_connectivity_equals_the_union_find_reference():
    # scattered ids (some >= 2**32), empty, singleton and disconnected
    # communities, links between communities, links that touch ids nobody
    # holds, and snapshots without nodes
    rng = np.random.default_rng(43)
    for trial in range(300):
        pool = np.concatenate([
            rng.integers(0, 60, 30),
            rng.integers(2**32 - 8, 2**32 + 8, 16),
            rng.integers(2**40, 2**41, 30),
        ])
        every = sorted(set(pool.tolist()))
        ids = sorted(rng.choice(every, int(rng.integers(0, 40)), replace=False).tolist())
        count = int(rng.integers(1, 8))
        community = _communities(rng, ids, count)
        links = set()
        for _ in range(int(rng.integers(0, 2 * len(ids) + 2))):
            u, v = rng.choice(every, 2)
            if u != v:
                links.add((int(u), int(v)))
        if trial % 3 == 0:
            links.add((every[-1] + 1, every[0]))
        got = check_connectivity(np.array(ids, dtype=np.int64), community, _rows(links), count)
        assert got.tolist() == [
            reference_check_connectivity(_members(ids, community, c), links) for c in range(count)
        ]
    empty = reference_check_connectivity(set(), {(0, 1)})
    got = check_connectivity(np.array([], dtype=np.int64), np.array([]), _rows({(0, 1)}), 2)
    assert got.tolist() == [empty, empty] == [0, 0]


@pytest.mark.parametrize(
    "ids",
    [[10**9 // 2, 1, 2, 10**9], [3, 1, 2], [300, 1, 2], [1, 1, 2]],
    ids=["wrong_count", "index_error", "value_error", "repeated"],
)
def test_check_connectivity_refuses_ids_that_do_not_strictly_ascend(ids):
    # the links form one path over the sorted ids, one component; unsorted,
    # the id lookup gave 4 components, a bare IndexError or ValueError, and
    # for the repeated id 2 components
    ordered = sorted(set(ids))
    links = _rows(zip(ordered, ordered[1:]))
    got = check_connectivity(np.array(ordered), np.zeros(len(ordered)), links, 1)
    assert got.tolist() == [1]
    with pytest.raises(ConfigurationError, match="do not strictly ascend"):
        check_connectivity(np.array(ids), np.zeros(len(ids)), links, 1)


@pytest.mark.parametrize(
    "community, count, problem",
    [
        ([0, 0], 2, "2 community indices for 3 node ids"),
        ([0, 0, 1, 1], 2, "4 community indices for 3 node ids"),
        ([0, 0, 5], 2, r"indices 0\.\.5 outside \[0, 2\)"),
        ([0, 0, -1], 2, r"indices -1\.\.0 outside \[0, 2\)"),
        ([0, 0, 1], -1, "count -1 is negative"),
    ],
    ids=["short", "long", "above_count", "negative", "negative_count"],
)
def test_check_connectivity_refuses_a_bad_community_column(community, count, problem):
    # ids [1, 2, 3] on the path (1, 2), (2, 3): a short or long column raised
    # a bare IndexError, an index above the count returned more counts than
    # the count, and a negative index a ValueError from np.bincount
    ids, links = np.array([1, 2, 3]), _rows({(1, 2), (2, 3)})
    assert check_connectivity(ids, np.array([0, 0, 1]), links, 2).tolist() == [1, 1]
    with pytest.raises(ConfigurationError, match=problem):
        check_connectivity(ids, np.array(community), links, count)


def test_joint_distribution_baseline_trivial_cases():
    p = degree_joint_distribution_baseline((1, 1))
    assert p[0, 1] == pytest.approx(1.0)
    star = degree_joint_distribution_baseline((3, 1, 1, 1))
    assert star[0, 1] == pytest.approx(3 * 1 / 5)


def test_star_forcing_spec_always_stars():
    rng = np.random.default_rng(29)
    for _ in range(50):
        links, _ = wire_intra(
            *node_columns([(0, 3, 3, 0), (1, 1, 1, 0), (2, 1, 1, 0), (3, 1, 1, 0)]),
            ShapeParams(),
            rng,
        )
        assert _link_set(links) == {(0, 1), (0, 2), (0, 3)}


def test_uniform_pairing_approximates_cm_baseline():
    # a 10-node, 15-link sequence.  With the simplicity exclusions lifted
    # (plain uniform stub matching on the wiring's ``_fenwick`` tree over
    # degree-ordered positions, descended by Beta rank as the fill loop
    # does), expected pair multiplicities equal k_i * k_j / (S - 1); checked
    # for pairs with small k_i * k_j
    degrees = (4, 4, 3, 3, 4, 3, 3, 2, 2, 2)
    baseline = degree_joint_distribution_baseline(degrees)
    ids = sorted(range(10), key=lambda i: (degrees[i], i))  # position -> node
    size = 16
    weights = np.zeros(size, dtype=np.int64)
    weights[:10] = [degrees[i] for i in ids]
    fresh = assembler._fenwick(weights)
    fill_order = sorted(range(10), key=lambda p: -degrees[ids[p]])
    rng = np.random.default_rng(31)
    runs = 100_000
    counts = np.zeros((10, 10))

    def take(tree, q):
        i = q + 1
        while i <= size:
            tree[i] -= 1
            i += i & -i

    for _ in range(runs):
        tree, rem = fresh.copy(), weights.tolist()
        for x in rng.beta(1, 1, size=15).tolist():
            p = next(p for p in fill_order if rem[p])
            rem[p] -= 1  # the stub being matched
            take(tree, p)
            total = tree[size]
            rank, q, step = min(int(x * total), total - 1), 0, size >> 1
            while step:
                if tree[q + step] <= rank:
                    rank -= tree[q + step]
                    q += step
                step >>= 1
            rem[q] -= 1
            take(tree, q)
            if p != q:
                counts[ids[p], ids[q]] += 1
                counts[ids[q], ids[p]] += 1
    mean_mult = counts / runs
    small = [
        (u, v)
        for u in range(10)
        for v in range(u + 1, 10)
        if degrees[u] * degrees[v] <= 8
    ]
    assert small, "no small-product pairs to compare"
    for u, v in small:
        assert mean_mult[u, v] == pytest.approx(baseline[u, v], rel=0.05), (u, v)


@pytest.mark.parametrize("a, b", [(1, 1), (0.5, 0.5), (5, 1), (2, 0.5)])
def test_batched_beta_draws_equal_single_draws(a, b):
    # numpy draws Beta(a, b) with Johnk's algorithm for a, b <= 1 and as a
    # gamma ratio otherwise; both must give one size=k call the variates and
    # generator state of k single calls
    why = "the wiring prefetches a node's Beta variates in one call and relies on this"
    for k in (1, 2, 7, 64):
        batch, single = np.random.default_rng(k), np.random.default_rng(k)
        assert batch.beta(a, b, size=k).tolist() == [single.beta(a, b) for _ in range(k)], why
        assert batch.bit_generator.state == single.bit_generator.state, why


def _assign_both(sizes, spec, seed, **placement):
    """(columns in placement order or error text, generator state) of
    assign_nodes and of its reference."""
    outcomes = []
    for assign in (assign_nodes, column_api(reference_assign_nodes)):
        rng = np.random.default_rng(seed)
        try:
            result = _lists(assign(sizes, spec, rng, **placement))
        except (GraphabilityError, ConfigurationError) as exc:
            result = f"{type(exc).__name__}: {exc}"
        outcomes.append((result, rng.bit_generator.state))
    return outcomes


def _random_assignment_spec(gen, k_max, k_min=1):
    """Community sizes and a degree spec whose intra degrees straddle the rooms."""
    k = int(gen.integers(k_min, k_max + 1))
    sizes = CommunitySpec(tuple(int(x) for x in gen.integers(1, 16, k)))
    n = sizes.node_count
    total = [int(x) for x in gen.integers(1, 14, n)]
    # intra degrees up to a random bound below, at or above the largest room
    bound = max(sizes.sizes) - 1 + int(gen.integers(-3, 3))
    intra = [min(d, int(gen.integers(0, max(bound, 0) + 1))) for d in total]
    return sizes, DegreeSpec(tuple(total), tuple(intra))


def test_bootstrap_assignment_equals_the_reference():
    # same communities, same refusals, same generator state after success
    # and after a refusal; from one community up to 300, so that the capacity
    # tree has several levels and k is rarely a power of two
    gen = np.random.default_rng(61)
    outcomes = {"ok": 0, "refused": 0}
    counts = set()
    for trial in range(600):
        k_range = (6,) if trial < 500 else (40,) if trial < 560 else (300, 200)
        sizes, spec = _random_assignment_spec(gen, *k_range)
        new, reference = _assign_both(sizes, spec, trial)
        assert new == reference, trial
        outcomes["refused" if isinstance(new[0], str) else "ok"] += 1
        counts.add(len(sizes))
    assert min(outcomes.values()) > 50, outcomes
    assert 1 in counts and max(counts) > 256, sorted(counts)


@pytest.mark.parametrize("temporal", [(1, 1), (5, 1), (1, 5), (0.5, 0.5)])
def test_temporal_assignment_equals_the_reference(temporal):
    # survivors and newborns in any mix (all newborn, all survivor, both),
    # rooms below, equal to and above the largest intra degree
    shape = ShapeParams(*temporal)
    gen = np.random.default_rng(67)
    outcomes, relations = set(), set()
    for trial in range(600):
        sizes, spec = _random_assignment_spec(gen, 6 if trial < 540 else 40)
        n = sizes.node_count
        ids = gen.permutation(3 * n)[:n].tolist()
        community = [c for c, s in enumerate(sizes.sizes) for _ in range(s)]
        share = (0.0, 1.0, 0.6)[trial % 3]
        prev = [int(gen.integers(1, 12)) if gen.random() < share else 0 for _ in ids]
        new, reference = _assign_both(
            sizes, spec, trial, ids=ids, community=community, temporal_shape=shape,
            prev_degree=prev,
        )
        assert new == reference, trial
        top = max(spec.intra)
        rooms = [s - 1 for s in sizes.sizes]
        kind = "below" if min(rooms) < top else "at or above"
        outcomes.add((kind, isinstance(new[0], str)))
        relations.update("below" if r < top else "equal" if r == top else "above" for r in rooms)
    assert {("below", True), ("below", False), ("at or above", False)} <= outcomes, outcomes
    assert relations == {"below", "equal", "above"}


@pytest.mark.parametrize("failing", ["survivor", "newborn"])
def test_temporal_assignment_fails_like_the_reference(failing):
    # two singleton communities (room 0) and one e = 0 tuple: whichever of
    # ids 10 and 11 comes second would fit nowhere, so Hall's count fails
    # and both placements raise before any draw.  Both ids are survivors
    # drawing after two others, or both are newborns drawing after every
    # survivor.
    sizes = CommunitySpec((1, 1, 4))
    spec = DegreeSpec((1, 2, 2, 3, 3, 3), (0, 1, 1, 1, 1, 1))
    ids, community = [10, 11, 12, 13, 14, 15], [0, 1, 2, 2, 2, 2]
    prev = [7, 6, 9, 8, 5, 4]
    if failing == "newborn":
        prev[:2] = [0, 0]
    for seed in range(40):
        new, reference = _assign_both(
            sizes,
            spec,
            seed,
            ids=ids,
            community=community,
            temporal_shape=ShapeParams(0.5, 0.5),
            prev_degree=prev,
        )
        assert new == reference, seed
        assert new == (
            "GraphabilityError: degree tuples could not be matched"
            " to the flow-dictated communities",
            np.random.default_rng(seed).bit_generator.state,
        )


_SHAPES = [(1, 1), (5, 1), (1, 5), (0.5, 0.5)]


@pytest.mark.parametrize("temporal", _SHAPES)
def test_temporal_placement_fails_only_up_front_and_keeps_first_fit_picks(temporal):
    # 2,500 specs per shape, 10,000 in all: placement raises exactly when no
    # tuple-to-node matching exists (sorted pairing of intra degrees against
    # rooms), and then before its first draw.  Otherwise every node gets a
    # fitting tuple of the spec, and wherever first-fit placement completes,
    # the tuples and the generator state are its own
    shape = ShapeParams(*temporal)
    gen = np.random.default_rng(67 + _SHAPES.index(temporal))
    tally = {"unmatchable": 0, "first fit": 0, "re-mapped": 0}
    for trial in range(2500):
        sizes, spec = _random_assignment_spec(gen, 6)
        n = sizes.node_count
        ids = gen.permutation(3 * n)[:n].tolist()
        community = [c for c, s in enumerate(sizes.sizes) for _ in range(s)]
        share = (0.0, 1.0, 0.6)[trial % 3]
        prev = [int(gen.integers(1, 12)) if gen.random() < share else 0 for _ in ids]
        placement = dict(ids=ids, community=community, temporal_shape=shape, prev_degree=prev)
        rng = np.random.default_rng(trial)
        fresh = rng.bit_generator.state
        rooms = [sizes.sizes[c] - 1 for c in community]
        if not rooms_admit_tuples(rooms, spec.intra):
            with pytest.raises(GraphabilityError, match="could not be matched"):
                assign_nodes(sizes, spec, rng, **placement)
            assert rng.bit_generator.state == fresh, trial
            tally["unmatchable"] += 1
            continue
        got = _lists(assign_nodes(sizes, spec, rng, **placement))
        # every node keeps its community and takes a fitting tuple of the spec
        assert placement_dict(*got[:2]) == placement_dict(ids, community), trial
        assert all(e <= sizes.sizes[c] - 1 for c, e in zip(got[1], got[3])), trial
        assert sorted(zip(got[2], got[3])) == sorted(zip(spec.total, spec.intra))
        first_rng = np.random.default_rng(trial)
        try:
            first_fit = column_api(first_fit_assign_nodes)(sizes, spec, first_rng, **placement)
        except GraphabilityError:
            tally["re-mapped"] += 1
            continue
        assert got == _lists(first_fit), trial
        assert rng.bit_generator.state == first_rng.bit_generator.state, trial
        tally["first fit"] += 1
    assert min(tally.values()) > 200, tally


def test_assignment_length_mismatch_raises_like_the_reference():
    sizes = CommunitySpec((3,))
    spec = DegreeSpec((2, 2, 2), (2, 2, 2))
    new, reference = _assign_both(sizes, spec, 0, ids=[1, 2], community=[0, 0])
    assert new == reference
    assert new[0] == "ConfigurationError: 2 surviving memberships for 3 degree slots"


@pytest.mark.parametrize("pairing", [(1, 1), (5, 1), (1, 5), (0.5, 0.5)])
def test_tree_sampler_wires_like_the_cumsum_reference(pairing):
    # the Fenwick descent must pick exactly the partner the per-draw cumsum
    # and searchsorted picked: same links, repairs, errors and generator state,
    # with the links as (m, 2) int64 rows u < v and no row twice.
    # Trials 120-131 are mid-size (n up to 120) with realistic stub counts.
    shape = ShapeParams(*pairing)
    gen = np.random.default_rng(53)
    repaired = {"intra": 0, "inter": 0}
    for trial in range(132):
        n = int(gen.integers(2, 40)) if trial < 120 else int(gen.integers(40, 121))
        if trial % 2:
            mode, k = "inter", int(gen.integers(2, 6))
            community_of = {i: int(gen.integers(k)) for i in range(n)}
            stubs = [int(gen.integers(0, 7)) for _ in range(n)]
        else:
            mode, community_of = "intra", None
            top = n if trial < 120 else 10
            stubs = [int(gen.integers(0, top)) for _ in range(n)]
        if sum(stubs) % 2:
            stubs[int(gen.integers(n))] += 1
        entries = [(i, int(gen.integers(1, 30)), stubs[i]) for i in range(n)]
        outcomes = _wire_both(entries, shape, 1000 + trial, community_of)
        assert outcomes[0] == outcomes[1], (trial, mode)
        result = outcomes[0][0]
        if result != "WiringError" and result[1] > 0:
            repaired[mode] += 1
    assert repaired["intra"] > 0 and repaired["inter"] > 0


def _wire_both(entries, shape, seed, community_of):
    """(result, generator state) of the reference wiring and of the library's
    from one seed; a result is the link set and repairs, or "WiringError".

    Without ``community_of`` the library side is ``wire_intra`` with every
    node in community 0, with it ``wire_inter``; the reference takes the
    repair bound that the library fixes.
    """
    if community_of is None:
        library = wire_intra
        nodes = [(nid, d, s, 0) for nid, d, s in entries]
    else:
        library = wire_inter
        nodes = [(nid, d, s, community_of[nid]) for nid, d, s in entries]

    def reference(rng):
        return reference_wire_phase(entries, shape, rng, 50 * len(entries), community_of)

    def wired(rng):
        rows, repairs = library(*node_columns(nodes), shape, rng)
        return _link_set(rows), repairs

    outcomes = []
    for wire in (reference, wired):
        rng = np.random.default_rng(seed)
        try:
            result = wire(rng)
        except WiringError:
            result = "WiringError"
        outcomes.append((result, rng.bit_generator.state))
    return outcomes


@pytest.mark.parametrize("mode", ["intra", "inter"])
def test_tree_sampler_wires_like_the_cumsum_reference_at_tree_sizes(mode):
    # the scale benchmark wires trees of 1,024-2,048 slots: n from 500 to
    # 1,500 with up to 40 stubs per node, biased toward high degrees so
    # that some phases need repairs
    gen = np.random.default_rng(61 if mode == "intra" else 67)
    repaired = 0
    for trial in range(3):
        n = int(gen.integers(500, 1501))
        stubs = gen.integers(0, 41, n).tolist()
        if sum(stubs) % 2:
            stubs[int(gen.integers(n))] += 1
        community_of = None
        if mode == "inter":
            community_of = {i: int(gen.integers(3)) for i in range(n)}
        entries = [(i, int(gen.integers(1, 200)), stubs[i]) for i in range(n)]
        shape = ShapeParams(*[(1, 1), (8, 1), (30, 1)][trial])
        outcomes = _wire_both(entries, shape, 2000 + trial, community_of)
        assert outcomes[0] == outcomes[1], trial
        result = outcomes[0][0]
        repaired += result != "WiringError" and result[1] > 0
    assert repaired


def test_wire_inter_reads_community_labels_only_as_groups():
    # the same phases with communities labelled (0, 1, 2) and (900, 5, 37):
    # the compact indices of the second labelling are a permutation of the
    # first's, and no link row, repair count, error or variate may move
    gen = np.random.default_rng(71)
    relabel = (900, 5, 37)
    ends = Counter()
    for trial in range(40):
        n = int(gen.integers(4, 40))
        community = gen.integers(0, 3, n).tolist()
        stubs = gen.integers(0, 8, n).tolist()
        if sum(stubs) % 2:
            stubs[int(gen.integers(n))] += 1
        total = [s + int(gen.integers(0, 5)) for s in stubs]
        outcomes = []
        for labels in ((0, 1, 2), relabel):
            nodes = [(i, total[i], stubs[i], labels[community[i]]) for i in range(n)]
            rng = np.random.default_rng(3000 + trial)
            try:
                rows, repairs = wire_inter(*node_columns(nodes), ShapeParams(5, 1), rng)
                result = (rows.tolist(), repairs)
            except WiringError as exc:
                result = str(exc)
            outcomes.append((result, rng.bit_generator.state))
        assert outcomes[0] == outcomes[1], trial
        result = outcomes[0][0]
        ends["error" if isinstance(result, str) else "repaired" if result[1] else "plain"] += 1
    assert ends["repaired"] and ends["plain"] and ends["error"], ends


def _wire_outcome(wire, nodes, shape, seed):
    """A wiring call's link rows and repairs, or its ``WiringError`` text,
    with the generator's state after the call."""
    rng = np.random.default_rng(seed)
    try:
        rows, repairs = wire(*node_columns(nodes), shape, rng)
        result = (rows.tolist(), repairs)
    except WiringError as exc:
        result = str(exc)
    return result, rng.bit_generator.state


@pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1, 5), (0.5, 0.5)])
def test_intra_and_inter_wiring_agree_on_singleton_communities(shape):
    # one community of intra stubs and one community per node of inter
    # stubs forbid the same partners (only p itself), so the two modes must
    # make the same draws, repairs and errors
    gen = np.random.default_rng(83)
    ends = Counter()
    for trial in range(250):
        n = int(gen.integers(1, 14))
        stubs = gen.integers(0, n, n).tolist()
        if sum(stubs) % 2:
            stubs[int(gen.integers(n))] += 1
        ids = gen.permutation(3 * n)[:n].tolist()
        total = [s + int(gen.integers(0, 4)) for s in stubs]
        intra = [(v, d, s, 0) for v, d, s in zip(ids, total, stubs)]
        inter = [(v, d, s, v) for v, d, s in zip(ids, total, stubs)]
        outcome = _wire_outcome(wire_intra, intra, ShapeParams(*shape), trial)
        assert _wire_outcome(wire_inter, inter, ShapeParams(*shape), trial) == outcome, trial
        result = outcome[0]
        ends["error" if isinstance(result, str) else "repaired" if result[1] else "plain"] += 1
    assert ends["repaired"] and ends["plain"] and ends["error"], ends


# the sha256 of every outcome below, as the tuple-taking wire_intra and
# wire_inter that the column signature replaced produced them
_TUPLE_FORM_DIGEST = "f6b7dc9446d8d1515095c0649db97cffee1c2073c356c6d95426acc2c2034b84"


def test_column_wiring_matches_the_tuple_form_it_replaced():
    # ids shuffled, community labels sparse, every community's stub sum
    # even; both modes on the same nodes give the link set, repairs or error
    # and generator state that one call of the tuple form gave
    shapes = [(1, 1), (5, 1), (1, 5), (0.5, 0.5)]
    gen = np.random.default_rng(97)
    digest = hashlib.sha256()
    ends = Counter()
    for trial in range(240):
        n = int(gen.integers(1, 30))
        k = int(gen.integers(1, 5))
        ids = gen.permutation(3 * n)[:n].tolist()
        labels = gen.permutation(10 * k)[:k].tolist()
        community = [labels[c] for c in gen.integers(0, k, n).tolist()]
        stubs = gen.integers(0, 5, n).tolist()
        for c in set(community):
            members = [i for i, x in enumerate(community) if x == c]
            if sum(stubs[i] for i in members) % 2:
                stubs[members[0]] += 1
        total = [s + int(gen.integers(0, 4)) for s in stubs]
        nodes = list(zip(ids, total, stubs, community))
        shape = ShapeParams(*shapes[trial % len(shapes)])
        for wire in (wire_intra, wire_inter):
            rows, state = _wire_outcome(wire, nodes, shape, 5000 + trial)
            result = rows if isinstance(rows, str) else (sorted(map(tuple, rows[0])), rows[1])
            digest.update(repr((result, state)).encode())
            kind = "error" if isinstance(result, str) else "repaired" if result[1] else "plain"
            ends[wire.__name__, kind] += 1
    assert digest.hexdigest() == _TUPLE_FORM_DIGEST
    assert len(ends) == 6 and min(ends.values()) >= 20, ends


def _intra_nodes(gen, k, odd=None, dead=None):
    """(id, total d, intra e, community) tuples of ``k`` communities in
    shuffled order, ids shuffled across them.  Each community has a dense
    graphical intra sequence, except community ``odd``, whose intra sum is
    odd, and community ``dead``, whose even sequence no graph realizes."""
    from temponet import erdos_gallai

    nodes = []
    ids = gen.permutation(20 * k).tolist()
    for c in range(k):
        n = int(gen.integers(3 if c == dead else 1, 13))
        while True:
            intra = gen.integers(0, n, n).tolist()
            if c == odd:
                if sum(intra) % 2 == 0:
                    intra[int(gen.integers(n))] ^= 1
                break
            if sum(intra) % 2 == 0 and erdos_gallai(sorted(intra, reverse=True)) != (c == dead):
                break
        for e in intra:
            nodes.append((ids.pop(), e + int(gen.integers(0, 5)), e, c))
    return [nodes[i] for i in gen.permutation(len(nodes))]


@pytest.mark.parametrize("pairing", [(1, 1), (5, 1), (0.5, 0.5)])
def test_batched_intra_wiring_matches_one_reference_phase_per_community(pairing):
    # one wire_intra call over k communities draws like one reference phase
    # per community in index order on one generator: the same links per
    # community, repairs, errors and final generator state.  Every tenth
    # trial has a community with an odd intra sum, which raises before it
    # draws, and every tenth one a dead-end community, which raises midway.
    shape = ShapeParams(*pairing)
    gen = np.random.default_rng(71)
    repaired_middle = 0
    for trial in range(150):
        k = int(gen.integers(2, 6))
        odd = int(gen.integers(k)) if trial % 10 == 9 else None
        dead = int(gen.integers(k)) if trial % 10 == 4 else None
        nodes = _intra_nodes(gen, k, odd, dead)
        community = {nid: c for nid, _, _, c in nodes}
        rng = np.random.default_rng(3000 + trial)
        try:
            wired = reference_wire_intra(nodes, shape, rng)
        except WiringError as exc:
            want = str(exc)
        else:
            links = {c: links for c, (links, _) in wired.items()}
            want = (links, sum(repairs for _, repairs in wired.values()))
            repaired_middle += any(wired[c][1] for c in range(1, k - 1))
        want_state = rng.bit_generator.state
        rng = np.random.default_rng(3000 + trial)
        try:
            rows, repairs = wire_intra(*node_columns(nodes), shape, rng)
        except WiringError as exc:
            got = str(exc)
        else:
            per_community = {c: set() for c in range(k)}
            for u, v in _link_set(rows):
                assert community[u] == community[v]
                per_community[community[u]].add((u, v))
            got = (per_community, repairs)
        assert got == want, trial
        assert rng.bit_generator.state == want_state, trial
        assert isinstance(got, str) == (odd is not None or dead is not None), trial
    assert repaired_middle


def test_batched_intra_wiring_stops_at_an_odd_community():
    # the odd community raises before it draws, after the communities
    # before it have drawn all their variates
    nodes = [(0, 1, 1, 0), (1, 1, 1, 0), (2, 2, 1, 1), (3, 2, 1, 1), (4, 2, 1, 1)]
    nodes.append((5, 1, 1, 2))
    rng = np.random.default_rng(5)
    with pytest.raises(WiringError, match="odd number of stubs"):
        wire_intra(*node_columns(nodes), ShapeParams(), rng)
    want = np.random.default_rng(5)
    want.beta(1.0, 1.0)
    assert rng.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize(
    "wire, nodes",
    [
        (wire_intra, [(0, 2, 2, 0), (1, 2, 2, 0), (2, 2, -2, 0), (3, 0, 0, 0)]),
        (wire_inter, [(0, 1, 1, 0), (1, 1, 1, 0), (2, 2, 2, 1), (3, 2, -2, 1)]),
    ],
)
def test_negative_stub_counts_are_refused_before_any_draw(wire, nodes):
    # the stub sums are even, so only the negative count stands in the way;
    # the stop at an empty eligible weight relies on no count being negative
    rng = np.random.default_rng(3)
    with pytest.raises(WiringError, match=r"negative stub count \(-2\)"):
        wire(*node_columns(nodes), ShapeParams(), rng)
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


@pytest.mark.parametrize("wire", [wire_intra, wire_inter])
@pytest.mark.parametrize(
    "columns, match",
    [
        (([1, 1], [1, 1], [1, 1], [0, 0]), "node id 1 repeats"),
        (([4, 2, 4], [1, 1, 2], [0, 1, 1], [0, 1, 1]), "node id 4 repeats"),
        (([1, 2], [1, 1], [1, 1, 1], [0, 0]), "differ in length"),
        (([1, 2], [1, 1], [1], [0, 1]), "differ in length"),
        (([1, 2, 3], [1, 1, 2], [1, 1, 2], [0, 1]), "differ in length"),
    ],
    ids=["repeated_pair", "repeated_unsorted", "long_stubs", "short_stubs", "short_community"],
)
def test_wiring_refuses_bad_node_columns_before_any_draw(wire, columns, match):
    # a repeated id used to wire nothing silently, a long stubs column to
    # have its last entry ignored, and a short one to raise IndexError
    rng = np.random.default_rng(3)
    with pytest.raises(ConfigurationError, match=match):
        wire(*(np.array(c, dtype=np.int64) for c in columns), ShapeParams(), rng)
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


def test_assemble_deterministic_given_seed():
    sizes, spec, _ = assembled_graphable_spec(np.random.default_rng(37))
    snap_a = assemble_snapshot(0, sizes, spec, np.random.default_rng(41))
    snap_b = assemble_snapshot(0, sizes, spec, np.random.default_rng(41))
    assert np.array_equal(snap_a.endpoints, snap_b.endpoints)
    nodes_a, nodes_b = snap_a.nodes, snap_b.nodes
    assert all(nodes_a[i].community == nodes_b[i].community for i in nodes_a)
