"""Node assignment, the modified configuration model and its repairs."""

import copy

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
    sample_degrees,
    split_degrees,
    wire_intra,
)
from temponet import assembler
from temponet.assembler import ASSIGNMENT_ATTEMPTS, MISFIT_PASSES, repair_intra_parity

from oracles import (
    degree_joint_distribution_baseline,
    reference_repair_intra_parity,
    reference_validate,
    reference_wire_phase,
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
        assignment = assign_nodes(sizes, spec, rng)
        counts = [0, 0]
        for c, d, e in assignment.values():
            counts[c] += 1
            assert e <= sizes.sizes[c] - 1
        assert counts == [4, 2]
        # the e=3 slots only fit into the size-4 community
        for slot in range(4):
            assert assignment[slot][0] == 0


def test_assign_single_community_takes_everyone():
    rng = np.random.default_rng(1)
    sizes = CommunitySpec((5,))
    spec = DegreeSpec((2, 2, 2, 2, 2), (2, 2, 2, 2, 2))
    assignment = assign_nodes(sizes, spec, rng, temporal_shape=ShapeParams(9, 1))
    assert all(c == 0 for c, _, _ in assignment.values())


def test_assign_temporal_uniform_shape_uncorrelated():
    # alpha = beta = 1 reverts to a uniform draw: repeating the assignment
    # many times shows no systematic degree correlation
    rng = np.random.default_rng(2)
    sizes = CommunitySpec((40,))
    total = tuple(int(x) for x in rng.integers(1, 20, 40))
    spec = DegreeSpec(total, (0,) * 40)
    surviving = {nid: 0 for nid in range(40)}
    prev = {nid: nid + 1 for nid in range(40)}  # distinct previous degrees
    corrs = []
    for _ in range(120):
        assignment = assign_nodes(
            sizes, spec, rng, surviving=surviving, temporal_shape=ShapeParams(1, 1),
            prev_degrees=prev,
        )
        new_d = np.array([assignment[nid][1] for nid in range(40)], float)
        prev_d = np.array([prev[nid] for nid in range(40)], float)
        corrs.append(np.corrcoef(prev_d, new_d)[0, 1])
    assert abs(np.mean(corrs)) < 0.05


def test_assign_temporal_skewed_shape_correlates():
    rng = np.random.default_rng(3)
    sizes = CommunitySpec((40,))
    total = tuple(sorted(int(x) for x in rng.integers(1, 30, 40)))
    spec = DegreeSpec(total, (0,) * 40)
    surviving = {nid: 0 for nid in range(40)}
    prev = {nid: nid + 1 for nid in range(40)}
    assignment = assign_nodes(
        sizes, spec, rng, surviving=surviving, temporal_shape=ShapeParams(50, 1),
        prev_degrees=prev,
    )
    new_d = np.array([assignment[nid][1] for nid in range(40)], float)
    prev_d = np.array([prev[nid] for nid in range(40)], float)
    assert np.corrcoef(prev_d, new_d)[0, 1] > 0.9


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


def test_assignment_misfits_use_up_to_misfit_passes_per_attempt(monkeypatch):
    # node 0 stays in the singleton, where no intra degree 2 fits, so every
    # pass misfits
    sizes = CommunitySpec((1, 3))
    spec = DegreeSpec((2, 2, 2, 2), (2, 2, 2, 2))
    calls = _counting_assign(monkeypatch)
    with pytest.raises(GraphabilityError) as info:
        assemble_snapshot(
            2, sizes, spec, np.random.default_rng(0), surviving={0: 0, 1: 1, 2: 1, 3: 1}
        )
    message = str(info.value)
    assert message.startswith(f"timestep 2: {ASSIGNMENT_ATTEMPTS} assignment attempt(s) failed:")
    assert "could not be matched" in message
    assert len(calls) == ASSIGNMENT_ATTEMPTS * MISFIT_PASSES


def test_repair_intra_parity_fixes_odd_communities():
    sizes = CommunitySpec((3, 3))
    # community 0 holds {3: e=1}, {4: e=2}, {5: e=2} -> odd; community 1 odd too
    assignment = {
        0: (0, 4, 1), 1: (0, 4, 2), 2: (0, 4, 2),
        3: (1, 4, 2), 4: (1, 4, 1), 5: (1, 4, 2),
    }
    fixed = repair_intra_parity(assignment, sizes)
    for c in (0, 1):
        total = sum(e for cc, _, e in fixed.values() if cc == c)
        assert total % 2 == 0
    assert sorted((d, e) for _, d, e in fixed.values()) == sorted(
        (d, e) for _, d, e in assignment.values()
    )


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
        repair_intra_parity(assignment, sizes)
    assignment[5] = (1, 5, 5)  # sums 13, 15: swap a 4-tuple against a 5-tuple
    fixed = repair_intra_parity(assignment, sizes)
    for c in (0, 1):
        assert sum(e for cc, _, e in fixed.values() if cc == c) % 2 == 0
    assert sorted((d, e) for _, d, e in fixed.values()) == sorted(
        (d, e) for _, d, e in assignment.values()
    )


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
            placement["surviving"] = {nid: int(c) for nid, c in zip(ids, membership)}
            placement["prev_degrees"] = {nid: int(rng.integers(1, 9)) for nid in ids[: n // 2]}
        try:
            assignment = assign_nodes(sizes, spec, rng, **placement)
        except GraphabilityError:
            continue
        cases += 1
        want = _outcome(reference_repair_intra_parity, assignment, sizes)
        got = _outcome(repair_intra_parity, assignment, sizes)
        if want[0] == "ok":
            # equal content and equal insertion order
            assert got[0] == "ok" and list(got[1].items()) == list(want[1].items())
            tally["even" if want[1] == assignment else "swapped"] += 1
        else:
            assert got == want
            tally["raised"] += 1
    assert min(tally.values()) >= 200, tally


def _mutate(snap: Snapshot, kind: str, rng) -> None:
    """Break one postcondition of a valid snapshot in place."""
    ids = sorted(snap.nodes)
    nid = ids[int(rng.integers(len(ids)))]
    node = snap.nodes[nid]
    links = sorted(snap.links)
    if kind == "self_loop":
        snap.links.add((nid, nid))
    elif kind == "unknown_node":
        snap.links.add((nid, ids[-1] + 1 + int(rng.integers(3))))
    elif kind == "duplicate":
        u, v = links[int(rng.integers(len(links)))]
        snap.links.add((v, u))
    elif kind == "overlap":
        other = (node.community + 1) % len(snap.clustering)
        snap.clustering[other].add(nid)
    elif kind == "uncovered":
        snap.clustering[node.community].discard(nid)
    elif kind == "misplaced":
        other = (node.community + 1) % len(snap.clustering)
        snap.clustering[node.community].discard(nid)
        snap.clustering[other].add(nid)
    elif kind == "degree":
        snap.nodes[nid] = Node(nid, node.degree + 1, node.intra_degree, node.community)
    elif kind == "intra_degree":
        delta = -1 if node.intra_degree else 1
        snap.nodes[nid] = Node(nid, node.degree, node.intra_degree + delta, node.community)
    else:
        raise ValueError(kind)


def test_validate_matches_the_two_pass_reference():
    # one to three mutations per trial, so the first failing check decides
    kinds = [
        "self_loop", "unknown_node", "duplicate", "overlap",
        "uncovered", "misplaced", "degree", "intra_degree",
    ]
    checks = (
        "self-loop", "unknown nodes", "duplicate link", "overlaps", "does not cover",
        "missing from its community", "realized degree", "realized intra degree",
    )
    rng = np.random.default_rng(31)
    bases = [assembled_graphable_spec(rng, n_max=40)[2] for _ in range(6)]
    seen = set()
    for trial in range(800):
        snap = copy.deepcopy(bases[trial % len(bases)])
        assert _outcome(Snapshot.validate, snap) == ("ok", None)
        count = 1 if trial < 400 else int(rng.integers(2, 4))
        for kind in (kinds[trial % len(kinds)], *rng.choice(kinds, count - 1)):
            _mutate(snap, str(kind), rng)
        want = _outcome(reference_validate, snap)
        assert want[0] == "AssertionError"
        assert _outcome(Snapshot.validate, snap) == want
        seen.update(check for check in checks if check in want[1])
    assert seen == set(checks)


def test_wire_intra_forced_k4():
    links, repairs = wire_intra(
        [(0, 3, 3), (1, 3, 3), (2, 3, 3), (3, 3, 3)], ShapeParams(), np.random.default_rng(0)
    )
    assert links == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


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
        members = [(i, seq[i], seq[i]) for i in range(n)]
        links, repairs = wire_intra(members, ShapeParams(), rng)
        repaired_runs += repairs > 0
        deg = {i: 0 for i in range(n)}
        for u, v in links:
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
        [(0, 1, 1, 0), (1, 1, 1, 1)], ShapeParams(), np.random.default_rng(0)
    )
    assert links == {(0, 1)}


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
        all_links = set()
        for c in range(k):
            idx = [i for i in range(n) if membership[i] == c]
            links, _ = wire_intra([(i, total[i], intra[i]) for i in idx], ShapeParams(), rng)
            all_links |= links
        inter_links, _ = wire_inter(
            [(i, total[i], spec.inter[i], membership[i]) for i in range(n)],
            ShapeParams(),
            rng,
        )
        assert not (all_links & inter_links)
        all_links |= inter_links
        deg = {i: 0 for i in range(n)}
        for u, v in all_links:
            deg[u] += 1
            deg[v] += 1
        assert [deg[i] for i in range(n)] == total
        accepted += 1


def test_wiring_error_on_ungraphable_injection():
    # star demand 3 with a single possible partner: bypasses the gate, must
    # exhaust the repair budget and raise
    with pytest.raises(WiringError):
        wire_intra([(0, 3, 3), (1, 3, 3)], ShapeParams(), np.random.default_rng(0), budget=10)


def test_worked_example_snapshot_counts_and_exactness():
    rng = np.random.default_rng(11)
    snap = assemble_snapshot(0, WORKED_SIZES, WORKED_SPEC, rng)
    assert snap.node_count == 10
    assert snap.link_count == 15  # sum(D) / 2
    inter = sum(
        1 for u, v in snap.links if snap.nodes[u].community != snap.nodes[v].community
    )
    assert inter == 5  # (sum(D) - sum(E)) / 2
    snap.validate()


def test_assembled_specs_wire_exactly():
    rng = np.random.default_rng(17)
    for _ in range(100):
        sizes, spec, snap = assembled_graphable_spec(rng)
        snap.validate()  # exact degrees, simplicity, valid partition
        assert sorted(zip(
            (snap.nodes[i].degree for i in sorted(snap.nodes)),
            (snap.nodes[i].intra_degree for i in sorted(snap.nodes)),
        )) == sorted(zip(spec.total, spec.intra))


def test_check_connectivity_matches_spectral_oracle():
    assert check_connectivity({0, 1, 2, 3}, {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}) == 1
    assert check_connectivity({0, 1, 2, 3}, {(0, 1), (2, 3)}) == 2
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 50))
        ids = set(range(n))
        links = set()
        for _ in range(int(rng.integers(0, n))):
            u, v = rng.integers(0, n, 2)
            if u != v:
                links.add((min(int(u), int(v)), max(int(u), int(v))))
        assert check_connectivity(ids, links) == spectral_component_count(ids, links)


def test_joint_distribution_baseline_trivial_cases():
    p = degree_joint_distribution_baseline((1, 1))
    assert p[0, 1] == pytest.approx(1.0)
    star = degree_joint_distribution_baseline((3, 1, 1, 1))
    assert star[0, 1] == pytest.approx(3 * 1 / 5)


def test_star_forcing_spec_always_stars():
    rng = np.random.default_rng(29)
    for _ in range(50):
        links, _ = wire_intra(
            [(0, 3, 3), (1, 1, 1), (2, 1, 1), (3, 1, 1)], ShapeParams(), rng
        )
        assert links == {(0, 1), (0, 2), (0, 3)}


def test_uniform_pairing_approximates_cm_baseline():
    # a 10-node, 15-link sequence.  With the simplicity
    # exclusions lifted (plain uniform stub matching driven through the same
    # position-draw machinery), expected pair multiplicities equal
    # k_i * k_j / (S - 1); checked for pairs with small k_i * k_j
    from temponet.assembler import _StubSampler

    degrees = (4, 4, 3, 3, 4, 3, 3, 2, 2, 2)
    baseline = degree_joint_distribution_baseline(degrees)
    shape = ShapeParams(1, 1)
    rng = np.random.default_rng(31)
    runs = 100_000
    counts = np.zeros((10, 10))
    for _ in range(runs):
        pool = _StubSampler([(i, d, d) for i, d in enumerate(degrees)])
        open_nodes = sorted(range(10), key=lambda i: -degrees[i])
        while True:
            u = next((i for i in open_nodes if pool.rem[pool.pos[i]] > 0), None)
            if u is None:
                break
            pool.take(pool.pos[u])  # the stub being matched
            v = pool.ids[pool.draw(rng, shape, pool.pos[u])]
            pool.take(pool.pos[v])
            if u != v:
                counts[u, v] += 1
                counts[v, u] += 1
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


@pytest.mark.parametrize("pairing", [(1, 1), (5, 1), (1, 5)])
def test_tree_sampler_wires_like_the_cumsum_reference(pairing):
    # the Fenwick descent must pick exactly the partner the per-draw cumsum
    # and searchsorted picked: same links, repairs, errors and generator state
    shape = ShapeParams(*pairing)
    gen = np.random.default_rng(53)
    repaired = {"intra": 0, "inter": 0}
    for trial in range(120):
        n = int(gen.integers(2, 40))
        if trial % 2:
            mode, k = "inter", int(gen.integers(2, 6))
            community_of = {i: int(gen.integers(k)) for i in range(n)}
            stubs = [int(gen.integers(0, 7)) for _ in range(n)]
        else:
            mode, community_of = "intra", None
            stubs = [int(gen.integers(0, n)) for _ in range(n)]
        if sum(stubs) % 2:
            stubs[int(gen.integers(n))] += 1
        entries = [(i, int(gen.integers(1, 30)), stubs[i]) for i in range(n)]
        outcomes = []
        for wire in (reference_wire_phase, assembler._wire_phase):
            rng = np.random.default_rng(1000 + trial)
            try:
                result = wire(entries, shape, rng, 50 * n, community_of)
            except WiringError:
                result = "WiringError"
            outcomes.append((result, rng.bit_generator.state))
        assert outcomes[0] == outcomes[1], (trial, mode)
        result = outcomes[0][0]
        if result != "WiringError" and result[1] > 0:
            repaired[mode] += 1
    assert repaired["intra"] > 0 and repaired["inter"] > 0


def test_assemble_deterministic_given_seed():
    sizes, spec, _ = assembled_graphable_spec(np.random.default_rng(37))
    snap_a = assemble_snapshot(0, sizes, spec, np.random.default_rng(41))
    snap_b = assemble_snapshot(0, sizes, spec, np.random.default_rng(41))
    assert snap_a.links == snap_b.links
    assert all(
        snap_a.nodes[i].community == snap_b.nodes[i].community for i in snap_a.nodes
    )
