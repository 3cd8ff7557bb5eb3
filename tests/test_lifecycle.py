"""Jaccard-threshold lifecycle classification."""

import numpy as np
import pytest
from oracles import (
    clustering,
    reference_classify_events,
    reference_inherit_labels,
    reference_render_event_table,
)

from temponet import (
    ConfigurationError,
    LifecycleThresholds,
    RunConfig,
    SamplerConfig,
    classify_events,
    jaccard,
    run,
)
from temponet.lifecycle import (
    BORN,
    CONTINUES,
    CONTINUES_GROWING,
    CONTINUES_SHRINKING,
    DEAD,
    END_OF_T,
    MERGED_FROM,
    MERGED_INTO,
    SPLIT_FROM,
    SPLIT_INTO,
    START_OF_T1,
    flow_jaccard,
    inherit_labels,
    render_event_table,
)


def test_jaccard_basics():
    assert jaccard({1, 2}, {1, 2}) == 1.0
    assert jaccard({1, 2}, {3, 4}) == 0.0
    assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
    assert jaccard(set(), set()) == 0.0


def test_flow_jaccard_matches_set_jaccard_on_every_boundary():
    # the flow holds |a & b| and, with the birth row and death column, the
    # community sizes: its Jaccard matrix must equal the set-based one bit for bit
    cfg = RunConfig(
        timesteps=4,
        seed=8,
        community_cfg=SamplerConfig("uniform", 8, 30),
        degree_cfg=SamplerConfig("uniform", 3, 10, mix_ratio=0.8),
        community_count=30,
        kills=40,
        max_sequence_retries=10,
    )
    result = run(cfg)
    cells = 0
    for boundary in result.report.boundaries:
        before = clustering(result.snapshots[boundary.t_from])
        after = clustering(result.snapshots[boundary.t_to])
        birth_row = boundary.row_labels.index("births") if "births" in boundary.row_labels else None
        death_col = boundary.col_labels.index("deaths") if "deaths" in boundary.col_labels else None
        jac = flow_jaccard(boundary.contingency, birth_row, death_col)
        want = np.array([[jaccard(a, b) for b in after] for a in before])
        assert jac.shape == want.shape
        assert np.array_equal(jac, want)
        cells += jac.size
    assert cells == 3 * 30 * 30


def _events(members_t, members_t1, flow, **kw):
    # the member sets document each case; classification reads only the flow
    return classify_events(np.asarray(flow), **kw)


def _by(records, side, community):
    return [r for r in records if r.side == side and r.community == community]


def test_identity_flow_everyone_continues():
    members = [{0, 1, 2}, {3, 4}]
    records = _events(members, members, [[3, 0], [0, 2]])
    for c in (0, 1):
        end = _by(records, END_OF_T, c)
        start = _by(records, START_OF_T1, c)
        assert [r.event for r in end] == [CONTINUES]
        assert [r.event for r in start] == [CONTINUES]
        assert end[0].counterparts == (c,)


def test_two_sources_absorbed_into_larger_target():
    # both sources fully absorbed alongside each other -> both "merged into"
    members_t = [{0, 1}, {2, 3, 4}]
    members_t1 = [{0, 1, 2, 3, 4}]
    flow = [[2], [3]]
    records = _events(members_t, members_t1, flow)
    assert any(r.event == MERGED_INTO and r.counterparts == (0,) for r in _by(records, END_OF_T, 0))
    assert any(r.event == MERGED_INTO and r.counterparts == (0,) for r in _by(records, END_OF_T, 1))
    merged_from = [r for r in records if r.event == MERGED_FROM]
    assert len(merged_from) == 1 and merged_from[0].counterparts == (0, 1)


def test_half_half_split_at_threshold():
    members_t = [{0, 1, 2, 3}]
    members_t1 = [{0, 1}, {2, 3}]
    records = _events(
        members_t, members_t1, [[2, 2]],
        thresholds=LifecycleThresholds(continuation=0.3, share=0.1),
    )
    split = [r for r in _by(records, END_OF_T, 0) if r.event == SPLIT_INTO]
    assert len(split) == 1 and split[0].counterparts == (0, 1)
    assert [r.community for r in records if r.event == SPLIT_FROM] == [0, 1]


def test_split_and_merge_can_coexist():
    # source 0 splits toward targets 0 and 1 while target 1 also absorbs
    # source 1: community 0 carries both a split and a merge record
    members_t = [{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9}]
    members_t1 = [{0, 1, 2}, {3, 4, 5, 6, 7, 8, 9}]
    flow = [[3, 3], [0, 4]]
    records = _events(members_t, members_t1, flow)
    end_0_events = {r.event for r in _by(records, END_OF_T, 0)}
    assert SPLIT_INTO in end_0_events
    assert MERGED_INTO in end_0_events
    assert any(r.event == MERGED_INTO for r in _by(records, END_OF_T, 1))


def test_birth_and_death_from_adjustment_flows():
    members_t = [{0, 1, 2}]
    members_t1 = [{3, 4}]
    # row 1 is the birth-adjustment row, column 1 the death-adjustment column
    flow = [[0, 3], [2, 0]]
    records = _events(
        members_t, members_t1, flow, death_col=1, birth_row=1,
    )
    assert any(r.event == DEAD for r in _by(records, END_OF_T, 0))
    assert any(r.event == BORN for r in _by(records, START_OF_T1, 0))


def test_growing_shrinking_annotation():
    members_t = [{0, 1, 2, 3}, {4, 5, 6, 7}]
    members_t1 = [{0, 1, 2, 3, 8, 9}, {4, 5}]
    flow = [[4, 0, 0], [0, 2, 2], [2, 0, 0]]
    records = _events(
        members_t, members_t1, flow, death_col=2, birth_row=2,
    )
    assert any(r.event == CONTINUES_GROWING for r in _by(records, END_OF_T, 0))
    assert any(r.event == CONTINUES_SHRINKING for r in _by(records, END_OF_T, 1))


def test_every_real_community_gets_a_record():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k, l = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        n = int(rng.integers(max(k, l), 40))
        a = 1 + rng.multinomial(n - k, np.ones(k) / k)
        b = 1 + rng.multinomial(n - l, np.ones(l) / l)
        # random contingency via greedy fill
        u = np.zeros((k, l), dtype=int)
        ra, rb = list(a), list(b)
        while sum(ra) > 0:
            i = int(rng.choice([x for x in range(k) if ra[x] > 0]))
            j = int(rng.choice([x for x in range(l) if rb[x] > 0]))
            m = min(ra[i], rb[j])
            u[i, j] += m
            ra[i] -= m
            rb[j] -= m
        ids = iter(range(n))
        members_t = [set() for _ in range(k)]
        members_t1 = [set() for _ in range(l)]
        for i in range(k):
            for j in range(l):
                for _ in range(u[i, j]):
                    nid = next(ids)
                    members_t[i].add(nid)
                    members_t1[j].add(nid)
        records = _events(members_t, members_t1, u)
        for i in range(k):
            assert _by(records, END_OF_T, i), (u, i)
        for j in range(l):
            assert _by(records, START_OF_T1, j), (u, j)
        # row sums equal source sizes
        assert (u.sum(axis=1) == a).all()


def test_classification_deterministic():
    members_t = [{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9}]
    members_t1 = [{0, 1, 2}, {3, 4, 5, 6, 7, 8, 9}]
    flow = np.array([[3, 3], [0, 4]])
    a = _events(members_t, members_t1, flow)
    b = _events(members_t, members_t1, flow)
    assert a == b


def test_threshold_validation():
    with pytest.raises(ConfigurationError):
        LifecycleThresholds(continuation=0.0)
    with pytest.raises(ConfigurationError):
        LifecycleThresholds(share=1.0)


def test_render_event_table_two_sections():
    members_t = [{0, 1}, {2, 3, 4}]
    members_t1 = [{0, 1, 2, 3, 4}]
    records = _events(members_t, members_t1, [[2], [3]])
    text = render_event_table(records, 2, labels_t=["7", "8"], labels_t1=["11"])
    assert "Event @ end of time T2" in text
    assert "Event @ beginning of time T3" in text
    assert "Merged into 11" in text
    assert "Merged from [7, 8]" in text


def _random_boundary(rng):
    """A random flow over k, l in 1..6 real communities, with or without a
    birth row and a death column anywhere in the matrix."""
    k, l = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    birth_row = int(rng.integers(k + 1)) if rng.random() < 0.5 else None
    death_col = int(rng.integers(l + 1)) if rng.random() < 0.5 else None
    shape = (k + (birth_row is not None), l + (death_col is not None))
    if rng.random() < 0.5:  # dense: small counts, so Jaccard ties are common
        u = rng.integers(0, 5, size=shape)
    else:  # sparse: a few large cells, empty communities included
        u = rng.integers(1, 30, size=shape) * (rng.random(shape) < 0.3)
    if birth_row is not None and death_col is not None:
        u[birth_row, death_col] = 0
    return u, birth_row, death_col


def test_classification_and_table_match_the_per_side_reference():
    # 10,000 flows over a grid of thresholds (a zero size dead band included):
    # equal records, with plain str/int fields, and equal table text
    rng = np.random.default_rng(2010)
    grid = [
        LifecycleThresholds(continuation, share, band)
        for continuation in (0.1, 0.3, 0.5, 0.9)
        for share in (0.05, 0.1, 0.25, 0.34, 0.5, 0.9)
        for band in (0.0, 0.02, 0.3)
    ]
    seen = set()
    for trial in range(10_000):
        u, birth_row, death_col = _random_boundary(rng)
        th = grid[trial % len(grid)]
        got = classify_events(u, th, death_col=death_col, birth_row=birth_row)
        want = reference_classify_events(u, th, death_col=death_col, birth_row=birth_row)
        assert [(r.side, r.community, r.event, r.counterparts) for r in got] == [
            (r.side, r.community, r.event, r.counterparts) for r in want
        ], (u, birth_row, death_col, th)
        for r in got:
            assert type(r.side) is str and type(r.event) is str
            assert type(r.community) is int
            assert all(type(c) is int for c in r.counterparts)
        seen.update(r.event for r in got)
        rows = [f"r{i}" for i in range(u.shape[0])]
        cols = [f"c{j}" for j in range(u.shape[1])]
        for labels in ({}, {"labels_t": rows, "labels_t1": cols}):
            assert render_event_table(got, trial, **labels) == reference_render_event_table(
                want, trial, **labels
            )
    assert seen == {
        CONTINUES,
        CONTINUES_GROWING,
        CONTINUES_SHRINKING,
        SPLIT_INTO,
        SPLIT_FROM,
        MERGED_INTO,
        MERGED_FROM,
        BORN,
        DEAD,
    }


def test_inherit_labels_matches_the_sorted_tuple_reference():
    # values on a coarse grid, so ties are common and many equal the
    # threshold exactly; some rows are all zero, shapes are k != l, and
    # some boundaries have no target (l = 0) or no source (k = 0)
    rng = np.random.default_rng(404)
    for case in range(600):
        k, l = (int(x) for x in rng.integers(0, 9, 2))
        if case % 50 == 0:
            l = 0
        jac = rng.integers(0, 6, (k, l)) / 5
        jac[rng.random(k) < 0.2] = 0.0
        threshold = float(rng.choice([0.0, 0.2, 0.4, 0.6, 1.0]))
        labels_t = rng.permutation(100)[:k].tolist()
        counter = int(rng.integers(100, 200))
        want = reference_inherit_labels(jac, labels_t, threshold, counter)
        assert inherit_labels(jac, labels_t, threshold, counter) == want, case
