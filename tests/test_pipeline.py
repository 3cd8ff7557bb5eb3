"""The full generation loop, transition planning and the CLI."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from temponet import (
    CommunitySpec,
    ConfigurationError,
    DegreeSpec,
    GraphabilityError,
    RunConfig,
    SamplerConfig,
    TemponetError,
    WiringError,
    dump_sequences,
    load_run_config,
    plan_transition,
    read_temporal_csv,
    run,
)
from temponet import assembler, pipeline
from temponet.cli import main as cli_main


def small_cfg(**kw):
    base = dict(
        timesteps=3,
        seed=11,
        community_cfg=SamplerConfig("uniform", 10, 20),
        degree_cfg=SamplerConfig("uniform", 3, 8, mix_ratio=0.7),
        community_count=4,
        kills=2,
    )
    base.update(kw)
    return RunConfig(**base)


def test_plan_transition_arithmetic():
    rng = np.random.default_rng(0)
    alive = range(100)
    equal = plan_transition(CommunitySpec((50, 50)), CommunitySpec((60, 40)), (), rng, alive)
    assert (equal.deaths, equal.births) == (0, 0)
    assert equal.sizes_from_augmented == (50, 50)
    assert equal.sizes_to_augmented == (60, 40)

    shrink = plan_transition(
        CommunitySpec((50, 50)), CommunitySpec((50, 40)), (1, 2, 3, 4), rng, alive
    )
    assert shrink.deaths == 10  # 4 explicit + 6 additional random kills
    assert len(shrink.kill_ids) == 10
    assert shrink.births == 0
    assert shrink.sizes_to_augmented == (50, 40, 10)
    assert shrink.death_col == 2 and shrink.birth_row is None

    grow = plan_transition(
        CommunitySpec((50, 50)), CommunitySpec((60, 50)), (1, 2, 3, 4), rng, alive
    )
    assert grow.deaths == 4 and grow.births == 14
    assert grow.sizes_from_augmented == (50, 50, 14)
    assert grow.birth_row == 2 and grow.death_col == 2


def test_plan_transition_draws_extra_victims_from_alive():
    rng = np.random.default_rng(1)
    plan = plan_transition(
        CommunitySpec((5, 5)), CommunitySpec((7,)), (3,), rng, alive_ids=range(10)
    )
    assert plan.deaths == 3 and len(plan.kill_ids) == 3
    assert 3 in plan.kill_ids
    assert set(plan.kill_ids) <= set(range(10))


def test_plan_transition_validation():
    with pytest.raises(ConfigurationError):
        plan_transition(
            CommunitySpec((2,)), CommunitySpec((2,)), (1, 2, 3), np.random.default_rng(0), (1, 2)
        )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("kills", -2, "random kill counts"),
        ("kills", [1, -1], "random kill counts"),
        ("repair_budget_factor", -1, "repair_budget_factor"),
        ("max_sequence_retries", 0, "max_sequence_retries"),
    ],
    ids=["kills", "kills_per_boundary", "repair_budget_factor", "max_sequence_retries"],
)
def test_run_config_rejects_values_that_fail_later(field, value, message):
    with pytest.raises(ConfigurationError, match=message):
        small_cfg(**{field: value})


def test_boundary_recount_reads_the_realized_snapshots(monkeypatch):
    # an assembly that swaps the targets of two survivors from different
    # source communities into different target communities must not pass
    built = []
    real_assemble, real_assign = pipeline.assemble_snapshot, assembler.assign_nodes

    def assemble(*args, **kwargs):
        built.append(real_assemble(*args, **kwargs))
        return built[-1]

    def assign(*args, surviving=None, **kwargs):
        out = real_assign(*args, surviving=surviving, **kwargs)
        if surviving is not None:
            old = built[-1].nodes
            ids = sorted(nid for nid in out if nid in old)
            a, b = next(
                (a, b)
                for a in ids
                for b in ids
                if old[a].community != old[b].community and out[a][0] != out[b][0]
            )
            out[a], out[b] = out[b], out[a]
        return out

    monkeypatch.setattr(pipeline, "assemble_snapshot", assemble)
    monkeypatch.setattr(assembler, "assign_nodes", assign)
    with pytest.raises(AssertionError, match="realized contingency deviates"):
        run(small_cfg(timesteps=2))


def test_run_single_timestep_has_no_boundaries():
    result = run(small_cfg(timesteps=1, kills=0))
    assert len(result.snapshots) == 1
    assert result.report.boundaries == []
    assert result.report.snapshots[0].nodes == result.snapshots[0].node_count


def test_run_is_deterministic():
    a = run(small_cfg())
    b = run(small_cfg())
    assert [s.links for s in a.snapshots] == [s.links for s in b.snapshots]
    assert [s.community_labels for s in a.snapshots] == [
        s.community_labels for s in b.snapshots
    ]
    assert json.dumps(a.report.config) == json.dumps(b.report.config)
    assert [b1.contingency for b1 in a.report.boundaries] == [
        b2.contingency for b2 in b.report.boundaries
    ]


def test_run_conservation_and_id_stability():
    result = run(small_cfg(timesteps=4, kills=3))
    ids = [set(s.nodes) for s in result.snapshots]
    for t, boundary in enumerate(result.report.boundaries):
        survivors = ids[t] & ids[t + 1]
        assert len(survivors) + boundary.deaths == len(ids[t])
        assert len(survivors) + boundary.births == len(ids[t + 1])
        # dead ids never come back
        dead = ids[t] - ids[t + 1]
        for later in ids[t + 1 :]:
            assert not (dead & later)
    # id counter grows monotonically: newborn ids exceed every earlier id
    for t in range(1, len(ids)):
        born = ids[t] - ids[t - 1]
        if born:
            assert min(born) > max(ids[t - 1])


def test_run_every_snapshot_validates_and_contingency_matches():
    result = run(small_cfg(timesteps=4, seed=5))
    for snap in result.snapshots:
        snap.validate()
    for t, boundary in enumerate(result.report.boundaries):
        u = np.array(boundary.contingency)
        snap_t, snap_t1 = result.snapshots[t], result.snapshots[t + 1]
        k, l = snap_t.community_count, snap_t1.community_count
        recount = np.zeros((k, l), dtype=int)
        for nid in set(snap_t.nodes) & set(snap_t1.nodes):
            recount[snap_t.nodes[nid].community, snap_t1.nodes[nid].community] += 1
        assert np.array_equal(u[:k, :l], recount)
        assert u.sum() == snap_t.node_count + boundary.births
        # row sums of the real block reproduce the sizes at t
        assert list(u.sum(axis=1))[:k] == [len(g) for g in snap_t.clustering]


def test_run_explicit_kill_ids_die():
    probe = run(small_cfg(timesteps=2, kills=0))
    victims = sorted(probe.snapshots[0].nodes)[:3]
    result = run(small_cfg(timesteps=2, kills=[victims]))
    assert set(victims) & set(result.snapshots[1].nodes) == set()
    assert result.report.boundaries[0].deaths >= 3


def test_run_sequence_file_mode(tmp_path):
    rng = np.random.default_rng(8)
    steps = []
    for _ in range(2):
        sizes = CommunitySpec((6, 6))
        total = tuple(int(x) for x in rng.integers(2, 5, 12))
        spec = DegreeSpec(total, tuple(min(2, d) for d in total))
        from temponet import fix_parity

        steps.append((sizes, fix_parity(spec, rng)))
    path = tmp_path / "steps.txt"
    dump_sequences(steps, path)
    cfg = RunConfig(timesteps=2, seed=3, sequence_file=str(path), kills=0)
    result = run(cfg)
    assert len(result.snapshots) == 2
    got = sorted(n.degree for n in result.snapshots[0].nodes.values())
    assert got == sorted(steps[0][1].total)


def test_run_batch_mode_halts_on_ungraphable_file(tmp_path):
    # odd total intra sum cannot be clustered
    path = tmp_path / "bad.txt"
    path.write_text("3\n2 1\n2 1\n2 1\n")
    cfg = RunConfig(timesteps=1, seed=0, sequence_file=str(path))
    with pytest.raises(GraphabilityError):
        run(cfg)


def test_run_output_files(tmp_path):
    out = tmp_path / "out"
    result = run(small_cfg(output_dir=str(out)))
    names = sorted(os.listdir(out))
    assert names == ["edges.csv", "nodes.csv", "report.json", "report.txt"]
    communities, edges = read_temporal_csv(out / "nodes.csv", out / "edges.csv")
    for snap in result.snapshots:
        assert edges[snap.t] == snap.links
    payload = json.loads((out / "report.json").read_text())
    assert len(payload["boundaries"]) == 2
    assert payload["seed"] == 11


def test_report_echoes_the_complete_config(tmp_path):
    # a run must be reproducible from its report alone; only the output
    # directory, which does not change the outputs, is left out
    from dataclasses import fields

    cfg = small_cfg(output_dir=str(tmp_path), max_sequence_retries=7, repair_budget_factor=9)
    run(cfg)
    echo = json.loads((tmp_path / "report.json").read_text())["config"]
    assert set(echo) == {f.name for f in fields(RunConfig)} - {"output_dir"}
    assert echo["max_sequence_retries"] == 7 and echo["repair_budget_factor"] == 9
    assert echo["thresholds"]["size_dead_band"] == cfg.thresholds.size_dead_band
    assert echo["degree_cfg"]["mix_ratio"] == 0.7


def test_run_interactive_resamples(monkeypatch):
    # batch mode stops on the first ungraphable draw; interactive retries.
    # A tiny odd-sized community with high degrees is frequently ungraphable,
    # so compare behaviours over the same seed.
    cfg = dict(
        timesteps=1,
        seed=19,
        community_cfg=SamplerConfig("uniform", 3, 4),
        degree_cfg=SamplerConfig("uniform", 2, 3, mix_ratio=1.0, rounding="nearest"),
        community_count=1,
        kills=0,
    )
    failures = 0
    successes = 0
    for seed in range(40):
        cfg["seed"] = seed
        try:
            run(RunConfig(**cfg))
            successes += 1
        except GraphabilityError:
            failures += 1
    assert failures > 0 and successes > 0
    # interactive mode succeeds on every one of those seeds
    for seed in range(40):
        cfg["seed"] = seed
        run(RunConfig(**cfg, interactive=True, max_sequence_retries=40))


def test_abort_on_disconnected_redraws_at_t0_in_interactive_mode():
    # sparse intra degrees often wire a community in several pieces; this
    # seed's first T0 draw does, so batch mode stops and interactive mode
    # draws again, as it does at every later timestep
    cfg = dict(
        timesteps=1,
        seed=1,
        community_cfg=SamplerConfig("uniform", 5, 8),
        degree_cfg=SamplerConfig("uniform", 2, 4, mix_ratio=0.6),
        community_count=2,
        on_disconnected="abort",
    )
    with pytest.raises(GraphabilityError, match="internally disconnected"):
        run(RunConfig(**cfg))
    result = run(RunConfig(**cfg, interactive=True))
    assert result.snapshots[0].disconnected_communities == []


def test_exhausted_sequence_draws_name_timestep_attempts_and_conditions():
    # every intra degree equals the single community's size, so every draw
    # fails the capacity condition
    cfg = RunConfig(
        timesteps=1,
        seed=0,
        community_cfg=SamplerConfig("uniform", 4, 4),
        degree_cfg=SamplerConfig("uniform", 4, 4, mix_ratio=1.0, rounding="nearest"),
        community_count=1,
        interactive=True,
        max_sequence_retries=3,
    )
    with pytest.raises(GraphabilityError) as info:
        run(cfg)
    message = str(info.value)
    assert message.startswith("timestep 0: 3 sequence draw(s) failed:")
    assert "assignment_infeasible" in message and "(x3)" in message


def test_exhausted_assembly_names_its_conditions_in_the_draw_error(tmp_path):
    # the gate passes, but the singleton's only fitting slot has 4 inter stubs
    # that nobody else can take, so every assignment attempt fails
    path = tmp_path / "steps.txt"
    path.write_text("1 3\n4 0\n2 2\n2 2\n2 2\n")
    with pytest.raises(GraphabilityError) as info:
        run(RunConfig(timesteps=1, seed=0, sequence_file=str(path)))
    message = str(info.value)
    assert message.startswith("timestep 0: 1 sequence draw(s) failed: 10 assignment attempt(s)")
    assert message.count("timestep 0") == 1
    assert "inter_max" in message and "(x10)" in message


def test_mid_scale_run_produces_lifecycle_events(tmp_path):
    # ~200 nodes moving from 10 to 9 communities: the minimum-VI flow has to
    # absorb one community, so the log carries events beyond plain
    # continuation
    from temponet import SamplerConfig, fix_parity, sample_degrees, split_degrees
    from temponet.lifecycle import CONTINUES, CONTINUES_GROWING, CONTINUES_SHRINKING

    rng = np.random.default_rng(20)
    steps = []
    for sizes in (CommunitySpec((20,) * 10), CommunitySpec((22,) * 8 + (24,))):
        total = sample_degrees(SamplerConfig("uniform", 3, 8), sizes.node_count, rng)
        spec = split_degrees(total, 0.7, "fixed", "stochastic", rng)
        steps.append((sizes, fix_parity(spec, rng, (3, 9))))
    path = tmp_path / "steps.txt"
    dump_sequences(steps, path)
    result = run(RunConfig(timesteps=2, seed=6, sequence_file=str(path), kills=0))
    events = result.report.boundaries[0].events
    assert events
    plain = {CONTINUES, CONTINUES_GROWING, CONTINUES_SHRINKING}
    assert any(rec.event not in plain for rec in events), [r.event for r in events]


def test_config_file_loading(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        """
[run]
timesteps = 3
seed = 9
kills = 1
max_sequence_retries = 3
repair_budget_factor = 7

[communities]
family = uniform
min = 10
max = 14
count = 3

[degrees]
family = uniform
min = 3
max = 6
mix_ratio = 0.6
mix_mode = bernoulli

[shapes]
pairing_alpha = 2.0
temporal_alpha = 3.0

[lifecycle]
continuation = 0.25
share = 0.15
size_dead_band = 0.05
"""
    )
    cfg = load_run_config(path)
    assert cfg.timesteps == 3 and cfg.seed == 9 and cfg.kills == 1
    assert cfg.community_cfg.maximum == 14 and cfg.community_count == 3
    assert cfg.degree_cfg.mix_mode == "bernoulli"
    assert cfg.pairing_shape.alpha == 2.0 and cfg.temporal_shape.alpha == 3.0
    assert cfg.thresholds.continuation == 0.25 and cfg.thresholds.size_dead_band == 0.05
    assert cfg.max_sequence_retries == 3 and cfg.repair_budget_factor == 7
    cfg2 = load_run_config(path, overrides={"seed": 77})
    assert cfg2.seed == 77
    result = run(cfg)
    assert len(result.snapshots) == 3


def test_readme_config_example_loads_verbatim(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    cfg = load_run_config(path)
    assert cfg.timesteps == 11 and cfg.seed == 42 and cfg.kills == 3
    assert cfg.interactive is True and cfg.no_search is False
    assert cfg.sequence_file is None and cfg.output_dir is None
    assert cfg.community_count == 5 and cfg.degree_cfg.rounding == "stochastic"
    assert cfg.max_sequence_retries == 10 and cfg.repair_budget_factor == 50
    assert cfg.thresholds.size_dead_band == 0.02


def test_cli_version_and_flow(capsys):
    assert cli_main(["version"]) == 0
    assert cli_main(
        ["flow", "--sizes-from", "10,8,6", "--sizes-to", "12,10,2", "--cap", "1000"]
    ) == 0
    out = capsys.readouterr().out
    assert "solution count: 279" in out
    assert "mi_greedy" in out


def test_cli_check_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("2 2\n1 1\n1 1\n1 1\n1 1\n")
    assert cli_main(["check", "--file", str(good)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n2 1\n2 1\n2 1\n")
    assert cli_main(["check", "--file", str(bad)]) == 3
    assert cli_main(["check", "--file", str(tmp_path / "missing.txt")]) == 5


def test_cli_generate(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(
        """
[run]
timesteps = 2
seed = 4
kills = 1

[communities]
family = uniform
min = 8
max = 12
count = 3

[degrees]
family = uniform
min = 2
max = 5
mix_ratio = 0.7
"""
    )
    out = tmp_path / "result"
    assert cli_main(["generate", "--config", str(ini), "--output", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["edges.csv", "nodes.csv", "report.json", "report.txt"]
    # bad config file -> validation exit code
    broken = tmp_path / "broken.ini"
    broken.write_text("[run]\ntimesteps = 0\n")
    assert cli_main(["generate", "--config", str(broken)]) == 2
    # a negative random-kill count is a validation error, not a crash in the draw
    negative = tmp_path / "negative.ini"
    negative.write_text(ini.read_text().replace("kills = 1", "kills = -2"))
    assert cli_main(["generate", "--config", str(negative), "--output", str(out)]) == 2
    assert "random kill counts must be >= 0" in capsys.readouterr().err


def test_config_file_requires_timesteps(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 3\nsequence_file = steps.txt\n")
    with pytest.raises(ConfigurationError, match="timesteps is required"):
        load_run_config(path)
    assert load_run_config(path, overrides={"timesteps": 4}).timesteps == 4


@pytest.mark.parametrize(
    "error, code",
    [(ConfigurationError, 2), (GraphabilityError, 3), (WiringError, 4), (TemponetError, 1)],
)
def test_cli_exit_code_of_each_error_class(tmp_path, monkeypatch, capsys, error, code):
    def failing_run(cfg):
        raise error("boom")

    monkeypatch.setattr("temponet.cli.run", failing_run)
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\ntimesteps = 1\nsequence_file = steps.txt\n")
    assert cli_main(["generate", "--config", str(ini), "--output", str(tmp_path)]) == code
    assert capsys.readouterr().err == "error: boom\n"
