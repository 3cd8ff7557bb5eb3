"""Golden digests: two small seeded runs must reproduce their output files byte for byte.

A refactor that keeps the draw order of every random choice leaves these
digests unchanged.  A change that alters the outputs on purpose updates the
affected digest and says why in CHANGES.md.
"""

import hashlib
import shutil

import numpy as np
import pytest

from temponet import (
    RunConfig,
    SamplerConfig,
    dump_sequences,
    fix_parity,
    run,
    sample_degrees,
    sample_sizes,
    split_degrees,
)
from temponet import assembler

FILES = ("nodes.csv", "edges.csv", "report.json", "report.txt")

SAMPLER_DIGESTS = {
    "nodes.csv": "9ee4b7410c103181bf2499b8c6ba255b4761a62e4cac870a38a87b884b27bd25",
    "edges.csv": "a80303fadeaf73731434ada4d2399e1758dd30dbd5afeaffe2aae46dbd5fd6e9",
    "report.json": "4467227b6e4c08f7c6fc62eb67c37af8ddfb94c208c08b5af201979efa3df5e5",
    "report.txt": "19cc32b0bf913e49666210fe06c49a78d48a871fabca51c9a58eae1059b508b5",
}
SEQUENCE_FILE_DIGESTS = {
    "nodes.csv": "38e35636556f9c358f72c9e0c2fd039371bfd6a738bfaefe31c11f711a9de351",
    "edges.csv": "7887694c19c8cf32e1a8d85d236e17b536a789f23f544a1ec61abba70c8bc790",
    "report.json": "75be824fb22f71827f733f190ca6edaf7a8888331288e96f42fc0999e73dc88d",
    "report.txt": "77b849f6bb8a49f7c0102d0ba7940a70fde31746d473695c0249c4474fb7cbe9",
}


def digests(outdir):
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in FILES}


def sampler_cfg(outdir):
    return RunConfig(
        timesteps=3,
        seed=0,
        community_cfg=SamplerConfig("uniform", 8, 30),
        degree_cfg=SamplerConfig("uniform", 3, 10, mix_ratio=0.8),
        community_count=10,
        kills=8,
        max_sequence_retries=10,
        output_dir=str(outdir),
    )


def test_golden_sampler_mode(tmp_path, monkeypatch):
    # this seed needs a second node-assignment pass at one timestep, so the
    # digest also pins the draw order of the assignment retry
    passes = []
    real_assign = assembler.assign_nodes

    def counting_assign(*args, **kwargs):
        passes.append(1)
        return real_assign(*args, **kwargs)

    monkeypatch.setattr(assembler, "assign_nodes", counting_assign)
    result = run(sampler_cfg(tmp_path))
    assert len(passes) > len(result.snapshots)
    assert digests(tmp_path) == SAMPLER_DIGESTS


def write_steps(path):
    rng = np.random.default_rng(77)
    degrees = SamplerConfig("uniform", 3, 9, mix_ratio=0.7)
    steps = []
    for _ in range(3):
        sizes = sample_sizes(SamplerConfig("uniform", 10, 25), 6, rng)
        total = sample_degrees(degrees, sizes.node_count, rng)
        spec = split_degrees(total, degrees.mix_ratio, "fixed", "stochastic", rng)
        steps.append((sizes, fix_parity(spec, rng, (degrees.minimum, degrees.maximum))))
    dump_sequences(steps, str(path))


def sequence_file_run(steps, outdir):
    run(RunConfig(timesteps=3, seed=5, sequence_file=str(steps), kills=4, output_dir=str(outdir)))


def test_golden_sequence_file_mode(tmp_path):
    write_steps(tmp_path / "steps.txt")
    sequence_file_run(tmp_path / "steps.txt", tmp_path / "out")
    assert digests(tmp_path / "out") == SEQUENCE_FILE_DIGESTS


def test_report_does_not_depend_on_where_the_sequence_file_lives(tmp_path):
    # report.json echoes the sequence file's digest, not its path
    write_steps(tmp_path / "steps.txt")
    reports = []
    for where in ("a", "b/c"):
        (tmp_path / where).mkdir(parents=True)
        shutil.copy(tmp_path / "steps.txt", tmp_path / where / "steps.txt")
        sequence_file_run(tmp_path / where / "steps.txt", tmp_path / where / "out")
        reports.append((tmp_path / where / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]
