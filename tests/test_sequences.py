"""Samplers, rounding, degree splitting and parity repair."""

import math

import numpy as np
import pytest

from temponet import (
    CommunitySpec,
    ConfigurationError,
    DegreeSpec,
    SamplerConfig,
    dump_sequences,
    fix_parity,
    load_sequences,
    sample_degrees,
    sample_sizes,
    split_degrees,
)
from temponet.cli import main as cli_main

from oracles import binomial_shifted_pmf, rounded_uniform_pmf, truncated_pmf_moments


def test_degenerate_uniform_support():
    rng = np.random.default_rng(0)
    spec = sample_sizes(SamplerConfig("uniform", 5, 5), 3, rng)
    assert spec.sizes == (5, 5, 5)


def test_uniform_sizes_mean_within_three_sigma():
    # oracle: exact pmf of the rounded U[2,4] draw, frozen moments
    pmf = rounded_uniform_pmf(2, 4)
    mean, var, _ = truncated_pmf_moments(pmf)
    assert mean == pytest.approx(3.0)
    assert var == pytest.approx(0.5)
    rng = np.random.default_rng(42)
    n = 100_000
    draws = sample_sizes(SamplerConfig("uniform", 2, 4), n, rng).sizes
    sigma = math.sqrt(var / n)
    assert abs(np.mean(draws) - mean) < 3 * sigma


def test_power_law_sizes_ccdf_slope():
    # truncated power law with exponent 1.5: log-log pdf slope ~ -1.5 mid-range
    rng = np.random.default_rng(7)
    draws = np.array(
        sample_sizes(SamplerConfig("power_law", 10, 1000, param=1.5), 100_000, rng).sizes
    )
    values, counts = np.unique(draws, return_counts=True)
    mid = (values >= 20) & (values <= 300) & (counts >= 30)
    slope = np.polyfit(np.log(values[mid]), np.log(counts[mid]), 1)[0]
    assert abs(slope - (-1.5)) < 0.2, f"fitted pdf slope {slope}"


def test_power_law_degrees_histogram_slope():
    rng = np.random.default_rng(8)
    draws = np.array(sample_degrees(SamplerConfig("power_law", 10, 150, param=2.5), 100_000, rng))
    assert draws.min() >= 10 and draws.max() <= 150
    values, counts = np.unique(draws, return_counts=True)
    mid = (values >= 12) & (values <= 80) & (counts >= 30)
    slope = np.polyfit(np.log(values[mid]), np.log(counts[mid]), 1)[0]
    assert abs(slope - (-2.5)) < 0.25, f"fitted pdf slope {slope}"


def test_binomial_family_moments():
    cfg = SamplerConfig("binomial", 3, 23, param=0.4)
    pmf = binomial_shifted_pmf(3, 23, 0.4)
    mean, var, mu4 = truncated_pmf_moments(pmf)
    rng = np.random.default_rng(11)
    n = 100_000
    draws = np.array(sample_degrees(cfg, n, rng), dtype=float)
    assert abs(draws.mean() - mean) < 3 * math.sqrt(var / n)
    var_sigma = math.sqrt((mu4 - var**2) / n)
    assert abs(draws.var() - var) < 3 * var_sigma


def test_exponential_family_matches_quadrature_pmf():
    # oracle: integrate the stochastic-rounding kernel over the truncated
    # exponential density on a fine grid, then compare in total variation
    a, b, lam = 1, 30, 0.3
    grid = np.linspace(a, b, 200_001)
    density = lam * np.exp(-lam * grid)
    density /= np.trapezoid(density, grid)
    pmf = np.zeros(b + 2)
    for k in range(a, b + 1):
        up = (grid >= k - 1) & (grid < k)
        down = (grid >= k) & (grid < k + 1)
        frac_up = np.where(up, grid - (k - 1), 0.0)
        keep = np.where(down, 1.0 - (grid - k), 0.0)
        pmf[k] = np.trapezoid(density * (frac_up + keep), grid)
    pmf /= pmf.sum()
    rng = np.random.default_rng(3)
    n = 50_000
    draws = np.array(sample_degrees(SamplerConfig("exponential", a, b, param=lam), n, rng))
    assert draws.min() >= a and draws.max() <= b
    emp = np.bincount(draws, minlength=b + 2) / n
    tv = 0.5 * np.abs(emp - pmf).sum()
    assert tv < 0.02, f"total variation {tv}"


def test_stochastic_round_integer_and_limit_cases():
    rng = np.random.default_rng(5)
    # integer products never move
    assert split_degrees((4,) * 100, 1.0, "fixed", "stochastic", rng).intra == (4,) * 100
    # 0.999 rounds up almost always
    ups = sum(split_degrees((1,) * 2000, 0.999, "fixed", "stochastic", rng).intra)
    assert ups > 1900


def test_stochastic_round_expectation():
    rng = np.random.default_rng(6)
    # 9 * 0.25 = 2.25 rounds to 2 or 3 with mean 2.25
    n = 100_000
    draws = np.array(split_degrees((9,) * n, 0.25, "fixed", "stochastic", rng).intra, dtype=float)
    assert set(np.unique(draws)) <= {2.0, 3.0}
    sigma = math.sqrt(0.25 * 0.75 / n)  # Bernoulli(0.25) variance
    assert abs(draws.mean() - 2.25) < 3 * sigma


def test_split_fixed_boundaries():
    rng = np.random.default_rng(1)
    spec = split_degrees((4, 4), 1.0, "fixed", "nearest", rng)
    assert spec.intra == (4, 4)
    spec = split_degrees((4, 7, 9), 0.0, "fixed", "nearest", rng)
    assert spec.intra == (0, 0, 0)
    spec = split_degrees((10, 10, 10), 0.7, "fixed", "nearest", rng)
    assert spec.intra == (7, 7, 7)


def test_split_bernoulli_mean():
    rng = np.random.default_rng(2)
    n = 100_000
    spec = split_degrees((10,) * n, 0.7, "bernoulli", "stochastic", rng)
    intra = np.array(spec.intra, dtype=float)
    assert intra.min() >= 0 and intra.max() <= 10
    sigma = math.sqrt(10 * 0.7 * 0.3 / n)  # Binomial(10, .7) variance per node
    assert abs(intra.mean() - 7.0) < 3 * sigma


def test_fix_parity_noop_when_even():
    spec = DegreeSpec((4, 4), (2, 2))
    fixed = fix_parity(spec, np.random.default_rng(0))
    assert fixed.total == spec.total and fixed.intra == spec.intra


def test_fix_parity_single_step_repairs():
    # E={3,2} with D={4,4}: every legal single-step repair, nothing else
    seen = set()
    for seed in range(200):
        fixed = fix_parity(DegreeSpec((4, 4), (3, 2)), np.random.default_rng(seed))
        assert sum(fixed.intra) % 2 == 0
        assert sum(fixed.inter) % 2 == 0
        seen.add(fixed.intra)
    assert seen == {(4, 2), (2, 2), (3, 3), (3, 1)}


def test_fix_parity_changes_at_most_one_intra_entry():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        total = tuple(int(x) for x in rng.integers(1, 9, n))
        intra = tuple(int(rng.integers(0, d + 1)) for d in total)
        spec = DegreeSpec(total, intra)
        fixed = fix_parity(spec, rng)
        assert sum(fixed.intra) % 2 == 0 and sum(fixed.inter) % 2 == 0
        changed = [i for i in range(n) if fixed.intra[i] != spec.intra[i]]
        assert len(changed) <= 1
        assert all(abs(fixed.intra[i] - spec.intra[i]) <= 1 for i in changed)


def test_fix_parity_unrepairable_inter_errors():
    # D={3}, E={3}: intra repair forces E={2}, inter sum becomes odd,
    # and with bounds (3, 3) the total degree cannot move
    with pytest.raises(ConfigurationError):
        fix_parity(DegreeSpec((3,), (3,)), np.random.default_rng(0), degree_bounds=(3, 3))


def test_samplers_deterministic_given_seed():
    cfg = SamplerConfig("power_law", 5, 50, param=2.0)
    a = sample_degrees(cfg, 1000, np.random.default_rng(123))
    b = sample_degrees(cfg, 1000, np.random.default_rng(123))
    assert a == b


def test_sampler_config_validation():
    with pytest.raises(ConfigurationError):
        SamplerConfig("power_law", 5, 3)
    with pytest.raises(ConfigurationError):
        SamplerConfig("nonsense", 1, 5)
    with pytest.raises(ConfigurationError):
        SamplerConfig("exponential", 1, 5, param=-1.0)
    with pytest.raises(ConfigurationError):
        SamplerConfig("binomial", 1, 5, param=1.5)
    with pytest.raises(ConfigurationError):
        SamplerConfig("uniform", 1, 5, mix_ratio=1.2)


def test_degree_spec_invariants():
    with pytest.raises(ConfigurationError):
        DegreeSpec((0, 2), (0, 1))  # isolated node
    with pytest.raises(ConfigurationError):
        DegreeSpec((2, 2), (3, 0))  # e > d
    with pytest.raises(ConfigurationError):
        CommunitySpec(())
    spec = DegreeSpec((5, 3), (2, 1))
    assert spec.inter == (3, 2)


def test_sequence_file_round_trip(tmp_path):
    steps = [
        (CommunitySpec((3, 2)), DegreeSpec((2, 2, 2, 1, 1), (1, 1, 2, 0, 0))),
        (CommunitySpec((4,)), DegreeSpec((3, 3, 2, 2), (3, 3, 2, 2))),
    ]
    path = tmp_path / "seqs.txt"
    dump_sequences(steps, path)
    loaded = load_sequences(path)
    assert len(loaded) == 2
    for (s0, d0), (s1, d1) in zip(steps, loaded):
        assert s0.sizes == s1.sizes
        assert d0.total == d1.total and d0.intra == d1.intra


def test_sequence_file_validation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n2 1\n2 1\n")  # 5 nodes declared, 2 pairs given
    with pytest.raises(ConfigurationError):
        load_sequences(bad)
    token = tmp_path / "token.txt"
    token.write_text("2\n1 1\n1 1\n\n2\nx 1\n1 1\n")  # a non-integer degree in block 1
    with pytest.raises(ConfigurationError, match=r"token.txt: block 1: .*got 'x 1'"):
        load_sequences(token)
    assert cli_main(["check", "--file", str(token)]) == 2
