"""Campaign seeding: the generators a campaign derives in one vectorized pass
are ``trial_rng(seed, k)`` draw for draw, so its reports are those of
seeding every trial on its own."""

import json
import warnings

import numpy as np
import pytest

from ambiconv import trials
from ambiconv.cli import main

# 2**64 + 3 has three words and so fills the pool with its index; 2**128 - 1
# has four, so its index word is mixed in after the pool.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2039888501, 2**128 - 1]


@pytest.mark.parametrize("count", [1, 100, trials._SEED_CHUNK + 1])
@pytest.mark.parametrize("seed", SEEDS)
def test_campaign_generators_match_trial_rng(seed, count):
    rngs = list(trials._trial_rngs(seed, count))
    assert len(rngs) == count
    for index, rng in enumerate(rngs):
        ref = trials.trial_rng(seed, index)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.integers(2**63, size=4).tolist() == ref.integers(2**63, size=4).tolist()
        assert rng.integers(7, size=4).tolist() == ref.integers(7, size=4).tolist()
        assert rng.uniform(-1.0, 1.0, 4).tolist() == ref.uniform(-1.0, 1.0, 4).tolist()


def test_last_index_word_hashes_like_seed_sequence():
    from numpy.random import SeedSequence

    rows = [[0, 2**32 - 1], [2**32 - 1, 2**32 - 1], [3, 0, 1, 2**32 - 1]]
    for row in rows:
        got = trials._pcg64_states(np.array([row], np.uint32))[0]
        assert got.tolist() == SeedSequence(row).generate_state(4, np.uint64).tolist()


def per_trial_rngs(seed, count):
    return (trials.trial_rng(seed, index) for index in range(count))


@pytest.mark.parametrize(
    "argv",
    [
        "attack --n 1100 --seed 5",  # crosses a seeding chunk
        "quotient --n 900 --seed 2",  # 1080 trials, the forward rows past the chunk
        "nullspace --mmax 5 --nmax 5 --n 4 --seed 3",
    ],
)
def test_reports_match_per_trial_seeding(argv, tmp_path, monkeypatch):
    command = ["trials", "--suite", *argv.split()]
    campaign, per_trial = tmp_path / "campaign.json", tmp_path / "per_trial.json"
    code = main([*command, "--out", str(campaign)])
    monkeypatch.setattr(trials, "_trial_rngs", per_trial_rngs)
    assert main([*command, "--out", str(per_trial)]) == code
    assert campaign.read_bytes() == per_trial.read_bytes()


def test_counts_past_one_index_word_are_refused():
    rng = next(trials._trial_rngs(1, 2**32))  # the last index, 2**32 - 1, is one word
    assert rng.bit_generator.state == trials.trial_rng(1, 0).bit_generator.state
    with pytest.raises(ValueError, match="2\\*\\*32"):
        next(trials._trial_rngs(1, 2**32 + 1))


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "attack", "--n", str(2**32 + 1)],
        ["--suite", "quotient", "--n", str(2**32)],
        ["--suite", "nullspace", "--n", str(2**32 // 81 + 1)],
    ],
    ids=["attack", "quotient", "nullspace"],
)
def test_cli_refuses_counts_past_one_index_word(argv, capsys):
    assert main(["trials", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["code"] == "invalid-input" and "2**32" in error["message"]


def test_campaign_runs_with_warnings_as_errors():
    # A wrapping numpy uint32 scalar multiply in the seeding hash would warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = trials.attack_suite(300, 1)
    assert report.trials == 300 and report.all_ok


def test_run_suite_reads_the_seed_as_an_exact_integer():
    # Passed on as given, True would reach the report as "seed": true, and
    # 4.0 would end in a bare TypeError.
    report = trials.run_suite("attack", n_trials=2, seed=4.0)
    assert type(report.seed) is int
    assert report.to_json() == trials.run_suite("attack", n_trials=2, seed=4).to_json()
    for bad in (True, 4.5, "4", np.timedelta64(4, "s")):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            trials.run_suite("attack", n_trials=2, seed=bad)
