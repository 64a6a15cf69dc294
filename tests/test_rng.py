"""The standard-library generator against numpy's legacy RandomState.

sim and etl draw through ``semcloud.rng.LegacyRandom`` and load no numpy;
numpy stays the reference here, so these tests check the stream itself.
"""

import random

import numpy as np
import pytest

from semcloud.etl import WorkloadSpec, reference_entries
from semcloud.rng import LegacyRandom
from semcloud.sim import CostModel, SimWorkload, default_cluster, deploy, run
from semcloud.sim.engine import _noise

SEEDS = [0, 1, 7, 101, 55555, 123456789, 2**31 - 1, 2**31, 2**32 - 1]
SEEDS += random.Random(2).sample(range(2**32), 200)
HIGHS = (1, 2, 5, 7, 1000, 2**31)


def blocks(seed):
    """(high or None, length) blocks of draws: rand() for None, else
    randint(high); about 2,000 words in all, so more than three twists."""
    gen = random.Random(seed)
    plan, words = [], 0
    while words < 2000:
        high = gen.choice(HIGHS + (None,) * 3)
        length = gen.choice([1, 1, 2, 7, 30, 200])
        plan.append((high, length))
        words += length * (2 if high is None else 1)
    return plan


@pytest.mark.parametrize("chunk", range(4))
def test_the_stream_is_randomstates(chunk):
    for seed in SEEDS[chunk::4]:
        ours, theirs = LegacyRandom(seed), np.random.RandomState(seed)
        for high, length in blocks(seed):
            # rand(k) and randint(high, size=k) draw what k single calls draw
            if high is None:
                expected = theirs.rand(length).tolist()
                got = [ours.random() for _ in range(length)]
            else:
                expected = theirs.randint(high, size=length).tolist()
                got = [ours.randint(high) for _ in range(length)]
            assert got == expected, (seed, high)


def test_a_one_value_range_draws_nothing():
    ours = LegacyRandom(3)
    assert [ours.randint(1) for _ in range(5)] == [0] * 5
    assert ours.random() == np.random.RandomState(3).rand()


@pytest.mark.parametrize("high", [0, -3, 2**32 + 1])
def test_a_high_out_of_range_is_a_value_error(high):
    with pytest.raises(ValueError):
        LegacyRandom(0).randint(high)


def test_reseeding_restarts_the_stream():
    ours = LegacyRandom(5)
    first = [ours.random() for _ in range(700)]
    ours.seed(6)
    other = [ours.random() for _ in range(10)]
    ours.seed(5)
    assert [ours.random() for _ in range(700)] == first
    assert LegacyRandom(5).random() == first[0]
    assert other == np.random.RandomState(6).rand(10).tolist()


@pytest.mark.parametrize("seed", [np.int64(9), np.uint32(9), np.int32(9), 9])
def test_numpy_integer_seeds(seed):
    assert LegacyRandom(seed).random() == np.random.RandomState(9).rand()


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_a_seed_out_of_range_is_a_value_error_as_in_numpy(seed):
    with pytest.raises(ValueError):
        np.random.RandomState(seed)
    with pytest.raises(ValueError):
        LegacyRandom(seed)


@pytest.mark.parametrize("seed", [None, 1.0, "1"])
def test_a_seed_that_is_not_an_integer_is_a_type_error(seed):
    # numpy takes None from OS entropy; a seed is never None here
    with pytest.raises(TypeError):
        LegacyRandom(seed)


def _plan():
    cost = CostModel(noise_amplitude=0.05)
    workload = SimWorkload(n_records=300, record_bytes=1250, machines=5)
    return deploy(None, default_cluster(), cost, workload, nc=60, ns=9), workload, cost


class TestCallersNeedAnIntegerSeed:
    def test_sim_run(self):
        plan, workload, cost = _plan()
        with pytest.raises(TypeError):
            run(plan, workload, cost, seed=None)

    def test_workload_generator(self):
        # the spec checks the seed the generator draws with when it is built
        with pytest.raises(TypeError):
            WorkloadSpec(machines=3, production_lines=1, duration=2.0, seed=None)

    def test_reference_entries(self):
        with pytest.raises(TypeError):
            reference_entries(("m01",), ("p1",), seed=None)


@pytest.mark.parametrize("amp", [0.05, 0.5, 1.0])
@pytest.mark.parametrize("seed", [0, 17, 2**32 - 1])
def test_noise_is_numpys_expression(amp, seed):
    rs = np.random.RandomState(seed)
    draw = LegacyRandom(seed).random
    for k in (1, 5, 333):
        assert _noise(draw, amp, k) == (1 + amp * (2 * rs.rand(k) - 1)).tolist()


def test_no_noise_draws_nothing():
    ours = LegacyRandom(4)
    assert _noise(ours.random, 0.0, 50) == [1.0] * 50
    assert ours.random() == np.random.RandomState(4).rand()

