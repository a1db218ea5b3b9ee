"""The restart streams against numpy's own default_rng([seed, k]), bit for bit."""

import numpy as np
import pytest

from coefflab.streams import MAX_WIDTH, RestartStreams

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1]

#: Restart indices 0..699: three blocks of the campaign engine's 256 chains.
KS = np.arange(700)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("width", [8, 6])
def test_rounds_match_default_rng(seed, width):
    # rounds on shrinking subsets of the streams, the way the sampler's
    # rejection loop draws again for the rows still missing a point
    streams = RestartStreams(seed, KS)
    refs = [np.random.default_rng([seed, k]) for k in KS.tolist()]
    pick = np.random.default_rng(width)
    todo = KS
    for _ in range(4):
        got = streams(todo, width)
        want = np.array([refs[i].random(width) for i in todo.tolist()])
        assert got.tobytes() == want.tobytes()
        todo = np.sort(pick.choice(todo, len(todo) // 3, replace=False))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_out_of_range(seed):
    with pytest.raises(ValueError, match="seed"):
        RestartStreams(seed, KS)


@pytest.mark.parametrize("ks", [[-1], [2**32], [0, 2**32 + 5], [0.5], [[1, 2]]])
def test_index_out_of_range(ks):
    with pytest.raises(ValueError, match="restart indices"):
        RestartStreams(3, ks)


@pytest.mark.parametrize("width", [0, MAX_WIDTH + 1])
def test_width_out_of_range(width):
    with pytest.raises(ValueError, match="width"):
        RestartStreams(3, KS)(KS, width)
