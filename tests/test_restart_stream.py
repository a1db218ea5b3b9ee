"""The streams of uniforms (class_u._keys and _uniforms), from which campaigns,
sample_point and both report oracles draw, against a scalar SplitMix64 in
Python ints, and pinned to literal values, so that their bits cannot drift
between numpy versions; and the points that class_u._polar turns them into,
pinned the same way."""

import warnings

import numpy as np
import pytest

from coefflab.class_u import _keys, _mix, _oracle_windows, _sample_rows, _uniforms

M64 = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def mix(z: int) -> int:
    """SplitMix64's finaliser on a Python int in [0, 2**64)."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & M64
    return z ^ z >> 31


class SplitMix64:
    """Stream (seed, k), restart k's of a campaign with this seed, one
    uniform per random() call: the scalar oracle of class_u._uniforms."""

    def __init__(self, seed: int, k: int) -> None:
        self.state = mix(mix(seed) + (k + 1) * GAMMA & M64)

    def random(self) -> float:
        self.state = self.state + GAMMA & M64
        return (mix(self.state) >> 11) * 2.0**-53


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1]

#: Restart indices 0..699: nearly one block of the campaign engine's 768
#: chains, whose streams it computes together.
KS = np.arange(700)


def test_finaliser_matches_the_reference_vector():
    # SplitMix64's first five outputs from state 1234567, as the reference
    # implementation prints them; the scalar oracle and the array finaliser
    # must both give them
    want = [6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821]
    assert [mix(1234567 + n * GAMMA & M64) for n in range(1, 6)] == want
    with np.errstate(over="ignore"):
        states = np.uint64(1234567) + np.arange(1, 6, dtype=np.uint64) * np.uint64(GAMMA)
    assert _mix(states).tolist() == want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("width", [8, 6])
def test_rounds_match_scalar_splitmix(seed, width):
    # rounds on shrinking subsets of the streams, the way the sampler's
    # rejection loop takes attempt r of the rows still missing a point
    refs = [SplitMix64(seed, k) for k in KS.tolist()]
    pick = np.random.default_rng(width)
    todo = KS
    for r in range(4):
        got = _uniforms(_keys(seed, todo), r * width, width)
        want = np.array([[refs[i].random() for _ in range(width)] for i in todo.tolist()])
        assert got.tobytes() == want.tobytes()
        todo = np.sort(pick.choice(todo, len(todo) // 3, replace=False))


def test_literal_values():
    # the first uniforms of a few streams, written out: a change of constant,
    # key derivation or float conversion shows here on any numpy version
    assert _uniforms(_keys(42, np.array([0, 1, 10**7])), 0, 2).tolist() == [
        [0.33437656621120193, 0.8362901824612591],
        [0.4001805501584017, 0.8917663997798919],
        [0.6368605974719739, 0.6374705666221377],
    ]
    assert _uniforms(_keys(2**64 - 1, np.array([0])), 0, 1).tolist() == [[0.58809082213156]]


#: The first two rows of _sample_rows(42, [0, 1]) in each a2 mode.
SAMPLE_ROWS_42 = {
    "free": [
        [-0.7929360769326196 - 1.426114205165254j, 0.12766252399503755 - 0.7401581247898741j,
         0.10918129127190257 - 0.15516074164113972j, 0.061928629106077736 + 0.0840810261764714j],
        [0.15974488016886307 - 1.581618317844291j, 0.9448750773678574 + 0.10868748593477448j,
         -0.004791310208436312 + 0.043430013690317106j,
         -0.009899388795040367 - 0.02338498415647466j],
    ],
    "zero": [
        [0j, 0.2983798242069184 - 0.4953241834571077j, -0.23386231160210777 - 0.21877062433890565j,
         0.0796064341768218 + 0.07933846493537668j],
        [0j, 0.4918705516925616 - 0.39779883174295116j, -0.25992889587489226 - 0.10223544454248198j,
         -0.020360634703872962 + 0.06546136962568752j],
    ],
}


@pytest.mark.parametrize("mode", ["free", "zero"])
def test_sampler_rows_literal_values(mode):
    # the uniforms above, turned into region points: a change of the polar
    # transform, of the disc order or of a radius shows here on any numpy
    # version, not only as a moved campaign
    assert _sample_rows(42, np.arange(2), mode).tolist() == SAMPLE_ROWS_42[mode]


def test_oracle_windows_literal_values():
    # the closed-form oracle's first two windows, a2..a5 on the disc of radius 5
    assert _oracle_windows()[:, :2].tolist() == [
        [1 + 0j, 1 + 0j],
        [1.4139275612974826 - 1.6483507451644093j, 3.225889027845221 + 2.323946661156884j],
        [-3.63467949774703 + 0.24557864809436739j, 1.7252487426472902 + 1.509656957269057j],
        [-4.745032332037578 + 0.31151851354051147j, -0.8973366588070472 + 4.05005750842464j],
        [-4.803268635718698 + 0.9586530343922987j, -1.6941982780797393 + 1.7671005407595861j],
    ]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_range_ends_warn_nothing(seed):
    # every product and sum wraps mod 2**64; no overflow may warn or raise,
    # whatever numpy's error state around the call
    ks = np.array([0, 1, 2**31, 10**7 - 1, 10**7])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = _uniforms(_keys(seed, ks), 0, 8)
    refs = [SplitMix64(seed, k) for k in ks.tolist()]
    assert got.tolist() == [[r.random() for _ in range(8)] for r in refs]
    assert ((got >= 0.0) & (got < 1.0)).all()


def test_attempt_r_reads_its_own_uniforms():
    # attempt r of a stream is its uniforms r w + 1 .. (r + 1) w, whatever was
    # drawn before: no stream holds state, so attempts 3 and 2 of some rows,
    # asked for out of order, equal the scalar stream's
    refs = [SplitMix64(5, k) for k in range(4)]
    want = [[r.random() for _ in range(32)] for r in refs]
    rows = np.array([2, 0, 3])
    for width in (8, 6):
        for r in (3, 2):
            assert _uniforms(_keys(5, rows), r * width, width).tolist() == [
                want[i][r * width:(r + 1) * width] for i in rows.tolist()]
