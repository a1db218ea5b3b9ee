"""The restart streams of a campaign: for one seed and an array of restart
indices k, the uniforms that numpy.random.default_rng([seed, k]) draws,
computed for every k at once in numpy integer arrays.

default_rng([seed, k]) hashes the 32-bit entropy words of [seed, k] (a seed
below 2**32 is one word, a larger one two, low word first; k is one word, and
k = 0 gives the word 0) into SeedSequence's pool of four words, and
generate_state(4, uint64) hashes the pool into four 64-bit words.  PCG64 takes
the first two as its initial state and the last two as its stream, each a
128-bit number high word first.  Each double it draws is (x >> 11) * 2**-53
of the XSL-RR output x of its next state.  Both algorithms are fixed integer
arithmetic, so they run here on arrays, one element per stream: SeedSequence
in uint32, PCG64 in uint64 with each 128-bit number held as a (high, low)
pair of arrays, the high word of a 64x64-bit product coming from 32-bit
limbs.  Every constant is a numpy unsigned scalar or array, so no Python int
enters the arithmetic, where numpy 1.x's value-based casting and numpy 2's
promotion rules could disagree.
"""

from __future__ import annotations

import operator

import numpy as np

_U32, _U64 = np.uint32, np.uint64
_SHIFT16, _SHIFT32 = _U32(16), _U64(32)
_LOW32 = _U64(0xFFFFFFFF)

#: SeedSequence's pool size and hash constants.
_POOL = 4
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)

#: PCG64's 128-bit multiplier.
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341

#: Most uniforms one stream gives per round.
MAX_WIDTH = 8


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) pairs of count successive calls of a
    SeedSequence hash whose constant starts at init and is multiplied by mult
    between the xor and the multiply of each call, as two (count, 1) arrays.
    """
    pairs, h = [], init
    for _ in range(count):
        pairs.append((h, h * mult & 0xFFFFFFFF))
        h = pairs[-1][1]
    return tuple(np.array(pairs, dtype=_U32).T[..., None])


def _split(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit integers as (high, low) uint64 arrays."""
    return (np.array([v >> 64 for v in values], dtype=_U64),
            np.array([v & (1 << 64) - 1 for v in values], dtype=_U64))


#: mix_entropy's hashes: one per pool word, then three per source word.
_FILL = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL + _POOL * (_POOL - 1))
#: generate_state's hashes of the eight 32-bit output words.
_OUT = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)

#: j steps of PCG64 take a state s with stream increment c to A_j s + C_j c
#: (mod 2**128), where A_j = M**j and C_j = 1 + M + ... + M**(j-1); entry
#: j - 1 holds step j.
_A = _split([pow(_PCG_MULT, j, 1 << 128) for j in range(1, MAX_WIDTH + 1)])
_C = _split([sum(pow(_PCG_MULT, i, 1 << 128) for i in range(j)) % (1 << 128)
             for j in range(1, MAX_WIDTH + 1)])


def _hash(value, xor, mult):
    """SeedSequence's hash of uint32 words, given the (xor, multiplier) pair of each call."""
    value = (value ^ xor) * mult
    return value ^ value >> _SHIFT16


def _mix(x, y):
    """SeedSequence's mix of uint32 word x with word y."""
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> _SHIFT16


def _seed_words(seed: int, ks: np.ndarray) -> np.ndarray:
    """generate_state(4, uint64) of SeedSequence([seed, k]) for each k, as a
    (4, len(ks)) uint64 array.
    """
    words = [seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed]
    pool = np.zeros((_POOL, len(ks)), dtype=_U32)  # entropy padded with zero words
    pool[:len(words)] = np.array(words, dtype=_U32)[:, None]
    pool[len(words)] = ks
    xor, mult = _FILL
    pool = _hash(pool, xor[:_POOL], mult[:_POOL])
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        calls = slice(_POOL + 3 * src, _POOL + 3 * src + 3)
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[calls], mult[calls]))
    out = _hash(np.concatenate([pool, pool]), *_OUT).astype(_U64)
    return out[0::2] | out[1::2] << _SHIFT32


def _mulhi(a, b):
    """High 64 bits of the 128-bit products a * b of uint64 arrays."""
    a0, a1, b0, b1 = a & _LOW32, a >> _SHIFT32, b & _LOW32, b >> _SHIFT32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)


def _mul(x, y):
    """x * y mod 2**128 of (high, low) pairs."""
    return _mulhi(x[1], y[1]) + x[1] * y[0] + x[0] * y[1], x[1] * y[1]


def _add(x, y):
    """x + y mod 2**128 of (high, low) pairs."""
    low = x[1] + y[1]
    return x[0] + y[0] + (low < x[1]), low


class RestartStreams:
    """The streams default_rng([seed, k]) for each k of ks; calling it with
    an array of stream positions `todo` and a width returns the next `width`
    uniforms of each of those streams, row i from stream ks[todo[i]], as
    np.random.default_rng([seed, k]).random(width) would, and advances only
    those streams.  A seed outside [0, 2**64) or a k outside [0, 2**32)
    raises ValueError.
    """

    def __init__(self, seed: int, ks) -> None:
        seed = operator.index(seed)
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        ks = np.asarray(ks)
        if ks.ndim != 1 or ks.size and (
                ks.dtype.kind not in "iu" or ks.min() < 0 or ks.max() >= 1 << 32):
            raise ValueError(f"restart indices must be integers in [0, 2**32), got {ks}")
        w = _seed_words(seed, ks)
        one = _U64(1)
        inc = ((w[2] << one | w[3] >> _U64(63))[:, None], (w[3] << one | one)[:, None])
        # C_j inc for j = 1..MAX_WIDTH, one row per stream: the part of j
        # steps that does not depend on the state
        self._drift = _mul(inc, _C)
        # PCG64's seeding: from state 0 one step gives inc; add the initial
        # state and take one more step
        start = _add(inc, (w[0][:, None], w[1][:, None]))
        self._state = self._advance(start, slice(None), 1)

    def _advance(self, state, rows, steps):
        """The states 1..steps PCG64 steps on from state, a (high, low) pair
        of (n, 1) arrays for the streams rows, along the last axis."""
        return _add(_mul(state, (_A[0][:steps], _A[1][:steps])),
                    (self._drift[0][rows, :steps], self._drift[1][rows, :steps]))

    def __call__(self, todo: np.ndarray, width: int) -> np.ndarray:
        if not 1 <= width <= MAX_WIDTH:
            raise ValueError(f"width must be in [1, {MAX_WIDTH}], got {width}")
        hi, lo = self._advance((self._state[0][todo], self._state[1][todo]), todo, width)
        self._state[0][todo], self._state[1][todo] = hi[:, -1:], lo[:, -1:]
        rot = hi >> _U64(58)  # XSL-RR: (hi ^ lo) rotated right by the top 6 bits
        x = hi ^ lo
        x = x >> rot | x << (_U64(64) - rot & _U64(63))
        return (x >> _U64(11)).astype(float) * 2.0**-53
