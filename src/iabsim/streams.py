"""Random streams: numpy's ``default_rng(SeedSequence(entropy, spawn_key=key))``, bit for bit,
for many spawn keys at once.

SeedSequence (numpy/random/bit_generator.pyx) mixes the uint32 words of its
entropy, zero-padded to the pool size under a spawn key, and then of its
spawn key into a pool of uint32 words with a hash whose constant steps on at
each call; PCG64 takes four 64-bit words that ``generate_state`` hashes out of
the pool. Here the pool of an entropy is computed once and cached, the words
of many keys are mixed into copies of it in one numpy pass, and each
generator is built from its derived words, which costs a fraction of building
a SeedSequence per key. Its ``bit_generator.seed_seq`` carries the
``entropy``, ``spawn_key`` and ``pool_size`` numpy's would.

Importing this module imports ``numpy.random`` (about 6 MiB and 10-15 ms), so
``simulate`` imports it when a block first draws: a process that only hands
its campaign to pool workers never pays for it.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's hash and mix constants, on uint32 words.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK_32 = 0xFFFFFFFF


def _words32(value) -> list[int]:
    """The uint32 words SeedSequence makes of an entropy or spawn-key value: a non-negative int
    low word first (0 is one word), a sequence the words of its items in turn."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError(f"expected a non-negative integer, got {value}")
        words = [value & _MASK_32]
        while value := value >> 32:
            words.append(value & _MASK_32)
        return words
    return [word for item in value for word in _words32(item)]


def _hash_constants(start: int, multiplier: int, count: int) -> list[int]:
    """``start`` and the ``count`` constants SeedSequence's hash steps to from it."""
    out = [start]
    for _ in range(count):
        out.append(out[-1] * multiplier & _MASK_32)
    return out


# generate_state's hash constants for the eight uint32 words of a PCG64 seed
_STATE_HASHES = np.array(_hash_constants(_INIT_B, _MULT_B, 8), dtype=np.uint32)
_MIX_L_U32, _MIX_R_U32, _SHIFT_16_U32 = np.uint32(_MIX_L), np.uint32(_MIX_R), np.uint32(16)


@lru_cache(maxsize=64)
def _entropy_pool(entropy, pool_size: int) -> tuple[np.ndarray, int]:
    """SeedSequence's pool, as a (1, pool_size) uint32 row, once it has mixed in ``entropy`` (an int
    or a tuple) zero-padded to ``pool_size`` words as it is under a spawn key; and the hash constant
    that comes next."""
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK_32
        value = value * const & _MASK_32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _MASK_32
        return value ^ value >> 16

    words = _words32(entropy)
    words += [0] * (pool_size - len(words))
    pool = [hashmix(word) for word in words[:pool_size]]
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[pool_size:]:
        pool = [mix(value, hashmix(word)) for value in pool]
    row = np.array([pool], dtype=np.uint32)
    row.flags.writeable = False
    return row, const


def _seed_words(entropy, spawn_keys, pool_size: int) -> np.ndarray:
    """(len(spawn_keys), 4) uint64: row k is ``SeedSequence(entropy, spawn_key=spawn_keys[k],
    pool_size=pool_size).generate_state(4, np.uint64)``, PCG64's seed, for non-empty keys.

    The pool of ``entropy`` is cached. The words of the keys are mixed in one numpy pass in
    SeedSequence's uint32 arithmetic, column by column; a key's pool keeps still past its last word.
    """
    pool, const = _entropy_pool(entropy if isinstance(entropy, (int, np.integer)) else tuple(entropy), pool_size)
    words = [_words32(key) for key in spawn_keys]
    lengths = np.array([len(w) for w in words])
    width = int(lengths.max())
    keys = np.array([w + [0] * (width - len(w)) for w in words], dtype=np.uint32)
    hashes = np.array(_hash_constants(const, _MULT_A, pool_size * width), dtype=np.uint32)
    for col in range(width):  # hashmix the key word once per pool word, then mix it into each
        first = col * pool_size
        h = (keys[:, col, None] ^ hashes[first : first + pool_size]) * hashes[first + 1 : first + pool_size + 1]
        h ^= h >> _SHIFT_16_U32
        mixed = _MIX_L_U32 * pool - _MIX_R_U32 * h
        mixed ^= mixed >> _SHIFT_16_U32
        pool = np.where((lengths > col)[:, None], mixed, pool)
    # generate_state: eight words hashed from the pool cycled, paired low word first
    out = (pool[:, np.arange(8) % pool_size] ^ _STATE_HASHES[:-1]) * _STATE_HASHES[1:]
    out ^= out >> _SHIFT_16_U32
    return out[:, 0::2].astype(np.uint64) | out[:, 1::2].astype(np.uint64) << np.uint64(32)


class _SeedWords(ISeedSequence):
    """The seed sequence of a derived generator: numpy's ``SeedSequence(entropy, spawn_key=spawn_key,
    pool_size=pool_size)``, whose PCG64 state ``words`` were derived beforehand."""

    def __init__(self, entropy, spawn_key: tuple, pool_size: int, words: np.ndarray):
        self.entropy, self.spawn_key, self.pool_size, self.words = entropy, spawn_key, pool_size, words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self.words.copy()
        return np.random.SeedSequence(self.entropy, spawn_key=self.spawn_key, pool_size=self.pool_size).generate_state(
            n_words, dtype
        )


def spawned_rngs(entropy, spawn_keys, pool_size: int = 4):
    """``default_rng(SeedSequence(entropy, spawn_key=key, pool_size=pool_size))`` for each non-empty
    ``key`` of ``spawn_keys`` in turn, bit for bit. The state words of all are derived in one pass
    when the first is asked for; each generator is built only when it is asked for."""
    for key, words in zip(spawn_keys, _seed_words(entropy, spawn_keys, pool_size)):
        yield np.random.Generator(np.random.PCG64(_SeedWords(entropy, key, pool_size, words)))
