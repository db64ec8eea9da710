"""Random streams: numpy's ``default_rng(SeedSequence(master_seed, spawn_key=key))``, bit for bit,
for many spawn keys at once.

Under a spawn key, SeedSequence (numpy/random/bit_generator.pyx) hashes the
words of its entropy, zero-padded to its pool of four uint32 words, into the
pool, as ``SeedSequence(master_seed)`` does, and then the words of the key; its
hash constant steps on at each call. PCG64 takes four 64-bit words that
``generate_state`` hashes out of the pool. Here numpy's pool of the master seed
is cached, the words of many keys are mixed into copies of it in one numpy
pass, and each generator is built from its four words, a fraction of the cost
of a SeedSequence per key; its ``bit_generator.seed_seq`` carries the
``entropy``, ``spawn_key`` and ``pool_size`` numpy's would.

Importing this module imports ``numpy.random``: 17 ms of CPU (median of 15;
11-18 ms), 5.5 MiB of RSS and about 400 minor faults, after ``import iabsim``
on a shared 2-vCPU host (Python 3.11, numpy 2.4). So ``simulate`` imports it
when a block first draws, or before ``run_campaign`` starts a pool: that parent
imports it once, and its forked workers inherit it. Under the ``spawn`` and
``forkserver`` start methods each worker still imports it itself.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's hash and mix constants, on uint32 words, and its default pool size.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT_16 = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_MASK_32, _POOL_SIZE = 0xFFFFFFFF, 4


def _words32(value: int) -> list[int]:
    """The uint32 words SeedSequence makes of a non-negative int: low word first, and 0 is one word."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK_32]
    while value := value >> 32:
        words.append(value & _MASK_32)
    return words


def _hash_constants(start: int, multiplier: int, count: int) -> np.ndarray:
    """``start`` and the ``count`` constants SeedSequence's hash steps to from it, as uint32."""
    return np.array([start * pow(multiplier, k, 1 << 32) & _MASK_32 for k in range(count + 1)], dtype=np.uint32)


# generate_state's hash constants for the eight uint32 words of a PCG64 seed
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 8)


@lru_cache(maxsize=64)
def _entropy_pool(entropy: int) -> tuple[np.ndarray, int]:
    """The pool of ``SeedSequence(entropy)`` as a (1, 4) uint32 row, and the hash constant that comes
    next: filling and mixing the pool hashes 4 * max(4, words of ``entropy``) times."""
    row = np.random.SeedSequence(entropy).pool[None, :]
    row.flags.writeable = False
    steps = _POOL_SIZE * max(_POOL_SIZE, len(_words32(entropy)))
    return row, _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK_32


def _seed_words(entropy: int, spawn_keys) -> np.ndarray:
    """(len(spawn_keys), 4) uint64: row k is ``SeedSequence(entropy, spawn_key=spawn_keys[k])
    .generate_state(4, np.uint64)``, PCG64's seed, for non-empty keys.

    The pool of ``entropy`` is cached. The words of the keys are mixed in one numpy pass in
    SeedSequence's uint32 arithmetic, column by column; a key's pool keeps still past its last word.
    """
    pool, const = _entropy_pool(entropy)
    words = [[word for item in key for word in _words32(item)] for key in spawn_keys]
    lengths = np.array([len(w) for w in words])
    width = int(lengths.max())
    keys = np.array([w + [0] * (width - len(w)) for w in words], dtype=np.uint32)
    hashes = _hash_constants(const, _MULT_A, _POOL_SIZE * width)
    for col in range(width):  # hashmix the key word once per pool word, then mix it into each
        first = col * _POOL_SIZE
        h = (keys[:, col, None] ^ hashes[first : first + _POOL_SIZE]) * hashes[first + 1 : first + _POOL_SIZE + 1]
        h ^= h >> _SHIFT_16
        mixed = _MIX_L * pool - _MIX_R * h
        mixed ^= mixed >> _SHIFT_16
        pool = np.where((lengths > col)[:, None], mixed, pool)
    # generate_state: eight words hashed from the pool cycled, paired low word first
    out = (pool[:, np.arange(8) % _POOL_SIZE] ^ _STATE_HASHES[:-1]) * _STATE_HASHES[1:]
    out ^= out >> _SHIFT_16
    return out[:, 0::2].astype(np.uint64) | out[:, 1::2].astype(np.uint64) << np.uint64(32)


class _SeedWords(ISeedSequence):
    """The seed sequence of a derived generator: numpy's ``SeedSequence(entropy, spawn_key=spawn_key)``,
    whose PCG64 state ``words`` were derived beforehand."""

    def __init__(self, entropy: int, spawn_key: tuple, words: np.ndarray):
        self.entropy, self.spawn_key, self.pool_size, self.words = entropy, spawn_key, _POOL_SIZE, words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self.words.copy()
        return np.random.SeedSequence(self.entropy, spawn_key=self.spawn_key).generate_state(n_words, dtype)


def spawned_rngs(entropy: int, spawn_keys):
    """``default_rng(SeedSequence(entropy, spawn_key=key))`` for each non-empty ``key`` of
    ``spawn_keys`` in turn, bit for bit. The state words of all are derived in one pass when the
    first is asked for; each generator is built only when it is asked for."""
    for key, words in zip(spawn_keys, _seed_words(entropy, spawn_keys)):
        yield np.random.Generator(np.random.PCG64(_SeedWords(entropy, key, words)))
