"""``numpy.random.default_rng(seed).exponential(scale)``, draw for draw, in
plain Python.

The tenancy schedule helpers (:func:`repro.tenancy.run.churn`,
:func:`~repro.tenancy.run.poisson_arrivals`) stamp a few hundred arrival
and departure times before a run starts; drawing them here keeps numpy
unloaded in a run that never draws otherwise. It is numpy's own pipeline:
``SeedSequence`` mixes the seed into a pool of four words and
``generate_state`` hashes it into PCG64's 128-bit state and increment;
PCG64 steps its LCG and emits XSL-RR; the 256-level ziggurat of
``random_standard_exponential`` turns 64-bit words into draws, with numpy's
tables (:mod:`repro.sim._ziggurat`). numpy stays the tests' oracle.
"""

from __future__ import annotations

import struct
from binascii import a2b_base64
from math import exp, log1p
from operator import index

from repro.sim._ziggurat import TABLES

_TABLES = struct.unpack("<256Q512d", a2b_base64(TABLES))
_KE, _WE, _FE = _TABLES[:256], _TABLES[256:512], _TABLES[512:]
_ZIGGURAT_R = 7.69711747013104971990  # the base strip's right edge
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed) -> list:
    """``SeedSequence(seed).generate_state(4, uint64)``: four 64-bit words."""
    seed = index(seed)  # TypeError for a float or a str, as numpy
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5  # INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32  # MULT_A
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = 0xCA01F9DD * x - 0x4973F715 * y & _M32  # MIX_MULT_L, _R
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = 0x8B51F9DD, []  # INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32  # MULT_B
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """numpy's ``Generator(PCG64(seed))``, cut down to ``exponential``."""

    def __init__(self, seed: int = 0) -> None:
        s0, s1, i0, i1 = _seed_words(seed)
        # pcg_setseq_128_srandom_r: an odd increment, then a step from 0,
        # the seed added, and a second step.
        self._inc = (i0 << 65 | i1 << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _M128

    def next_uint64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        rot, word = state >> 122, (state >> 64 ^ state) & _M64
        return (word >> rot | word << (64 - rot)) & _M64

    def next_double(self) -> float:
        return (self.next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    def standard_exponential(self) -> float:
        while True:
            ri = self.next_uint64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * _WE[idx]
            if ri < _KE[idx]:
                return x  # inside its strip: most draws
            if idx == 0:  # the tail beyond the base strip
                return _ZIGGURAT_R - log1p(-self.next_double())
            if (_FE[idx - 1] - _FE[idx]) * self.next_double() + _FE[idx] < exp(-x):
                return x  # under the curve in the wedge
            # else rejected: draw again

    def exponential(self, scale: float = 1.0) -> float:
        return scale * self.standard_exponential()
