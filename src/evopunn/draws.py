"""Generator draws served from raw PCG64 words.

A numpy Generator call costs microseconds of argument handling, far more than
the arithmetic that turns a 64-bit word into a draw. A DrawStream takes a
block of raw words from a Generator's PCG64 bit generator in one call and
serves the draws with numpy's own arithmetic:

- random() is (w >> 11) * 2**-53, numpy's next_double;
- uniform(lo, hi) is lo + (hi - lo) * random();
- integers(n), numpy's integers(0, n) for 1 <= n < 2**32, is Lemire's
  nearly divisionless method (Lemire 2019) on 32-bit halves of words: the
  low half of a fresh word first, its high half kept in the bit generator's
  one-value buffer (has_uint32, uinteger) for the next call. n = 1 takes no
  draw;
- below(n, p) and uniforms(lo, hi, n) are n draws of random() < p and of
  uniform(lo, hi) as lists, read off one slice of the block.

close() leaves the generator where numpy's own calls would have: the state
taken at opening, advanced (O'Neill 2014) by the words used, with the
buffered half written back. These are numpy 2.4's algorithms; the tests pin
them against Generator, so a numpy that changes them fails there.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

_TO_UNIT = 2.0 ** -53
_FROM_UNIT = 2.0 ** 53
_HALF = 0xFFFFFFFF


class DrawStream:
    """Draws from a PCG64 Generator, valid until close() or the end of its
    with block. Until then the generator must not be used directly."""

    __slots__ = ("_bit_generator", "_start", "_words", "_pos", "_used", "_has_half", "_half")

    def __init__(self, rng: np.random.Generator, block: int = 32):
        bit_generator = rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(f"raw-word draws need a PCG64 bit generator, "
                            f"not {type(bit_generator).__name__}")
        self._bit_generator = bit_generator
        self._start = bit_generator.state
        self._has_half = self._start["has_uint32"]
        self._half = self._start["uinteger"]
        self._words = array("Q", bit_generator.random_raw(max(block, 1)).tobytes())
        self._pos = 0    # next unused word of the block
        self._used = 0   # words used before the block began

    def _extend(self, need: int) -> None:
        """Drop the used words and take at least need more, doubling the block."""
        pos = self._pos
        more = array("Q", self._bit_generator.random_raw(max(need, len(self._words))).tobytes())
        self._used += pos
        self._words = self._words[pos:] + more
        self._pos = 0

    def _word(self) -> int:
        pos = self._pos
        if pos == len(self._words):
            self._extend(1)
            pos = 0
        self._pos = pos + 1
        return self._words[pos]

    def _slice(self, n: int) -> array:
        pos = self._pos
        if pos + n > len(self._words):
            self._extend(n)
            pos = 0
        self._pos = pos + n
        return self._words[pos:pos + n]

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        word = self._word()
        self._has_half = 1
        self._half = word >> 32
        return word & _HALF

    # random(), uniform() and integers() serve most draws and read their word
    # inline: calling _word() instead cost 3% of a structural child's time

    def random(self) -> float:
        pos = self._pos
        try:
            word = self._words[pos]
        except IndexError:
            word = self._word()
        else:
            self._pos = pos + 1
        return (word >> 11) * _TO_UNIT

    def uniform(self, lo: float, hi: float) -> float:
        pos = self._pos
        try:
            word = self._words[pos]
        except IndexError:
            word = self._word()
        else:
            self._pos = pos + 1
        return lo + (hi - lo) * ((word >> 11) * _TO_UNIT)

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        if n > _HALF:
            raise ValueError(f"integers(n) serves 1 <= n < 2**32, not {n}")
        if self._has_half:
            self._has_half = 0
            scaled = self._half * n
        else:
            pos = self._pos
            try:
                word = self._words[pos]
            except IndexError:
                word = self._word()
            else:
                self._pos = pos + 1
            self._has_half = 1
            self._half = word >> 32
            scaled = (word & _HALF) * n
        leftover = scaled & _HALF
        if leftover < n:
            threshold = (_HALF + 1 - n) % n
            while leftover < threshold:
                scaled = self._uint32() * n
                leftover = scaled & _HALF
        return scaled >> 32

    def below(self, n: int, p: float) -> list[bool]:
        """[random() < p for each of n draws]. With x = w >> 11, x * 2**-53 < p
        exactly when x < ceil(p * 2**53), as both sides scale by a power of
        two and x is an integer, and so exactly when w < ceil(p * 2**53) << 11."""
        bound = math.ceil(p * _FROM_UNIT) << 11
        return [word < bound for word in self._slice(n)]

    def uniforms(self, lo: float, hi: float, n: int) -> list[float]:
        span = hi - lo
        return [lo + span * ((word >> 11) * _TO_UNIT) for word in self._slice(n)]

    def __enter__(self) -> DrawStream:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Put the generator where the draws served would have left it."""
        bit_generator = self._bit_generator
        bit_generator.state = self._start
        bit_generator.advance(self._used + self._pos)
        state = bit_generator.state
        state["has_uint32"] = self._has_half
        state["uinteger"] = self._half
        bit_generator.state = state
