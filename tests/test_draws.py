"""DrawStream against numpy's Generator.

The stream reproduces numpy 2.4's PCG64 draws from raw words: next_double
for random() and uniform(), the 32-bit Lemire method over the bit
generator's half-word buffer for integers(0, n). Every served draw must
equal the Generator's, and after close() the generator's state must equal
that of a twin that made the same calls. A numpy that draws differently
fails here, not by changing training results silently."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evopunn.draws import DrawStream

BOUNDS = [1, 2, 3, 7, 2**31 + 1, 2**32 - 1]  # 1 takes no draw


def twins(seed: int, half_used: bool) -> tuple[np.random.Generator, np.random.Generator]:
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    if half_used:  # leave half of a 64-bit output in the 32-bit buffer
        for rng in pair:
            rng.integers(0, 2**32, dtype=np.uint32)
    return pair


# one draw of each kind: (stream call, the Generator call it stands for)
DRAWS = {
    "random": (lambda s, a: s.random(), lambda g, a: g.random()),
    "uniform": (lambda s, a: s.uniform(-5.0, 5.0), lambda g, a: g.uniform(-5.0, 5.0)),
    "integers": (lambda s, a: s.integers(BOUNDS[a % len(BOUNDS)]),
                 lambda g, a: int(g.integers(0, BOUNDS[a % len(BOUNDS)]))),
    "below": (lambda s, a: s.below(a % 41, 0.3),
              lambda g, a: (g.random(a % 41) < 0.3).tolist()),
    "uniforms": (lambda s, a: s.uniforms(-5.0, 5.0, a % 41),
                 lambda g, a: g.uniform(-5.0, 5.0, a % 41).tolist()),
}


class TestDrawStream:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), half_used=st.booleans(),
           n=st.sampled_from(BOUNDS), count=st.integers(1, 40))
    @example(seed=0, half_used=True, n=2**31 + 1, count=3)
    def test_single_kind_runs_match(self, seed, half_used, n, count):
        expected_rng, got_rng = twins(seed, half_used)
        stream = DrawStream(got_rng)
        got = [(stream.random(), stream.uniform(-5.0, 5.0), stream.integers(n))
               for _ in range(count)]
        stream.close()
        expected = [(expected_rng.random(), expected_rng.uniform(-5.0, 5.0),
                     int(expected_rng.integers(0, n))) for _ in range(count)]
        assert got == expected
        assert got_rng.bit_generator.state == expected_rng.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), half_used=st.booleans(),
           calls=st.lists(st.tuples(st.sampled_from(sorted(DRAWS)), st.integers(0, 10**6)),
                          min_size=1, max_size=60),
           block=st.integers(1, 8))
    def test_mixed_sequence_outgrowing_the_block(self, seed, half_used, calls, block):
        expected_rng, got_rng = twins(seed, half_used)
        stream = DrawStream(got_rng, block)
        got = [DRAWS[kind][0](stream, arg) for kind, arg in calls]
        stream.close()
        assert got == [DRAWS[kind][1](expected_rng, arg) for kind, arg in calls]
        assert got_rng.bit_generator.state == expected_rng.bit_generator.state
        assert got_rng.random() == expected_rng.random()  # the generator goes on alike

    @pytest.mark.parametrize("half_used", [False, True])
    def test_no_draws_leave_the_state_as_it_was(self, half_used):
        expected_rng, got_rng = twins(7, half_used)
        stream = DrawStream(got_rng)
        assert stream.integers(1) == 0
        assert stream.below(0, 0.5) == []
        stream.close()
        assert got_rng.bit_generator.state == expected_rng.bit_generator.state

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0, 1.5, -0.5])
    def test_below_matches_at_every_threshold(self, p):
        expected_rng, got_rng = twins(11, False)
        stream = DrawStream(got_rng)
        got = stream.below(500, p)
        stream.close()
        assert got == (expected_rng.random(500) < p).tolist()

    @pytest.mark.parametrize("half_used", [False, True])
    def test_with_block_closes_the_stream(self, half_used):
        expected_rng, got_rng = twins(5, half_used)
        with DrawStream(got_rng, 2) as stream:
            got = [stream.integers(7), stream.random(), stream.uniforms(-5.0, 5.0, 3)]
        assert got == [int(expected_rng.integers(0, 7)), expected_rng.random(),
                       expected_rng.uniform(-5.0, 5.0, 3).tolist()]
        assert got_rng.bit_generator.state == expected_rng.bit_generator.state

    def test_with_block_closes_the_stream_when_its_body_raises(self):
        expected_rng, got_rng = twins(9, False)
        before = got_rng.bit_generator.state
        with pytest.raises(KeyError, match="body"):
            with DrawStream(got_rng) as stream:
                stream.random()
                stream.integers(3)
                raise KeyError("body")
        expected_rng.random()
        expected_rng.integers(0, 3)
        assert got_rng.bit_generator.state == expected_rng.bit_generator.state
        assert got_rng.bit_generator.state != before

    def test_integers_beyond_32_bits_are_refused(self):
        stream = DrawStream(np.random.default_rng(1))
        with pytest.raises(ValueError, match=r"^integers\(n\) serves 1 <= n < 2\*\*32, "
                                             r"not 4294967296$"):
            stream.integers(2**32)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM,
                                               np.random.Philox, np.random.SFC64])
    def test_other_bit_generators_are_refused(self, bit_generator):
        name = bit_generator.__name__
        with pytest.raises(TypeError, match=f"^raw-word draws need a PCG64 bit generator, "
                                            f"not {name}$"):
            DrawStream(np.random.Generator(bit_generator(1)))
