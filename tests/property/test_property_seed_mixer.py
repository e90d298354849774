"""Property test: the batched seed mixer is numpy's SeedSequence + PCG64.

:class:`~repro.serve.vecrng.CoordinateStreams` mixes every lane's
entropy words as one ``(4, n)`` uint32 matrix instead of calling
``SeedSequence`` per lane.  Rows narrower than the four-word pool take
the zero-padding branch, wider rows the extra-word branch, and words at
the uint32 edges exercise the wrapping arithmetic; every lane's raw
draws must equal the scalar generator's.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.vecrng import CoordinateStreams

#: One entropy word: an edge of the uint32 range, or any word.
words = st.one_of(
    st.sampled_from([0, 1, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1)
)

#: A batch of lanes sharing one entropy width of 1–6 words.
batches = st.integers(1, 6).flatmap(
    lambda width: st.lists(
        st.lists(words, min_size=width, max_size=width), min_size=1, max_size=8
    )
)


@given(batches)
@settings(max_examples=200, deadline=None)
def test_next64_matches_seed_sequence_pcg64(rows):
    streams = CoordinateStreams(np.array(rows, dtype=np.uint64))
    raw = np.stack([streams.next64() for _ in range(3)], axis=1)
    for lane, row in enumerate(rows):
        expected = np.random.PCG64(np.random.SeedSequence(row)).random_raw(3)
        assert raw[lane].tolist() == expected.tolist()
