import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordsim import rng


def test_mix64_reproduces_published_splitmix64_outputs():
    # SplitMix64 seeded with 1234567: output k finalizes state 1234567 + k * PHI64,
    # and mix64 adds the first PHI64 itself
    states = np.uint64(1234567) + np.arange(3, dtype=np.uint64) * rng.PHI64
    assert rng.mix64(states).tolist() == [6457827717110365317, 3203168211198807973,
                                          9817491932198370423]


def test_derive_key_known_answers():
    # the keys every codebook and source draw is built on; a seed is reduced
    # mod 2**64, so -1 is the all-ones seed
    known = {(0,): 0,
             (7, 1): 17039259473404265729,
             (2**64 - 1, 2**64 - 1): 16834447057089888969,
             (-1, 2, 3): 17618078508175795239,
             (20260809, 2, 0): 8331774505812629466}
    for path, key in known.items():
        got = rng.derive_key(*path)
        assert isinstance(got, np.uint64) and int(got) == key, path


@pytest.mark.parametrize("word", [-1, -2**63, 2**64])
def test_path_word_out_of_range_is_refused(word):
    # Python's `& mask` would silently wrap these; fold refuses them too
    with pytest.raises(OverflowError):
        rng.derive_key(1, 2, word)
    with pytest.raises(OverflowError):
        rng.fold(np.uint64(1), word)


def test_folds_raise_no_overflow_warning():
    top = np.uint64(2**64 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rng.fold(np.array([2**64 - 1, 2**63], dtype=np.uint64), np.arange(2, dtype=np.uint64))
        rng.fold(top, np.arange(5, dtype=np.uint64))
        rng.fold(np.full((3, 1), top), np.arange(4, dtype=np.uint64)[None, :])
        rng.fold(top, top)
        u = rng.uniforms(top, np.arange(2**20, 2**20 + 64))
        rng.uniforms(rng.fold(rng.derive_key(7, 1), np.arange(3, dtype=np.uint64))[:, None],
                     np.arange(8, dtype=np.uint64))
        rng.derive_key(2**64 - 1, 2**64 - 1)
    assert np.all((u >= 0.0) & (u < 1.0))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), size=st.integers(1, 5), rows=st.integers(1, 4),
       count=st.integers(0, 30), per_row=st.booleans())
def test_categorical_equals_searchsorted(data, size, rows, count, per_row):
    # one cdf for every uniform, or one cdf row per uniform position; some
    # uniforms sit exactly on a cdf entry, which searchsorted 'right' counts
    weights = st.lists(st.sampled_from((0.0, 0.1, 0.25, 1.0)), min_size=size,
                       max_size=size).filter(any)
    laws = [np.array(data.draw(weights)) for _ in range(count if per_row else 1)]
    cdf = np.array([rng.right_closed_cdf(w / w.sum()) for w in laws])
    u = np.array(data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                    min_size=rows * count, max_size=rows * count)))
    u = u.reshape(rows, count)
    for k in data.draw(st.lists(st.integers(0, rows * count - 1), max_size=3)) if count else ():
        edge = cdf[k % count if per_row else 0, 0]
        if edge < 1.0:
            u.flat[k] = edge
    got = rng.categorical(u, cdf if per_row else cdf[0])
    want = [[np.searchsorted(cdf[j if per_row else 0], u[i, j], side="right")
             for j in range(count)] for i in range(rows)]
    assert got.dtype == np.int64 and got.shape == u.shape
    assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(u.shape))
