"""The owned seeded draws against numpy's Generator(PCG64), bit for bit.

carfield never imports numpy's random package; these tests do, as the
reference that `carfield.draws` must reproduce exactly.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carfield import draws
from carfield.errors import PreconditionError

# seeds past 2**64 give three uint32 entropy words each, so a two-int seed
# list can overrun the 4-word pool
SEEDS = st.integers(0, 2**70)
ENTROPY = st.one_of(SEEDS, st.lists(SEEDS, min_size=1, max_size=6))
SIZES = st.one_of(st.integers(0, 5), st.tuples(st.integers(0, 3), st.integers(0, 3)))


def _pair(entropy):
    return draws.default_rng(entropy), np.random.default_rng(entropy)


def _assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert type(got) is type(want)
        assert got == want


@settings(max_examples=200, deadline=None)
@given(ENTROPY, st.integers(1, 9))
def test_generate_state_matches_seed_sequence(entropy, n_words):
    want = np.random.SeedSequence(entropy).generate_state(n_words, np.uint64)
    assert draws.generate_state(entropy, n_words) == [int(w) for w in want]


CALLS = st.one_of(
    st.tuples(st.just("standard_normal"), SIZES),
    st.tuples(st.just("uniform"), st.floats(-1e3, 1e3), st.floats(0, 1e3),
              st.one_of(st.none(), SIZES)),
    # Lemire's method rejects a 32-bit draw with probability (2**32 mod span)
    # / 2**32: rarely for small spans, for a span s in (2**31, 2**32) with
    # probability 1 - s / 2**32
    st.tuples(st.just("integers"), st.integers(-10, 10),
              st.one_of(st.integers(1, 300), st.integers(1, 2**32 - 1),
                        st.integers(2**31 + 1, 2**32 - 1)), SIZES),
    st.tuples(st.just("choice"), st.integers(1, 300), st.integers(0, 12)),
)


def _call(gen, call):
    name, *args = call
    if name == "standard_normal":
        return gen.standard_normal(args[0])
    if name == "uniform":
        low, span, size = args
        return gen.uniform(low, low + span, size)
    if name == "integers":
        low, span, size = args
        return gen.integers(low, low + span, size=size)
    n, k = args
    return gen.choice(n, size=min(k, n), replace=False)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(0, 4), st.lists(CALLS, min_size=1, max_size=30))
def test_interleaved_calls_match_numpy(seed, stream, calls):
    # integers and choice share the uint32 buffer, which uniform and
    # standard_normal leave alone: an odd count of 32-bit draws followed by
    # a 64-bit one tells a shared buffer from a fresh one
    ours, theirs = _pair([seed, stream])
    for call in calls:
        _assert_same(_call(ours, call), _call(theirs, call))


@settings(max_examples=8, deadline=None)
@given(SEEDS)
def test_choice_every_small_population(seed):
    ours, theirs = _pair(seed)
    for n in range(1, 129):
        for k in range(min(n, 8) + 1):
            _assert_same(ours.choice(n, size=k, replace=False),
                         theirs.choice(n, size=k, replace=False))


def test_many_normals_take_every_ziggurat_branch(monkeypatch):
    # 10^5 normals over four seeds, interleaved with 32-bit integer draws; the
    # tail (idx 0, about 2.6e-4 of draws) calls log1p, the wedge calls exp
    taken = {"log1p": 0, "exp": 0}

    def counted(name):
        def fn(x):
            taken[name] += 1
            return getattr(math, name)(x)
        return fn

    monkeypatch.setattr(draws, "math", types.SimpleNamespace(
        log1p=counted("log1p"), exp=counted("exp"), prod=math.prod, inf=math.inf))
    for seed in range(4):
        ours, theirs = _pair([seed, 3])
        for _ in range(25):
            _assert_same(ours.standard_normal(1000), theirs.standard_normal(1000))
            _assert_same(ours.integers(0, 7, size=3), theirs.integers(0, 7, size=3))
    assert taken["log1p"] > 0 and taken["exp"] > 0


@pytest.mark.parametrize("call", [
    # paths numpy takes that the suites never reach
    lambda g: g.choice(10, size=3, replace=True),
    lambda g: g.choice(draws.MAX_POPULATION + 1, size=3, replace=False),
    lambda g: g.choice(10.0, size=3, replace=False),
    lambda g: g.choice(True, size=1, replace=False),
    lambda g: g.choice(4, size=5, replace=False),
    lambda g: g.integers(0, 2**32, size=2),
    lambda g: g.integers(3, 3, size=2),
    lambda g: g.integers(0.5, 3, size=2),
    lambda g: g.uniform(1.0, 0.0),
    lambda g: g.uniform(0.0, math.inf),
    lambda g: g.standard_normal(-1),
])
def test_unmatched_arguments_raise(call):
    with pytest.raises(PreconditionError):
        call(draws.default_rng(0))


@pytest.mark.parametrize("seed", [-1, 1.5, True, None, [1, -2]])
def test_bad_seeds_raise(seed):
    with pytest.raises(PreconditionError):
        draws.default_rng(seed)
