import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hafcp import rng
from hafcp.rng import ALGORITHM, SplitMix64, shuffled_indices

# Published splitmix64 reference outputs (same finalizer as Java's
# SplittableRandom); pins the stream as a cross-platform contract.
REFERENCE_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]
REFERENCE_SEED1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
]


def test_reference_stream_seed0():
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(5)] == REFERENCE_SEED0


def test_reference_stream_seed1234567():
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(3)] == REFERENCE_SEED1234567


def test_same_seed_same_stream():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_below_is_in_range():
    r = SplitMix64(7)
    for bound in (1, 2, 3, 10, 1000, 2**40):
        for _ in range(200):
            v = r.below(bound)
            assert 0 <= v < bound


def test_below_rejects_nonpositive_bound():
    r = SplitMix64(1)
    with pytest.raises(ValueError):
        r.below(0)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        SplitMix64(-1)


def test_shuffle_is_permutation():
    for n in (1, 2, 5, 100, 1000):
        perm = shuffled_indices(n, seed=3)
        assert sorted(perm) == list(range(n))


def test_shuffle_deterministic():
    assert shuffled_indices(50, 11) == shuffled_indices(50, 11)
    assert shuffled_indices(50, 11) != shuffled_indices(50, 12)


def test_algorithm_tag():
    assert "splitmix64" in ALGORITHM


def scalar_shuffle(n, seed):
    """The Fisher-Yates shuffle drawing one SplitMix64 value at a time."""
    r = SplitMix64(seed)
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = r.below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


MASK64 = (1 << 64) - 1


def _unxorshift(y, s):
    """The x with x ^ (x >> s) == y."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def seed_whose_first_draw_is(value):
    """Invert splitmix64's finalizer and its first state step."""
    z = _unxorshift(value, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64
    z = _unxorshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64
    z = _unxorshift(z, 30)
    return (z - 0x9E3779B97F4A7C15) & MASK64


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 400), st.integers(0, MASK64))
@example(1000, 0)
@example(1000, MASK64)
@example(0, 0)
@example(1, MASK64)
def test_shuffle_equals_the_scalar_stream(n, seed):
    assert shuffled_indices(n, seed) == scalar_shuffle(n, seed)


def test_rejected_draw_falls_back_to_the_scalar_stream():
    # below(3) rejects only 2**64 - 1, the first draw of this seed, for the
    # first swap of a 3-element shuffle
    seed = seed_whose_first_draw_is(MASK64)
    assert SplitMix64(seed).next_u64() == MASK64
    assert rng._swap_targets(3, seed) is None
    assert rng._swap_targets(4, seed) is not None
    assert shuffled_indices(3, seed) == scalar_shuffle(3, seed)
