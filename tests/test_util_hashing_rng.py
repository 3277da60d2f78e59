"""Tests for skewed hashing and deterministic RNG helpers."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.hashing import mix64, skewed_indices, splitmix64
from repro.util.rng import DeterministicRng, derive_seed


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_spreads_nearby_inputs(self):
        outputs = {splitmix64(i) for i in range(1000)}
        assert len(outputs) == 1000

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_fits_64_bits(self, value):
        assert 0 <= splitmix64(value) < 2**64

    def test_tweak_changes_output(self):
        assert mix64(5, tweak=1) != mix64(5, tweak=2)


class TestSkewedIndices:
    def test_count_and_range(self):
        indices = skewed_indices(0xBEEF, 3, 12)
        assert len(indices) == 3
        assert all(0 <= i < 4096 for i in indices)

    def test_deterministic(self):
        assert skewed_indices(123, 3, 12) == skewed_indices(123, 3, 12)

    def test_tables_mostly_disagree(self):
        """The three hashes must be (near-)independent: two different
        signatures should rarely collide in more than one table."""
        double_collisions = 0
        trials = 500
        for sig in range(trials):
            a = skewed_indices(sig, 3, 12)
            b = skewed_indices(sig + 1, 3, 12)
            same = sum(x == y for x, y in zip(a, b, strict=True))
            if same >= 2:
                double_collisions += 1
        assert double_collisions < trials * 0.01

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            skewed_indices(1, 0, 12)
        with pytest.raises(ValueError):
            skewed_indices(1, 3, 0)
        with pytest.raises(ValueError):
            skewed_indices(1, 99, 12)

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_indices_within_table(self, signature):
        for index in skewed_indices(signature, 3, 10):
            assert 0 <= index < 1024


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(7)
        b = DeterministicRng(7)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_fork_is_deterministic(self):
        a = DeterministicRng(7).fork("x")
        b = DeterministicRng(7).fork("x")
        assert a.random() == b.random()

    def test_fork_labels_differ(self):
        parent = DeterministicRng(7)
        assert parent.fork("x").random() != parent.fork("x").random()

    @pytest.mark.parametrize(
        "clone",
        [lambda rng: pickle.loads(pickle.dumps(rng)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_clone_continues_the_draw_sequence(self, clone):
        rng = DeterministicRng(7)
        rng.randrange(5)  # move off the seeded state
        twin = clone(rng)
        assert type(twin) is DeterministicRng
        assert [twin.randrange(7) for _ in range(50)] == [
            rng.randrange(7) for _ in range(50)
        ]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_component_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_string_vs_int_components(self):
        assert derive_seed(1, "2") != derive_seed(1, 2)

    def test_base_seed_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")
