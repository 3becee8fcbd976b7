"""Unit and property tests for the odd-even sorting network."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.sort.networks import apply_oddeven_network, network_depth, oddeven_network


class TestNetworkStructure:
    def test_width_one(self):
        assert oddeven_network(1) == ()

    def test_width_three(self):
        assert oddeven_network(3) == ((0, 1), (1, 2), (0, 1))

    def test_comparators_in_bounds(self):
        for width in range(1, 20):
            for i, j in oddeven_network(width):
                assert 0 <= i < j < width
                assert j == i + 1  # transposition network: adjacent wires

    def test_depth(self):
        assert network_depth(7) == 7


class TestZeroOnePrinciple:
    def test_sorts_all_binary_inputs(self):
        """The 0-1 principle: a comparator network sorts everything iff it
        sorts every 0/1 input — checked exhaustively for widths <= 10."""
        for width in range(1, 11):
            inputs = np.array(
                [[(m >> i) & 1 for i in range(width)] for m in range(1 << width)]
            )
            out, _ = apply_oddeven_network(inputs)
            assert (np.diff(out, axis=1) >= 0).all(), f"width {width}"


class TestApply:
    def test_rows_sorted_independently(self, rng):
        rows = rng.integers(0, 100, size=(50, 9))
        out, ops = apply_oddeven_network(rows)
        assert np.array_equal(out, np.sort(rows, axis=1))
        assert ops == len(oddeven_network(9)) * 50

    def test_input_not_mutated(self):
        rows = np.array([[3, 1, 2]])
        apply_oddeven_network(rows)
        assert rows.tolist() == [[3, 1, 2]]

    def test_float_keys_permuted_not_lost(self):
        """min/max compare-exchange turned [0.0, -0.0] into [-0.0, -0.0];
        the strict swap keeps every key's bits and their order on ties."""
        rows = np.array([[0.0, -0.0], [-0.0, 0.0], [2.0, -0.0]])
        out, _ = apply_oddeven_network(rows)
        assert out.tobytes() == np.sort(rows, axis=1, kind="stable").tobytes()

    def test_nan_keys_not_duplicated(self):
        out, _ = apply_oddeven_network(np.array([[np.nan, 1.0]]))
        assert np.isnan(out).sum() == 1 and 1.0 in out

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            apply_oddeven_network(np.arange(5))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=16), st.data())
    def test_random_rows(self, width, data):
        values = data.draw(
            st.lists(st.integers(-1000, 1000), min_size=width, max_size=width)
        )
        out, _ = apply_oddeven_network(np.array([values]))
        assert out[0].tolist() == sorted(values)
