import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from batchlab.reduction import halving_tree_sum, tree_order, tree_reduce, tree_sum

FLOATS = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, width=64)


@st.composite
def sliced_arrays(draw):
    """A float64 array of P * 2^k rows, with P and k drawn too."""
    workers = draw(st.integers(1, 12))
    k = draw(st.integers(0, 5))
    trailing = draw(st.sampled_from([(), (3,)]))
    whole = draw(hnp.arrays(np.float64, (workers * 2 ** k, *trailing), elements=FLOATS))
    return whole, workers


@given(sliced_arrays())
def test_slice_trees_compose_into_whole_tree(case):
    # The law that makes a P-worker step equal the 1-worker step bit for bit:
    # per-slice trees over aligned power-of-two slices, reduced with the same
    # tree, perform exactly the additions of one tree over the whole array.
    whole, workers = case
    partials = [tree_sum(s) for s in np.split(whole, workers)]
    assert tree_reduce(partials).tobytes() == tree_sum(whole).tobytes()


@st.composite
def summands(draw):
    """A float64 array of 1 to 40 rows, odd and even counts, with a trailing shape."""
    rows = draw(st.integers(1, 40))
    trailing = draw(st.sampled_from([(), (3,), (2, 5)]))
    return draw(hnp.arrays(np.float64, (rows, *trailing), elements=FLOATS))


@given(summands())
def test_scratch_and_in_place_trees_match_the_pairwise_tree(values):
    # The workspace engine sums into a reused scratch array, or over the
    # summands themselves; both must perform the additions of the plain
    # pairwise tree, which tree_reduce spells out one row at a time.
    expected = tree_reduce(list(values)).tobytes()
    assert tree_sum(values).tobytes() == expected
    scratch = np.full(((len(values) + 1) // 2, *values.shape[1:]), np.nan)
    assert tree_sum(values, scratch).tobytes() == expected
    consumed = values.copy()
    assert tree_sum(consumed, consumed).tobytes() == expected


@given(summands())
def test_halving_tree_over_tree_order_matches_the_pairwise_tree(values):
    # The engine lays every batch sum out in tree_order and adds contiguous
    # halves; the pairs, and so the bits, must be tree_sum's over the rows in
    # natural order, with a scratch array or in place.
    expected = tree_sum(values).tobytes()
    ordered = values[tree_order(len(values))]
    assert halving_tree_sum(ordered).tobytes() == expected
    scratch = np.full(((len(values) + 1) // 2, *values.shape[1:]), np.nan)
    assert halving_tree_sum(ordered, scratch).tobytes() == expected
    assert halving_tree_sum(ordered, ordered).tobytes() == expected
