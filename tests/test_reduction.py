import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from batchlab.reduction import (
    first_level,
    run_levels,
    stride_levels,
    tree_levels,
    tree_order,
    tree_reduce,
    tree_sum,
)

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
    # per-worker trees over aligned power-of-two slices, each in tree_order,
    # reduced with tree_reduce, perform exactly the additions of one tree
    # over the whole array in tree_order.  The engine takes the P per-worker
    # trees as one tree_sum over the slices laid out (m, P), worker-minor.
    # tree_sum consumes its summands, so each slice is summed as a copy.
    whole, workers = case
    m = len(whole) // workers
    slices = [s[tree_order(m)] for s in np.split(whole, workers)]
    expected = tree_sum(whole[tree_order(len(whole))]).tobytes()
    assert tree_reduce([tree_sum(s.copy()) for s in slices]).tobytes() == expected
    layout = np.stack(slices, axis=1)
    assert tree_reduce(list(tree_sum(layout))).tobytes() == expected


@st.composite
def summands(draw):
    """A float64 array of 1 to 40 rows, odd and even counts, with a trailing shape."""
    rows = draw(st.integers(1, 40))
    trailing = draw(st.sampled_from([(), (3,), (2, 5)]))
    return draw(hnp.arrays(np.float64, (rows, *trailing), elements=FLOATS))


@given(summands())
def test_halving_tree_over_tree_order_matches_the_pairwise_tree(values):
    # The engine lays every batch sum out in tree_order and adds contiguous
    # halves in place; the pairs, and so the bits, must be those of the
    # pairwise tree, which tree_reduce spells out one row at a time.
    expected = tree_reduce(list(values)).tobytes()
    ordered = values[tree_order(len(values))]
    total = tree_sum(ordered)
    assert total.tobytes() == expected
    # the sum is left in row 0 of the summands and returned as a view of it
    assert ordered[0].tobytes() == expected
    assert values.ndim == 1 or np.shares_memory(total, ordered[0])
    # batch norm writes the first level from summands it never copies into
    # an array of its own, which the later levels then sum in place: the
    # source stays unwritten, and one row is copied
    src = values[tree_order(len(values))]
    dst = np.full_like(values, np.nan)
    steps, live = first_level(src, dst)
    more, total = tree_levels(live)
    run_levels(steps + more)
    assert total.tobytes() == expected
    assert len(live) == (len(values) + 1) // 2
    assert src.tobytes() == values[tree_order(len(values))].tobytes()


@given(st.integers(0, 5), st.integers(1, 12))
def test_tree_order_splits_into_bit_reversed_slabs(log_c, q):
    # With c a power of two, tree_order(c*q) is c contiguous slabs, slab r
    # holding row tree_order(c)[r] (the bit reversal of r) of every block of
    # c consecutive rows: the engine's GEMM blocks are strided views of them.
    c = 2 ** log_c
    slabs = tree_order(c * q).reshape(c, q)
    assert np.array_equal(slabs, c * tree_order(q) + tree_order(c)[:, None])


@given(summands())
def test_strided_levels_over_rows_in_list_order_match_the_pairwise_tree(values):
    # The engine combines the P per-shard sums, left in worker order, with
    # stride_levels: built once, then run in place every step.  The pairs,
    # and so the bits, must be tree_reduce's, and the total must be a view
    # that the run fills, also for a 1-D array, whose row 0 is a scalar.
    expected = tree_reduce(list(values)).tobytes()
    rows = np.full_like(values, np.nan)
    steps, total = stride_levels(rows)
    assert len(steps) == (len(rows) - 1).bit_length()  # ceil(log2 rows) levels
    rows[...] = values  # the summands arrive after the build
    run_levels(steps)
    assert total.tobytes() == expected
    assert total.shape == (values.shape[1:] or (1,))
    assert np.shares_memory(total, rows[:1])
