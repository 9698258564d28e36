import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from batchlab.reduction import (
    run_levels,
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
    # the trees over aligned nodes of s rows, s a power of two, each in
    # tree_order, reduced with tree_reduce in batch order, perform exactly
    # the additions of one tree over the whole array in tree_order.
    # tree_sum consumes its summands, so each node is summed as a copy.
    whole, count = case
    s = len(whole) // count
    node_rows = np.split(whole, count)
    expected = tree_sum(whole[tree_order(len(whole))]).tobytes()
    slices = [r[tree_order(s)] for r in node_rows]
    assert tree_reduce([tree_sum(r.copy()) for r in slices]).tobytes() == expected
    # one tree_sum over the nodes stacked (s, count), node-minor, runs
    # every node's tree at once
    assert tree_reduce(list(tree_sum(np.stack(slices, axis=1)))).tobytes() == expected
    # The engine cuts its one tree over the batch at such nodes: over the
    # rows in tree_order, the levels of the (s, count, ...) view leave in
    # row p the tree of node tree_order(count)[p], and taken in batch order
    # those rows finish the whole tree.
    layout = whole[tree_order(len(whole))]
    steps, rows = tree_levels(layout.reshape(-1, count, *whole.shape[1:]))
    run_levels(steps)
    order = tree_order(count)
    for row, i in zip(rows, order):
        assert row.tobytes() == tree_reduce(list(node_rows[i])).tobytes()
    assert tree_reduce([rows[p] for p in np.argsort(order)]).tobytes() == expected


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
    # batch norm sums summands it must keep with the first level written
    # into an array of its own, which the later levels then sum in place:
    # the source stays unwritten, and the total is row 0 of the destination
    src = values[tree_order(len(values))]
    dst = np.full_like(values, np.nan)
    steps, total = tree_levels(src, dst)
    run_levels(steps)
    assert total.tobytes() == expected
    assert np.shares_memory(total, dst[:1])
    assert src.tobytes() == values[tree_order(len(values))].tobytes()
    # that first level fills the destination's first ceil(k/2) rows, and no
    # level writes past them
    live = (len(values) + 1) // 2
    assert not np.isnan(dst[:live]).any()
    assert np.isnan(dst[live:]).all()


@given(st.integers(0, 5), st.integers(1, 12))
def test_tree_order_splits_into_bit_reversed_slabs(log_c, q):
    # With c a power of two, tree_order(c*q) is c contiguous slabs, slab r
    # holding row tree_order(c)[r] (the bit reversal of r) of every block of
    # c consecutive rows: the engine's GEMM blocks are strided views of them.
    c = 2 ** log_c
    slabs = tree_order(c * q).reshape(c, q)
    assert np.array_equal(slabs, c * tree_order(q) + tree_order(c)[:, None])
