import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from batchlab.reduction import tree_reduce, tree_sum

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
