"""Deterministic balanced pairwise-tree summation.

Every batch-level sum in the package (per-example gradient accumulation,
batch-norm statistics, per-example losses, and the cross-worker all-reduce)
goes through the same reduction tree: adjacent elements are combined
pairwise, lowest index on the left, level by level.  Because the tree over a
batch of B examples decomposes into the P per-worker subtrees whenever the
local batch B/P is a power of two, a P-worker reduction reproduces the
1-worker sum bit for bit.
"""

import numpy as np


def tree_sum(values, scratch=None):
    """Sum an ndarray over axis 0 with a fixed pairwise reduction tree.

    An odd trailing element is carried to the next level unchanged.  The
    first level of k rows is written into `scratch`, an array of at least
    ceil(k/2) rows of `values`' trailing shape (allocated when not given),
    and every later level is reduced in place there, so for k > 1 the result
    is a view of `scratch[0]`.  Passing `values` itself as `scratch` reduces
    in place and overwrites `values`.  The additions, and so the bits, are
    the same either way.
    """
    values = np.asarray(values)
    k = values.shape[0]
    if k > 1 and scratch is not values:
        h = k // 2
        if scratch is None:
            scratch = np.empty((h + k % 2, *values.shape[1:]), values.dtype)
        np.add(values[0:2 * h:2], values[1:2 * h:2], out=scratch[:h])
        if k % 2:
            scratch[h] = values[k - 1]
        values, k = scratch, h + k % 2
    # Level by level in place: at stride s the live rows are 0, s, 2s, ...;
    # each left row takes its right neighbour, and an odd last row already
    # sits where the next level reads it.
    s = 1
    while k > 1:
        h = k // 2
        left = values[0:2 * h * s:2 * s]
        np.add(left, values[s:2 * h * s:2 * s], out=left)
        k, s = h + k % 2, 2 * s
    return values[0]


def tree_reduce(items, combine=None):
    """Reduce a list with the same pairwise-left tree as :func:`tree_sum`.

    `items` are combined in ascending index order; `combine` defaults to
    addition.  Reducing P partial sums of aligned power-of-two slices yields
    the same bits as one tree over the concatenated elements.
    """
    if not items:
        raise ValueError("tree_reduce of empty list")
    if combine is None:
        combine = lambda a, b: a + b
    items = list(items)
    while len(items) > 1:
        nxt = [combine(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]
