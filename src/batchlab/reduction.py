"""Deterministic balanced pairwise-tree summation.

Every batch-level sum in the package (per-example gradient accumulation,
batch-norm statistics, per-example losses, and the cross-worker all-reduce)
goes through the same reduction tree: adjacent elements are combined
pairwise, lowest index on the left, level by level.  Because the tree over a
batch of B examples decomposes into the P per-worker subtrees whenever the
local batch B/P is a power of two, a P-worker reduction reproduces the
1-worker sum bit for bit.

The tree can run over rows in either of two layouts.  :func:`tree_sum` reads
them in natural order, so a level adds rows 0, 2s, 4s, ... to their right
neighbours.  :func:`halving_tree_sum` reads them in :func:`tree_order`, the
generalized bit-reversal of the in-place FFT, so a level adds the second half
of the live rows to the first; the pairs, and so the bits, are the same.
"""

import numpy as np


def tree_sum(values, scratch=None):
    """Sum an ndarray over axis 0 with a fixed pairwise reduction tree.

    The rows are read in natural order.  An odd trailing element is carried
    to the next level unchanged.  The first level of k rows is written into
    `scratch`, an array of at least ceil(k/2) rows of `values`' trailing
    shape (allocated when not given), and every later level is reduced in
    place there, so for k > 1 the result is a view of `scratch[0]`; for
    k == 1 it is a view of `values[0]`.  Passing `values` itself as
    `scratch` reduces in place and overwrites `values`.  The additions, and
    so the bits, are the same either way.
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


def tree_order(k):
    """The row order under which :func:`halving_tree_sum` adds :func:`tree_sum`'s pairs.

    Position p holds summand `tree_order(k)[p]`.  A level of k rows pairs
    position i with i + k//2, which must hold the even summand 2i' and the
    odd one 2i' + 1 of the tree's pair i'; an odd last summand, carried by
    the tree, stays last.  For a power of two this is the bit-reversal
    permutation.
    """
    if k <= 1:
        return np.arange(k)
    h = k // 2
    pairs = 2 * tree_order(h + k % 2)[:h]
    return np.concatenate([pairs, pairs + 1, np.arange(2 * h, k)])


def halving_tree_sum(values, scratch=None):
    """Sum rows laid out in `tree_order(k)` with the pairs of :func:`tree_sum`.

    A level of k rows adds rows [h, 2h) into rows [0, h), h = k // 2, and
    moves an odd last row to row h, so every addition reads and writes whole
    contiguous halves.  `scratch` works as in :func:`tree_sum`:
    `halving_tree_sum(values[tree_order(k)], scratch)` gives the bits of
    `tree_sum(values)`.
    """
    values = np.asarray(values)
    k = values.shape[0]
    if k > 1 and scratch is not values:
        h = k // 2
        if scratch is None:
            scratch = np.empty((h + k % 2, *values.shape[1:]), values.dtype)
        np.add(values[:h], values[h:2 * h], out=scratch[:h])
        if k % 2:
            scratch[h] = values[k - 1]
        values, k = scratch, h + k % 2
    while k > 1:
        h = k // 2
        np.add(values[:h], values[h:2 * h], out=values[:h])
        if k % 2:
            values[h] = values[k - 1]
        k = h + k % 2
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
