"""Deterministic balanced pairwise-tree summation.

Every batch-level sum in the package (per-example gradient accumulation,
batch-norm statistics, per-example losses, and the cross-worker all-reduce)
goes through the same reduction tree: adjacent elements are combined
pairwise, lowest index on the left, level by level, and an odd last element
is carried to the next level.  Because the tree over a batch of B examples
decomposes into the P per-worker subtrees whenever the local batch B/P is a
power of two, a P-worker reduction reproduces the 1-worker sum bit for bit.

:func:`tree_reduce` spells the tree out over a list and is its reference.
:func:`tree_sum` adds the same pairs over the rows of an array laid out in
:func:`tree_order`, the generalized bit-reversal of the in-place FFT, under
which a level adds the second half of the live rows to the first.
"""

import numpy as np


def tree_order(k):
    """The row order under which :func:`tree_sum` adds the pairwise tree's pairs.

    Position p holds summand `tree_order(k)[p]`.  A level of k rows pairs
    position i with i + k//2, which must hold the even summand 2i' and the
    odd one 2i' + 1 of the tree's pair i'; an odd last summand, carried by
    the tree, stays last.  For a power of two this is the bit-reversal
    permutation, and for k = c*q with c a power of two it is c contiguous
    slabs of q rows: slab r holds `c * tree_order(q) + rev_c(r)`.
    """
    if k <= 1:
        return np.arange(k)
    h = k // 2
    pairs = 2 * tree_order(h + k % 2)[:h]
    return np.concatenate([pairs, pairs + 1, np.arange(2 * h, k)])


def tree_sum(values, scratch=None):
    """Sum an ndarray over axis 0 with the pairwise tree, rows in `tree_order(k)`.

    `tree_sum(values[tree_order(k)])` gives the bits of
    `tree_reduce(list(values))`.  A level of k rows adds rows [h, 2h) into
    rows [0, h), h = k // 2, and moves an odd last row to row h, so every
    addition reads and writes whole contiguous halves.  The first level is
    written into `scratch`, an array of at least ceil(k/2) rows of `values`'
    trailing shape (allocated when not given), and every later level is
    reduced in place there, so for k > 1 the result is a view of
    `scratch[0]`; for k == 1 it is a view of `values[0]`.  Passing `values`
    itself as `scratch` reduces in place and overwrites `values`.  The
    additions, and so the bits, are the same either way.
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
    """Reduce a list with the pairwise-left tree, in list order.

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
