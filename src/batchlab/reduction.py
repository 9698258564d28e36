"""Deterministic balanced pairwise-tree summation.

Every batch-level sum in the package (per-example gradient accumulation,
batch-norm statistics, per-example losses, and the cross-worker all-reduce)
goes through the same reduction tree: adjacent elements are combined
pairwise, lowest index on the left, level by level, and an odd last element
is carried to the next level.  For s a power of two dividing B, the first
log2(s) levels of the tree over B examples are the trees of its aligned
nodes of s examples, and the tree over the B/s node sums, in batch order,
is the rest of it.  A P-worker reduction whose workers hold whole nodes
(s dividing B/P) therefore reproduces the 1-worker sum bit for bit.

:func:`tree_reduce` spells the tree out over a list and is its reference.
:func:`tree_sum` adds the same pairs in place over the rows of an array
laid out in :func:`tree_order`, the generalized bit-reversal of the in-place
FFT, under which a level adds the second half of the live rows to the first.
:func:`tree_levels` states such a sum as a fixed list of in-place steps
over views of the summands, so a caller that sums the same arrays every
step builds the list once and runs it with :func:`run_levels`;
:func:`tree_sum` builds one and runs it at once.  Given a second array,
its first level writes there and the later ones run in place over it, so
that a caller can sum values it must keep, like batch norm's input, without
copying them.
"""

from functools import partial

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


def tree_levels(values, into=None):
    """:func:`tree_sum`'s steps over `values`, built once: (steps, total).

    A level of k > 1 live rows, h = k // 2, is
    ``np.add(src[:h], src[h:2h], dst[:h])``, then an odd last row copied to
    row h of `dst`, and its first ceil(k/2) rows of `dst` are the next
    level's live rows.  Without `into`, every level runs in place over
    `values`.  With `into`, the first level reads `values` and writes
    `into` (a single row is copied there) and the later ones run in place
    over `into`, so `values` is only read.  After ``run_levels(steps)``, `total`
    is a view of row 0 of `into`, or of `values` without it, holding the
    sum; row 0 of a 1-D array would be a scalar copied when the list is
    built, so a 1-D sum is left in its first element's view instead.
    """
    src = values
    dst = values if into is None else into
    total = dst[0] if dst.ndim > 1 else dst[:1]
    steps = []
    if into is not None and len(values) == 1:
        steps.append(partial(np.copyto, into[:1], values))
    while len(src) > 1:
        k, h = len(src), len(src) // 2
        steps.append(partial(np.add, src[:h], src[h:2 * h], dst[:h]))
        if k % 2:
            steps.append(partial(np.copyto, dst[h:h + 1], src[k - 1:k]))
        src = dst = dst[:h + k % 2]
    return steps, total


def run_levels(steps):
    """Run a prebuilt call list in order: each step is called with no arguments.

    The levels of :func:`tree_levels` are such a list, each step a
    `functools.partial` of ``np.add(dst, src, dst)`` (its `out` passed by
    position, which halves the call's cost against a keyword) or of
    ``np.copyto(dst, src)``; so is any list of such partials over fixed
    arrays, like the layer calls of `nn`'s step plan.
    """
    for step in steps:
        step()


def tree_sum(values):
    """Sum an ndarray over axis 0 in place with the pairwise tree, rows in `tree_order(k)`.

    `tree_sum(values[tree_order(k)])` gives the bits of
    `tree_reduce(list(values))`.  A level of k rows adds rows [h, 2h) into
    rows [0, h), h = k // 2, and moves an odd last row to row h, so every
    addition reads and writes whole contiguous halves.  `values` is
    consumed: the sum is left in its row 0, and `values[0]` is returned.
    """
    run_levels(tree_levels(values)[0])
    return values[0]


def tree_reduce(items, combine=None):
    """Reduce a list with the pairwise-left tree, in list order.

    `items` are combined in ascending index order; `combine` defaults to
    addition.  Reducing the partial sums of aligned slices of one
    power-of-two length yields the same bits as one tree over the
    concatenated elements.
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
