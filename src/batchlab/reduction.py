"""Deterministic balanced pairwise-tree summation.

Every batch-level sum in the package (per-example gradient accumulation,
batch-norm statistics, per-example losses, and the cross-worker all-reduce)
goes through the same reduction tree: adjacent elements are combined
pairwise, lowest index on the left, level by level, and an odd last element
is carried to the next level.  Because the tree over a batch of B examples
decomposes into the P per-worker subtrees whenever the local batch B/P is a
power of two, a P-worker reduction reproduces the 1-worker sum bit for bit.

:func:`tree_reduce` spells the tree out over a list and is its reference.
:func:`tree_sum` adds the same pairs in place over the rows of an array
laid out in :func:`tree_order`, the generalized bit-reversal of the in-place
FFT, under which a level adds the second half of the live rows to the first.
:func:`stride_levels` adds them in place over rows left in list order, a
level adding row (2i+1)*s into row 2i*s.  :func:`tree_levels` and
:func:`stride_levels` state such a sum as a fixed list of in-place steps
over views of the summands, so a caller that sums the same arrays every
step builds the list once and runs it with :func:`run_levels`;
:func:`tree_sum` builds one and runs it at once.
"""

import functools

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


def _total(values):
    # the view the sum is left in; row 0 of a 1-D array would be a scalar
    # copied when the list is built, so a 1-D sum is left in values[:1]
    return values[0] if values.ndim > 1 else values[:1]


def tree_levels(values):
    """:func:`tree_sum`'s steps over `values`, built once: (steps, total).

    `steps` is a list of in-place steps over views of `values`: a level of
    k rows is ``np.add(values[:h], values[h:2h], out=values[:h])``, h = k // 2,
    and an odd last row is then copied to row h.  After
    ``run_levels(steps)``, `total` is a view of row 0 holding the sum.
    """
    steps = []
    k = len(values)
    while k > 1:
        h = k // 2
        steps.append(functools.partial(np.add, values[:h], values[h:2 * h], values[:h]))
        if k % 2:
            steps.append(functools.partial(np.copyto, values[h:h + 1], values[k - 1:k]))
        k = h + k % 2
    return steps, _total(values)


def stride_levels(rows):
    """:func:`tree_reduce`'s pairs over the rows of `rows`, in place: (steps, total).

    Level l adds rows s, 3s, 5s, ... into rows 0, 2s, 4s, ..., s = 2**l,
    and an odd last live row stays where it is, live at the next level:
    ``run_levels(steps)`` gives `total` the bits of
    ``tree_reduce(list(rows))`` in ceil(log2 k) strided adds for k rows.
    `total` is a view of row 0.
    """
    steps = []
    s = 1
    while s < len(rows):
        live = rows[::s]
        h = len(live) // 2
        steps.append(functools.partial(np.add, live[0:2 * h:2], live[1:2 * h:2], live[0:2 * h:2]))
        s *= 2
    return steps, _total(rows)


def run_levels(steps):
    """Run a list of in-place steps from :func:`tree_levels` or :func:`stride_levels`.

    A step is a `functools.partial` of ``np.add(dst, src, dst)`` (its `out`
    passed by position, which halves the call's cost against a keyword) or
    of ``np.copyto(dst, src)``.
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
