"""Array primitives behind the engine's batch core and the protocol ports.

The batch core (:meth:`SynchronousEngine._run_batch`) canonicalizes
each round's inbox with :func:`stable_receiver_order`, and the Borůvka
port folds its gather rows with :func:`group_argmin_lex3` and
:func:`scatter_min_lex3`.  Each hides an algorithm (a radix cut-over, a
stable lexsort with first-wins ties), so each is one module function
that tier-1 checks against a naive sequential reference.  The plain
max/min scatter folds are ``np.maximum.at`` / ``np.minimum.at`` at the
call sites.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RADIX_MIN_ROWS",
    "group_argmin_lex3",
    "numba_available",
    "resolve_kernel",
    "scatter_min_lex3",
    "stable_receiver_order",
]

#: Fewest rows a round needs before :func:`stable_receiver_order` sorts
#: 16-bit receiver keys (see there for the measurement).
RADIX_MIN_ROWS = 512


def numba_available() -> bool:
    """Whether numba imports; perfbench's host record reads it."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def resolve_kernel() -> str:
    """The array tier, always ``"numpy"``; perfbench's host record reads it."""
    return "numpy"


def stable_receiver_order(receivers: np.ndarray, n_groups: int) -> np.ndarray:
    """Permutation sorting rows by receiver, ties in original order.

    ``n_groups`` bounds the receiver values (they are node ids < n).
    When they fit 16 bits (``n_groups ≤ 2¹⁶``) and the round has at
    least :data:`RADIX_MIN_ROWS` rows, the sort runs on a uint16 copy:
    numpy's stable sort of 16-bit keys is a radix sort, and stability
    makes its permutation identical to the comparison sort's.  On a
    2-core x86_64 host (numpy 2.4), random receivers over 32,768
    groups sort in 0.22 → 0.037 s at 1.4M rows and 13 → 9 µs at 512
    rows, while at 64 rows or fewer the cast costs more than the
    radix saves (+0.3–1.5 µs per call).  Receivers already close to
    sorted (a ring's neighbour pattern) favour the comparison sort's
    run detection by 1.2–2× at 4k–64k rows, but an HS ring trial has
    few rounds that large, and C_1024/C_2048 HS sweeps time the same
    either way.  Sparse rounds and larger networks keep the
    comparison sort.
    """
    if n_groups <= 1 << 16 and len(receivers) >= RADIX_MIN_ROWS:
        receivers = receivers.astype(np.uint16)
    return receivers.argsort(kind="stable")


def group_argmin_lex3(groups, w, a, b, size: int) -> np.ndarray:
    """Per-group row index of the lexicographic minimum (w, a, b).

    Returns an int64 array of length ``size``: for each group id the
    position (into the input rows) of its smallest (w, a, b) triple,
    or -1 for groups with no rows.  Exact ties keep the earliest row,
    matching a sequential first-wins scan.
    """
    pos = np.full(size, -1, dtype=np.int64)
    if len(groups) == 0:
        return pos
    order = np.lexsort((b, a, w))
    # Reverse order: later assignments overwrite, so each group ends
    # up holding its best row (stable lexsort ⇒ earliest row on ties).
    rev = order[::-1]
    pos[groups[rev]] = rev
    return pos


def scatter_min_lex3(best_w, best_a, best_b, idx, w, a, b) -> None:
    """Fold rows into per-slot lexicographic minima, in place.

    ``best_*`` are parallel per-slot state columns; each row
    (w, a, b) at slot ``idx`` replaces the slot's triple when
    strictly smaller in lexicographic order.
    """
    pos = group_argmin_lex3(idx, w, a, b, len(best_w))
    hit = np.nonzero(pos >= 0)[0]
    if len(hit) == 0:
        return
    p = pos[hit]
    better = (w[p] < best_w[hit]) | (
        (w[p] == best_w[hit])
        & (
            (a[p] < best_a[hit])
            | ((a[p] == best_a[hit]) & (b[p] < best_b[hit]))
        )
    )
    g = hit[better]
    p = p[better]
    best_w[g] = w[p]
    best_a[g] = a[p]
    best_b[g] = b[p]
