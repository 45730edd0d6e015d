"""Majorization predicates and upward-swap combinatorics on rankings.

Three partial orders on real vectors:

  * ``majorizes``               prefix sums of the descending rearrangements
                                dominate, totals equal
  * ``majorizes_natural_order`` same without rearranging
  * ``weakly_majorizes``        rearranged prefix dominance, totals free

plus the upward-swap relation between rankings and the constructive chain
connecting a truthful ranking to an arbitrary one through single swaps.

Floating-point prefix comparisons use an absolute tolerance of 1e-9 scaled
by the larger sup-norm of the two vectors; integer inputs compare exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .isotonic import Ranking

__all__ = [
    "majorizes",
    "majorizes_natural_order",
    "weakly_majorizes",
    "is_upward_swap",
    "upward_swap_chain",
]

_REL_TOL = 1e-9


def _pair(a, b) -> tuple[np.ndarray, np.ndarray, float]:
    av = np.atleast_1d(np.asarray(a))
    bv = np.atleast_1d(np.asarray(b))
    if av.shape != bv.shape or av.ndim != 1:
        raise ValidationError("majorization needs two 1-d vectors of equal length")
    exact = np.issubdtype(av.dtype, np.integer) and np.issubdtype(bv.dtype, np.integer)
    if exact:
        return av.astype(np.int64), bv.astype(np.int64), 0.0
    av = av.astype(float)
    bv = bv.astype(float)
    if not (np.all(np.isfinite(av)) and np.all(np.isfinite(bv))):
        raise ValidationError("majorization needs finite entries")
    scale = max(np.max(np.abs(av), initial=0.0), np.max(np.abs(bv), initial=0.0))
    return av, bv, _REL_TOL * scale


def _prefix_dominates(a: np.ndarray, b: np.ndarray, tol) -> bool:
    return bool(np.all(np.cumsum(a) - np.cumsum(b) >= -tol))


def majorizes(a, b) -> bool:
    """a majorizes b: descending prefix-sum dominance with equal totals."""
    av, bv, tol = _pair(a, b)
    ad = np.sort(av)[::-1]
    bd = np.sort(bv)[::-1]
    if abs(float(np.sum(av) - np.sum(bv))) > tol:
        return False
    return _prefix_dominates(ad, bd, tol)


def majorizes_natural_order(a, b) -> bool:
    """Prefix-sum dominance without rearranging, totals equal."""
    av, bv, tol = _pair(a, b)
    if abs(float(np.sum(av) - np.sum(bv))) > tol:
        return False
    return _prefix_dominates(av, bv, tol)


def weakly_majorizes(a, b) -> bool:
    """Descending prefix-sum dominance; the totals need not match."""
    av, bv, tol = _pair(a, b)
    return _prefix_dominates(np.sort(av)[::-1], np.sort(bv)[::-1], tol)


def is_upward_swap(pi, nu) -> bool:
    """True iff ``pi`` improves ``nu`` by one transposition.

    The two rankings must agree except at two positions i < j with
    pi(i) = nu(j) < pi(j) = nu(i): the smaller item label moves earlier.
    """
    p = pi if isinstance(pi, Ranking) else Ranking(pi)
    v = nu if isinstance(nu, Ranking) else Ranking(nu)
    if len(p) != len(v):
        raise ValidationError("rankings must have equal length")
    diff = [k for k in range(len(p)) if p.perm[k] != v.perm[k]]
    if len(diff) != 2:
        return False
    i, j = diff
    return p.perm[i] == v.perm[j] and p.perm[j] == v.perm[i] and p.perm[i] < p.perm[j]


def upward_swap_chain(pi_star: Ranking, pi: Ranking) -> tuple[Ranking, ...]:
    """Connect ``pi_star`` to ``pi`` through single upward swaps.

    Returns the rankings from ``pi_star`` to ``pi``.  Each consecutive pair
    (chain[k], chain[k+1]) satisfies the upward-swap pattern relative to
    the start ranking's order; when the start is the identity this is
    literally ``is_upward_swap``.  Built by fixing the last position first:
    repeatedly swap the preimage of the largest not-yet-placed item label
    into its slot, then recurse on the prefix.  The chain has at most n
    entries, comfortably inside the 1 + n(n-1)/2 bound.  Labels are read in
    the order ``pi_star`` ranks them, so the construction works for any
    start ranking.
    """
    start = pi_star if isinstance(pi_star, Ranking) else Ranking(pi_star)
    target = pi if isinstance(pi, Ranking) else Ranking(pi)
    n = len(start)
    if len(target) != n:
        raise ValidationError("rankings must have equal length")

    # relabel items by their rank under pi_star; start becomes the identity
    rank_of = {item: k + 1 for k, item in enumerate(start.perm)}
    current = [rank_of[item] for item in target.perm]

    backwards = [tuple(current)]
    for slot in range(n, 1, -1):
        pos = current.index(slot, 0, slot)
        if pos != slot - 1:
            current[pos], current[slot - 1] = current[slot - 1], current[pos]
            backwards.append(tuple(current))

    item_of = start.perm  # inverse relabeling
    return tuple(
        Ranking(item_of[label - 1] for label in labels)
        for labels in reversed(backwards)
    )
