"""Schur majorization order, squared-coordinate variant, hyperoctahedral
canonicalization, and Muirhead two-coordinate chains."""

from enum import Enum

import numpy as np

__all__ = [
    "MajorizationVerdict",
    "majorize_compare",
    "schur2_compare",
    "g_canonical",
    "muirhead_chain",
    "random_group_element",
    "apply_group_element",
]


class MajorizationVerdict(Enum):
    EQUAL_SORTED = "equal_sorted"
    STRICT_MAJORIZES = "strict_majorizes"
    MAJORIZES_NONSTRICT = "majorizes_nonstrict"
    INCOMPARABLE = "incomparable"


def _sum_tolerance(a, b):
    # equality tolerance for (partial) sums; majorization is fragile in floats
    return 1e-12 * max(1.0, np.abs(a).sum(), np.abs(b).sum())


def majorize_compare(a, b):
    """Compare a against b in the Schur majorization order.

    Returns STRICT_MAJORIZES / MAJORIZES_NONSTRICT when a majorizes b,
    EQUAL_SORTED when the descending rearrangements agree, INCOMPARABLE
    otherwise (in particular when the totals differ).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    tau = _sum_tolerance(a, b)
    a_sorted = np.sort(a)[::-1]
    b_sorted = np.sort(b)[::-1]
    if abs(a.sum() - b.sum()) > tau:
        return MajorizationVerdict.INCOMPARABLE
    max_diff = np.max(np.abs(a_sorted - b_sorted))
    if max_diff <= tau:
        return MajorizationVerdict.EQUAL_SORTED
    prefix_gap = np.cumsum(a_sorted) - np.cumsum(b_sorted)
    if np.all(prefix_gap >= -tau):
        # within 10*tau of equal we cannot certify strictness
        if max_diff <= 10.0 * tau:
            return MajorizationVerdict.MAJORIZES_NONSTRICT
        return MajorizationVerdict.STRICT_MAJORIZES
    return MajorizationVerdict.INCOMPARABLE


def schur2_compare(x, y):
    """Compare squared-coordinate profiles: majorize_compare(x**2, y**2)."""
    return majorize_compare(np.square(x, dtype=float),
                            np.square(y, dtype=float))


def g_canonical(x):
    """Orbit representative under the hypercube symmetry group: absolute
    values sorted in descending order."""
    return np.sort(np.abs(np.asarray(x, dtype=float)))[::-1]


def apply_group_element(x, perm, signs):
    """Apply the group element (permutation, sign flips) to x."""
    x = np.asarray(x, dtype=float)
    return np.asarray(signs, dtype=float) * x[np.asarray(perm)]


def random_group_element(k, rng):
    """Draw a uniform element of the 2^k * k! hypercube symmetry group."""
    return rng.permutation(k), rng.integers(0, 2, size=k) * 2 - 1


def muirhead_chain(a, b):
    """Chain a = a0 > a1 > ... > am = b of two-coordinate transfers.

    Works on the descending rearrangements; each consecutive pair differs
    in exactly two coordinates and is a strict majorization step.
    """
    verdict = majorize_compare(a, b)
    if verdict is not MajorizationVerdict.STRICT_MAJORIZES:
        raise ValueError(f"a must strictly majorize b, got {verdict}")
    cur = np.sort(np.asarray(a, dtype=float))[::-1].copy()
    target = np.sort(np.asarray(b, dtype=float))[::-1]
    tau = _sum_tolerance(cur, target)
    chain = [cur.copy()]
    for _ in range(len(cur)):  # at most k-1 transfers are ever needed
        diff = cur - target
        surplus = np.nonzero(diff > tau)[0]
        if surplus.size == 0:
            break
        i = surplus[0]
        deficit = np.nonzero(diff < -tau)[0]
        j = deficit[deficit > i][0]
        delta = min(diff[i], -diff[j])
        cur[i] -= delta
        cur[j] += delta
        chain.append(cur.copy())
    return chain
