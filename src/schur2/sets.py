"""Symbolic set families: sublevel sets of the p- and (p,q)-means, the
orbit-union sets hat-B (balls around the diagonal points a*g*1) and check-B
(balls around the axis points +-a*e_i), cubes, and single complements.

Membership is exact and vectorized; a point on the defining boundary is a
member (the sets are closed).
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .means import (MeanKind, MeanSpec, Schur2Value, SchurCharacter,
                    classify_mean, p_mean_rows, pq_mean_rows)

__all__ = [
    "SetSpec",
    "p_ball",
    "pq_ball",
    "hat_b",
    "check_b",
    "cube",
    "complement",
    "contains",
    "contains_rows",
    "line_interval",
    "classify_set",
    "parse_set",
    "format_set",
]


@dataclass(frozen=True)
class SetSpec:
    variant: str  # pball | pqball | hatb | checkb | cube | complement
    k: int
    p: float = None
    q: float = None
    a: float = None
    eps: float = None
    inner: "SetSpec" = None


def p_ball(k, p, eps):
    if eps <= 0:
        raise ValueError("eps must be positive")
    return SetSpec("pball", k, p=float(p), eps=float(eps))


def pq_ball(k, p, q, eps):
    if eps <= 0:
        raise ValueError("eps must be positive")
    if p < q:
        p, q = q, p
    return SetSpec("pqball", k, p=float(p), q=float(q), eps=float(eps))


def hat_b(k, p, a, eps):
    # the sign-matching membership reduction is only used for p >= 1
    if p < 1:
        raise ValueError("hat-B membership requires p >= 1")
    if eps <= 0 or a < 0:
        raise ValueError("need eps > 0 and a >= 0")
    return SetSpec("hatb", k, p=float(p), a=float(a), eps=float(eps))


def check_b(k, p, a, eps):
    if p < 1:
        raise ValueError("check-B membership requires p >= 1")
    if eps <= 0 or a < 0:
        raise ValueError("need eps > 0 and a >= 0")
    return SetSpec("checkb", k, p=float(p), a=float(a), eps=float(eps))


def cube(k, a):
    if a < 0:
        raise ValueError("a must be nonnegative")
    return SetSpec("cube", k, a=float(a))


def complement(S):
    if S.variant == "complement":
        return S.inner  # double complement collapses
    return SetSpec("complement", S.k, inner=S)


def contains_rows(S, X):
    """Vectorized membership: X of shape (n, k) -> bool array (n,)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != S.k:
        raise ValueError(f"dimension mismatch: set k={S.k}, points k={X.shape[1]}")
    if S.variant == "pball":
        return p_mean_rows(X, S.p) <= S.eps
    if S.variant == "pqball":
        return pq_mean_rows(X, S.p, S.q) <= S.eps
    if S.variant == "cube":
        return np.abs(X).max(axis=1) <= S.a
    if S.variant == "hatb":
        # union over the group orbit of a*1: best center matches the signs of
        # x coordinatewise, leaving sum ||x_j| - a|^p <= k eps^p
        A = np.abs(X)
        return np.sum(np.abs(A - S.a) ** S.p, axis=1) <= S.k * S.eps**S.p
    if S.variant == "checkb":
        # best center among +-a*e_i matches the sign of x_i; try every axis
        A = np.abs(X)
        Ap = A**S.p
        total = Ap.sum(axis=1)
        best = np.inf * np.ones(X.shape[0])
        for i in range(S.k):
            cand = total - Ap[:, i] + np.abs(A[:, i] - S.a) ** S.p
            best = np.minimum(best, cand)
        return best <= S.k * S.eps**S.p
    if S.variant == "complement":
        return ~contains_rows(S.inner, X)
    raise ValueError(f"unknown variant {S.variant}")


def contains(S, x):
    """Exact membership of a single point."""
    return bool(contains_rows(S, np.asarray(x, dtype=float)[None, :])[0])


def line_interval(S, base, axis):
    """Axis-parallel section {t : base with coord[axis]=t is in S}.

    Returns a list of closed intervals (lo, hi), possibly with infinite
    endpoints for complements.  Supported for p-balls with p >= 1 (including
    p = inf), cubes, and complements thereof.
    """
    base = np.asarray(base, dtype=float)
    if S.variant == "complement":
        inner = line_interval(S.inner, base, axis)
        if not inner:
            return [(-math.inf, math.inf)]
        (lo, hi), = inner
        return [(-math.inf, lo), (hi, math.inf)]
    rest = np.abs(np.delete(base, axis))
    if S.variant == "cube":
        if rest.size and rest.max() > S.a:
            return []
        return [(-S.a, S.a)]
    if S.variant == "pball":
        if S.p == math.inf:
            if rest.size and rest.max() > S.eps:
                return []
            return [(-S.eps, S.eps)]
        if S.p < 1:
            raise ValueError("line_interval supports p-balls only for p >= 1")
        rem = S.k * S.eps**S.p - np.sum(rest**S.p)
        if rem < 0:
            return []
        h = rem ** (1.0 / S.p)
        return [(-h, h)]
    raise ValueError(f"line_interval unsupported for variant {S.variant}")


def classify_set(S):
    """Squared-coordinate convexity verdict for a set family member."""
    if S.variant in ("pball", "pqball"):
        # a p-ball is the (p,0)-ball; the Euclidean ball is both characters
        # at once, and spherical flags it
        char = classify_mean(MeanSpec(MeanKind.PQ_MEAN, S.p,
                                      S.q if S.variant == "pqball" else 0.0))
        if char.spherical:
            return SchurCharacter(Schur2Value.SCHUR2_CONCAVE, spherical=True)
        return char
    if S.variant == "hatb":
        if S.p >= 2.0:
            return SchurCharacter(Schur2Value.SCHUR2_CONVEX)
        return SchurCharacter(Schur2Value.NEITHER_KNOWN)
    if S.variant == "checkb":
        if 1.0 <= S.p <= 2.0:
            return SchurCharacter(Schur2Value.SCHUR2_CONCAVE)
        return SchurCharacter(Schur2Value.NEITHER_KNOWN)
    if S.variant == "cube":
        return SchurCharacter(Schur2Value.SCHUR2_CONVEX)
    if S.variant == "complement":
        inner = classify_set(S.inner)
        flip = {
            Schur2Value.SCHUR2_CONCAVE: Schur2Value.SCHUR2_CONVEX,
            Schur2Value.SCHUR2_CONVEX: Schur2Value.SCHUR2_CONCAVE,
            Schur2Value.NEITHER_KNOWN: Schur2Value.NEITHER_KNOWN,
        }[inner.value]
        return SchurCharacter(flip, spherical=inner.spherical)
    raise ValueError(f"unknown variant {S.variant}")


_FIELD_RE = re.compile(r"^\s*([a-z]+)\s*:\s*(.*)$")


def _fmt(x):
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return repr(float(x))


def format_set(S):
    """Canonical textual form, e.g. 'pball:p=2.0,eps=1.0'."""
    if S.variant == "complement":
        return f"complement({format_set(S.inner)})"
    if S.variant == "pball":
        return f"pball:p={_fmt(S.p)},eps={_fmt(S.eps)}"
    if S.variant == "pqball":
        return f"pqball:p={_fmt(S.p)},q={_fmt(S.q)},eps={_fmt(S.eps)}"
    if S.variant == "hatb":
        return f"hatb:p={_fmt(S.p)},a={_fmt(S.a)},eps={_fmt(S.eps)}"
    if S.variant == "checkb":
        return f"checkb:p={_fmt(S.p)},a={_fmt(S.a)},eps={_fmt(S.eps)}"
    if S.variant == "cube":
        return f"cube:a={_fmt(S.a)}"
    raise ValueError(f"unknown variant {S.variant}")


def parse_set(text, k):
    """Parse the canonical textual form into a SetSpec of dimension k."""
    text = text.strip()
    if text.startswith("complement(") and text.endswith(")"):
        return complement(parse_set(text[len("complement("):-1], k))
    m = _FIELD_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse set spec {text!r}")
    variant, rest = m.group(1), m.group(2)
    fields = {}
    for item in rest.split(","):
        if not item.strip():
            continue
        key, _, val = item.partition("=")
        fields[key.strip()] = float(val)
    try:
        if variant == "pball":
            return p_ball(k, fields["p"], fields["eps"])
        if variant == "pqball":
            return pq_ball(k, fields["p"], fields["q"], fields["eps"])
        if variant == "hatb":
            return hat_b(k, fields["p"], fields["a"], fields["eps"])
        if variant == "checkb":
            return check_b(k, fields["p"], fields["a"], fields["eps"])
        if variant == "cube":
            return cube(k, fields["a"])
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in set spec {text!r}") from None
    raise ValueError(f"unknown set variant {variant!r}")
