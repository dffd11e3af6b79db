"""Symbolic set families: sublevel sets of the p- and (p,q)-means, the
orbit-union sets hat-B (balls around the diagonal points a*g*1) and check-B
(balls around the axis points +-a*e_i), cubes, and single complements. A
set has one stored form however it is written: a cube {max_j |x_j| <= a} is
p_ball(k, inf, a), a (p,q)-ball p_ball(k, inf, eps) if its larger exponent is
+inf, else p_ball(k, -inf, eps) if its smaller one is -inf, and hat-B and
check-B at a = 0 are p_ball(k, p, eps). At k = 1 each set keeps its spelling:
it is the slab or slab pair ||x| - a| <= eps (a = 0 for a ball).

Membership is exact and vectorized; a point on the defining boundary is a
member (the sets are closed). Every member passes its family's outer bound
(~2 ns/row): (p,q)-means lie between min_j |x_j| and max_j |x_j| and rise
with q, so p- and pq-balls lie in {min_j |x_j| <= eps} and, for q >= 0 and
k^(1/p) <= 1e6, in {max_j |x_j| <= k^(1/p) eps}; hat-B and check-B lie in
{max_j |x_j| <= a + k^(1/p) eps}. A ball with an infinite exponent is its own.
"""

import math
import re
from dataclasses import dataclass, replace

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
    "scale",
    "classify_set",
    "parse_set",
    "format_set",
]


@dataclass(frozen=True)
class SetSpec:
    variant: str  # pball | pqball | hatb | checkb | complement (module doc)
    k: int
    p: float = None
    q: float = None
    a: float = None
    eps: float = None
    inner: "SetSpec" = None


def _spec(variant, k, **fields):
    """A SetSpec of dimension k >= 1 whose exponents are not NaN and whose
    lengths are finite, with eps > 0 and a >= 0, checked as spelled and
    stored in its one form (module docstring)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if any(math.isnan(fields[n]) for n in ("p", "q") if n in fields):
        raise ValueError("exponents p and q must not be NaN")
    if not all(math.isfinite(fields[n]) for n in ("a", "eps") if n in fields):
        raise ValueError("a and eps must be finite")
    if fields.get("eps", 1.0) <= 0 or fields.get("a", 0.0) < 0:
        raise ValueError("need eps > 0 and a >= 0")
    # hat-B and check-B match signs (p >= 1); at p = inf eps would drop out
    if variant in ("hatb", "checkb") and not 1 <= fields["p"] < math.inf:
        raise ValueError(f"{variant} membership requires 1 <= p < inf")
    f = {n: float(v) for n, v in fields.items()}
    if variant == "cube":
        f["p"], f["eps"] = math.inf, f["a"]
    elif variant == "pqball" and max(f["p"], -f["q"]) == math.inf:
        f["p"] = f["p"] if f["p"] == math.inf else f["q"]
    elif f.get("a") != 0.0:
        return SetSpec(variant, k, **f)
    return SetSpec("pball", k, p=f["p"], eps=f["eps"])


def p_ball(k, p, eps):
    return _spec("pball", k, p=p, eps=eps)


def pq_ball(k, p, q, eps):
    if p < q:
        p, q = q, p
    return _spec("pqball", k, p=p, q=q, eps=eps)


def hat_b(k, p, a, eps):
    return _spec("hatb", k, p=p, a=a, eps=eps)


def check_b(k, p, a, eps):
    return _spec("checkb", k, p=p, a=a, eps=eps)


def cube(k, a):
    return _spec("cube", k, a=a)


def complement(S):
    if S.variant == "complement":
        return S.inner  # double complement collapses
    return SetSpec("complement", S.k, inner=S)


def scale(S, f):
    """The set f * S for f > 0. Every family is closed under scaling: only
    its lengths a and eps change."""
    if S.variant == "complement":
        return replace(S, inner=scale(S.inner, f))
    a, eps = (None if x is None else x * f for x in (S.a, S.eps))
    return replace(S, a=a, eps=eps)


def bounded_root(k, p):
    """Whether p > 0 and k^(1/p) <= 1e6. Past it the radial interpolants on
    [0, k^(1/p) eps] stop resolving (k = 6, p = 0.1 read 1), then overflow."""
    return p > math.log(k) / math.log(1e6)


def _outer_bound(S, A):
    """Which columns of the (k, n) magnitudes A pass S's outer bound."""
    up = 1.0 + 1e-6  # no kernel rounding puts a member outside the bound
    root = S.k ** (1.0 / S.p) if bounded_root(S.k, S.p) else math.inf
    if S.variant in ("hatb", "checkb"):
        return (A <= (S.a + root * S.eps) * up).all(axis=0)
    inside = (A <= S.eps * up).any(axis=0)
    if root < math.inf and (S.q or 0.0) >= 0.0:  # M_{p,q} >= M_{p,0}
        inside &= (A <= root * S.eps * up).all(axis=0)
    return inside


def _kernel(S, X):
    """Membership of the rows of X, shape (n, k)."""
    if S.variant in ("pball", "pqball"):  # a p-ball is the (p,0)-ball
        return pq_mean_rows(X, S.p, S.q or 0.0) <= S.eps
    A = np.abs(X.T, order="C")
    # powers of magnitudes over eps: no verdict rests on an underflow, and
    # an overflow is an inf above k all the same. A is this call's own array,
    # so D = (||x| - a| / eps)^p takes its place and allocates nothing
    with np.errstate(over="ignore"):
        if S.variant == "checkb":  # a term capped at 2k fails: no inf - inf
            Ap = np.minimum((A / S.eps) ** S.p, 2.0 * S.k)
        D = np.abs(np.subtract(A, S.a, out=A), out=A)
        D /= S.eps
        D **= S.p
        if S.variant == "hatb":
            # union over the group orbit of a*1: best center matches the
            # signs of x coordinatewise, leaving sum ||x_j| - a|^p <= k eps^p
            return np.sum(D, axis=0) <= S.k
        if S.variant == "checkb":
            # best center among +-a*e_i matches the sign of x_i; try every axis
            D += np.subtract(Ap.sum(axis=0), Ap, out=Ap)
            return D.min(axis=0) <= S.k
    raise ValueError(f"unknown variant {S.variant}")


def contains_rows(S, X):
    """Vectorized membership: X of shape (n, k) -> bool array (n,). Kernels
    reduce over the coordinates as the rows of a (k, n) array. Rows outside
    the outer bound are non-members: when fewer than half of every 16th row
    pass it, the kernel runs on the passing rows alone. Those fail the kernel
    too and no verdict depends on the rest of its batch, so every bit is
    kept. A single point skips the bound, which would cost a fifth of its
    kernel."""
    X = np.asarray(X, dtype=float)
    if X.ndim < 2:  # cheaper than np.atleast_2d on the single-point path
        X = X.reshape(1, -1)
    if X.shape[1] != S.k:
        raise ValueError(f"dimension mismatch: set k={S.k}, points k={X.shape[1]}")
    if S.variant == "complement":
        return ~contains_rows(S.inner, X)
    if X.shape[0] > 1 and math.isfinite(S.p):  # p = +-inf: its own bound
        probe = _outer_bound(S, np.abs(X[::16].T, order="C"))
        if 2 * np.count_nonzero(probe) < probe.size:
            A = np.abs(X.T, order="C")
            inside = _outer_bound(S, A)
            if inside.any():
                inside[inside] = _kernel(S, A[:, inside].T)
            return inside
    return _kernel(S, X)


def contains(S, x):
    """Exact membership of a single point."""
    return bool(contains_rows(S, x)[0])


def classify_set(S):
    """Squared-coordinate convexity verdict for a set family member. The
    Euclidean ball is both characters at once, and spherical flags it; so is
    every set at k = 1, a symmetric slab or slab pair."""
    C, X, N = (Schur2Value.SCHUR2_CONCAVE, Schur2Value.SCHUR2_CONVEX,
               Schur2Value.NEITHER_KNOWN)
    if S.variant == "complement":
        inner = classify_set(S.inner)
        return SchurCharacter({C: X, X: C}.get(inner.value, inner.value),
                              spherical=inner.spherical)
    if S.k == 1:
        return SchurCharacter(C, spherical=True)
    if S.variant in ("pball", "pqball"):  # a p-ball is the (p,0)-ball
        char = classify_mean(MeanSpec(MeanKind.PQ_MEAN, S.p, S.q or 0.0))
        return SchurCharacter(C, spherical=True) if char.spherical else char
    if S.variant == "hatb":
        return SchurCharacter(X if S.p >= 2.0 else N)
    if S.variant == "checkb":  # _spec holds 1 <= p < inf
        return SchurCharacter(C if S.p <= 2.0 else N)
    raise ValueError(f"unknown variant {S.variant}")


_FIELD_RE = re.compile(r"^\s*([a-z]+)\s*:\s*(.*)$")

# textual fields of each family, in canonical order, and its constructor
_FAMILIES = {
    "pball": (("p", "eps"), p_ball),
    "pqball": (("p", "q", "eps"), pq_ball),
    "hatb": (("p", "a", "eps"), hat_b),
    "checkb": (("p", "a", "eps"), check_b),
    "cube": (("a",), cube),
}


def format_set(S):
    """Canonical textual form, e.g. 'pball:p=2.0,eps=1.0'."""
    if S.variant == "complement":
        return f"complement({format_set(S.inner)})"
    if S.eps == 0.0:  # cube(k, 0), which no p-ball spells
        return "cube:a=0.0"
    names = _FAMILIES[S.variant][0]
    return S.variant + ":" + ",".join(f"{n}={float(getattr(S, n))!r}"
                                      for n in names)


def parse_set(text, k):
    """Parse the canonical textual form into a SetSpec of dimension k."""
    text = text.strip()
    if text.startswith("complement(") and text.endswith(")"):
        return complement(parse_set(text[len("complement("):-1], k))
    m = _FIELD_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse set spec {text!r}")
    variant, rest = m.group(1), m.group(2)
    if variant not in _FAMILIES:
        raise ValueError(f"unknown set variant {variant!r}")
    names, make = _FAMILIES[variant]
    fields = {}
    for item in rest.split(","):
        if not item.strip():
            continue
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in names or key in fields:
            raise ValueError(f"unknown or repeated field {key!r} in {text!r}")
        fields[key] = float(val)
    if len(fields) < len(names):
        raise ValueError(f"set spec {text!r} needs the fields {names}")
    return make(k, *(fields[n] for n in names))
