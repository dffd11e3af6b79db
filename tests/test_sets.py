import math

import numpy as np
import pytest

from schur2 import sets as sets_mod
from schur2.means import Schur2Value, SchurCharacter, p_mean, pq_mean
from schur2.sets import (check_b, classify_set, complement, contains,
                         contains_rows, cube, format_set, hat_b, parse_set,
                         p_ball, pq_ball, scale)


def test_pball_membership_matches_mean():
    rng = np.random.default_rng(0)
    for p in (-math.inf, -1.0, 0.0, 1.0, 2.0, 3.0, math.inf):
        S = p_ball(3, p, 1.2)
        x = rng.standard_normal((200, 3)) * 2
        got = contains_rows(S, x)
        want = np.array([p_mean(r, p) <= 1.2 for r in x])
        assert np.array_equal(got, want)


def test_pqball_membership_matches_mean():
    rng = np.random.default_rng(1)
    S = pq_ball(2, 2.0, -0.4, 1.0)
    x = rng.standard_normal((500, 2)) * 3
    got = contains_rows(S, x)
    want = np.array([pq_mean(r, 2.0, -0.4) <= 1.0 for r in x])
    assert np.array_equal(got, want)
    # the coordinate axes lie inside when q < 0
    assert contains(S, [7.3, 0.0]) and contains(S, [0.0, -40.0])
    # the (p,q)-mean is symmetric in (p,q): the constructor sorts them
    assert pq_ball(2, -0.4, 2.0, 1.0) == S and (S.p, S.q) == (2.0, -0.4)


def test_cube_and_complement():
    S = cube(2, 1.0)
    assert contains(S, [0.5, -1.0]) and not contains(S, [1.0001, 0.0])
    C = complement(S)
    assert contains(C, [1.0001, 0.0]) and not contains(C, [0.5, -1.0])
    assert complement(C) == S  # double complement collapses


def test_hat_and_check_membership_against_orbit_union():
    # oracle: explicit union over the 8 group images at k = 2
    rng = np.random.default_rng(2)
    a, eps, p = 1.0, 0.55, 1.5
    H = hat_b(2, p, a, eps)
    V = check_b(2, p, a, eps)
    centers_hat = [np.array([sa * a, sb * a]) for sa in (-1, 1) for sb in (-1, 1)]
    centers_chk = [np.array(c) for c in
                   [(a, 0), (-a, 0), (0, a), (0, -a)]]
    x = rng.standard_normal((400, 2)) * 2
    for r in x:
        want_h = any(p_mean(r - c, p) <= eps for c in centers_hat)
        want_v = any(p_mean(r - c, p) <= eps for c in centers_chk)
        assert contains(H, r) == want_h
        assert contains(V, r) == want_v


@pytest.mark.parametrize("S, x, member", [
    (hat_b(2, 4.5, 1e-200, 1e-200), (5e-200, 5e-200), False),  # 0 <= 0 once
    (check_b(2, 2.0, 1e160, 1e159), (1e160, 0.5), True),  # inf - inf once
    (check_b(3, 2.0, 1e200, 1.0), (1e200, 0.3, -0.2), True),
    (check_b(3, 2.0, 1e200, 1.0), (1e200, 1e200, 0.0), False),
])
def test_orbit_sets_at_extreme_scales(S, x, member):
    # hat-B and check-B take powers of magnitudes over eps, so neither an
    # underflow nor an overflow decides a verdict, one point or a batch
    assert contains(S, x) is member
    assert (contains_rows(S, np.tile(x, (64, 1))) == member).all()


def test_gk_invariance_of_membership():
    rng = np.random.default_rng(3)
    sets = [p_ball(3, 1.0, 1.0), pq_ball(3, 5.0, -1.0, 1.0),
            hat_b(3, 2.0, 1.0, 0.5), check_b(3, 1.5, 1.0, 0.5),
            cube(3, 1.0), complement(p_ball(3, 3.0, 1.0))]
    x = rng.standard_normal((100, 3)) * 2
    for S in sets:
        base = contains_rows(S, x)
        for _ in range(5):
            perm = rng.permutation(3)
            signs = rng.integers(0, 2, 3) * 2 - 1
            assert np.array_equal(contains_rows(S, signs * x[:, perm]), base)


def test_scale_matches_scaled_membership():
    rng = np.random.default_rng(4)
    sets = [p_ball(3, 0.0, 1.0), pq_ball(3, 2.0, -0.4, 1.0),
            hat_b(3, 2.0, 1.0, 0.5), check_b(3, 1.5, 1.0, 0.5), cube(3, 1.0),
            complement(p_ball(3, 3.0, 1.0))]
    x = rng.standard_normal((200, 3)) * 2
    for S in sets:
        # multiplying by a power of two is exact, so memberships agree
        assert np.array_equal(contains_rows(scale(S, 4.0), 4.0 * x),
                              contains_rows(S, x))
    assert scale(p_ball(2, 2.0, 1.5), 1.0) == p_ball(2, 2.0, 1.5)


def test_every_k1_set_is_spherical():
    # at k = 1 every set is a symmetric slab or slab pair, so each spelling
    # takes the Euclidean ball's class, and its complement the flipped one
    C, X = Schur2Value.SCHUR2_CONCAVE, Schur2Value.SCHUR2_CONVEX
    sets = ([p_ball(1, p, 1.0) for p in (-math.inf, -1.0, 0.0, 1.0, 2.0, 3.0,
                                         math.inf)]
            + [pq_ball(1, p, q, 1.0) for p, q in [(2.0, -0.4), (5.0, -1.0),
                                                  (0.7, 0.7), (5.0, 1.0)]]
            + [cube(1, 1.0)]
            + [make(1, p, a, 0.5) for make in (hat_b, check_b)
               for p in (1.0, 1.5, 2.0, 4.5) for a in (0.3, 1.0)])
    for S in sets:
        assert classify_set(S) == SchurCharacter(C, spherical=True)
        assert classify_set(complement(S)) == SchurCharacter(X, spherical=True)
    # the same set at k = 1, and at k = 2 the classes that differ
    assert classify_set(hat_b(1, 2.0, 1.0, 0.5)) == classify_set(
        check_b(1, 2.0, 1.0, 0.5))
    assert classify_set(hat_b(2, 2.0, 1.0, 0.5)).value == X
    assert not classify_set(p_ball(2, 1.0, 1.0)).spherical


def test_classification_table():
    C, X, N = (Schur2Value.SCHUR2_CONCAVE, Schur2Value.SCHUR2_CONVEX,
               Schur2Value.NEITHER_KNOWN)
    assert classify_set(p_ball(2, 1.0, 1.0)).value == C
    assert classify_set(p_ball(2, 3.0, 1.0)).value == X
    c2 = classify_set(p_ball(2, 2.0, 1.0))
    assert c2.value == C and c2.spherical
    assert classify_set(complement(p_ball(2, 2.0, 1.0))).value == X
    assert classify_set(pq_ball(2, 2.0, -0.4, 1.0)).value == C
    assert classify_set(pq_ball(2, 5.0, 1.0, 1.0)).value == X
    assert classify_set(pq_ball(2, 5.0, -1.0, 1.0)).value == N
    assert classify_set(pq_ball(2, 0.7, 0.7, 1.0)).value == N
    assert classify_set(hat_b(2, 4.5, 1.0, 0.9)).value == X
    assert classify_set(hat_b(2, 1.5, 1.0, 0.9)).value == N
    assert classify_set(check_b(2, 1.5, 1.0, 0.45)).value == C
    assert classify_set(check_b(2, 3.0, 1.0, 0.45)).value == N
    assert classify_set(cube(2, 1.0)).value == X
    assert classify_set(complement(cube(2, 1.0))).value == C


def test_infinite_exponent_balls_classify_like_their_twins():
    # a larger exponent +inf makes max_j |x_j| (the cube), else a smaller
    # exponent -inf makes min_j |x_j| (the slab union, p_ball at -inf)
    for k in (2, 3):
        for p, q in [(math.inf, -0.4), (math.inf, 3.0), (math.inf, -math.inf),
                     (math.inf, math.inf), (5.0, -math.inf), (0.0, -math.inf),
                     (-math.inf, -math.inf)]:
            S = pq_ball(k, p, q, 1.0)
            twin = (cube(k, 1.0) if max(p, q) == math.inf
                    else p_ball(k, -math.inf, 1.0))
            assert classify_set(S) == classify_set(twin)
            assert classify_set(complement(S)) == classify_set(complement(twin))
            assert classify_set(S).value != Schur2Value.NEITHER_KNOWN


def test_classification_agrees_with_membership_sampling():
    # closed-downward in the squared majorization order for convex sets,
    # closed-upward for concave ones
    rng = np.random.default_rng(5)
    sets = [p_ball(3, 1.0, 1.0), p_ball(3, 3.0, 1.0), cube(3, 1.0),
            pq_ball(3, 2.0, -0.4, 1.0), complement(cube(3, 1.0))]
    for S in sets:
        char = classify_set(S)
        for _ in range(300):
            sq = np.sort(rng.random(3) * 4)[::-1]
            hi = sq.copy()
            d = rng.random() * hi[1]
            hi[0] += d
            hi[1] -= d  # hi majorizes sq
            in_lo = contains(S, np.sqrt(sq))
            in_hi = contains(S, np.sqrt(hi))
            if char.value == Schur2Value.SCHUR2_CONVEX and in_hi:
                assert in_lo
            if char.value == Schur2Value.SCHUR2_CONCAVE and in_lo:
                assert in_hi


def test_neither_sets_show_violations_both_ways():
    rng = np.random.default_rng(6)
    for S in [pq_ball(2, 5.0, -1.0, 1.0), pq_ball(2, 0.7, 0.7, 1.0)]:
        down_violation = up_violation = False
        for _ in range(100_000):
            sq = np.sort(rng.random(2) * 4)[::-1]
            hi = sq.copy()
            d = rng.random() * hi[1]
            hi[0] += d
            hi[1] -= d
            in_lo = contains(S, np.sqrt(sq))
            in_hi = contains(S, np.sqrt(hi))
            if in_hi and not in_lo:
                down_violation = True
            if in_lo and not in_hi:
                up_violation = True
            if down_violation and up_violation:
                break
        assert down_violation and up_violation


def test_format_parse_round_trip():
    sets = [p_ball(2, 2.0, 1.0), p_ball(3, math.inf, 0.5),
            p_ball(2, -math.inf, 1.0), pq_ball(2, 2.0, -0.4, 1.0), hat_b(2, 4.5, 1.0, 0.9),
            check_b(2, 1.5, 1.0, 0.45), cube(2, 1.0), cube(2, 0.0),
            complement(pq_ball(2, 5.0, -1.0, 1.0))]
    for S in sets:
        assert parse_set(format_set(S), S.k) == S
    assert format_set(p_ball(2, -math.inf, 1.0)) == "pball:p=-inf,eps=1.0"
    # every spelling parses; a set prints in its one stored form
    for text, form in [("cube:a=1", "pball:p=inf,eps=1.0"),
                       ("pqball:p=inf,q=-0.4,eps=1", "pball:p=inf,eps=1.0"),
                       ("pqball:p=2,q=-inf,eps=1", "pball:p=-inf,eps=1.0"),
                       ("hatb:p=1.5,a=0,eps=1", "pball:p=1.5,eps=1.0"),
                       ("checkb:p=3,a=-0,eps=1", "pball:p=3.0,eps=1.0")]:
        assert format_set(parse_set(text, 3)) == form


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_set("blob:p=1", 2)
    with pytest.raises(ValueError):
        parse_set("pball:p=1", 2)  # missing eps
    with pytest.raises(ValueError):
        parse_set("pball:p=2,eps=1,q=3", 2)  # a field the family lacks
    with pytest.raises(ValueError):
        parse_set("pball:p=2,eps=1,eps=5", 2)  # a repeated field


@pytest.mark.parametrize("make", [
    lambda: p_ball(2, math.nan, 1.0),
    lambda: pq_ball(2, 2.0, math.nan, 1.0),
    lambda: p_ball(2, 2.0, math.nan),
    lambda: p_ball(2, 2.0, math.inf),
    lambda: hat_b(2, 2.0, math.inf, 1.0),
    lambda: check_b(2, 2.0, 1.0, math.nan),
    lambda: cube(2, math.nan),
    # at p = inf the power sums of hat-B and check-B lose eps
    lambda: hat_b(2, math.inf, 1.0, 0.5),
    lambda: check_b(2, math.inf, 1.0, 0.5),
    # a set needs at least one coordinate
    lambda: cube(0, 1.0),
    lambda: p_ball(0, 2.0, 1.0),
])
def test_constructors_reject_nan_and_infinite_lengths(make):
    with pytest.raises(ValueError):
        make()


def test_constructors_keep_infinite_exponents():
    assert p_ball(2, -math.inf, 1.0).p == -math.inf
    assert pq_ball(2, math.inf, 1.0, 1.0).p == math.inf


def _layout_batch(k):
    """Random rows plus rows on set boundaries, with zero coordinates and an
    all-zero row."""
    special = {2: [[1.0, 1.0], [-1.0, 1.0], [2.0, 0.0], [2.0, -1.0],
                   [0.0, -0.5], [1.0, 0.5], [0.0, 0.0]],
               3: [[1.0, 1.0, 1.0], [-1.0, 1.0, -1.0], [2.0, 1.0, 1.0],
                   [2.0, 1.0, 0.0], [0.0, -0.5, 0.0], [1.0, 0.5, -0.2],
                   [0.0, 0.0, 0.0]]}[k]
    rng = np.random.default_rng(7 + k)
    R = 1.5 * rng.standard_normal((400, k))
    R[rng.random(R.shape) < 0.05] = 0.0
    return np.vstack([special, R])


@pytest.mark.parametrize("k", [2, 3])
def test_membership_is_independent_of_layout(k):
    # a C-contiguous batch, the transposed view of a coordinate-major buffer
    # and a strided row slice hold the same points and give the same result
    X = _layout_batch(k)
    transposed = np.ascontiguousarray(X.T).T
    wide = np.zeros((2 * X.shape[0], k + 2))
    wide[::2, 1:k + 1] = X
    strided = wide[::2, 1:k + 1]
    assert not (transposed.flags.c_contiguous or strided.flags.c_contiguous)
    sets = [p_ball(k, 2.0, 1.0), p_ball(k, 0.0, 1.0), p_ball(k, -1.0, 1.0),
            pq_ball(k, 2.0, -0.4, 1.0), pq_ball(k, 0.7, 0.7, 1.0),
            pq_ball(k, 1.0, 0.0, 1.0), hat_b(k, 2.0, 1.0, 1.0),
            hat_b(k, 4.5, 1.0, 0.9), check_b(k, 2.0, 1.0, 1.0),
            check_b(k, 1.5, 1.0, 0.45), cube(k, 1.0),
            complement(check_b(k, 2.0, 1.0, 1.0)), complement(cube(k, 1.0))]
    for S in sets:
        want = contains_rows(S, np.ascontiguousarray(X))
        assert want.shape == (X.shape[0],)
        for Y in (transposed, strided):
            np.testing.assert_array_equal(contains_rows(S, Y), want)
        np.testing.assert_array_equal([contains(S, x) for x in X], want)
    # rows on a boundary are members: the sets are closed
    on_boundary = {p_ball(k, 2.0, 1.0): np.ones(k),
                   pq_ball(k, 2.0, -0.4, 1.0): np.ones(k),
                   hat_b(k, 2.0, 1.0, 1.0): np.zeros(k),
                   check_b(k, 2.0, 1.0, 1.0): np.r_[2.0, np.ones(k - 1)],
                   cube(k, 1.0): np.r_[1.0, 0.5 * np.ones(k - 1)]}
    for S, x in on_boundary.items():
        for Y in (x[None, :], np.ascontiguousarray(x[:, None]).T):
            assert contains_rows(S, Y)[0]


def _bound_families(k):
    inner = [p_ball(k, p, 1.0) for p in (-math.inf, -1.0, 0.0, 0.5, 2.0,
                                         math.inf)]
    inner += [pq_ball(k, p, q, 1.0) for p, q in
              ((2.0, -0.4), (1.0, 0.0), (0.7, 0.7), (5.0, 1.0), (0.0, -1.0))]
    inner += [hat_b(k, 2.0, 1.0, 0.6), hat_b(k, 4.5, 1.0, 0.9),
              check_b(k, 1.5, 1.0, 0.45), check_b(k, 2.0, 1.0, 1.0),
              cube(k, 1.0)]
    return inner + [complement(S) for S in inner]


def _bound_batches(S, k, rng):
    """Normal draws at zero, near and far shifts, the same rows scaled onto
    the set's boundary, zero coordinates, all-zero rows and magnitudes from
    1e-200 to 1e200."""
    Z = rng.standard_normal((600, k))
    batches = [Z + r * rng.standard_normal(k) for r in (0.0, 1.5, 8.0)]
    T = S.inner if S.variant == "complement" else S
    if T.variant in ("pball", "pqball"):
        m = sets_mod.pq_mean_rows(Z, T.p, T.q or 0.0)
        ok = (m > 0) & np.isfinite(m)
        batches.append(Z[ok] * (T.eps / m[ok])[:, None])
    else:
        # a point on the sphere ||x - c||_p = k^(1/p) eps around a center c
        d = Z / np.sum(np.abs(Z) ** T.p, axis=1, keepdims=True) ** (1 / T.p)
        c = np.full(k, T.a) if T.variant == "hatb" else np.eye(k)[0] * T.a
        batches.append(c + d * k ** (1 / T.p) * T.eps)
    W = batches[0].copy()
    W[rng.random(W.shape) < 0.3] = 0.0
    W[::7] = 0.0
    mags = 10.0 ** rng.uniform(-200, 200, size=(600, 1))
    return batches + [W, Z * mags, np.abs(Z) * mags]


@pytest.mark.parametrize("k", [2, 3, 6])
def test_outer_bound_keeps_membership(k):
    # contains_rows, which skips the kernel outside the outer bound, gives
    # the bare kernel's verdict on every row, and every member passes the
    # bound of its family
    rng = np.random.default_rng(40 + k)
    for S in _bound_families(k):
        T, flip = (S.inner, True) if S.variant == "complement" else (S, False)
        for X in _bound_batches(S, k, rng):
            with np.errstate(all="ignore"):
                bare = sets_mod._kernel(T, np.abs(X.T, order="C")) ^ flip
                got = contains_rows(S, X)
            np.testing.assert_array_equal(got, bare, err_msg=format_set(S))
            members = X[bare ^ flip]
            if math.isfinite(T.p):  # p = +-inf: its own bound
                assert sets_mod._outer_bound(T, np.abs(members.T)).all(), S


def test_outer_bound_spares_the_kernel(monkeypatch):
    # far from a pq-ball most rows fail the bound, and the mean kernel sees
    # only the rows that pass it
    S = pq_ball(3, 2.0, -0.4, 1.0)
    X = 4.0 * np.random.default_rng(9).standard_normal((4096, 3)) + 6.0
    want = contains_rows(S, X)
    seen = []
    kernel = sets_mod.pq_mean_mags

    def counted(A, p, q):
        seen.append(A.shape[1])
        return kernel(A, p, q)

    monkeypatch.setattr(sets_mod, "pq_mean_mags", counted)
    np.testing.assert_array_equal(contains_rows(S, X), want)
    assert want.any() and 0 < sum(seen) < len(X)


@pytest.mark.parametrize("k", [2, 3])
def test_membership_keeps_its_rows_and_its_results(k):
    # the kernels overwrite only the magnitudes contains_rows lays out: the
    # rows passed in keep their bits near and far (the outer bound's subset
    # path), as a transposed view and as single points, and a result keeps
    # its bits after a call on other rows
    rng = np.random.default_rng(60 + k)
    near = 1.5 * rng.standard_normal((600, k))
    far = near + 8.0
    for S in _bound_families(k):
        for X in (near, far, np.ascontiguousarray(far.T).T, near[3], far[:1]):
            before = X.copy()
            with np.errstate(all="ignore"):
                got = contains_rows(S, X)
                kept = got.copy()
                contains_rows(S, np.atleast_2d(X)[::-1] * -0.5)
            assert X.tobytes() == before.tobytes(), format_set(S)
            np.testing.assert_array_equal(got, kept, err_msg=format_set(S))
