import itertools
import math

import numpy as np
import pytest

from schur2.means import (MeanKind, MeanSpec, Schur2Value, Tail,
                          classify_mean, p_mean, p_mean_rows, pq_mean,
                          pq_mean_rows, schur_ostrowski_sign, truncated_mean)


def naive_p_mean(x, p):
    """Direct textbook formula, safe only away from the limit cases."""
    x = np.abs(np.asarray(x, float))
    return (np.mean(x ** p)) ** (1.0 / p)


def test_p_mean_matches_naive_formula():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.random(4) + 0.1
        for p in (-3.0, -1.0, 0.5, 1.0, 2.0, 3.0, 7.5):
            assert p_mean(x, p) == pytest.approx(naive_p_mean(x, p), rel=1e-12)


def test_p_mean_limit_cases():
    x = np.array([0.5, 2.0, 1.0])
    assert p_mean(x, math.inf) == 2.0
    assert p_mean(x, -math.inf) == 0.5
    assert p_mean(x, 0.0) == pytest.approx(np.exp(np.mean(np.log(x))), rel=1e-14)
    # any zero coordinate kills every p <= 0 mean
    assert p_mean([0.0, 1.0], -1.0) == 0.0
    assert p_mean([0.0, 1.0], 0.0) == 0.0
    assert p_mean([0.0, 1.0], -math.inf) == 0.0


def test_p_mean_extreme_p_is_stable():
    # large |p| must not overflow: factor out the max/min coordinate
    x = np.array([3.0, 4.0])
    assert p_mean(x, 400.0) == pytest.approx(4.0 * (0.5 * (1 + (3 / 4) ** 400)) ** (1 / 400.0), rel=1e-12)
    assert np.isfinite(p_mean(x, 1e4))
    assert p_mean(x, 1e4) == pytest.approx(4.0, rel=1e-3)
    assert p_mean(x, -1e4) == pytest.approx(3.0, rel=1e-3)


def test_p_mean_monotone_in_p():
    rng = np.random.default_rng(1)
    ps = [-math.inf, -5, -1, 0, 0.5, 1, 2, 5, math.inf]
    for _ in range(20):
        x = rng.random(5) + 0.01
        vals = [p_mean(x, p) for p in ps]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_truncated_mean():
    x = np.array([1.0, 5.0, 2.0, 4.0])
    # mean of the two largest / two smallest absolute values, p = 1
    assert truncated_mean(x, 2, Tail.LARGEST, 1.0) == pytest.approx(4.5)
    assert truncated_mean(x, 2, Tail.SMALLEST, 1.0) == pytest.approx(1.5)
    assert truncated_mean(x, 2, Tail.LARGEST, math.inf) == 5.0


def test_pq_mean_reduces_to_p_mean():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.random(4) + 0.1
        for p in (0.5, 1.0, 2.0, 5.0):
            assert pq_mean(x, p, 0.0) == pytest.approx(p_mean(x, p), rel=1e-12)


def test_pq_mean_direct_formula():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = np.abs(rng.standard_normal(4)) + 0.1
        for p, q in [(2.0, -0.4), (5.0, -1.0), (2.0, 1.0), (0.7, 0.3)]:
            direct = (np.sum(x ** p) / np.sum(x ** q)) ** (1.0 / (p - q))
            assert pq_mean(x, p, q) == pytest.approx(direct, rel=1e-11)


def test_pq_mean_equal_parameters():
    # p = q: weighted geometric mean with self-normalized weights
    x = np.array([1.0, 2.0, 4.0])
    p = 0.7
    w = x ** p / np.sum(x ** p)
    assert pq_mean(x, p, p) == pytest.approx(np.prod(x ** w), rel=1e-12)


def test_pq_mean_zero_coordinate_with_negative_q():
    # the axes belong to the sublevel sets when q < 0
    assert pq_mean([0.0, 3.0], 2.0, -0.4) == 0.0
    assert pq_mean([0.0, 0.0, 1.0], 5.0, -1.0) == 0.0


def test_pq_mean_infinite_parameters():
    x = np.array([0.5, 2.0, 1.0])
    assert pq_mean(x, math.inf, 1.0) == 2.0
    assert pq_mean(x, 2.0, -math.inf) == 0.5


def test_pq_mean_is_continuous_at_q_zero():
    x = np.array([0.4, 1.3, 2.2])
    lim = pq_mean(x, 2.0, 1e-11)
    assert lim == pytest.approx(p_mean(x, 2.0), rel=1e-6)


def test_classify_mean():
    assert classify_mean(MeanSpec(MeanKind.P_MEAN, p=1.0)).value == Schur2Value.SCHUR2_CONCAVE
    assert classify_mean(MeanSpec(MeanKind.P_MEAN, p=3.0)).value == Schur2Value.SCHUR2_CONVEX
    c2 = classify_mean(MeanSpec(MeanKind.P_MEAN, p=2.0))
    assert c2.value == Schur2Value.SCHUR2_CONVEX and c2.spherical
    assert classify_mean(MeanSpec(MeanKind.PQ_MEAN, p=2.0, q=-0.4)).value == Schur2Value.SCHUR2_CONCAVE
    assert classify_mean(MeanSpec(MeanKind.PQ_MEAN, p=5.0, q=1.0)).value == Schur2Value.SCHUR2_CONVEX
    assert classify_mean(MeanSpec(MeanKind.PQ_MEAN, p=5.0, q=-1.0)).value == Schur2Value.NEITHER_KNOWN
    assert classify_mean(MeanSpec(MeanKind.PQ_MEAN, p=0.7, q=0.7)).value == Schur2Value.NEITHER_KNOWN


def test_truncated_mean_classification_vs_sampled_transfers():
    # a transfer between two squared coordinates toward the larger gives a
    # profile that majorizes the old: a Schur^2-convex mean never falls on
    # it, a Schur^2-concave one never rises, and at 1 < ell < k a mean of
    # neither character moves both ways (criterion 9 for the sets)
    rng = np.random.default_rng(9)
    n, k = 4000, 4
    rows = np.arange(n)
    lo = np.sort(rng.random((n, k)) * 6.0, axis=1)[:, ::-1]
    i, j = np.array(list(itertools.combinations(range(k), 2)))[
        rng.integers(0, 6, n)].T
    d = rng.random(n) * lo[rows, j]
    hi = lo.copy()
    hi[rows, i] += d
    hi[rows, j] -= d
    for ell, tail, p in itertools.product(
            range(1, k + 1), Tail, (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)):
        part = slice(None, ell) if tail is Tail.SMALLEST else slice(k - ell, None)
        f = lambda sq: p_mean_rows(np.sort(np.sqrt(sq), axis=1)[:, part], p)
        assert f(lo[:5]) == pytest.approx(
            [truncated_mean(np.sqrt(x), ell, tail, p) for x in lo[:5]])
        rise = f(hi) - f(lo)
        up, down = np.any(rise > 1e-12), np.any(rise < -1e-12)
        char = classify_mean(MeanSpec(MeanKind.TRUNCATED, p, ell=ell,
                                      tail=tail, k=k)).value
        # at ell = 1 the mean is min_j or max_j |x_j|, classified for every p
        if ell == 1:
            assert char is not Schur2Value.NEITHER_KNOWN
        if char is Schur2Value.SCHUR2_CONVEX:
            assert not down, (ell, tail, p)
        elif char is Schur2Value.SCHUR2_CONCAVE:
            assert not up, (ell, tail, p)
        else:
            assert up and down, (ell, tail, p)


def test_truncated_mean_of_every_coordinate_is_the_p_mean():
    # ell = k keeps every coordinate, so the mean classifies as the p-mean;
    # without k, ell = 4 could be a part of k = 5 coordinates
    C, X, N = (Schur2Value.SCHUR2_CONCAVE, Schur2Value.SCHUR2_CONVEX,
               Schur2Value.NEITHER_KNOWN)
    for p, tail in itertools.product((-1.0, 0.0, 1.0, 2.0, 3.0), Tail):
        assert (classify_mean(MeanSpec(MeanKind.TRUNCATED, p, ell=4,
                                       tail=tail, k=4))
                == classify_mean(MeanSpec(MeanKind.P_MEAN, p)))
    for p, tail, char in ((3.0, Tail.SMALLEST, X), (1.0, Tail.LARGEST, C)):
        assert classify_mean(MeanSpec(MeanKind.TRUNCATED, p, ell=4,
                                      tail=tail, k=4)).value is char
        assert classify_mean(MeanSpec(MeanKind.TRUNCATED, p, ell=4,
                                      tail=tail)).value is N


def test_mean_spec_sorts_its_exponents():
    # the (p,q)-mean is symmetric in (p,q): (0, 2) is the Euclidean (2, 0)
    spec = MeanSpec(MeanKind.PQ_MEAN, p=0.0, q=2.0)
    assert (spec.p, spec.q) == (2.0, 0.0)
    assert classify_mean(spec) == classify_mean(
        MeanSpec(MeanKind.PQ_MEAN, p=2.0, q=0.0))


def _sign_at(p, q, u):
    # evaluate the comparator with i the larger and j the smaller coordinate
    i, j = int(np.argmax(u)), int(np.argmin(u))
    return schur_ostrowski_sign(p, q, u, i, j)


def test_schur_ostrowski_sign_agrees_with_classification():
    # differential comparator on squared coordinates: a concave-classified
    # mean must never show a positive sign at u_i > u_j, and vice versa
    rng = np.random.default_rng(4)
    for p, q, expected in [(2.0, -0.4, -1), (5.0, 1.0, 1)]:
        signs = set()
        for _ in range(200):
            u = rng.random(3) + 1e-3
            signs.add(_sign_at(p, q, u))
        assert expected in signs
        assert -expected not in signs


def test_schur_ostrowski_sign_mixed_for_unordered_pairs():
    rng = np.random.default_rng(5)
    signs = set()
    for _ in range(500):
        u = rng.random(3) * 3 + 1e-3
        signs.add(_sign_at(5.0, -1.0, u))
    assert 1 in signs and -1 in signs


def test_equal_parameter_mean_is_neither_monotone():
    # p = q sits outside the comparator's domain; check directly that moving
    # mass toward the top squared coordinate can move the mean either way
    rng = np.random.default_rng(6)
    signs = set()
    for _ in range(500):
        sq = np.sort(rng.random(3) * 4 + 1e-3)[::-1]
        shifted = sq.copy()
        d = rng.random() * shifted[1]
        shifted[0] += d
        shifted[1] -= d  # squares now majorize the originals
        diff = (pq_mean(np.sqrt(shifted), 0.7, 0.7)
                - pq_mean(np.sqrt(sq), 0.7, 0.7))
        if abs(diff) > 1e-12:
            signs.add(1 if diff > 0 else -1)
    assert signs == {1, -1}


ORACLE_PQ = [(2.0, -0.4), (5.0, -1.0), (0.0, -1.0), (40.0, -3.0), (1.0, 0.0),
             (5.0, 1.0), (3.0, 0.5), (0.7, 0.7), (2.0, 2.0), (-1.0, -1.0),
             (0.0, 0.0), (math.inf, -3.0), (5.0, -math.inf), (2.0, 0.0),
             (0.5, 0.0), (40.0, 0.0), (0.0, -3.0), (math.inf, 0.0),
             (0.0, -math.inf)]
MAGNITUDES = [1e-300, 3.7e-150, 2.2e-17, 0.013, 0.5, 1.0, 1.7, 42.0, 6.1e30,
              1e200]


def oracle_pq_mean(x, p, q, mp):
    """(p,q)-mean of |x| in 40-digit arithmetic, limit conventions included."""
    a = [mp.mpf(abs(float(v))) for v in x]
    if p == math.inf:
        return max(a)
    if q == -math.inf:
        return min(a)
    zero = [v == 0 for v in a]
    if all(zero) or (any(zero) and (q < 0 or (p == q and q <= 0))):
        return mp.mpf(0)
    if p == q:
        w = [v ** p if v > 0 else mp.mpf(0) for v in a]
        return mp.exp(mp.fsum(wi * mp.log(v) for wi, v in zip(w, a) if v > 0)
                      / mp.fsum(w))

    def power_sum(e):
        # 0^0 = 1; zeros with e < 0 are excluded above
        return mp.fsum(mp.mpf(1) if e == 0 else (v ** e if v > 0 else 0)
                       for v in a)

    return (power_sum(p) / power_sum(q)) ** (1 / mp.mpf(p - q))


def oracle_rows(k):
    rng = np.random.default_rng(7)
    if k == 2:
        mags = [list(r) for r in itertools.product(MAGNITUDES, repeat=2)]
    else:
        mags = rng.choice(MAGNITUDES, size=(150, 3)).tolist()
    mags += (np.abs(rng.standard_normal((50, k))) * 3).tolist()
    signs = rng.choice([-1.0, 1.0], size=(len(mags), k))
    X = np.array(mags) * signs
    zeros = [[0.0] * k, [0.0] + [1.5] * (k - 1), [0.0] + [1e-300] * (k - 1),
             [1e200] + [0.0] * (k - 1), [-0.0] + [2.0] * (k - 1)]
    return np.vstack([X, zeros])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p,q", ORACLE_PQ)
def test_pq_mean_rows_matches_mpmath_oracle(p, q, k):
    mp = pytest.importorskip("mpmath")
    X = oracle_rows(k)
    got = pq_mean_rows(X, p, q)
    with mp.workdps(40):
        want = [oracle_pq_mean(x, p, q, mp) for x in X]
        for x, g, w in zip(X, got, want):
            if w == 0:
                assert g == 0.0, (x, p, q)
            else:
                assert abs(g - w) <= 1e-12 * w, (x, p, q, g, float(w))
    # the (p,q)-mean is symmetric in p and q
    np.testing.assert_array_equal(pq_mean_rows(X, q, p), got)
    if 0.0 in (p, q):
        # a p-mean is the (p,0)-mean, bit for bit
        other = q if p == 0.0 else p
        assert p_mean_rows(X, other).tobytes() == got.tobytes()


def test_mean_rows_keep_their_rows_and_their_results():
    # the kernel overwrites only the magnitudes pq_mean_rows lays out: the
    # rows passed in keep their bits, as a batch, a transposed view and a
    # single point, and a result keeps its bits after a call on other rows
    X = oracle_rows(3)
    for p, q in ORACLE_PQ:
        means = [lambda Y: pq_mean_rows(Y, p, q)]
        if q == 0.0:
            means.append(lambda Y: p_mean_rows(Y, p))
        for mean in means:
            for Y in (X, np.ascontiguousarray(X.T).T, X[5], X[-1]):
                before = Y.copy()
                with np.errstate(all="ignore"):
                    got = mean(Y)
                    kept = got.copy()
                    mean(np.atleast_2d(Y)[::-1] * -0.5)
                assert Y.tobytes() == before.tobytes(), (p, q)
                assert got.tobytes() == kept.tobytes(), (p, q)
