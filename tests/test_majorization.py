import numpy as np
import pytest

from schur2.majorization import (MajorizationVerdict, apply_group_element,
                                 g_canonical, majorize_compare,
                                 muirhead_chain, random_group_element,
                                 schur2_compare)

V = MajorizationVerdict


def brute_majorizes(a, b):
    """Independent comparator: equal sums and dominance of sorted prefixes."""
    a = np.sort(np.asarray(a, float))[::-1]
    b = np.sort(np.asarray(b, float))[::-1]
    if abs(a.sum() - b.sum()) > 1e-9:
        return False
    return bool(np.all(np.cumsum(a) >= np.cumsum(b) - 1e-9))


def test_extreme_points():
    # (s, 0, ..., 0) majorizes every nonnegative vector with sum s
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.random(4)
        top = np.zeros(4)
        top[0] = v.sum()
        flat = np.full(4, v.mean())
        assert majorize_compare(top, v) in (V.STRICT_MAJORIZES,
                                            V.MAJORIZES_NONSTRICT,
                                            V.EQUAL_SORTED)
        assert majorize_compare(v, flat) in (V.STRICT_MAJORIZES,
                                             V.MAJORIZES_NONSTRICT,
                                             V.EQUAL_SORTED)
        assert brute_majorizes(top, v) and brute_majorizes(v, flat)


def test_verdicts_basic():
    assert majorize_compare([3, 1], [2, 2]) == V.STRICT_MAJORIZES
    assert majorize_compare([2, 2], [3, 1]) == V.INCOMPARABLE
    assert majorize_compare([1, 3], [3, 1]) == V.EQUAL_SORTED
    assert majorize_compare([1, 2], [2, 2]) == V.INCOMPARABLE  # sums differ
    # within 10 sum tolerances (2e-12) of equal: strictness is not certified
    assert (majorize_compare([1 + 5e-12, 1 - 5e-12], [1, 1])
            == V.MAJORIZES_NONSTRICT)


def test_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = rng.random(5)
        b = rng.random(5)
        b *= a.sum() / b.sum()
        got = majorize_compare(a, b)
        if got in (V.STRICT_MAJORIZES, V.MAJORIZES_NONSTRICT, V.EQUAL_SORTED):
            assert brute_majorizes(a, b)
        else:
            assert not brute_majorizes(a, b)


def test_schur2_uses_squares():
    # (2, 0) vs (sqrt 2, sqrt 2): squares are (4,0) vs (2,2)
    assert schur2_compare([2, 0], [np.sqrt(2), np.sqrt(2)]) == V.STRICT_MAJORIZES
    assert schur2_compare([-2, 0], [np.sqrt(2), -np.sqrt(2)]) == V.STRICT_MAJORIZES


def test_g_canonical_and_group():
    x = np.array([-3.0, 1.0, -2.0])
    assert np.allclose(g_canonical(x), [3.0, 2.0, 1.0])
    rng = np.random.default_rng(2)
    for _ in range(20):
        perm, signs = random_group_element(3, rng)
        y = apply_group_element(x, perm, signs)
        assert np.allclose(np.sort(np.abs(y)), np.sort(np.abs(x)))
        assert np.allclose(g_canonical(y), g_canonical(x))


def test_muirhead_chain_properties():
    rng = np.random.default_rng(3)
    for _ in range(50):
        b = rng.random(5)
        a = np.sort(b)[::-1].copy()
        a[0] += a[-1] * 0.7  # push mass toward the top: a majorizes b
        a[-1] *= 0.3
        chain = muirhead_chain(a, b)
        assert np.allclose(np.sort(chain[0])[::-1], np.sort(a)[::-1])
        assert np.allclose(np.sort(chain[-1])[::-1], np.sort(b)[::-1],
                           atol=1e-9)
        for u, w in zip(chain, chain[1:]):
            # each link is a single two-coordinate transfer
            assert np.count_nonzero(~np.isclose(u, w, atol=1e-12)) <= 2
            assert brute_majorizes(u, w)


def test_muirhead_chain_rejects_incomparable():
    with pytest.raises(ValueError):
        muirhead_chain([2, 2], [3, 1])
