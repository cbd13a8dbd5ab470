"""OSBB expansion/decomposition: worked examples, exhaustive round trips,
and letter conservation."""
import itertools
import random
from fractions import Fraction

import pytest

from plyalg.linalg import SingularSolveError, invert, rank
from plyalg.orders import cmp_shat
from plyalg.osbb import decompose, expand, expand_lincomb, words_for_multiset
from plyalg.terms import Alphabet, LinComb, block, osbb_word

A = Alphabet.of_size(3)
a, b, c = A.gens


def olc(*letters):
    return LinComb.of(tuple(letters))


def test_expand_single_symmetric():
    w = osbb_word((), (a,))
    assert expand(w) == olc(a)


def test_expand_bracket_block():
    w = osbb_word((block((), b, a),), ())
    assert expand(w) == olc(b, a) - olc(a, b)


def test_expand_mixed():
    # s(b·a) · [c,a] -> four words with coefficients ±1/2 each
    w = osbb_word((block((), c, a),), ())
    sym_then_bracket = osbb_word((block((b, a), c, a),), ())
    out = expand(sym_then_bracket)
    half = Fraction(1, 2)
    expected = ((olc(a, b, c, a) + olc(b, a, c, a)).scale(half)
                - (olc(a, b, a, c) + olc(b, a, a, c)).scale(half))
    assert out == expected
    assert expand(w) == olc(c, a) - olc(a, c)


def test_decompose_length_one():
    assert decompose(olc(a), cmp_shat) == LinComb.of(osbb_word((), (a,)))


def test_decompose_length_two():
    # with b > a:  b·a = s(b·a) + (1/2)[b,a]
    got = decompose(olc(b, a), cmp_shat)
    expected = (LinComb.of(osbb_word((), (b, a)))
                + LinComb.of(osbb_word((block((), b, a),), ()), Fraction(1, 2)))
    assert got == expected


def test_decompose_osbb_word_is_identity():
    w = osbb_word((block((b,), c, a),), (a,))
    assert decompose(expand(w), cmp_shat) == LinComb.of(w)


def test_empty_word():
    assert decompose(LinComb.of(()), cmp_shat) == LinComb.of(osbb_word((), ()))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_roundtrip_words_exhaustive(n):
    letters = A.gens
    for w in itertools.product(letters, repeat=n):
        d = olc(*w)
        dec = decompose(d, cmp_shat)
        assert expand_lincomb(dec) == d
        for ow in dec:
            assert ow.length == n
            assert sorted(ow.letters(), key=lambda t: t.index) == \
                sorted(w, key=lambda t: t.index)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_roundtrip_osbb_exhaustive(n):
    letters = A.gens
    seen = set()
    for w in itertools.product(letters, repeat=n):
        ms = tuple(sorted(w, key=lambda t: t.index))
        if ms in seen:
            continue
        seen.add(ms)
        for ow in words_for_multiset(ms, cmp_shat):
            assert decompose(expand(ow), cmp_shat) == LinComb.of(ow)


def test_components_square():
    for n in range(0, 5):
        seen = set()
        for w in itertools.product(A.gens, repeat=n):
            ms = tuple(sorted(w, key=lambda t: t.index))
            if ms in seen:
                continue
            seen.add(ms)
            n_words = len(words_for_multiset(ms, cmp_shat))
            n_perms = len(set(itertools.permutations(ms)))
            assert n_words == n_perms, ms


def test_linalg_helpers():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = invert(m)
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    assert invert([]) == []
    assert rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    with pytest.raises(SingularSolveError):
        invert([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def _gauss_jordan(m):
    """Reference: (rank, inverse or None) by plain Fraction Gauss-Jordan."""
    n_rows, n_cols = len(m), len(m[0])
    a = [list(row) + [Fraction(int(i == j)) for j in range(n_rows)]
         for i, row in enumerate(m)]
    r = 0
    for c in range(n_cols):
        p = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    inv = [row[n_cols:] for row in a] if r == n_rows == n_cols else None
    return r, inv


def _random_matrix(rng, n_rows, n_cols, density):
    return [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 7, 12)))
             if rng.random() < density else Fraction(0)
             for _ in range(n_cols)] for _ in range(n_rows)]


def test_linalg_matches_gauss_jordan():
    rng = random.Random(20231016)
    for trial in range(60):
        n = rng.randint(1, 12)
        m = _random_matrix(rng, n, n, rng.choice((0.3, 0.6, 1.0)))
        if n > 1 and trial % 2:
            m[0][0] = Fraction(0)  # forces a row swap
        # negating one row flips the sign of the determinant
        for mat in (m, [[-x for x in m[0]]] + m[1:]):
            r, ref = _gauss_jordan(mat)
            assert rank(mat) == r
            if ref is None:
                with pytest.raises(SingularSolveError):
                    invert(mat)
                continue
            inv = invert(mat)
            assert inv == ref
            assert all(type(x) is Fraction for row in inv for x in row)
            prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*inv)]
                    for row in mat]
            assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def test_linalg_rank_deficient():
    rng = random.Random(7)
    for trial in range(60):
        n_rows, n_cols, k = rng.randint(2, 12), rng.randint(2, 12), rng.randint(1, 4)
        k = min(k, n_rows, n_cols)
        # a product of an n_rows x k and a k x n_cols factor has rank <= k
        left = _random_matrix(rng, n_rows, k, 0.7)
        right = _random_matrix(rng, k, n_cols, 0.7)
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
        r, _ = _gauss_jordan(m)
        assert r <= k and rank(m) == r
        if n_rows == n_cols and r < n_rows:
            with pytest.raises(SingularSolveError):
                invert(m)
    assert rank([[Fraction(0)] * 3] * 2) == 0


def test_words_cache_keeps_orders_apart():
    # each order is the reverse of the one before and is freed after use, so
    # a new order may be allocated where the last one lived
    def blocks_agree(rank):
        def cmp(x, y):
            return (rank[x] > rank[y]) - (rank[x] < rank[y])
        return all(cmp(blk.y, blk.z) > 0
                   for w in words_for_multiset((a, b, c), cmp) for blk in w.blocks)

    for i in range(20):
        sign = 1 if i % 2 == 0 else -1
        assert blocks_agree({a: 0, b: sign, c: 2 * sign})
