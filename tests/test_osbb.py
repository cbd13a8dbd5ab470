"""OSBB expansion/decomposition: worked examples, exhaustive round trips,
and letter conservation."""
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from lemmas import assert_exact_coefficients
from plyalg import osbb
from plyalg.bases import cmp_t, enumerate_T
from plyalg.linalg import SingularSolveError, invert, rank
from plyalg.orders import cmp_shat
from plyalg.osbb import (_component, _expansion, decompose, expand, expand_lincomb,
                         words_for_multiset)
from plyalg.tensor import symmetrize, tensor_mul
from plyalg.terms import Alphabet, LinComb, block, brk, canon_key, osbb_word

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


# Oracles for the expansion and the enumeration, written another way:
# products of symmetrized parts and pairs, and a ``Counter`` walk.
def _expand_by_products(word):
    """``expand`` as a product of combinations, from the tail leftwards."""
    out = symmetrize(LinComb.of(word.tail))
    for b in reversed(word.blocks):
        pair = LinComb.of((b.y, b.z)) - LinComb.of((b.z, b.y))
        out = tensor_mul(tensor_mul(symmetrize(LinComb.of(b.sym)), pair), out)
    return out


def _submultisets(counter):
    items = sorted(counter, key=canon_key)
    ranges = [range(counter[t] + 1) for t in items]
    for picks in itertools.product(*ranges):
        yield tuple(t for t, k in zip(items, picks) for _ in range(k))


def _words_by_counter(ms, cmp):
    """``words_for_multiset`` of a ``canon_key``-sorted tuple, by ``Counter``s."""
    out = [osbb_word((), ms)]
    cnt = Counter(ms)
    for y in cnt:
        for z in cnt:
            if cmp(y, z) <= 0:
                continue
            rem = cnt.copy()
            rem[y] -= 1
            rem[z] -= 1
            rem = +rem
            eligible = Counter({t: k for t, k in rem.items() if cmp(t, z) >= 0})
            for sym in _submultisets(eligible):
                rest = rem.copy()
                rest.subtract(Counter(sym))
                rest = tuple(t for t, k in rest.items() for _ in range(k))
                for tail_word in _words_by_counter(rest, cmp):
                    out.append(osbb_word((block(sym, y, z),) + tail_word.blocks,
                                         tail_word.tail))
    return out


def _multisets(letters, max_len=6):
    """Every multiset of 0 to ``max_len`` letters, as a ``canon_key``-sorted tuple."""
    letters = sorted(letters, key=canon_key)
    return [ms for n in range(max_len + 1)
            for ms in itertools.combinations_with_replacement(letters, n)]


# generators and a bracket, over 0-6 letters with repeats
ORACLE_LETTERS = (a, b, c, brk(b, a))


def test_expansion_matches_products():
    n = 0
    for ms in _multisets(ORACLE_LETTERS):
        for w in words_for_multiset(ms, cmp_shat):
            want = _expand_by_products(w)
            got = expand(w)
            assert got == want, w
            assert_exact_coefficients(got)
            terms, k = _expansion(w)
            assert {t: Fraction(x, k) for t, x in terms.items()} == want, w
            n += 1
    assert n == sum(4 ** i for i in range(7))


# triple-basis letters a, bk(b, a), sg(a; b), sg(b; a): ``cmp_t`` puts the
# two grafts in the order opposite to ``canon_key``'s
T_LETTERS = enumerate_T(1, Alphabet.of_size(2))[:1] + tuple(
    enumerate_T(2, Alphabet.of_size(2))[i] for i in (2, 5, 6))


@pytest.mark.parametrize("cmp, letters", [(cmp_shat, ORACLE_LETTERS), (cmp_t, T_LETTERS)],
                         ids=["cmp_shat", "cmp_t"])
def test_words_match_counter_enumeration(cmp, letters):
    for ms in _multisets(letters):
        assert list(words_for_multiset(ms, cmp)) == _words_by_counter(ms, cmp), ms


# The oracle's elimination: dense, row by row, and sharing no code with
# ``plyalg.linalg``.
def _integerize(rows):
    """Scale each row by the lcm of its denominators; returns (int rows, scales)."""
    out, scales = [], []
    for row in rows:
        d = lcm(*(x.denominator for x in row)) if row else 1
        out.append([x.numerator * (d // x.denominator) for x in row])
        scales.append(d)
    return out, scales


def _bareiss_forward(a):
    """In-place fraction-free forward elimination with row pivoting.

    Returns the list of pivot column indices. Entries stay integers; the
    divisions are exact by the Bareiss identity. A row with 0 in the pivot
    column would only be rescaled by ``p / prev``, so it is left alone and
    remembers the pivot ``q`` it was last brought to: its next update
    divides by ``q`` in place of ``prev``, which folds the skipped
    rescales into one exact division. Rows below the last pivot row may
    be left unscaled; only their zero pattern is meaningful.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    level = [1] * n_rows
    prev = 1
    piv_r = 0
    pivots = []
    for piv_c in range(n_cols):
        if piv_r >= n_rows:
            break
        for i in range(piv_r, n_rows):
            if a[i][piv_c] != 0:
                break
        else:
            continue
        if i != piv_r:
            a[piv_r], a[i] = a[i], a[piv_r]
            level[piv_r], level[i] = level[i], level[piv_r]
        prow = a[piv_r]
        q = level[piv_r]
        if q != prev:
            prow = a[piv_r] = [x * prev // q for x in prow]
        p = prow[piv_c]
        for r in range(piv_r + 1, n_rows):
            row = a[r]
            f = row[piv_c]
            if f:
                q = level[r]
                a[r] = [(x * p - f * y) // q for x, y in zip(row, prow)]
                level[r] = p
        prev = p
        pivots.append(piv_c)
        piv_r += 1
    return pivots


def _dense_inverse(rows):
    """Oracle: the dense exact inverse of a square rational matrix as
    Fraction rows, by Bareiss elimination of ``[S*A | S]`` (``S`` the
    diagonal of row scales) and an integer back-substitution.

    With ``U X = B`` the triangular system the forward pass leaves and
    ``d = U[n-1][n-1] = det(P*S*A)``, ``Y = d*X`` is ``+-adj(S*A)*S``, hence
    integral, and ``U[r][r] * Y[r] = d*B[r] - sum(U[r][c] * Y[c] for c > r)``
    holds in integers, which makes its division by ``U[r][r]`` exact.
    """
    n = len(rows)
    a, scales = _integerize([list(r) for r in rows])
    for i in range(n):
        a[i].extend(scales[i] if j == i else 0 for j in range(n))
    pivots = _bareiss_forward(a)
    if pivots != list(range(n)):
        raise SingularSolveError("matrix is singular")
    d = a[n - 1][n - 1] if n else 1
    y = [None] * n
    for r in range(n - 1, -1, -1):
        row = a[r]
        acc = [d * v for v in row[n:]]
        for c in range(r + 1, n):
            f = row[c]
            if f:
                acc = [s - f * v for s, v in zip(acc, y[c])]
        y[r] = [s // row[r] for s in acc]
    return [[Fraction(v, d) for v in row] for row in y]


def _columns(column, n):
    """Every column that ``invert``'s solver gives, as tuples of pairs."""
    return [tuple(column(j)) for j in range(n)]


def _sparse(rows):
    """A dense rational matrix as ``invert`` takes it: its columns, each
    scaled by the lcm of its denominators into integers (row -> nonzero
    entry), and those lcms."""
    cols, scales = [], []
    for j in range(len(rows)):
        d = lcm(*(row[j].denominator for row in rows))
        cols.append({i: row[j].numerator * (d // row[j].denominator)
                     for i, row in enumerate(rows) if row[j]})
        scales.append(d)
    return cols, scales


def _dense_columns(inv):
    """The nonzero entries of each column of a dense inverse, as ``column`` gives them."""
    return [tuple((i, x) for i, x in enumerate(col) if x) for col in zip(*inv)]


# the letter multiplicity patterns the osbb benchmark workload decomposes
OSBB_PATTERNS = ((1, 1, 1), (2, 1),
                 (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1),
                 (1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1), (3, 1, 1),
                 (3, 2, 1), (4, 1, 1))


def _component_columns_match_oracle(ms):
    words, index, column = _component(ms, cmp_shat)
    n = len(words)
    mat = [[0] * n for _ in range(n)]
    for j, ow in enumerate(words):
        for w, c in expand(ow).items():
            mat[index[w]][j] = c
    return _columns(column, n) == _dense_columns(_dense_inverse(mat))


@pytest.mark.parametrize("pattern", OSBB_PATTERNS)
def test_component_columns_match_dense_oracle(pattern):
    # every arrangement of the multiplicities over the ordered letters
    gens = Alphabet.of_size(len(pattern)).gens
    for counts in sorted(set(itertools.permutations(pattern))):
        ms = tuple(g for g, k in zip(gens, counts) for _ in range(k))
        assert _component_columns_match_oracle(ms), ms


@pytest.mark.parametrize("gens", [3, 4])
def test_roundtrip_grid_columns_match_dense_oracle(gens):
    # the components of ``check --suite osbb-roundtrip`` (words up to length 4)
    letters = Alphabet.of_size(gens).gens
    for n in range(1, 5):
        for ms in itertools.combinations_with_replacement(letters, n):
            assert _component_columns_match_oracle(ms), ms


def test_decompose_memo_not_mutated():
    # a word's combination is shared by ``_DECOMPOSED`` and every later
    # decompose of that word: no caller that writes into its result may
    # reach it
    words = list(dict.fromkeys(itertools.permutations((a, b, c, a))))
    first = [decompose(olc(*w), cmp_shat) for w in words]
    want = [list(x.items()) for x in first]
    saved = [(v, list(v.items())) for v in osbb._DECOMPOSED.values()]
    for x in first:
        x.add_in(x, 2)
        x.pop(next(iter(x)))
        x[osbb_word((), (a,))] = 5
    assert [list(decompose(olc(*w), cmp_shat).items()) for w in words] == want
    for v, items in saved:
        assert list(v.items()) == items


def test_six_distinct_letters():
    # one 720x720 component
    a_, b_, c_, d_, e_, f_ = Alphabet.of_size(6).gens
    w = (f_, e_, d_, c_, b_, a_)
    dec = decompose(olc(*w), cmp_shat)
    assert expand_lincomb(dec) == olc(*w)
    for ow in dec:
        assert ow.length == 6
        assert sorted(ow.letters(), key=lambda t: t.index) == \
            sorted(w, key=lambda t: t.index)


def test_linalg_helpers():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    column = invert(*_sparse(m))
    assert _columns(column, 2) == [((0, 1), (1, -1)), ((0, -1), (1, 2))]
    assert all(type(x) is int for j in range(2) for _, x in column(j))
    # solved again from the factors the solver keeps, in any order
    assert [tuple(column(j)) for j in (1, 0)] == [((0, -1), (1, 2)), ((0, 1), (1, -1))]
    column = invert(*_sparse([[Fraction(0), Fraction(1, 3)], [Fraction(2), Fraction(0)]]))
    assert _columns(column, 2) == [((1, 3),), ((0, Fraction(1, 2)),)]
    assert _dense_inverse([]) == [] and _columns(invert([], []), 0) == []
    assert rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    for singular, r in (([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], 1),
                        ([[Fraction(0), Fraction(0)], [Fraction(1), Fraction(1)]], 1),
                        ([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]], 1),
                        ([[Fraction(0)]], 0)):
        with pytest.raises(SingularSolveError, match=r"\(rank %d of %d\)" % (r, len(singular))):
            invert(*_sparse(singular))
        with pytest.raises(SingularSolveError):
            _dense_inverse(singular)


@pytest.mark.parametrize("counts", [(3, 1), (1, 1, 1, 1)], ids=["a3b", "abcd"])
def test_invert_takes_component_scales(counts):
    # the columns and scales as ``_component`` builds them: each word's
    # ``_expansion`` and its ``k``, not an lcm of the rational entries
    gens = Alphabet.of_size(len(counts)).gens
    ms = tuple(g for g, k in zip(gens, counts) for _ in range(k))
    words, index, _ = _component(ms, cmp_shat)
    n = len(words)
    cols, scales, mat = [], [], [[0] * n for _ in range(n)]
    for j, ow in enumerate(words):
        terms, k = _expansion(ow)
        cols.append({index[w]: x for w, x in terms.items()})
        scales.append(k)
        for w, x in terms.items():
            mat[index[w]][j] = Fraction(x, k)
    want = _dense_columns(_dense_inverse(mat))
    assert _columns(invert(cols, scales), n) == want
    # any common multiple scales a column as well as the least one
    wide = [{i: (j + 2) * x for i, x in col.items()} for j, col in enumerate(cols)]
    assert _columns(invert(wide, [(j + 2) * k for j, k in enumerate(scales)]), n) == want


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
                with pytest.raises(SingularSolveError, match=r"\(rank %d of %d\)" % (r, n)):
                    invert(*_sparse(mat))
                with pytest.raises(SingularSolveError):
                    _dense_inverse(mat)
                continue
            assert _dense_inverse(mat) == ref
            cols = _columns(invert(*_sparse(mat)), n)
            assert cols == _dense_columns(ref)
            assert all(type(x) is (int if x.denominator == 1 else Fraction)
                       for col in cols for _, x in col)
            for j, col in enumerate(cols):
                assert [sum(row[i] * x for i, x in col) for row in mat] == \
                    [int(i == j) for i in range(n)]


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
            with pytest.raises(SingularSolveError, match=r"\(rank %d of %d\)" % (r, n_rows)):
                invert(*_sparse(m))
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
