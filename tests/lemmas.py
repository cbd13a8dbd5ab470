"""Shared property checks for the structural lemmas about products in the
block basis (root preservation, word-length bounds, grading preservation),
and for the storage of exact coefficients; a reference statement of the
normalizer's one-slot rebuild and letter actions, one branch per node kind
and slot; the route of products through trees, the oracle of the
normalizer's products in triple coordinates; the spot check of a total
order; and the Hall predicate on the triple basis through the ternary
magma."""
import random
from fractions import Fraction

from plyalg import hall
from plyalg.bases import (cmp_t, enumerate_Shat, from_shat, phi, t_value, t_value_lin,
                          to_shat)
from plyalg.normal import (InternalRewriteError, _of, _orient, _tree_brk, t_mul, t_mul_lin,
                           t_word_action, triple_raw)
from plyalg.orders import cmp_shat
from plyalg.osbb import expand, words_for_multiset
from plyalg.tensor import (letters_to_words, lie_word, symmetrize, tensor_mul,
                           tree_mul, triple_bracket, word_act_trees,
                           word_lincomb)
from plyalg.terms import (BRK, GEN, OGRAFT, SYMGRAFT, TRIPLE, LinComb, brk, symgraft,
                          triple)


def assert_exact_coefficients(x):
    """Every stored coefficient of ``x`` is nonzero and either an ``int`` or
    a ``Fraction`` with denominator > 1: no float, and no ``Fraction(n, 1)``,
    which gives right answers at ``Fraction`` cost."""
    for t, c in x.items():
        assert c != 0, (t, c)
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (t, c)


def _word_value(w):
    parts = LinComb()
    for word, cw in expand(w).items():
        parts.add_in(word_lincomb([from_shat(LinComb.of(l)) for l in word]), cw)
    return parts


def _random_shat(rng, alphabet, max_vc):
    pool = [t for n in range(1, max_vc + 1) for t in enumerate_Shat(n, alphabet)]
    return rng.choice(pool)


def _random_graft(rng, alphabet, max_vc):
    pool = [t for n in range(2, max_vc + 1) for t in enumerate_Shat(n, alphabet)
            if t.kind == OGRAFT]
    return rng.choice(pool)


def check_product_structure(alphabet, samples, seed, max_total=6):
    """x ▷ (w ▷ r): root kept, sup word length l(w)+1, gradings preserved."""
    rng = random.Random(seed)
    done = 0
    while done < samples:
        x = _random_shat(rng, alphabet, max_total - 2)
        z = _random_graft(rng, alphabet, max_total - x.vc)
        out = to_shat(tree_mul(from_shat(LinComb.of(x)), from_shat(LinComb.of(z))))
        assert out
        lengths = set()
        for term in out:
            assert term.kind == OGRAFT and term.root is z.root
            assert term.vc == x.vc + z.vc and term.bc == x.bc + z.bc
            lengths.add(term.word.length)
        assert max(lengths) == z.word.length + 1
        done += 1
    return done


def check_triple_bracket_structure(alphabet, samples, seed, max_total=6):
    """[x,y,z]: root kept, sup word length l(w)+2, gradings preserved."""
    rng = random.Random(seed)
    done = 0
    while done < samples:
        x = _random_shat(rng, alphabet, min(2, max_total - 3))
        y = _random_shat(rng, alphabet, min(2, max_total - x.vc - 2))
        z = _random_graft(rng, alphabet, max_total - x.vc - y.vc)
        tb = triple_bracket(from_shat(LinComb.of(x)), from_shat(LinComb.of(y)),
                            from_shat(LinComb.of(z)))
        out = to_shat(tb)
        if not out:
            continue
        lengths = set()
        for term in out:
            assert term.kind == OGRAFT and term.root is z.root
            assert term.vc == x.vc + y.vc + z.vc
            assert term.bc == x.bc + y.bc + z.bc
            lengths.add(term.word.length)
        assert max(lengths) == z.word.length + 2
        done += 1
    return done


def check_word_action_structure(alphabet, samples, seed, max_total=6):
    """(OSBB word h) ▷ z: root kept, sup length l(w)+l(h), gradings kept."""
    rng = random.Random(seed)
    pool1 = enumerate_Shat(1, alphabet) + enumerate_Shat(2, alphabet)
    done = 0
    while done < samples:
        k = rng.randint(1, 2)
        letters = tuple(rng.choice(pool1) for _ in range(k))
        h = rng.choice(words_for_multiset(letters, cmp_shat))
        z = _random_graft(rng, alphabet, max_total - h.vc)
        out = to_shat(word_act_trees(_word_value(h), from_shat(LinComb.of(z))))
        if not out:
            continue
        lengths = set()
        for term in out:
            assert term.kind == OGRAFT and term.root is z.root
            assert term.vc == h.vc + z.vc and term.bc == h.bc + z.bc
            lengths.add(term.word.length)
        assert max(lengths) == z.word.length + h.length
        done += 1
    return done


def check_symmetric_action_leading_term(alphabet, samples, seed, max_total=6):
    """s(x_1..x_n) ▷ [y,z,w▷r] = (s(x_1..x_n)·[y,z]·w) ▷ r + shorter terms."""
    rng = random.Random(seed)
    done = 0
    while done < samples:
        n = rng.randint(0, 2)
        xs = tuple(_random_shat(rng, alphabet, 1) for _ in range(n))
        y = _random_shat(rng, alphabet, 1)
        z = _random_shat(rng, alphabet, 1)
        wt = _random_graft(rng, alphabet, max_total - n - y.vc - z.vc)
        vals = {s: from_shat(LinComb.of(s)) for s in set(xs + (y, z, wt))}
        tb = triple_bracket(vals[y], vals[z], vals[wt])
        if n:
            sym = symmetrize(word_lincomb([vals[s] for s in xs]))
            lhs = word_act_trees(sym, tb)
            sym_part = sym
        else:
            lhs = tb
            sym_part = LinComb.of(())
        lead_word = tensor_mul(
            sym_part,
            tensor_mul(lie_word(letters_to_words(vals[y]),
                                letters_to_words(vals[z])),
                       _word_value(wt.word)))
        main = word_act_trees(lead_word, from_shat(LinComb.of(wt.root)))
        rest = to_shat(lhs - main)
        bound = n + 2 + wt.word.length
        for term in rest:
            assert term.kind == OGRAFT and term.root is wt.root
            assert term.word.length < bound
        done += 1
    return done


# -- reference one-slot rebuild and letter actions ----------------------------

def subst_ref(t, slot, image):
    """``normal.subst`` with one branch per node kind and slot."""
    if t.kind == BRK:
        if slot == "x":
            return _tree_brk(image, _of(t.y))
        return _tree_brk(_of(t.x), image)
    if t.kind == SYMGRAFT:
        if slot == "root":
            def on_root(r):
                assert r.kind in (GEN, BRK), "graft root rewrote to a non-root shape"
                return _of(symgraft(t.sym, r))
            return image.map_terms(on_root)
        i = slot[1]
        return image.map_terms(
            lambda u: _of(symgraft(t.sym[:i] + (u,) + t.sym[i + 1:], t.root)))
    if t.kind == TRIPLE and not t.sym:
        if slot == "y":
            return triple_raw(image, _of(t.z), _of(t.w))
        if slot == "z":
            return triple_raw(_of(t.y), image, _of(t.w))
        return image.map_terms(lambda u: _of(triple((), t.y, t.z, u)))
    raise InternalRewriteError("cannot substitute into %r" % t)


def _derive_brk_ref(d, u, v):
    return _tree_brk(d(u), _of(v)) + _tree_brk(_of(u), d(v))


def ply2_act_ref(s, t):
    """s ▷ [[u,v]] = [[s▷u, v]] + [[u, s▷v]]"""
    assert t.kind == BRK
    return _derive_brk_ref(lambda x: t_mul(s, x), t.x, t.y)


def ply3_act_ref(s, t):
    """s ▷ [y,z,w] = [s▷y,z,w] + [y,s▷z,w] + [y,z,s▷w]
                     + (s · [[y,z]]) ▷ w − [[y,z]] ▷ (s ▷ w),
    and s ▷ t on any term that is not a bare triple."""
    if t.kind != TRIPLE or t.sym:
        return t_mul(s, t)
    y, z, w = t.y, t.z, t.w
    out = triple_raw(t_mul(s, y), _of(z), _of(w))
    out += triple_raw(_of(y), t_mul(s, z), _of(w))
    out += triple_raw(_of(y), _of(z), t_mul(s, w))
    out += t_word_action(LinComb.of((s, brk(y, z))), _of(w))
    out -= t_mul_lin(_of(brk(y, z)), t_mul(s, w))
    return out


# -- products through trees ---------------------------------------------------

_SOLVED = {}


def solve_to_t(s):
    """The triangular solve for every block-basis element, memoized: phi(s)
    re-expanded in block coordinates is s plus strictly smaller terms, whose
    coordinates are solved first."""
    out = _SOLVED.get(s)
    if out is None:
        t = phi(s)
        delta = to_shat(t_value(t)) - LinComb.of(s)
        out = LinComb.of(t)
        for u, c in delta.items():
            assert cmp_shat(u, s) < 0
            out.add_in(solve_to_t(u), -c)
        _SOLVED[s] = out
    return out


def tree_route(words, target):
    """A combination of words of triple-basis letters acting on a
    combination of triple-basis terms, through trees: the tree values of
    both, the tree action, the block basis, the triangular solve and the
    orientation of brackets. The normalizer's products never leave triple
    coordinates, so this is their independent oracle."""
    values = words.map_terms(lambda w: word_lincomb([t_value(l) for l in w]))
    block = to_shat(word_act_trees(values, t_value_lin(target)))
    return block.map_terms(solve_to_t).map_terms(_orient)


# -- orders -------------------------------------------------------------------

def is_total_order(cmp, elems):
    """Spot check: antisymmetry and totality on a finite element list."""
    for a in elems:
        if cmp(a, a) != 0:
            return False
        for b in elems:
            if a is not b and cmp(a, b) != -cmp(b, a):
                return False
            if a is not b and cmp(a, b) == 0:
                return False
    return True


def iota(t):
    """Injection of the triple basis into the ternary magma over non-triple
    elements."""
    if t.kind == TRIPLE and not t.sym:
        return hall.node3(iota(t.y), iota(t.z), iota(t.w))
    return hall.leaf(t)


def is_lts_hall_t(t):
    """The Hall predicate on a triple-basis element via the injection."""
    return hall.is_lts_hall(iota(t), cmp_t)
