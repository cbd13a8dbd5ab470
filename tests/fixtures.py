"""Ground truth for the tests: published listings, transcribed as
expressions, and a rescanning normalizer that picks any term it is told to.

Each listing entry is an expression over the single generator ``a``; tests
compare elaborated values against enumerated basis elements. Two 5-vertex
listings carry documented transcription quirks (see the order tests that use
them).
"""
import random

from plyalg import normal
from plyalg.bases import t_key
from plyalg.normal import is_B
from plyalg.terms import LinComb


def scan_normalize(x, pick):
    """The loop the heap replaced, with the pick as a parameter: every step
    rescans the working set and rewrites ``pick(non-basis terms, key=t_key)``
    (``max`` is ``normalize``'s order). Returns the normal form, the steps as
    (rule, term, path, image), and how many terms came back into the working
    set after an image cancelled them."""
    work = LinComb(normal._start(x))
    steps, gone, returns = [], set(), 0
    while True:
        victims = [t for t in work if not is_B(t)]
        if not victims:
            return work, steps, returns
        t = pick(victims, key=t_key)
        step = normal._rewrite_step(t)
        image = step.after
        steps.append((step.rule, t, step.path, image))
        returns += sum(1 for u in image if u in gone and u not in work)
        gone |= {u for u in image if u in work}
        work.add_in(image, work.pop(t))
        gone -= set(work)


def seeded_pick(seed):
    """A pick for ``scan_normalize`` that draws a term at random."""
    rng = random.Random(seed)
    return lambda victims, key: rng.choice(sorted(victims, key=key))


# one-operator basis, increasing order, 1..5 vertices
S_LISTING = {
    1: ("a",),
    2: ("gr(a; a)",),
    3: ("gr(gr(a; a); a)", "gr(a, a; a)"),
    4: (
        "gr(gr(gr(a; a); a); a)",
        "gr(gr(a, a; a); a)",
        "tri(lb(gr(a; a), a), a)",
        "sg(gr(a; a), a; a)",
        "gr(a, a, a; a)",
    ),
    # published order; the computed order moves item 10 to position 8
    5: (
        "gr(gr(gr(gr(a; a); a); a); a)",
        "gr(gr(gr(a, a; a); a); a)",
        "sg(tri(lb(gr(a; a), a), a); a)",
        "sg(sg(gr(a; a), a; a); a)",
        "sg(gr(a, a, a; a); a)",
        "tri(lb(gr(gr(a; a); a), a), a)",
        "tri(lb(gr(a, a; a), a), a)",
        "sg(gr(gr(a; a); a), a; a)",
        "sg(gr(a, a; a), a; a)",
        "sg(gr(a; a), gr(a; a); a)",
        "tri(w(lb(gr(a; a), a), a), a)",
        "tri(w(a, lb(gr(a; a), a)), a)",
        "sg(gr(a; a), a, a; a)",
        "gr(a, a, a, a; a)",
    ),
}

# position (1-based) in the computed order for each published 5-vertex entry
S5_COMPUTED_POSITIONS = (1, 2, 3, 4, 5, 6, 7, 9, 10, 8, 11, 12, 13, 14)

# two-operator block basis, 1..4 vertices, increasing order (exact)
SHAT_LISTING = {
    1: ("a",),
    2: ("bk(a, a)", "gr(a; a)"),
    3: (
        "bk(a, bk(a, a))",
        "bk(a, gr(a; a))",
        "bk(bk(a, a), a)",
        "bk(gr(a; a), a)",
        "gr(a; bk(a, a))",
        "gr(bk(a, a); a)",
        "gr(gr(a; a); a)",
        "gr(a, a; a)",
    ),
    4: (
        "bk(a, bk(a, bk(a, a)))",
        "bk(a, bk(a, gr(a; a)))",
        "bk(a, bk(bk(a, a), a))",
        "bk(a, bk(gr(a; a), a))",
        "bk(a, gr(a; bk(a, a)))",
        "bk(a, gr(bk(a, a); a))",
        "bk(a, gr(gr(a; a); a))",
        "bk(a, gr(a, a; a))",
        "bk(bk(a, a), bk(a, a))",
        "bk(bk(a, a), gr(a; a))",
        "bk(gr(a; a), bk(a, a))",
        "bk(gr(a; a), gr(a; a))",
        "bk(bk(a, bk(a, a)), a)",
        "bk(bk(a, gr(a; a)), a)",
        "bk(bk(bk(a, a), a), a)",
        "bk(bk(gr(a; a), a), a)",
        "bk(gr(a; bk(a, a)), a)",
        "bk(gr(bk(a, a); a), a)",
        "bk(gr(gr(a; a); a), a)",
        "bk(gr(a, a; a), a)",
        "gr(a; bk(a, bk(a, a)))",
        "gr(a; bk(a, gr(a; a)))",
        "gr(a; bk(bk(a, a), a))",
        "gr(a; bk(gr(a; a), a))",
        "gr(bk(a, a); bk(a, a))",
        "gr(gr(a; a); bk(a, a))",
        "gr(a, a; bk(a, a))",
        "gr(bk(a, bk(a, a)); a)",
        "gr(bk(a, gr(a; a)); a)",
        "gr(bk(bk(a, a), a); a)",
        "gr(bk(gr(a; a), a); a)",
        "gr(gr(a; bk(a, a)); a)",
        "gr(gr(bk(a, a); a); a)",
        "gr(gr(gr(a; a); a); a)",
        "gr(gr(a, a; a); a)",
        "tri(lb(bk(a, a), a), a)",
        "tri(lb(gr(a; a), a), a)",
        "sg(bk(a, a), a; a)",
        "sg(gr(a; a), a; a)",
        "gr(a, a, a; a)",
    ),
}

# free post-Lie-Yamaguti basis, 1..5 vertices, published order
B_LISTING = {
    1: ("a",),
    2: ("gr(a; a)",),
    3: ("bk(gr(a; a), a)", "gr(gr(a; a); a)", "gr(a, a; a)"),
    4: (
        "bk(bk(gr(a; a), a), a)",
        "bk(gr(gr(a; a); a), a)",
        "bk(gr(a, a; a), a)",
        "gr(bk(gr(a; a), a); a)",
        "gr(gr(gr(a; a); a); a)",
        "gr(gr(a, a; a); a)",
        "tb(gr(a; a), a, a)",
        "sg(gr(a; a), a; a)",
        "gr(a, a, a; a)",
    ),
    # published order; the computed order permutes the bracket segment to
    # positions (2,5,6,1,3,4) -- see B5_COMPUTED_POSITIONS
    5: (
        "bk(bk(bk(gr(a; a), a), a), a)",
        "bk(bk(gr(a; a), a), gr(a; a))",
        "bk(bk(gr(gr(a; a); a), a), a)",
        "bk(bk(gr(a, a; a), a), a)",
        "bk(gr(gr(a; a); a), gr(a; a))",
        "bk(gr(a, a; a), gr(a; a))",
        "bk(gr(bk(gr(a; a), a); a), a)",
        "bk(gr(gr(gr(a; a); a); a), a)",
        "bk(gr(gr(a, a; a); a), a)",
        "bk(tb(gr(a; a), a, a), a)",
        "bk(sg(gr(a; a), a; a), a)",
        "bk(gr(a, a, a; a), a)",
        "gr(bk(bk(gr(a; a), a), a); a)",
        "gr(bk(gr(gr(a; a); a), a); a)",
        "gr(bk(gr(a, a; a), a); a)",
        "gr(gr(bk(gr(a; a), a); a); a)",
        "gr(gr(gr(gr(a; a); a); a); a)",
        "gr(gr(gr(a, a; a); a); a)",
        "sg(tb(gr(a; a), a, a); a)",
        "sg(sg(gr(a; a), a; a); a)",
        "sg(gr(a, a, a; a); a)",
        "tb(bk(gr(a; a), a), a, a)",
        "tb(gr(gr(a; a); a), a, a)",
        "tb(gr(a, a; a), a, a)",
        "sg(gr(a; a), gr(a; a); a)",
        "sg(bk(gr(a; a), a), a; a)",
        "sg(gr(gr(a; a); a), a; a)",
        "sg(gr(a, a; a), a; a)",
        "tb(gr(a; a), a, gr(a; a))",
        "sg(gr(a; a), a, a; a)",
        "gr(a, a, a, a; a)",
    ),
}

# position in the computed order for each published 5-vertex entry
B5_COMPUTED_POSITIONS = (4, 1, 5, 6, 2, 3) + tuple(range(7, 32))

B_COUNTS = {1: 1, 2: 1, 3: 3, 4: 9, 5: 31}
S_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14}
