"""Acceptance gate: one test per shipped guarantee.

The terminal summary hook in conftest.py prints one PASS/FAIL line per
criterion after the run.  Each test is self-contained and seeded.
"""

import math
import random
import time

from braidfact.braid import (
    BraidWord,
    canonical_form,
    equals,
    exponent_sum,
    full_twist,
    identity_word,
    normalized,
    permutation_of,
)
from braidfact.complement import (
    enumerate_homs,
    group_order,
    simplify,
    zvk_presentation,
)
from braidfact.equivalence import (
    SearchBudget,
    decide_equivalence,
    replay,
)
from braidfact.factorization import (
    CuspidalFactor,
    Factorization,
    conjugate_all,
    factor_words,
    hurwitz_move,
    product_word,
    profile_exponent_ok,
    search_factorization,
    singularity_counts,
    validate,
)
from braidfact.geometry import (
    branch_curve_invariants,
    check_consistency,
    hesse_dual_lines,
    intersection_lattice,
)


def rand_word(rng, d, n):
    return BraidWord(d, tuple(rng.choice([1, -1]) * rng.randint(1, d - 1) for _ in range(n)))


def rewritten(rng, w, steps):
    """Apply sound rewrites: braid relations, far commutation, free pairs."""
    letters = list(w.letters)
    d = w.strands
    for _ in range(steps):
        kind = rng.randint(0, 3)
        if kind == 0 and len(letters) >= 3:
            spots = [
                j
                for j in range(len(letters) - 2)
                if letters[j] == letters[j + 2]
                and letters[j + 1] * letters[j] > 0
                and abs(abs(letters[j]) - abs(letters[j + 1])) == 1
            ]
            if spots:
                j = rng.choice(spots)
                a, b = letters[j], letters[j + 1]
                letters[j : j + 3] = [b, a, b]
                continue
        if kind == 1 and len(letters) >= 2:
            spots = [
                j
                for j in range(len(letters) - 1)
                if abs(abs(letters[j]) - abs(letters[j + 1])) >= 2
            ]
            if spots:
                j = rng.choice(spots)
                letters[j], letters[j + 1] = letters[j + 1], letters[j]
                continue
        if kind == 2:
            j = rng.randint(0, len(letters))
            g = rng.choice([1, -1]) * rng.randint(1, d - 1)
            letters[j:j] = [g, -g]
            continue
        spots = [j for j in range(len(letters) - 1) if letters[j] == -letters[j + 1]]
        if spots:
            j = rng.choice(spots)
            del letters[j : j + 2]
    return BraidWord(d, tuple(letters))


def test_criterion_1():
    """1000 seeded rewrite-related pairs agree in canonical form, under 60 s."""
    rng = random.Random(101)
    start = time.monotonic()
    for case in range(1000):
        d = rng.randint(2, 8)
        base = rand_word(rng, d, rng.randint(0, 176))
        other = rewritten(rng, base, rng.randint(1, 12))
        assert len(base.letters) <= 200 and len(other.letters) <= 200
        nf1 = canonical_form(base)
        nf2 = canonical_form(other)
        assert nf1 == nf2, (case, d, base.letters, other.letters)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"word-problem batch took {elapsed:.1f}s"


def test_criterion_2():
    """Full twist: exponent sum, trivial permutation, inf 2, centrality."""
    for d in range(2, 9):
        ft = full_twist(d)
        assert exponent_sum(ft) == d * (d - 1)
        assert permutation_of(ft) == tuple(range(d))
        assert canonical_form(ft) == (2, ())
        for i in range(1, d):
            gen = BraidWord(d, (i,))
            left = BraidWord(d, ft.letters + gen.letters)
            right = BraidWord(d, gen.letters + ft.letters)
            assert equals(left, right)


def test_criterion_3():
    """Moves preserve the product, invert each other, satisfy braid relations."""
    rng = random.Random(303)
    for case in range(500):
        d = rng.randint(2, 5)
        r = rng.randint(3, 5)
        factors = tuple(rand_word(rng, d, rng.randint(1, 6)) for _ in range(r))
        target = BraidWord(d, sum((w.letters for w in factors), ()))
        F = Factorization(d, factors, target)
        base_nf = canonical_form(product_word(F))

        for i in range(1, r):
            moved = hurwitz_move(F, i, "left")
            assert canonical_form(product_word(moved)) == base_nf, (case, i)
            back = hurwitz_move(moved, i, "right")
            assert all(
                equals(a, b) for a, b in zip(factor_words(back), factor_words(F))
            ), (case, i, "right after left")
            moved = hurwitz_move(F, i, "right")
            assert canonical_form(product_word(moved)) == base_nf, (case, i)
            back = hurwitz_move(moved, i, "left")
            assert all(
                equals(a, b) for a, b in zip(factor_words(back), factor_words(F))
            ), (case, i, "left after right")

        if r >= 3:
            i = rng.randint(1, r - 2)
            lhs = hurwitz_move(hurwitz_move(hurwitz_move(F, i, "left"), i + 1, "left"), i, "left")
            rhs = hurwitz_move(hurwitz_move(hurwitz_move(F, i + 1, "left"), i, "left"), i + 1, "left")
            assert all(
                equals(a, b) for a, b in zip(factor_words(lhs), factor_words(rhs))
            ), (case, i, "braid relation")


def test_criterion_4():
    """Two branch points on two strands give the double cover of the line."""
    F = Factorization(
        2,
        (CuspidalFactor(identity_word(2), 1), CuspidalFactor(identity_word(2), 1)),
        None,
    )
    report = validate(F)
    assert report.ok
    counts = singularity_counts(F)
    assert (counts.n1, counts.n2, counts.n3) == (2, 0, 0)
    P = zvk_presentation(F)
    S = simplify(P)
    assert S.ngens == 1
    assert group_order(S) == 2
    assert len(enumerate_homs(S, 2, up_to_conjugacy=True, epi_only=True)) == 1
    assert len(enumerate_homs(S, 3, up_to_conjugacy=True, epi_only=True)) == 0


def test_criterion_5():
    """Cuspidal-cubic search succeeds; its complement group order is checked.

    The final assertion compares the computed order against the expected
    value 12.  The computation never uses the expected value: the order is
    obtained by coset enumeration on the presentation derived from the
    factorization the search returns.
    """
    F = search_factorization(3, (3, 1, 1, 1), 4)
    assert F is not None, "no factorization found for profile (3,1,1,1)"
    assert validate(F).ok
    counts = singularity_counts(F)
    assert (counts.n1, counts.n2, counts.n3) == (3, 0, 1)

    assert not profile_exponent_ok(3, (2, 1, 1, 1))
    assert search_factorization(3, (2, 1, 1, 1), 3) is None
    assert profile_exponent_ok(3, (2, 1, 1, 1, 1))

    P = zvk_presentation(F)
    S = simplify(P)
    order = group_order(S, budget=200000)
    assert order is not None, "coset enumeration did not terminate"
    assert order == 12, (
        f"computed complement group order {order}, expected 12; "
        f"presentation after simplification: gens={S.ngens}, "
        f"relators={[r.letters for r in S.relators]}"
    )


def _scramble(rng, F, moves, zlen):
    G = F
    for _ in range(moves):
        if F.r < 2:
            break
        i = rng.randint(1, F.r - 1)
        G = hurwitz_move(G, i, rng.choice(["left", "right"]))
    z = rand_word(rng, F.strands, rng.randint(0, zlen))
    return conjugate_all(G, z)


def test_criterion_6():
    """200 scrambled pairs decided equivalent with exact replay, 200 distinguished."""
    rng = random.Random(606)
    conic = Factorization(
        2,
        (CuspidalFactor(identity_word(2), 1), CuspidalFactor(identity_word(2), 1)),
        None,
    )
    cubic = search_factorization(3, (3, 1, 1, 1), 4)
    six = search_factorization(3, (1,) * 6, 2)
    nodal = search_factorization(3, (2, 2, 1, 1), 3)
    pool = [conic, cubic, six, nodal]
    assert all(F is not None for F in pool)

    budget = SearchBudget(max_states=3000)
    for case in range(200):
        F1 = pool[case % len(pool)]
        F2 = _scramble(rng, F1, rng.randint(0, 4), 2)
        v = decide_equivalence(F1, F2, budget)
        assert v.outcome == "equivalent", (case, v.outcome, v.field)
        G = replay(F1, v.path, v.conjugator)
        assert G.strands == F2.strands and G.r == F2.r
        assert all(
            equals(a, b) for a, b in zip(factor_words(G), factor_words(F2))
        ), (case, "replay mismatch")

    # pairs that differ in s-multiset or in factor count, then scrambled
    contrasts = [(cubic, nodal), (cubic, six), (nodal, six), (six, cubic)]
    for case in range(200):
        A, B = contrasts[case % len(contrasts)]
        F1 = _scramble(rng, A, rng.randint(0, 3), 1)
        F2 = _scramble(rng, B, rng.randint(0, 3), 1)
        v = decide_equivalence(F1, F2, budget)
        assert v.outcome == "distinguished", (case, v.outcome)
        assert v.field in ("s_multiset", "factor_count"), (case, v.field)


def test_criterion_7():
    """Nine-line arrangement: 12 triple points covering all 36 line pairs."""
    start = time.monotonic()
    lattice = intersection_lattice(hesse_dual_lines())
    elapsed = time.monotonic() - start
    assert len(lattice) == 12
    assert all(mult == 3 for _, mult in lattice)
    assert sum(math.comb(mult, 2) for _, mult in lattice) == 36
    assert elapsed < 1.0, f"lattice took {elapsed:.3f}s"


def test_criterion_8():
    """Exact invariant rows for m = 5..10 and identities for m = 1..50."""
    expected = {
        5: (8325, 26640, 45289, 115440),
        6: (11988, 37962, 63271, 162393),
        7: (16317, 51282, 84250, 217338),
        8: (21312, 66600, 108226, 280275),
        9: (26973, 83916, 135199, 351204),
        10: (33300, 103230, 165169, 430125),
    }
    for m, (deg_f, d, g, kappa) in expected.items():
        inv = branch_curve_invariants(m)
        assert inv.deg_f == deg_f == 333 * m * m
        assert inv.d == d == 333 * m * (3 * m + 1)
        assert inv.g == g == 333 * (3 * m + 2) * (3 * m + 1) // 2 + 1
        assert inv.kappa == kappa == 111 * (36 * m * m + 27 * m + 5)
        assert inv.in_standard_range

    for m in range(1, 51):
        inv = branch_curve_invariants(m)
        rep = check_consistency(inv)
        assert rep.ok, (m, rep)
        assert inv.delta >= 0
        assert inv.n1 == 2 * inv.d + 2 * inv.g - 2 - inv.kappa
        assert inv.n1 >= 0
