"""Complement-group presentations, Tietze moves, homs, coset enumeration."""

import itertools
import math
import random
from pathlib import Path

import pytest

from braidfact import complement
from braidfact.braid import BraidWord, cycle_type, full_twist
from braidfact.complement import (
    FinitePresentation,
    FreeWord,
    SymmetricImage,
    _abelian_rank,
    _class_minima,
    _cyclically_reduced,
    artin_action,
    enumerate_homs,
    format_homs,
    format_presentation,
    group_order,
    parse_presentation,
    simplify,
    zvk_presentation,
)
from braidfact.errors import FormatError, SearchBudgetExceeded
from braidfact.factorization import (
    CuspidalFactor,
    Factorization,
    conjugate_all,
    hurwitz_move,
    parse_factorization,
    search_factorization,
)

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def cuspidal(d, *pairs):
    factors = tuple(CuspidalFactor(BraidWord(d, rho), s) for rho, s in pairs)
    return Factorization(d, factors, full_twist(d))


CONIC = cuspidal(2, ((), 1), ((), 1))
CUBIC = cuspidal(3, ((), 1), ((-2,), 1), ((2,), 1), ((), 3))
# classical controls, as braidfact search finds them (factor lines rho, s)
SMOOTH_CUBIC = cuspidal(3, ((), 1), ((), 1), ((), 1), ((), 1), ((-2,), 1), ((2,), 1))
CONIC_LINE = cuspidal(3, ((), 1), ((), 1), ((-2,), 2), ((-2, -1), 2))
QUARTIC_TWO_CUSP = cuspidal(
    4,
    ((), 1), ((), 1), ((), 1), ((-2, -3), 1), ((-2, -1), 1), ((2, 3), 1), ((2,), 3), ((2, -1), 3),
)
QUARTIC_THREE_CUSP = cuspidal(
    4, ((-2, -3), 1), ((-2, -1), 1), ((2, 3), 1), ((), 3), ((-2,), 3), ((-2, -2), 3)
)

TREFOIL = FinitePresentation(2, (FreeWord((1, 2, 1, -2, -1, -2)),))
S3_PRES = FinitePresentation(2, (FreeWord((1, 1)), FreeWord((2, 2)), FreeWord((1, 2) * 3)))
QUATERNION = FinitePresentation(
    2, (FreeWord((1,) * 4), FreeWord((1, 1, -2, -2)), FreeWord((-2, 1, 2, 1)))
)
METACYCLIC_12 = FinitePresentation(
    2, (FreeWord((1, 1, 1)), FreeWord((2, 2, 2, 2)), FreeWord((-2, 1, 2, 1)))
)


def test_free_word_reduction():
    assert FreeWord((1, -1)).letters == ()
    assert FreeWord((1, 2, -2, -1, 3)).letters == (3,)
    assert FreeWord((1, 2, 1)).inverse().letters == (-1, -2, -1)
    assert (FreeWord((1, 2)) * FreeWord((-2, 3))).letters == (1, 3)
    assert FreeWord((-2, 1, 2)).cyclically_reduced().letters == (1,)
    with pytest.raises(ValueError):
        FreeWord((0,))


def test_free_word_letters_are_ints():
    # each letter goes through operator.index before the zero check, as in BraidWord
    for letters in ((0.5, 2), (1.7, -2), (2.0,), ("1",)):
        with pytest.raises(TypeError):
            FreeWord(letters)
    with pytest.raises(ValueError):
        FreeWord((1, 0))
    w = FreeWord((True, 2, -2))
    assert w.letters == (1,) and type(w.letters[0]) is int


def test_presentation_generator_count_is_an_int():
    # ngens goes through operator.index, as a FreeWord's letters do
    for ngens in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            FinitePresentation(ngens, ())
    P = FinitePresentation(True, (FreeWord((1, 1)),))
    assert P.ngens == 1 and type(P.ngens) is int
    assert parse_presentation(format_presentation(P)) == P
    with pytest.raises(ValueError):
        FinitePresentation(-1, ())


def test_cyclic_reduction():
    cases = {
        (): (),
        (3,): (3,),
        (1, 2, 1): (1, 2, 1),
        (1, 2, -1, -2): (1, 2, -1, -2),
        (-2, 1, 2): (1,),  # one peel
        (1, 2, 3, -1): (2, 3),  # one peel, two letters left
        (1, 2, 3, -2, -1): (3,),  # two peels
        (1, -2, 3, 1, 2, -1): (3, 1),  # two peels, two letters left
        (1, 2, 1, 3, -1, -2, -1): (3,),  # three peels
    }
    for letters, want in cases.items():
        assert _cyclically_reduced(letters) == want, letters
        assert FreeWord(letters).cyclically_reduced().letters == want, letters
    # a 40,001-letter conjugate of x_2
    assert FreeWord((1,) * 20000 + (2,) + (-1,) * 20000).cyclically_reduced().letters == (2,)


def test_artin_action_generator_rules():
    x1, x2, x3 = FreeWord((1,)), FreeWord((2,)), FreeWord((3,))
    s1 = BraidWord(3, (1,))
    assert artin_action(s1, x1).letters == (1, 2, -1)
    assert artin_action(s1, x2).letters == (1,)
    assert artin_action(s1, x3).letters == (3,)
    s1inv = BraidWord(3, (-1,))
    assert artin_action(s1inv, x1).letters == (2,)
    assert artin_action(s1inv, x2).letters == (-2, 1, 2)
    # inverse letters of the free word map to inverse images
    assert artin_action(s1, x1.inverse()).letters == (1, -2, -1)
    with pytest.raises(ValueError, match="strand count"):
        artin_action(s1, FreeWord((4,)))


def test_artin_action_is_an_action():
    rng = random.Random(2)
    for _ in range(100):
        d = rng.randint(2, 5)
        u = FreeWord(tuple(rng.choice([1, -1]) * rng.randint(1, d) for _ in range(6)))
        w1 = BraidWord(d, tuple(rng.choice([1, -1]) * rng.randint(1, d - 1) for _ in range(4)))
        w2 = BraidWord(d, tuple(rng.choice([1, -1]) * rng.randint(1, d - 1) for _ in range(4)))
        composite = BraidWord(d, w1.letters + w2.letters)
        assert artin_action(composite, u) == artin_action(w2, artin_action(w1, u))


def test_artin_action_respects_braid_relations():
    for d in (3, 4):
        lhs = BraidWord(d, (1, 2, 1))
        rhs = BraidWord(d, (2, 1, 2))
        for j in range(1, d + 1):
            x = FreeWord((j,))
            assert artin_action(lhs, x) == artin_action(rhs, x)
    far1 = BraidWord(4, (1, 3))
    far2 = BraidWord(4, (3, 1))
    for j in range(1, 5):
        assert artin_action(far1, FreeWord((j,))) == artin_action(far2, FreeWord((j,)))


def test_full_twist_acts_by_one_global_conjugation():
    # the same word c = x_1 x_2 ... x_d conjugates every generator
    for d in range(2, 6):
        c = FreeWord(tuple(range(1, d + 1)))
        for j in range(1, d + 1):
            got = artin_action(full_twist(d), FreeWord((j,)))
            assert got == c * FreeWord((j,)) * c.inverse(), (d, j)


def test_zvk_presentation_shapes():
    P = zvk_presentation(CONIC)
    assert P.ngens == 2
    assert [r.letters for r in P.relators] == [(1, -2), (1, -2), (1, 2)]

    # a trivial-conjugator s=2 factor contributes the plain commutator
    nodal = search_factorization(3, (2, 2, 2), 2)
    P3 = zvk_presentation(nodal)
    assert P3.ngens == 3
    assert P3.relators[0].letters == (1, 2, -1, -2)
    assert P3.relators[-1].letters == (1, 2, 3)

    # CUBIC's last factor is (rho empty, s=3): the plain cusp relator
    Pc = zvk_presentation(CUBIC)
    assert Pc.relators[3].letters == (1, 2, 1, -2, -1, -2)


def generator_factor(d, j, s=1):
    # rho^-1 X_1^s rho = X_j^s for rho = (X_2^-1 X_1^-1)(X_3^-1 X_2^-1)...(X_j^-1 X_{j-1}^-1)
    return CuspidalFactor(BraidWord(d, tuple(l for i in range(1, j) for l in (-(i + 1), -i))), s)


def letterwise(d):
    """The full twist as d(d-1) branch points, one per letter of (X_1 ... X_{d-1})^d."""
    return Factorization(d, tuple(generator_factor(d, j) for j in full_twist(d).letters))


def test_projective_relator_is_fixed_by_every_generator():
    for d in range(2, 9):
        last = zvk_presentation(letterwise(d)).relators[-1]
        for i in range(1, d):
            for k in (i, -i):
                assert artin_action(BraidWord(d, (k,)), last) == last, (d, k)


def reference_relator(rho, s):
    # the relator built from a = rho.x_1 and b = rho.x_2
    a = artin_action(rho, FreeWord((1,)))
    b = artin_action(rho, FreeWord((2,)))
    if s == 1:
        return a * b.inverse()
    if s == 2:
        return a * b * a.inverse() * b.inverse()
    return a * b * a * b.inverse() * a.inverse() * b.inverse()


def test_local_relators_match_the_images_of_x1_and_x2():
    # the full twist of B_3 with a cusp (CUBIC) or a node (CONIC_LINE),
    # times X_{k-1}...X_1 X_1...X_{k-1} for k = 4..d, scrambled by a
    # seeded conjugation and Hurwitz moves
    rng = random.Random(29)
    for d in range(3, 7):
        tail = tuple(
            generator_factor(d, j) for k in range(4, d + 1) for j in (*range(k - 1, 0, -1), *range(1, k))
        )
        for base in (CUBIC, CONIC_LINE):
            head = tuple(CuspidalFactor(BraidWord(d, f.rho.letters), f.s) for f in base.factors)
            F = Factorization(d, head + tail)
            z = tuple(rng.choice((1, -1)) * rng.randint(1, d - 1) for _ in range(rng.randint(1, 6)))
            F = conjugate_all(F, BraidWord(d, z))
            for _ in range(3):
                F = hurwitz_move(F, rng.randint(1, F.r - 1), rng.choice(("left", "right")))
            P = zvk_presentation(F)
            assert {f.s for f in F.factors} == {1, base.factors[-1].s}
            for f, r in zip(F.factors, P.relators):
                assert r == reference_relator(f.rho, f.s), (d, f)


def test_zvk_requires_validation_and_cuspidal_form():
    with pytest.raises(ValueError):
        zvk_presentation(cuspidal(2, ((), 1)))
    plain = Factorization(2, (BraidWord(2, (1,)), BraidWord(2, (1,))), full_twist(2))
    with pytest.raises(ValueError):
        zvk_presentation(plain)


def test_simplify_conic_to_one_generator():
    P = simplify(zvk_presentation(CONIC))
    assert P.ngens == 1
    assert [r.letters for r in P.relators] == [(1, 1)]


def test_simplify_cubic_witness():
    P = simplify(zvk_presentation(CUBIC))
    assert P.ngens == 1
    assert [r.letters for r in P.relators] == [(1, 1, 1)]


def test_simplify_rejects_a_nonpositive_budget():
    for budget in (0, -1):
        with pytest.raises(ValueError, match="budget"):
            simplify(TREFOIL, budget)


def test_simplify_preserves_hom_counts():
    rng = random.Random(17)
    for _ in range(25):
        ngens = rng.randint(1, 3)
        relators = tuple(
            FreeWord(tuple(rng.choice([1, -1]) * rng.randint(1, ngens) for _ in range(rng.randint(1, 6))))
            for _ in range(rng.randint(0, 3))
        )
        P = FinitePresentation(ngens, relators)
        Q = simplify(P)
        for n in (2, 3):
            assert len(enumerate_homs(P, n, up_to_conjugacy=False)) == len(
                enumerate_homs(Q, n, up_to_conjugacy=False)
            ), (P, Q, n)


def reference_simplify(P, budget):
    """simplify as a loop over FreeWords, every intermediate word wrapped and checked."""

    def cyclic(w):
        ls = list(w.letters)
        while len(ls) > 1 and ls[0] == -ls[-1]:
            ls = ls[1:-1]
        return FreeWord(tuple(ls))

    ngens = P.ngens
    relators = [cyclic(r) for r in P.relators]
    steps = 0
    while steps < budget:
        relators = [r for r in relators if r.letters]
        seen: set = set()
        kept = []
        for r in relators:
            if r.letters not in seen:
                seen.add(r.letters)
                kept.append(r)
        relators = kept
        best = None
        for ri, r in enumerate(relators):
            counts: dict[int, int] = {}
            for l in r.letters:
                counts[abs(l)] = counts.get(abs(l), 0) + 1
            for gen, cnt in counts.items():
                if cnt == 1:
                    cand = (len(r), gen, ri)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            break
        _, gen, ri = best
        r = relators.pop(ri)
        pos = next(i for i, l in enumerate(r.letters) if abs(l) == gen)
        rotated = r.letters[pos:] + r.letters[:pos]
        rest = FreeWord(rotated[1:])
        repl = rest.inverse() if rotated[0] > 0 else rest
        table = {h: (h - 1,) for h in range(gen + 1, ngens + 1)}
        table[gen] = complement._substitute(repl.letters, table)
        relators = [cyclic(FreeWord(complement._substitute(x.letters, table))) for x in relators]
        ngens -= 1
        steps += 1
    relators = [r for r in relators if r.letters]
    return FinitePresentation(ngens, tuple(relators))


def test_simplify_matches_the_free_word_reference():
    # budgets below the generator count stop early and keep the last step's duplicates
    rng = random.Random(53)
    presentations = []
    for path in sorted(DATA.glob("*.fact")):
        F = parse_factorization(path.read_text())
        presentations.append(zvk_presentation(F))
        for _ in range(2):
            G = F
            for _ in range(rng.randint(1, 28)):
                G = hurwitz_move(G, rng.randint(1, G.r - 1), rng.choice(("left", "right")))
            presentations.append(zvk_presentation(G))
    assert len(presentations) == 18
    presentations += [random_presentation(rng, rng.randint(1, 5), 0, 6) for _ in range(60)]
    for P in presentations:
        for budget in (1, 2, 100):
            assert simplify(P, budget) == reference_simplify(P, budget), (P, budget)


def naive_homs(P, n):
    """Every homomorphism to S_n, as 0-based image tuples, sorted."""
    identity = tuple(range(n))
    perms = list(itertools.permutations(identity))

    def ev(r, images):
        cur = identity
        for k in r.letters:
            p = images[abs(k) - 1]
            if k < 0:
                inv = [0] * n
                for x, y in enumerate(p):
                    inv[y] = x
                p = tuple(inv)
            cur = tuple(p[c] for c in cur)
        return cur

    return sorted(
        choice
        for choice in itertools.product(perms, repeat=P.ngens)
        if all(ev(r, choice) == identity for r in P.relators)
    )


def naive_generates(images, n):
    group = {tuple(range(n))}
    while True:
        grown = group | {tuple(p[x] for x in g) for g in group for p in images}
        if grown == group:
            return len(group) == math.factorial(n)
        group = grown


def naive_class_min(images, n):
    # simultaneous conjugation by every c in S_n: x -> c(p(c^-1(x)))
    out = []
    for c in itertools.permutations(range(n)):
        c_inv = tuple(c.index(x) for x in range(n))
        out.append(tuple(tuple(c[p[c_inv[x]]] for x in range(n)) for p in images))
    return min(out)


def assert_homs_match_naive(P, n):
    homs = naive_homs(P, n)
    epi = {h: naive_generates(h, n) for h in homs}
    minima = [h for h in homs if h == naive_class_min(h, n)]
    for up_to_conjugacy, epi_only in itertools.product((False, True), repeat=2):
        want = [h for h in (minima if up_to_conjugacy else homs) if epi[h] or not epi_only]
        got = enumerate_homs(P, n, up_to_conjugacy=up_to_conjugacy, epi_only=epi_only)
        case = (P, n, up_to_conjugacy, epi_only)
        assert [h.images for h in got] == want, case
        assert [h.epi for h in got] == [epi[h] for h in want], case
        assert all(h.n == n for h in got), case


def random_presentation(rng, ngens, min_relators, max_relators):
    return FinitePresentation(
        ngens,
        tuple(
            FreeWord(tuple(rng.choice([1, -1]) * rng.randint(1, ngens) for _ in range(rng.randint(1, 5))))
            for _ in range(rng.randint(min_relators, max_relators))
        ),
    )


def test_enumerate_homs_matches_naive_product():
    rng = random.Random(3)
    presentations = [
        TREFOIL,
        S3_PRES,
        FinitePresentation(1, (FreeWord((1, 1, 1)),)),
        FinitePresentation(2, ()),
        FinitePresentation(0, ()),
    ]
    presentations += [random_presentation(rng, rng.randint(1, 2), 0, 2) for _ in range(10)]
    # three generators, at least one relator so the naive census stays small
    presentations += [random_presentation(rng, 3, 1, 3) for _ in range(6)]
    for P in presentations:
        for n in (1, 2, 3, 4):
            assert_homs_match_naive(P, n)
    assert_homs_match_naive(simplify(zvk_presentation(QUARTIC_THREE_CUSP), 100), 5)


def test_class_minima_are_the_least_of_each_cycle_type():
    for n in range(1, 7):
        least = {}
        for p in itertools.permutations(range(n)):
            least.setdefault(cycle_type(p), p)
        assert sorted(_class_minima(n)) == sorted(least.values()), n


def test_enumerate_homs_conjugacy_classes():
    # trefoil group onto S_3: six epimorphisms forming one class
    epis = enumerate_homs(TREFOIL, 3, up_to_conjugacy=False, epi_only=True)
    assert len(epis) == 6
    classes = enumerate_homs(TREFOIL, 3, up_to_conjugacy=True, epi_only=True)
    assert len(classes) == 1
    assert classes[0].epi
    assert all(sorted(p) == [0, 1, 2] for p in classes[0].images)


def test_enumerate_homs_is_deterministic_and_sorted():
    a = enumerate_homs(S3_PRES, 3)
    b = enumerate_homs(S3_PRES, 3)
    assert a == b
    assert a == sorted(a, key=lambda h: h.images)


def test_enumerate_homs_work_limit(monkeypatch):
    # Z into S_3: 3 class minima tried, each a new class of 6 conjugates
    Z = FinitePresentation(1, ())
    monkeypatch.setattr(complement, "HOMS_MAX_WORK", 21)
    assert len(enumerate_homs(Z, 3)) == 3
    monkeypatch.setattr(complement, "HOMS_MAX_WORK", 20)
    with pytest.raises(SearchBudgetExceeded):
        enumerate_homs(Z, 3)


def test_enumerate_homs_caps():
    with pytest.raises(ValueError):
        enumerate_homs(TREFOIL, 8)
    with pytest.raises(ValueError):
        enumerate_homs(FinitePresentation(9, ()), 2)


def test_group_order_oracles():
    assert group_order(FinitePresentation(1, (FreeWord((1,)),))) == 1
    assert group_order(FinitePresentation(0, ())) == 1
    assert group_order(FinitePresentation(1, (FreeWord((1, 1, 1)),))) == 3
    assert group_order(S3_PRES) == 6
    assert group_order(QUATERNION) == 8
    assert group_order(METACYCLIC_12) == 12
    for n in range(1, 7):
        assert group_order(FinitePresentation(1, (FreeWord((1,) * n),))) == n


def test_group_order_sandwich_s3():
    # coset count and an S_3 epimorphism pin the group exactly
    assert group_order(S3_PRES) == 6
    assert len(enumerate_homs(S3_PRES, 3, epi_only=True)) >= 1


def test_group_order_infinite_returns_none():
    assert group_order(TREFOIL, budget=3000) is None
    assert group_order(FinitePresentation(1, ())) is None  # the integers
    assert group_order(FinitePresentation(2, (FreeWord((1, 2, -1, -2)),)), budget=2000) is None


def test_abelian_rank_hand_computed_cases():
    # infinite abelianization: the rank is below the generator count, and
    # group_order answers None whatever the budget
    for P, rank in (
        (TREFOIL, 1),
        (FinitePresentation(2, ()), 0),
        (zvk_presentation(CONIC_LINE), 2),
    ):
        assert _abelian_rank(P) == rank < P.ngens, P
        assert group_order(P) is None
        assert group_order(P, budget=1) is None
    # full rank: the order comes from the coset table as before
    for P, order in ((S3_PRES, 6), (QUATERNION, 8), (METACYCLIC_12, 12)):
        assert _abelian_rank(P) == P.ngens == 2
        assert group_order(P) == order
    # elimination over Q: rows (2, 4) and (3, 6) are dependent, (2, 4, 0) and (0, 0, 5) are not
    a, b, c = FreeWord((1, 1, 2, 2, 2, 2)), FreeWord((1,) * 3 + (2,) * 6), FreeWord((3,) * 5)
    assert _abelian_rank(FinitePresentation(2, (a, b))) == 1
    assert _abelian_rank(FinitePresentation(3, (a, c))) == 2


def test_group_order_infinite_with_finite_abelianization_exhausts_budget():
    # Z/2 * Z/3 is infinite with abelianization Z/6: full rank, so the
    # coset enumeration runs and runs out
    P = FinitePresentation(2, (FreeWord((1, 1)), FreeWord((2, 2, 2))))
    assert _abelian_rank(P) == 2
    assert group_order(P, budget=2000) is None


def test_group_order_budget_starvation_is_none_not_wrong():
    assert group_order(METACYCLIC_12, budget=3) is None


def test_group_order_of_wide_finite_groups_at_a_tight_budget():
    # three or more generators: the table stops at 4 * budget cells, so the
    # budget buys 2 * budget // ngens rows; each group still gets its exact
    # order once those rows reach what two-generator rows would need
    for P, order, ngens, least in (
        (zvk_presentation(CUBIC), 3, 3, 5),  # 3 rows
        (zvk_presentation(QUARTIC_TWO_CUSP), 4, 4, 10),  # 5 rows
        (zvk_presentation(QUARTIC_THREE_CUSP), 12, 4, 86),  # 43 rows
    ):
        assert P.ngens == ngens
        assert group_order(P, budget=least) == order
        assert group_order(P, budget=least - 1) is None


def test_pipeline_orders():
    assert group_order(zvk_presentation(CONIC)) == 2
    assert group_order(zvk_presentation(CUBIC)) == 3


def test_smooth_cubic_group_is_cyclic_of_order_3():
    assert group_order(zvk_presentation(SMOOTH_CUBIC)) == 3


def test_conic_plus_line_group_is_infinite_cyclic():
    P = zvk_presentation(CONIC_LINE)
    Q = simplify(P)
    assert Q.ngens == 1 and Q.relators == ()
    assert group_order(P) is None


def test_two_cusp_quartic_group_has_order_4():
    assert group_order(zvk_presentation(QUARTIC_TWO_CUSP)) == 4


def test_three_cusp_quartic_group_has_order_12():
    # Zariski's three-cuspidal quartic: a group of order 12 on two generators
    P = zvk_presentation(QUARTIC_THREE_CUSP)
    assert group_order(P) == 12
    assert simplify(P).ngens == 2


def test_three_cusp_quartic_s6_census():
    # measured by the full product search: 10 classes, 1,216 homs, no epimorphism
    Q = simplify(zvk_presentation(QUARTIC_THREE_CUSP), 100)
    assert len(enumerate_homs(Q, 6)) == 10
    assert len(enumerate_homs(Q, 6, up_to_conjugacy=False)) == 1216
    assert enumerate_homs(Q, 6, epi_only=True) == []
    assert enumerate_homs(Q, 6, up_to_conjugacy=False, epi_only=True) == []


def test_hom_counts_invariant_under_hurwitz_moves():
    rng = random.Random(41)
    for _ in range(20):
        F = CUBIC
        for _ in range(rng.randint(1, 3)):
            F = hurwitz_move(F, rng.randint(1, F.r - 1), rng.choice(("left", "right")))
        P, Q = zvk_presentation(CUBIC), zvk_presentation(F)
        for n in (2, 3, 4):
            assert len(enumerate_homs(P, n, up_to_conjugacy=False)) == len(
                enumerate_homs(Q, n, up_to_conjugacy=False)
            )


def test_presentation_format_round_trip():
    for P in (TREFOIL, S3_PRES, METACYCLIC_12, zvk_presentation(CUBIC)):
        text = format_presentation(P)
        Q = parse_presentation(text)
        assert Q == P
        assert format_presentation(Q) == text


def test_parse_presentation_rejects_malformed():
    with pytest.raises(FormatError):
        parse_presentation("")
    with pytest.raises(FormatError):
        parse_presentation("x\n1 2\n")
    with pytest.raises(FormatError):
        parse_presentation("2\n1 3\n")  # generator out of range
    with pytest.raises(FormatError):
        parse_presentation("2\n1 0\n")


def test_format_homs_cycle_notation():
    homs = enumerate_homs(S3_PRES, 3, epi_only=True)
    text = format_homs(homs)
    assert "(1 2)" in text
    assert text.endswith("\n")
    # 0-based image tuples are written as 1-based cycles
    h = SymmetricImage(4, ((1, 0, 3, 2), (0, 1, 2, 3), (1, 2, 0, 3)), True)
    assert format_homs([h]) == "(1 2)(3 4) () (1 2 3)\n"


def test_enumerate_homs_returns_zero_based_image_tuples():
    # the free group on one generator into S_2: the trivial map and the epimorphism
    assert enumerate_homs(FinitePresentation(1, ()), 2) == [
        SymmetricImage(2, ((0, 1),), False),
        SymmetricImage(2, ((1, 0),), True),
    ]
