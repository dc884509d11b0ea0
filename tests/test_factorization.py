"""Cuspidal factorizations: validation, Hurwitz moves, conjugation, search."""

import itertools
import random
from pathlib import Path

import pytest

from braidfact.braid import (
    BraidWord,
    _braids,
    canonical_form,
    compose,
    enumerate_braids,
    equals,
    full_twist,
    identity_word,
    invert,
    nf_key,
    nf_mul,
)
from braidfact import factorization
from braidfact.errors import FormatError, SearchBudgetExceeded
from braidfact.factorization import (
    CuspidalFactor,
    _cusp_key,
    _least_in_class,
    _orderings,
    Factorization,
    canonical_key,
    conjugate_all,
    factor_word,
    factor_words,
    format_factorization,
    hurwitz_move,
    parse_factorization,
    product_word,
    profile_exponent_ok,
    search_factorization,
    singularity_counts,
    validate,
)


def eps(d):
    return identity_word(d)


def cuspidal(d, *pairs):
    """Factorization of the d-strand full twist from (rho letters, s) pairs."""
    factors = tuple(CuspidalFactor(BraidWord(d, rho), s) for rho, s in pairs)
    return Factorization(d, factors, full_twist(d))


CONIC = cuspidal(2, ((), 1), ((), 1))
CUBIC = cuspidal(3, ((), 1), ((-2,), 1), ((2,), 1), ((), 3))
QUARTIC = cuspidal(
    4, ((-2, -3), 1), ((-2, -1), 1), ((2, 3), 1), ((), 3), ((-2,), 3), ((-2, -2), 3)
)


def rand_cuspidal(rng, d, r):
    """Random cuspidal factor tuple; target set to the actual product."""
    factors = tuple(
        CuspidalFactor(
            BraidWord(d, tuple(rng.choice([1, -1]) * rng.randint(1, d - 1)
                               for _ in range(rng.randint(0, 3)))),
            rng.choice((1, 2, 3)),
        )
        for _ in range(r)
    )
    F = Factorization(d, factors, identity_word(d))
    return Factorization(d, factors, product_word(F))


def test_factor_word_shape():
    f = CuspidalFactor(BraidWord(3, (2,)), 3)
    assert factor_word(f).letters == (-2, 1, 1, 1, 2)
    f = CuspidalFactor(BraidWord(3, ()), 1)
    assert factor_word(f).letters == (1,)


def test_factor_key_is_the_conjugated_power_key():
    # the search keys each candidate's factor from the conjugator's key alone
    for d in range(2, 6):
        for max_len in range(3):
            for key, word in _braids(d, max_len):
                for s in (1, 2, 3):
                    factor = factor_word(CuspidalFactor(BraidWord(d, word), s))
                    assert _cusp_key(d, s, key) == nf_key(factor), (word, s)


def test_keys_and_validate_agree_with_the_word_path():
    # the word path (factor_words, product_word) is the reference
    cases = []
    for F in (CONIC, CUBIC, QUARTIC):
        d = F.strands
        cases += [F, hurwitz_move(F, 1, "left"), conjugate_all(F, BraidWord(d, (d - 1, -1, -1)))]
    corrupted = list(CUBIC.factors)
    corrupted[1] = CuspidalFactor(BraidWord(3, (1,)), 1)
    cases.append(Factorization(3, corrupted, full_twist(3)))
    cases.append(parse_factorization("strands 3\ntarget full_twist\nfactor word=1 2 1\nfactor word=2 1 2\n"))
    cases.append(parse_factorization("strands 3\ntarget full_twist\n"))
    for F in cases:
        assert canonical_key(F) == tuple(nf_key(w) for w in factor_words(F)), F
        assert validate(F).product_ok == equals(product_word(F), F.target), F
    assert {validate(F).product_ok for F in cases} == {True, False}


def test_conic_validates():
    report = validate(CONIC)
    assert report.product_ok and report.ok
    c = report.counts
    assert (c.n1, c.n2, c.n3) == (2, 0, 0)


def test_cubic_witness_validates():
    report = validate(CUBIC)
    assert report.product_ok and report.exponent_ok
    assert (report.counts.n1, report.counts.n2, report.counts.n3) == (3, 0, 1)


def test_validate_reports_failure_without_raising():
    bad = cuspidal(2, ((), 1))
    report = validate(bad)
    assert not report.product_ok and not report.exponent_ok and not report.ok


def test_singularity_counts_none_for_plain_words():
    F = Factorization(2, (BraidWord(2, (1,)), BraidWord(2, (1,))), full_twist(2))
    assert singularity_counts(F) is None
    assert validate(F).product_ok


def test_factorization_input_checks():
    with pytest.raises(ValueError):
        Factorization(3, (CuspidalFactor(BraidWord(2, (1,)), 1),), full_twist(3))
    with pytest.raises(ValueError, match="target strand count"):
        Factorization(3, (), full_twist(2))
    with pytest.raises(ValueError, match="CuspidalFactor or BraidWord"):
        Factorization(2, ((1,),))
    with pytest.raises(ValueError, match="cannot mix"):
        Factorization(2, (CuspidalFactor(BraidWord(2, ()), 1), BraidWord(2, (1,))))
    with pytest.raises(ValueError):
        CuspidalFactor(BraidWord(3, ()), 4)
    with pytest.raises(IndexError):
        hurwitz_move(CONIC, 2, "left")
    with pytest.raises(ValueError):
        hurwitz_move(CONIC, 1, "up")
    with pytest.raises(ValueError):
        conjugate_all(CONIC, BraidWord(3, (1,)))


def test_cuspidal_factor_s_is_an_int():
    # s goes through operator.index, as a BraidWord's letters do: a float
    # is a TypeError, even one equal to an int; a bool is stored as its int
    rho = BraidWord(3, (1, -2))
    for s in (2.0, 2.5, "2"):
        with pytest.raises(TypeError):
            CuspidalFactor(rho, s)
    f = CuspidalFactor(rho, True)
    assert f == CuspidalFactor(rho, 1) and type(f.s) is int
    F = Factorization(3, (f, CuspidalFactor(rho, 2)))
    text = format_factorization(F)
    assert "factor s=1 rho=" in text and parse_factorization(text) == F


def test_factorization_strand_count_is_an_int():
    # strands goes through operator.index, as a BraidWord's does
    with pytest.raises(TypeError):
        Factorization(3.0, (BraidWord(3, (1,)),), full_twist(3))
    F = Factorization(True, ())
    assert F.strands == 1 and type(F.strands) is int
    assert validate(F).ok and parse_factorization(format_factorization(F)) == F


def test_cuspidal_factors_need_two_strands():
    # X_1 does not exist on one strand, so neither does a cuspidal factor
    with pytest.raises(ValueError):
        Factorization(1, (CuspidalFactor(BraidWord(1, ()), 1),))
    assert validate(Factorization(1, ())).ok


def test_moves_preserve_product_and_counts():
    rng = random.Random(60827)
    for _ in range(120):
        d = rng.randint(2, 5)
        F = rand_cuspidal(rng, d, rng.randint(3, 5))
        before = canonical_form(product_word(F))
        counts = singularity_counts(F)
        for _ in range(rng.randint(1, 6)):
            i = rng.randint(1, F.r - 1)
            F = hurwitz_move(F, i, rng.choice(("left", "right")))
        assert canonical_form(product_word(F)) == before
        assert singularity_counts(F) == counts
        assert validate(F).product_ok


def test_moves_left_right_inverse():
    rng = random.Random(4242)
    for _ in range(80):
        d = rng.randint(2, 5)
        F = rand_cuspidal(rng, d, rng.randint(2, 5))
        i = rng.randint(1, F.r - 1)
        G = hurwitz_move(hurwitz_move(F, i, "left"), i, "right")
        H = hurwitz_move(hurwitz_move(F, i, "right"), i, "left")
        for X in (G, H):
            assert all(equals(a, b) for a, b in zip(factor_words(F), factor_words(X)))


def test_moves_satisfy_tuple_braid_relations():
    rng = random.Random(900)
    for _ in range(60):
        d = rng.randint(2, 4)
        F = rand_cuspidal(rng, d, 4)
        for i in (1, 2):
            lhs = hurwitz_move(hurwitz_move(hurwitz_move(F, i, "right"), i + 1, "right"), i, "right")
            rhs = hurwitz_move(hurwitz_move(hurwitz_move(F, i + 1, "right"), i, "right"), i + 1, "right")
            assert all(equals(a, b) for a, b in zip(factor_words(lhs), factor_words(rhs)))
        # far moves commute
        F5 = rand_cuspidal(rng, d, 5)
        ab = hurwitz_move(hurwitz_move(F5, 1, "right"), 4, "right")
        ba = hurwitz_move(hurwitz_move(F5, 4, "right"), 1, "right")
        assert all(equals(a, b) for a, b in zip(factor_words(ab), factor_words(ba)))


def test_conjugate_all_conjugates_product():
    rng = random.Random(31)
    for _ in range(60):
        d = rng.randint(2, 5)
        F = rand_cuspidal(rng, d, rng.randint(2, 4))
        z = BraidWord(d, tuple(rng.choice([1, -1]) * rng.randint(1, d - 1)
                               for _ in range(rng.randint(0, 3))))
        G = conjugate_all(F, z)
        want = compose(invert(z), compose(product_word(F), z))
        assert equals(product_word(G), want)
        assert singularity_counts(G) == singularity_counts(F)


def test_conjugate_all_commutes_with_moves():
    rng = random.Random(8)
    for _ in range(60):
        d = rng.randint(2, 5)
        F = rand_cuspidal(rng, d, rng.randint(2, 4))
        z = BraidWord(d, tuple(rng.choice([1, -1]) * rng.randint(1, d - 1)
                               for _ in range(rng.randint(0, 2))))
        i = rng.randint(1, F.r - 1)
        direction = rng.choice(("left", "right"))
        a = conjugate_all(hurwitz_move(F, i, direction), z)
        b = hurwitz_move(conjugate_all(F, z), i, direction)
        assert all(equals(x, y) for x, y in zip(factor_words(a), factor_words(b)))


def test_full_twist_conjugation_fixes_factorization():
    # the target is central, so conjugating by it changes no factor braid
    G = conjugate_all(CUBIC, full_twist(3))
    assert all(equals(a, b) for a, b in zip(factor_words(CUBIC), factor_words(G)))


def test_exponent_obstruction():
    assert profile_exponent_ok(3, (3, 1, 1, 1))
    assert not profile_exponent_ok(3, (2, 1, 1, 1))
    assert profile_exponent_ok(3, (2, 1, 1, 1, 1))
    assert profile_exponent_ok(2, (1, 1))
    assert not profile_exponent_ok(2, (1,))


def test_search_conic():
    F = search_factorization(2, (1, 1), 1)
    assert F is not None and validate(F).ok
    assert [(f.s, f.rho.letters) for f in F.factors] == [(1, ()), (1, ())]


def test_search_cubic_deterministic_witness():
    F = search_factorization(3, (3, 1, 1, 1), 4)
    assert F is not None and validate(F).ok
    c = singularity_counts(F)
    assert (c.n1, c.n2, c.n3) == (3, 0, 1)
    # frozen first witness under the documented search order
    assert [(f.s, f.rho.letters) for f in F.factors] == [
        (1, ()), (1, (-2,)), (1, (2,)), (3, ()),
    ]
    again = search_factorization(3, (3, 1, 1, 1), 4)
    assert format_factorization(again) == format_factorization(F)


def test_search_respects_exponent_obstruction():
    assert search_factorization(3, (2, 1, 1, 1), 3) is None
    assert search_factorization(2, (1,), 2) is None


def test_search_six_branch_points():
    F = search_factorization(3, (1,) * 6, 2)
    assert F is not None and validate(F).ok
    c = singularity_counts(F)
    assert (c.n1, c.n2, c.n3) == (6, 0, 0)


def test_search_empty_profile_rejected_unless_trivial():
    assert search_factorization(1, (), 1).r == 0  # B_1 full twist is empty
    assert search_factorization(2, (), 1) is None  # exponent 0 != 2


def first_factorization_brute_force(d, profile, bound):
    """The documented search order, walked without pruning: s-sequences
    ascending, then candidate index tuples lexicographically.  A candidate
    whose factor braid an earlier candidate already gives is skipped: the
    least index with the same braid keeps the product and makes the tuple no
    larger, so the least tuple uses least indices only."""
    cands = enumerate_braids(d, bound)
    target = nf_key(full_twist(d))
    for seq in sorted(set(itertools.permutations(profile))):
        firsts = []
        for s in seq:
            index = {}
            for rho in cands:
                index.setdefault(nf_key(factor_word(CuspidalFactor(rho, s))), rho)
            firsts.append(list(index.items()))
        for product, choice in _tuples(d, firsts, (0, ())):
            if product == target:
                factors = tuple(CuspidalFactor(rho, s) for rho, s in zip(choice, seq))
                return Factorization(d, factors, full_twist(d))
    return None


def _tuples(d, firsts, key):
    """(product key, conjugators) of every tuple of (key, conjugator) pairs,
    one from each list in turn, lexicographically."""
    if not firsts:
        yield key, ()
        return
    for k, rho in firsts[0]:
        for product, rest in _tuples(d, firsts[1:], nf_mul(d, key, k)):
            yield product, (rho,) + rest


@pytest.fixture
def pair_tables(monkeypatch):
    """The (|first|, |second|, nodes used) of each table of last-two-slot
    products that a search builds."""
    built = []
    build = factorization._pair_table

    def spy(d, first, second, budget):
        built.append((len(first), len(second), budget.used))
        return build(d, first, second, budget)

    monkeypatch.setattr(factorization, "_pair_table", spy)
    return built


def assert_matches_brute_force(d, profile, bound):
    expected = first_factorization_brute_force(d, profile, bound)
    F = search_factorization(d, profile, bound)
    if expected is None:
        assert F is None
    else:
        assert F is not None
        assert format_factorization(F) == format_factorization(expected)


@pytest.mark.parametrize(
    "profile, bound",
    [
        ((3, 1, 1, 1), 0),  # nothing found
        ((3, 1, 1, 1), 2),
        ((2, 2, 1, 1), 1),
        ((2, 2, 1, 1), 2),
        ((1,) * 6, 1),
        ((2, 1, 1, 1, 1), 1),
        ((2, 1, 1, 1, 1), 2),
        ((3, 3), 2),  # nothing found
        # six orderings in one rotation-and-mirror class, five of them skipped
        ((3, 2, 1), 0),  # nothing found
        ((3, 2, 1), 1),  # nothing found
        ((3, 2, 1), 2),  # nothing found
    ],
)
def test_search_matches_brute_force_order(profile, bound):
    assert_matches_brute_force(3, profile, bound)


@pytest.mark.parametrize(
    "profile, bound, tables",
    [
        ((3, 3, 3, 3), 1, 0),  # nothing found
        ((3, 3, 3, 3), 2, 1),  # nothing found
        ((3, 3, 2, 2, 2), 1, 1),  # nothing found
        ((3, 3, 3, 2, 1), 1, 1),  # nothing found
    ],
)
def test_search_with_pair_tables_matches_brute_force_order(pair_tables, profile, bound, tables):
    assert_matches_brute_force(4, profile, bound)
    assert len(pair_tables) == tables  # how many last-two-slot tables were built


def test_search_builds_a_table_only_past_the_loops_cost(pair_tables):
    # the cuspidal cubic at bound 4 never loops 32 times over one pair of
    # last two slots, so it never builds a 32 x 32 table
    assert search_factorization(3, (3, 1, 1, 1), 4) is not None
    assert pair_tables == []
    # the two-cusp quartic at bound 2 does, with 12 keys per s-value
    assert search_factorization(4, (3, 3) + (1,) * 6, 2) is not None
    assert [(n, m) for n, m, _ in pair_tables] == [(12, 12)]


def test_search_table_build_respects_the_node_budget(pair_tables):
    assert search_factorization(4, (3, 3, 2, 2, 2), 1) is None
    [(_, _, switch)] = pair_tables
    # a budget that runs out inside the table's 3 x 3 products
    with pytest.raises(SearchBudgetExceeded) as exc:
        search_factorization(4, (3, 3, 2, 2, 2), 1, max_nodes=switch + 4)
    assert exc.value.nodes == switch + 5  # the node past the limit is counted
    assert pair_tables[1][2] == switch  # the build had started


def mirror(F):
    """The mirror under sigma_i -> sigma_i^-1: factors reversed, each
    conjugator's letters negated, s kept."""
    d = F.strands
    factors = tuple(
        CuspidalFactor(BraidWord(d, tuple(-k for k in f.rho.letters)), f.s)
        for f in reversed(F.factors)
    )
    return Factorization(d, factors, F.target)


@pytest.mark.parametrize(
    "d, profile, bound",
    [(3, (3, 1, 1, 1), 4), (3, (2, 2, 1, 1), 2), (3, (1,) * 6, 2), (4, (3, 3) + (1,) * 6, 2)],
)
def test_witness_rotations_and_mirror_validate(d, profile, bound):
    # the symmetries the search's ordering loop relies on
    F = search_factorization(d, profile, bound)
    assert F is not None
    for i in range(F.r):
        assert validate(Factorization(d, F.factors[i:] + F.factors[:i], F.target)).ok
    M = mirror(F)
    report = validate(M)
    assert report.ok
    # the mirror's conjugators keep their lengths, so each of its factor
    # braids is one the search draws at the same bound
    assert [len(f.rho.letters) for f in M.factors] == [len(f.rho.letters) for f in reversed(F.factors)]
    drawn = {s: {_cusp_key(d, s, nf_key(z)) for z in enumerate_braids(d, bound)} for s in set(profile)}
    assert all(key in drawn[f.s] for f, key in zip(M.factors, report.key))


def test_search_skips_orderings_that_a_rotation_or_mirror_precedes(monkeypatch):
    # (4;3,3,3,1,1,1) at bound 1 searches 3 of its 20 orderings: 1,532
    # products with all 20, 395 with the 3
    products = []
    mul = factorization.nf_mul

    def spy(d, *keys):
        products.append(keys)
        return mul(d, *keys)

    monkeypatch.setattr(factorization, "nf_mul", spy)
    assert search_factorization(4, (3, 3, 3, 1, 1, 1), 1) is None
    assert len(products) <= 400


def test_orderings_distinct_and_ascending():
    for profile in [(), (1,), (1, 1, 1), (1, 1, 2, 3), (1, 2, 2, 3, 3)]:
        assert list(_orderings(profile)) == sorted(set(itertools.permutations(profile)))


def test_least_in_class_keeps_one_ordering_per_rotation_and_mirror_class():
    for profile in [(1,), (1, 1, 2, 2), (1, 2, 3), (1, 1, 2, 3, 3), (1, 1, 1, 2, 2, 3)]:
        classes = {
            min(t[i:] + t[:i] for t in (seq, seq[::-1]) for i in range(len(seq)))
            for seq in itertools.permutations(profile)
        }
        assert [seq for seq in _orderings(profile) if _least_in_class(seq)] == sorted(classes)


def test_search_orderings_are_lazy():
    # 12! orderings collapse to one; the budget caps the search itself
    assert search_factorization(4, (1,) * 12, 0, max_nodes=5) is None


def test_search_two_cusp_quartic_profile_witness():
    F = search_factorization(4, (3, 3) + (1,) * 6, 2)
    assert F is not None and validate(F).ok
    # frozen first witness under the documented search order
    assert [(f.s, f.rho.letters) for f in F.factors] == [
        (1, ()), (1, ()), (1, ()), (1, (-2, -3)), (1, (-2, -1)), (1, (2, 3)),
        (3, (2,)), (3, (2, -1)),
    ]


def test_search_three_cusp_quartic_control():
    # the stored quartic file is the bound-2 search's witness
    stored = Path(__file__).parents[1] / "perfbench" / "data" / "quartic_three_cusp.fact"
    expected = parse_factorization(stored.read_text(encoding="utf-8"))
    F = search_factorization(4, (3, 3, 3, 1, 1, 1), 2)
    assert F is not None
    assert format_factorization(F) == format_factorization(expected)


def test_search_budget_exhaustion_raises():
    with pytest.raises(SearchBudgetExceeded) as exc:
        search_factorization(3, (3, 1, 1, 1), 4, max_nodes=3)
    assert exc.value.nodes == 4  # the node past the limit is counted


def test_search_input_checks():
    with pytest.raises(ValueError):
        search_factorization(0, (1,), 1)
    with pytest.raises(ValueError):
        search_factorization(3, (5, 1), 1)
    with pytest.raises(ValueError):
        search_factorization(3, (1, 1), -1)


def test_format_parse_round_trip():
    rng = random.Random(12)
    for _ in range(60):
        d = rng.randint(2, 5)
        F = rand_cuspidal(rng, d, rng.randint(0, 4))
        text = format_factorization(F)
        G = parse_factorization(text)
        assert format_factorization(G) == text
        assert G.strands == F.strands and G.r == F.r
        assert equals(G.target, F.target)
        assert all(equals(a, b) for a, b in zip(factor_words(F), factor_words(G)))


def test_format_full_twist_target_is_symbolic():
    assert "target full_twist" in format_factorization(CUBIC)
    # a two-strand target word 1 1 is literally the full twist, so the
    # symbolic form wins; a single letter stays explicit
    F = Factorization(2, (BraidWord(2, (1, 1)),), BraidWord(2, (1, 1)))
    assert "target full_twist" in format_factorization(F)
    G = Factorization(2, (BraidWord(2, (1,)),), BraidWord(2, (1,)))
    assert "target word=1" in format_factorization(G)


def test_parse_rejects_malformed():
    good = format_factorization(CUBIC)
    with pytest.raises(FormatError):
        parse_factorization("")
    with pytest.raises(FormatError):
        parse_factorization("strands x\ntarget full_twist\n")
    with pytest.raises(FormatError):
        parse_factorization("strands 3\n")
    with pytest.raises(FormatError):
        parse_factorization("strands 3\ntarget full_twist\nfactor s=4 rho=\n")
    with pytest.raises(FormatError):
        parse_factorization("strands 3\ntarget full_twist\nfactor s=1 rho=9\n")
    with pytest.raises(FormatError):
        parse_factorization(good + "garbage\n")
    # comments and blank lines are tolerated
    with_comments = "# header\n\n" + good + "# trailer\n"
    assert format_factorization(parse_factorization(with_comments)) == good
