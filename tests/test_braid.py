"""Braid words, canonical forms, equality, positivity, conjugacy."""

import itertools
import random

import pytest

from braidfact import braid
from braidfact.braid import (
    BraidWord,
    _simple_letters,
    _simple_steps,
    canonical_form,
    compose,
    conjugate,
    conjugacy_test,
    cycle_count,
    cycle_type,
    cycles,
    enumerate_braids,
    equals,
    exponent_sum,
    format_word,
    full_twist,
    half_twist,
    identity_word,
    invert,
    is_positive,
    nf_inv,
    nf_key,
    nf_mul,
    nf_permutation,
    normalized,
    parse_word,
    permutation_of,
    summit_key,
)
from braidfact.errors import FormatError, SearchBudgetExceeded, WorkBudget


def rand_word(rng, d, n):
    return BraidWord(d, tuple(rng.choice([1, -1]) * rng.randint(1, d - 1) for _ in range(n)))


def rewrite_equivalent(rng, w, steps):
    """Random sound rewrites: braid relations, far commutation, free pairs."""
    letters = list(w.letters)
    d = w.strands
    for _ in range(steps):
        kind = rng.randint(0, 3)
        if kind == 0 and len(letters) >= 3:
            # X_i X_{i+1} X_i <-> X_{i+1} X_i X_{i+1} where the pattern occurs
            spots = [
                j
                for j in range(len(letters) - 2)
                if letters[j] == letters[j + 2]
                and abs(abs(letters[j]) - abs(letters[j + 1])) == 1
                and letters[j] > 0 == (letters[j + 1] < 0) is False
                and letters[j] > 0
                and letters[j + 1] > 0
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


def test_word_construction_checks():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(0, ())
    for twist in (full_twist, half_twist):  # their BraidWord checks the strand count
        with pytest.raises(ValueError, match="strand count"):
            twist(0)
    with pytest.raises(ValueError):
        compose(BraidWord(3, (1,)), BraidWord(4, (1,)))


def test_word_letters_are_ints():
    # each letter goes through operator.index: a float or a string is a
    # TypeError, even one equal to an int; a bool is stored as its int
    for letters in ((1.0,), (1.5,), (1, "2")):
        with pytest.raises(TypeError):
            BraidWord(3, letters)
    w = BraidWord(3, [True, -2])
    assert w.letters == (1, -2) and all(type(k) is int for k in w.letters)
    assert BraidWord(3, (1, -2)).letters == (1, -2)
    for letters in ((False,), (2**70,), (-(2**70),), (1, -3)):
        with pytest.raises(ValueError):
            BraidWord(3, letters)


def test_word_strand_count_is_an_int():
    # the strand count goes through operator.index as the letters do, so no
    # word reaches the kernel with a strand count it cannot take
    for strands in (2.5, 3.0, "3"):
        with pytest.raises(TypeError):
            BraidWord(strands, (1, 2))
    w = BraidWord(True, ())
    assert w.strands == 1 and type(w.strands) is int
    assert nf_key(w) == (0, ())


def test_canonical_form_anchors():
    assert canonical_form is nf_key
    inf, factors = canonical_form(half_twist(3))
    assert (inf, len(factors)) == (1, 0)
    inf, factors = canonical_form(full_twist(3))
    assert (inf, len(factors)) == (2, 0)
    assert canonical_form(BraidWord(3, (1,))) == (0, ((1, 0, 2),))
    # the word of the canonical form preserves the braid
    w = BraidWord(4, (1, -2, 3, 3, -1))
    assert equals(normalized(w), w)


def test_equals_relations():
    assert equals(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert equals(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))
    assert not equals(BraidWord(3, (1,)), BraidWord(3, (2,)))
    with pytest.raises(ValueError):
        equals(BraidWord(3, (1,)), BraidWord(4, (1,)))


def equals_cases(rng):
    """Seeded (u, v, kind) pairs in B_2..B_8: rewritten equal pairs, one
    letter swapped for another of the same sign (equal exponent sums), one
    letter's sign flipped (sums differ by 2), identical and empty words."""
    for d in range(2, 9):
        yield BraidWord(d, ()), BraidWord(d, ()), "empty"
        for _ in range(12):
            w = rand_word(rng, d, rng.randint(1, 30))
            yield w, BraidWord(d, w.letters), "identical"
            yield w, rewrite_equivalent(rng, w, rng.randint(1, 10)), "rewritten"
            j = rng.randrange(len(w))
            letters = list(w.letters)
            letters[j] = -letters[j]
            yield w, BraidWord(d, tuple(letters)), "sum_differs"
            if d > 2:
                k = w.letters[j]
                letters[j] = rng.choice([x for x in range(1, d) if x != abs(k)]) * (1 if k > 0 else -1)
                yield w, BraidWord(d, tuple(letters)), "same_sign_swap"


def test_equals_agrees_with_normal_form_keys():
    kinds = {}
    for u, v, kind in equals_cases(random.Random(2503)):
        same = equals(u, v)
        assert same == (nf_key(u) == nf_key(v)) == equals(v, u), (u, v, kind)
        kinds.setdefault(kind, set()).add(same)
        if kind in ("same_sign_swap", "sum_differs"):
            assert (exponent_sum(u) == exponent_sum(v)) == (kind == "same_sign_swap")
    # x a y and x b y are different braids when a and b are
    assert kinds == {
        "empty": {True},
        "identical": {True},
        "rewritten": {True},
        "same_sign_swap": {False},
        "sum_differs": {False},
    }


def test_equals_settles_identical_words_and_differing_sums_without_normal_forms():
    rng = random.Random(2539)
    w = rand_word(rng, 7, 60)
    before = braid._cached_nf.cache_info()
    assert equals(w, BraidWord(7, w.letters))
    assert not equals(w, compose(w, BraidWord(7, (3,))))
    assert braid._cached_nf.cache_info() == before  # not even a lookup


def count_letter_entry(monkeypatch) -> list:
    """Record every call of the kernel's letter entry, from a cold memo."""
    calls = []
    kernel = braid._kernel_normal_form
    monkeypatch.setattr(braid, "_kernel_normal_form", lambda *a: calls.append(a) or kernel(*a))
    braid._cached_nf.cache_clear()
    return calls


def test_conjugacy_test_forms_each_normal_form_once(monkeypatch):
    # u, v and the witness check u^z: one letter-entry call each
    calls = count_letter_entry(monkeypatch)
    u = BraidWord(4, (1, -2, 3, 3, -1, 2))
    v = conjugate(u, BraidWord(4, (2, -3)))
    res = conjugacy_test(u, v, 20000)
    assert res.outcome == "conjugate"
    assert calls == [(4, u.letters), (4, v.letters), (4, conjugate(u, res.witness).letters)]
    # equal braids are conjugate by the identity, from their two normal forms
    calls = count_letter_entry(monkeypatch)
    w = BraidWord(4, (1, -2, 3, -1, 3, 2))  # u with a far commutation
    assert conjugacy_test(u, w, 20000).witness == identity_word(4)
    assert calls == [(4, u.letters), (4, w.letters)]


def test_rewrites_preserve_canonical_form():
    rng = random.Random(31337)
    for _ in range(150):
        d = rng.randint(2, 6)
        w = rand_word(rng, d, rng.randint(0, 40))
        v = rewrite_equivalent(rng, w, rng.randint(1, 12))
        assert canonical_form(w) == canonical_form(v), (w, v)
        assert exponent_sum(w) == exponent_sum(v)
        assert permutation_of(w) == permutation_of(v)


def test_normalized_idempotent():
    rng = random.Random(5)
    for _ in range(80):
        d = rng.randint(2, 6)
        w = rand_word(rng, d, rng.randint(0, 30))
        nw = normalized(w)
        assert normalized(nw).letters == nw.letters
        assert equals(nw, w)


def test_full_twist_central():
    for d in range(2, 8):
        delta2 = full_twist(d)
        assert exponent_sum(delta2) == d * (d - 1)
        assert permutation_of(delta2) == tuple(range(d))
        for g in range(1, d):
            gen = BraidWord(d, (g,))
            assert equals(compose(gen, delta2), compose(delta2, gen))


def test_half_twist_squares_to_full():
    for d in range(2, 8):
        assert equals(compose(half_twist(d), half_twist(d)), full_twist(d))


def test_positivity():
    assert is_positive(BraidWord(3, (1, 2, 1)))
    assert is_positive(identity_word(3))
    assert not is_positive(BraidWord(3, (-1, 2, 1)))
    assert not is_positive(BraidWord(3, (1, -1, -1)))
    # positive destabilized form found through cancellation
    assert is_positive(BraidWord(3, (1, -1, 2)))
    rng = random.Random(11)
    for _ in range(100):
        d = rng.randint(2, 5)
        w = BraidWord(d, tuple(rng.randint(1, d - 1) for _ in range(rng.randint(0, 12))))
        assert is_positive(w)


def test_permutation_braid_letters_round_trip():
    # every permutation in S_1..S_6, then seeded ones in S_2..S_7
    perms = [p for d in range(1, 7) for p in itertools.permutations(range(d))]
    rng = random.Random(23)
    for _ in range(100):
        images = list(range(rng.randint(2, 7)))
        rng.shuffle(images)
        perms.append(tuple(images))
    for p in perms:
        d = len(p)
        letters = _simple_letters(p)
        w = BraidWord(d, letters)
        # in the kernel's convention the word's permutation is p, and the word
        # is one permutation braid: inf 0 with the single factor p, except for
        # the identity (no factors) and the half twist (inf 1)
        assert permutation_of(w) == p, p
        if p == tuple(range(d)):
            assert canonical_form(w) == (0, ()), p
        elif p == tuple(range(d - 1, -1, -1)):
            assert canonical_form(w) == (1, ()), p
        else:
            assert canonical_form(w) == (0, (p,)), p
        assert len(letters) == sum(1 for i in range(d) for j in range(i + 1, d) if p[i] > p[j])


def test_parse_format_words():
    assert parse_word("1 2 -1", 3).letters == (1, 2, -1)
    assert parse_word("", 5).letters == ()
    assert format_word(BraidWord(3, (1, 2, -1))) == "1 2 -1"
    rng = random.Random(77)
    for _ in range(60):
        d = rng.randint(2, 6)
        w = rand_word(rng, d, rng.randint(0, 15))
        assert parse_word(format_word(w), d).letters == w.letters
    with pytest.raises(FormatError):
        parse_word("1 0 2", 3)
    with pytest.raises(FormatError):
        parse_word("3", 3)
    with pytest.raises(FormatError):
        parse_word("1 x", 3)


def test_enumerate_braids_distinct_and_ordered():
    words = enumerate_braids(2, 3)
    assert [w.letters for w in words[:3]] == [(), (-1,), (1,)]
    assert len(words) == 7  # Delta^k for |k| <= 3
    words = enumerate_braids(3, 2)
    keys = {canonical_form(w) for w in words}
    assert len(keys) == len(words) == 17
    lens = [len(w) for w in words]
    assert lens == sorted(lens)  # shortest representative first


def test_enumerate_braids_matches_all_words():
    # reference: every word of each length, first word of each braid kept
    for d, max_len in [(2, 5), (3, 4), (4, 3), (5, 2)]:
        alphabet = sorted(k for k in range(-(d - 1), d) if k != 0)
        seen, expected = set(), []
        for n in range(max_len + 1):
            for letters in itertools.product(alphabet, repeat=n):
                key = nf_key(BraidWord(d, letters))
                if key not in seen:
                    seen.add(key)
                    expected.append(letters)
        assert [w.letters for w in enumerate_braids(d, max_len)] == expected


def test_enumerate_braids_rejects_a_negative_length():
    with pytest.raises(ValueError, match="max_len"):
        enumerate_braids(3, -1)
    assert enumerate_braids(3, 0) == (identity_word(3),)


def test_conjugacy_basics():
    b3 = lambda *ls: BraidWord(3, ls)
    res = conjugacy_test(b3(1), b3(2), 2000)
    assert res.outcome == "conjugate"
    assert equals(conjugate(b3(1), res.witness), b3(2))

    res = conjugacy_test(b3(1), b3(-1), 2000)
    assert res.outcome == "not_conjugate"
    assert "exponent" in res.reason

    res = conjugacy_test(b3(1, 1, 1), b3(2, 2, 2), 5000)
    assert res.outcome == "conjugate"
    assert equals(conjugate(b3(1, 1, 1), res.witness), b3(2, 2, 2))

    # same exponent sum, different cycle type
    res = conjugacy_test(BraidWord(4, (1, 3)), BraidWord(4, (1, 2)), 2000)
    assert res.outcome == "not_conjugate"


def test_conjugacy_disjoint_summit_sets():
    u = BraidWord(4, (1, -2, 1))
    v = BraidWord(4, (3, -1, 3))
    res = conjugacy_test(u, v, 500000)
    assert res.outcome == "not_conjugate"
    assert "summit" in res.reason
    # the same pair under a starvation budget is inconclusive, not wrong
    res = conjugacy_test(u, v, 1)
    assert res.outcome == "unknown"
    assert res.work == 2  # the unit past the limit is counted


def test_conjugacy_random_witnesses_verify():
    rng = random.Random(1009)
    for _ in range(40):
        d = rng.randint(2, 5)
        u = rand_word(rng, d, rng.randint(0, 8))
        z = rand_word(rng, d, rng.randint(0, 4))
        v = normalized(conjugate(u, z))
        res = conjugacy_test(u, v, 200000)
        assert res.outcome == "conjugate", (u, z)
        assert equals(conjugate(u, res.witness), v)


def carries(p, w, t):
    """Whether the permutation p carries w to t by conjugation, the closure's
    test for trying a step first."""
    return all(p[w[x]] == t[p[x]] for x in range(len(p)))


def step_permutation(d, step):
    return step[1][0] if step[1] else tuple(range(d - 1, -1, -1))


def test_permutation_test_keeps_every_step_that_reaches_the_conjugate():
    # B_d -> S_d is a homomorphism: the permutation of p^-1 w p is that of w
    # conjugated by p's, so the test never drops a step that reaches v
    rng = random.Random(6007)
    for d in range(3, 7):
        for _ in range(3):
            wkey = nf_key(rand_word(rng, d, rng.randint(0, 10)))
            w = nf_permutation(d, wkey)
            for step, step_inv in _simple_steps(d):
                p = step_permutation(d, step)
                conjugated = [None] * d
                for x in range(d):
                    conjugated[p[x]] = p[w[x]]
                t = nf_permutation(d, nf_mul(d, step_inv, wkey, step))
                assert t == tuple(conjugated)
                assert carries(p, w, t)


def first_path(d, ukey, vkey, target, budget):
    """(path to vkey in the closure of ukey or None if the budget ran out, work)."""
    wb = WorkBudget(budget)
    try:
        members = braid._super_summit_set(d, ukey, wb, target)
        return next(p for key, p in members if key == vkey), wb.used
    except SearchBudgetExceeded:
        return None, wb.used


def test_targeted_closure_gives_the_same_path_after_no_more_work():
    rng = random.Random(2029)
    compared = 0
    for n in range(240):
        d = 3 + n % 4
        u = rand_word(rng, d, rng.randint(1, 6))
        v = conjugate(u, rand_word(rng, d, rng.randint(1, 3)))
        ukey, _ = braid._summit(d, nf_key(u), WorkBudget(10**6))
        vkey, _ = braid._summit(d, nf_key(v), WorkBudget(10**6))
        plain, plain_work = first_path(d, ukey, vkey, None, 20000)
        targeted, targeted_work = first_path(d, ukey, vkey, vkey, 20000)
        assert targeted_work <= plain_work, (u, v)
        if plain is not None:
            assert targeted == plain, (u, v)
            compared += 1
    assert compared >= 200


def test_conjugacy_test_forms_only_compatible_products_one_step_away(monkeypatch):
    # u and v are summit elements of B_5, v = p^-1 u p for the simple p = X_2
    d = 5
    u, v = BraidWord(d, (2, 1, 3, 4)), BraidWord(d, (1, 3, 4, 2))
    ukey, vkey = nf_key(u), nf_key(v)
    steps = _simple_steps(d)
    p = steps.index(((0, ((0, 2, 1, 3, 4),)), nf_inv(d, (0, ((0, 2, 1, 3, 4),)))))
    assert nf_mul(d, steps[p][1], ukey, steps[p][0]) == vkey
    summit_work = 0
    for key in (ukey, vkey):
        wb = WorkBudget(10**6)
        assert braid._summit(d, key, wb)[0] == key
        summit_work += wb.used
    w, t = nf_permutation(d, ukey), nf_permutation(d, vkey)
    compatible = [i for i, (step, _) in enumerate(steps) if carries(step_permutation(d, step), w, t)]
    assert p in compatible and len(compatible) < len(steps)

    products = []
    step_pairs = {(step, step_inv) for step, step_inv in steps}
    original = braid.nf_mul

    def counting_nf_mul(d, *keys):
        if len(keys) == 3 and (keys[2], keys[0]) in step_pairs:
            products.append(keys)
        return original(d, *keys)

    monkeypatch.setattr(braid, "nf_mul", counting_nf_mul)
    res = conjugacy_test(u, v, 20000)
    assert res.outcome == "conjugate"
    assert equals(conjugate(u, res.witness), v)
    assert 0 < len(products) <= len(compatible)
    assert res.work - summit_work == len(products)


def test_summit_key_is_conjugacy_invariant():
    rng = random.Random(4099)
    # the conjugate (1)^-1 u (1) needs cycling: decycling alone stops below the summit
    cases = [(BraidWord(4, (-2, -1, -1, -1, -1)), BraidWord(4, (1,)))]
    for _ in range(20):
        d = rng.randint(3, 5)
        cases.append((rand_word(rng, d, rng.randint(1, 8)), rand_word(rng, d, rng.randint(1, 4))))
    for u, z in cases:
        key = summit_key(u.strands, nf_key(u), 200000)
        assert key is not None
        assert summit_key(u.strands, nf_key(conjugate(u, z)), 200000) == key
        # the key is at the summit: no conjugate by a braid of length <= 2
        # has a larger inf or a smaller sup
        for c in enumerate_braids(u.strands, 2):
            inf, factors = nf_key(conjugate(u, c))
            assert inf <= key[0] and inf + len(factors) >= key[0] + len(key[1])


def test_conjugacy_reasons_name_the_separating_summit_value():
    pairs = [
        ((-2, 3, -1, 2), (2, -1, -3, 2), "summit_inf_and_length"),  # lengths 2, 3
        ((-3, 1, -2, 1, -3), (-3, -3, -1, 2, 1), "summit_inf_and_length"),  # infs -1, -2
        ((2, 2, -3), (3, -1, 3), "disjoint_super_summit_sets"),
    ]
    for u, v, reason in pairs:
        u, v = BraidWord(4, u), BraidWord(4, v)
        res = conjugacy_test(u, v, 200000)
        assert (res.outcome, res.reason) == ("not_conjugate", reason)
        assert summit_key(4, nf_key(u), 200000) != summit_key(4, nf_key(v), 200000)


def test_conjugacy_input_checks():
    with pytest.raises(ValueError):
        conjugacy_test(BraidWord(3, (1,)), BraidWord(4, (1,)), 100)
    with pytest.raises(ValueError):
        conjugacy_test(BraidWord(3, (1,)), BraidWord(3, (1,)), 0)
    with pytest.raises(ValueError, match="budget"):
        summit_key(3, nf_key(BraidWord(3, (1,))), 0)


def test_integer_bounds_go_through_index():
    # a float bound is a TypeError, not rounded; a bool counts as its int
    u, v = BraidWord(3, (1, 2)), BraidWord(3, (2, 1))
    with pytest.raises(TypeError):
        enumerate_braids(3, 2.5)
    with pytest.raises(TypeError):
        conjugacy_test(u, v, 2.5)
    with pytest.raises(TypeError):
        summit_key(3, nf_key(u), 2.5)
    assert enumerate_braids(3, True) == enumerate_braids(3, 1)
    assert conjugacy_test(u, v, True) == conjugacy_test(u, v, 1)
    assert summit_key(3, nf_key(u), True) == summit_key(3, nf_key(u), 1)


def pair_algebra_words(rng, d):
    """Empty words, half-twist powers of both signs, single permutation
    braids and random words in B_d."""
    half = half_twist(d)
    words = [identity_word(d)]
    for n in (1, 2, 3):
        words.append(BraidWord(d, half.letters * n))
        words.append(BraidWord(d, invert(half).letters * n))
    for _ in range(6):
        p = tuple(rng.sample(range(d), d))
        words.append(BraidWord(d, _simple_letters(p)))
    if d > 1:
        words += [rand_word(rng, d, rng.randint(1, 14)) for _ in range(12)]
    return words


def test_nf_inv_and_nf_mul_match_word_normal_forms():
    rng = random.Random(4242)
    for d in range(1, 9):
        assert nf_mul(d) == (0, ())
        words = pair_algebra_words(rng, d)
        for w in words:
            assert nf_inv(d, nf_key(w)) == nf_key(invert(w)), w
        for _ in range(60):
            u, v, w = (rng.choice(words) for _ in range(3))
            product = BraidWord(d, u.letters + v.letters + w.letters)
            assert nf_mul(d, nf_key(u), nf_key(v), nf_key(w)) == nf_key(product), (u, v, w)


def test_nf_permutation_is_the_permutation_of_the_word():
    rng = random.Random(2718)
    assert nf_permutation(1, (0, ())) == permutation_of(BraidWord(1))
    for _ in range(400):
        d = rng.randint(2, 6)
        w = rand_word(rng, d, rng.randint(0, 12))
        assert nf_permutation(d, nf_key(w)) == permutation_of(w), w


def test_permutation_of_follows_each_strand():
    # X_1 X_2 in B_3: strand 0 crosses to 1 and then to 2, strand 1 ends
    # at 0 and strand 2 at 1
    assert permutation_of(BraidWord(3, (1, 2))) == (2, 0, 1)
    assert permutation_of(BraidWord(3, (-2, -1))) == (1, 2, 0)
    assert permutation_of(BraidWord(1)) == (0,)


def brute_cycle_type(p):
    orbits = set()
    for x in range(len(p)):
        orbit, y = {x}, p[x]
        while y != x:
            orbit.add(y)
            y = p[y]
        orbits.add(frozenset(orbit))
    return sorted((len(o) for o in orbits), reverse=True)


def test_cycle_type_agrees_with_a_brute_force_orbit_count():
    for d in range(1, 7):
        for p in itertools.permutations(range(d)):
            assert list(cycle_type(p)) == brute_cycle_type(p), p
            assert cycle_count(p) == len(brute_cycle_type(p)), p
            cs = cycles(p)
            assert all(len(c) > 1 and c[0] == min(c) for c in cs), p
            assert list(cs) == sorted(cs), p
            assert all(p[c[i]] == c[(i + 1) % len(c)] for c in cs for i in range(len(c))), p
    assert cycles((1, 0, 3, 4, 2)) == ((0, 1), (2, 3, 4))
    assert cycle_type((1, 0, 3, 4, 2)) == (3, 2)
    assert cycle_type(()) == ()
    assert cycle_count(()) == 0


def test_nf_mul_and_nf_inv_are_memoised_on_their_arguments(monkeypatch):
    # a repeated product makes no kernel call
    d = 4
    keys = (nf_key(BraidWord(d, (1, 2, -3, 2))), nf_key(BraidWord(d, (-1,))))
    assert keys[1][0] % 2 and keys[0][1]  # the first key's factors pass an odd D-power
    kernel = braid._kernel_product
    kernel_calls = []
    monkeypatch.setattr(braid, "_kernel_product", lambda *a: kernel_calls.append(a) or kernel(*a))
    nf_mul.cache_clear()
    nf_inv.cache_clear()
    product = nf_mul(d, *keys)
    assert kernel_calls == [(d, keys)]
    assert nf_mul(d, *keys) == product
    assert len(kernel_calls) == 1
    assert nf_mul.cache_info().hits == 1
    assert nf_inv(d, product) == nf_inv(d, product) == nf_key(invert(BraidWord(d, (1, 2, -3, 2, -1))))
    assert nf_inv.cache_info().hits == 1


def test_simple_steps_are_the_normalised_permutation_braids():
    for d in range(1, 7):
        identity, half = tuple(range(d)), tuple(range(d - 1, -1, -1))
        keys = [
            nf_mul(d, (1, ()) if p == half else (0, (p,)))
            for p in itertools.permutations(identity)
            if p != identity
        ]
        assert _simple_steps(d) == tuple((k, nf_inv(d, k)) for k in keys), d
