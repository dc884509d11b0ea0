"""Fingerprints, orbit exploration, and the equivalence decision procedure."""

import random
from collections import deque
from itertools import islice

import pytest

import braidfact.braid as braid
import braidfact.equivalence as equivalence
import braidfact.factorization as factorization
from braidfact.braid import BraidWord, enumerate_braids, equals, full_twist, identity_word, invert
from braidfact.cli import main
from braidfact.equivalence import (
    EquivalenceVerdict,
    SearchBudget,
    canonical_key,
    decide_equivalence,
    fingerprint,
    format_verdict,
    parse_verdict,
    replay,
)
from braidfact.errors import FormatError
from braidfact.factorization import (
    CuspidalFactor,
    Factorization,
    conjugate_all,
    factor_words,
    hurwitz_move,
    parse_factorization,
    search_factorization,
    validate,
)


def cuspidal(d, *pairs):
    factors = tuple(CuspidalFactor(BraidWord(d, rho), s) for rho, s in pairs)
    return Factorization(d, factors, full_twist(d))


CONIC = cuspidal(2, ((), 1), ((), 1))
CUBIC = cuspidal(3, ((), 1), ((-2,), 1), ((2,), 1), ((), 3))
QUARTIC = cuspidal(
    4, ((-2, -3), 1), ((-2, -1), 1), ((2, 3), 1), ((), 3), ((-2,), 3), ((-2, -2), 3)
)


def rand_z(rng, d, max_len):
    return BraidWord(d, tuple(rng.choice([1, -1]) * rng.randint(1, d - 1)
                              for _ in range(rng.randint(0, max_len))))


def scramble(rng, F, moves, zlen):
    for _ in range(moves):
        F = hurwitz_move(F, rng.randint(1, F.r - 1), rng.choice(("left", "right")))
    return conjugate_all(F, rand_z(rng, F.strands, zlen))


def test_fingerprint_fields():
    fp = fingerprint(CUBIC)
    assert fp.strands == 3 and fp.factor_count == 4
    assert fp.exponent_sum == 6
    assert fp.s_multiset == (1, 1, 1, 3)
    assert fp.conjugacy_keys is None
    fp = fingerprint(CUBIC, conjugacy_budget=2000)
    assert fp.conjugacy_keys is not None and len(fp.conjugacy_keys) == 4


def test_fingerprint_rejects_a_negative_conjugacy_budget():
    with pytest.raises(ValueError, match="conjugacy_budget"):
        fingerprint(CUBIC, conjugacy_budget=-1)
    assert fingerprint(CUBIC, conjugacy_budget=0) == fingerprint(CUBIC)


def test_fingerprint_conjugacy_budget_goes_through_index():
    # a float budget is a TypeError, not rounded; a bool counts as its int
    with pytest.raises(TypeError):
        fingerprint(CUBIC, conjugacy_budget=2.5)
    assert fingerprint(CUBIC, conjugacy_budget=True) == fingerprint(CUBIC, conjugacy_budget=1)


def test_fingerprint_requires_validation():
    with pytest.raises(ValueError):
        fingerprint(cuspidal(2, ((), 1)))


def test_fingerprint_invariance():
    rng = random.Random(1729)
    for _ in range(150):
        base = rng.choice((CONIC, CUBIC))
        fp = fingerprint(base, conjugacy_budget=500)
        moved = scramble(rng, base, rng.randint(1, 4), 2)
        assert fingerprint(moved, conjugacy_budget=500) == fp


def test_canonical_key_word_exactness():
    k1 = canonical_key(CUBIC)
    assert canonical_key(CUBIC) == k1
    moved = hurwitz_move(CUBIC, 1, "left")
    assert canonical_key(moved) != k1  # different factor tuple, same class


def orbit_keys(F, max_states, max_factor_nf_length=None):
    """At most max_states canonical keys of the bounded Hurwitz-move orbit
    of F, as equivalence._orbit walks it, and whether they are the whole
    bounded orbit.  The nf bound defaults as in decide_equivalence on
    (F, F)."""
    start = canonical_key(F)
    nf_bound = max_factor_nf_length or 2 * max([len(pair[1]) for pair in start] + [1])
    keys, intern = equivalence._interner()
    states = equivalence._orbit(F.strands, start, nf_bound, max_states, keys, intern)
    found = frozenset(tuple(keys[f] for f in state) for state, _ in states)
    return found, len(found) < max_states


def test_orbit_of_conic_is_a_fixed_point():
    keys, complete = orbit_keys(CONIC, max_states=1000)
    assert complete and len(keys) == 1


def test_orbit_caps_states_exactly():
    for m in (2, 5):
        keys, complete = orbit_keys(CUBIC, max_states=m)
        assert len(keys) <= m and complete is False


def reference_walk(F, nf_bound):
    """Breadth-first orbit over Factorization values: (canonical key, path)
    once per state, F first; hurwitz_move on every state, ascending index,
    "left" before "right"; states with a factor longer than nf_bound are
    skipped."""
    seen = {canonical_key(F)}
    queue = deque([(F, ())])
    yield canonical_key(F), ()
    while queue:
        state, path = queue.popleft()
        for i in range(1, state.r):
            for direction in ("left", "right"):
                child = hurwitz_move(state, i, direction)
                key = canonical_key(child)
                if key in seen or any(len(pair[1]) > nf_bound for pair in key):
                    continue
                seen.add(key)
                child_path = path + ((i, direction),)
                queue.append((child, child_path))
                yield key, child_path


def reference_orbit(F, nf_bound, max_states):
    """The first max_states states of reference_walk, and whether that is all."""
    keys = frozenset(key for key, _ in islice(reference_walk(F, nf_bound), max_states))
    return keys, len(keys) < max_states


def test_orbit_matches_reference_search():
    generic = parse_factorization(
        "strands 3\ntarget full_twist\n"
        "factor word=1\nfactor word=2 1 -2\nfactor word=-2 1 2\nfactor word=1 1 1\n"
    )
    # capped at 5 and 200 under the default bound (6); complete under bound 4
    cases = [(CUBIC, 5, None), (CUBIC, 200, None), (CUBIC, 200, 4), (generic, 200, None)]
    for F, cap, nf_bound in cases:
        bound = nf_bound or 2 * max(len(pair[1]) for pair in canonical_key(F))
        want = reference_orbit(F, bound, cap)
        assert orbit_keys(F, cap, nf_bound) == want, (F, cap, nf_bound)
    assert reference_orbit(CUBIC, 4, 200) == (orbit_keys(CUBIC, 2000, 4)[0], True)


def test_orbit_with_the_start_over_the_bound_matches_reference():
    # every later state is within the bound, but a child of the start keeps
    # start factors the move leaves alone, so those are checked too
    for F, nf_bound in ((CUBIC, 1), (CUBIC, 2), (QUARTIC, 2)):
        assert any(len(pair[1]) > nf_bound for pair in canonical_key(F))
        others = (
            F,
            hurwitz_move(F, 2, "right"),
            conjugate_all(hurwitz_move(F, 1, "left"), BraidWord(F.strands, (1,))),
        )
        for cap in (5, 50, 300):
            assert orbit_keys(F, cap, nf_bound) == reference_orbit(F, nf_bound, cap)
            budget = SearchBudget(max_states=cap, max_factor_nf_length=nf_bound)
            for F2 in others:
                v = decide_equivalence(F, F2, budget)
                assert v == reference_decide(F, F2, budget), (F, nf_bound, cap, F2)


def test_orbit_rejects_a_nonpositive_nf_bound():
    # the budget checks its nf bound when it is built
    for bound in (0, -3):
        with pytest.raises(ValueError, match="max_factor_nf_length"):
            SearchBudget(max_factor_nf_length=bound)
    with pytest.raises(TypeError):
        SearchBudget(max_factor_nf_length=2.5)
    assert SearchBudget(max_factor_nf_length=None).max_factor_nf_length is None


def test_decide_validates_each_input_once(monkeypatch):
    calls = []

    def counting_validate(F):
        calls.append(F)
        return validate(F)

    monkeypatch.setattr(equivalence, "validate", counting_validate)
    F2 = hurwitz_move(CUBIC, 1, "left")
    assert decide_equivalence(CUBIC, F2).outcome == "equivalent"
    assert len(calls) == 2


def test_keyed_paths_build_no_factor_words(monkeypatch):
    F2 = hurwitz_move(QUARTIC, 2, "right")

    def word_path(*args):
        raise AssertionError("a factor word was built")

    for name in ("factor_word", "factor_words", "product_word"):
        for module in (factorization, equivalence):
            monkeypatch.setattr(module, name, word_path, raising=False)
    assert validate(QUARTIC).ok
    assert fingerprint(QUARTIC, conjugacy_budget=500) == fingerprint(F2, conjugacy_budget=500)
    assert orbit_keys(CUBIC, 50)[0]
    # one state, and F2 is not F1 conjugated, so no verdict is replayed
    assert decide_equivalence(QUARTIC, F2, SearchBudget(max_states=1)).outcome == "inconclusive"


def test_decide_draws_at_most_max_states_conjugators(monkeypatch):
    drawn = []

    def counting_braids(d, max_len):
        for item in braid._braids(d, max_len):
            drawn.append(item)
            yield item

    monkeypatch.setattr(equivalence, "_braids", counting_braids)
    equivalence._conjugators.cache_clear()  # the stream is drawn once per arguments
    v = decide_equivalence(QUARTIC, QUARTIC, SearchBudget(max_states=1, conjugator_length_bound=7))
    assert (v.outcome, v.path, v.conjugator.letters, len(drawn)) == ("equivalent", (), (), 1)
    far = conjugate_all(QUARTIC, BraidWord(4, (1, 2, 3)))
    for max_states, outcome in ((4, "inconclusive"), (2000, "equivalent")):
        drawn.clear()
        v = decide_equivalence(QUARTIC, far, SearchBudget(max_states=max_states))
        assert v.outcome == outcome and v.states <= max_states
        assert len(drawn) == min(max_states, 131)  # 131 braids of length <= 3 in B_4


def test_decide_conjugates_other_factors_only_on_a_hit(monkeypatch):
    products = []

    def counting_nf_mul(d, *keys):
        products.append(keys)
        return braid.nf_mul(d, *keys)

    monkeypatch.setattr(equivalence, "nf_mul", counting_nf_mul)
    # X_1^2 is a pure braid, so the one drawn conjugator (the identity) has
    # the state's head permutation, but the state misses it: only F2's
    # first factor is conjugated, not all six
    near = conjugate_all(QUARTIC, BraidWord(4, (1, 1)))
    v = decide_equivalence(QUARTIC, near, SearchBudget(max_states=1))
    assert (v.outcome, v.states) == ("inconclusive", 1)
    assert len(products) == 1
    # conjugated by X_1 X_2 X_3, F2's first factor has another permutation
    # than the state's, so no product is formed
    products.clear()
    far = conjugate_all(QUARTIC, BraidWord(4, (1, 2, 3)))
    v = decide_equivalence(QUARTIC, far, SearchBudget(max_states=1))
    assert (v.outcome, v.states) == ("inconclusive", 1)
    assert products == []


def test_decide_fills_each_pair_move_once_and_lazily(monkeypatch):
    products = []

    def counting_nf_mul(d, *keys):
        products.append(keys)
        return braid.nf_mul(d, *keys)

    monkeypatch.setattr(equivalence, "nf_mul", counting_nf_mul)
    far = conjugate_all(QUARTIC, BraidWord(4, (1, 2, 3)))
    budget = SearchBudget(max_states=300, conjugator_length_bound=2)
    v = decide_equivalence(QUARTIC, far, budget)
    assert (v.outcome, v.states) == ("inconclusive", 300)
    # the states the search expanded: those up to the parent of the last one
    nf_bound = 2 * max(len(pair[1]) for F in (QUARTIC, far) for pair in canonical_key(F))
    walk = list(islice(reference_walk(QUARTIC, nf_bound), 300))
    paths = [path for _, path in walk]
    expanded = walk[: paths.index(paths[-1][:-1]) + 1]
    pairs = {pair for key, _ in expanded for pair in zip(key, key[1:])}
    # products that conjugate a factor of far by a drawn braid belong to
    # the match index; the rest are the move table's, two per pair at most
    zkeys = {braid.nf_key(z) for z in enumerate_braids(4, 2)}
    f2 = set(canonical_key(far))
    moves = [keys for keys in products if not (keys[0] in zkeys and keys[1] in f2)]
    assert len(moves) == len(set(moves)) <= 2 * len(pairs)


def reference_decide(F1, F2, budget):
    """decide_equivalence past its fingerprints, with the full match table:
    F2 conjugated by each of the first max_states braids of enumerate_braids,
    the first braid kept for each conjugated tuple, looked up for each state
    of reference_walk from F1."""
    targets = {}
    for z in enumerate_braids(F1.strands, budget.conjugator_length_bound)[: budget.max_states]:
        targets.setdefault(canonical_key(conjugate_all(F2, invert(z))), z)
    nf_bound = budget.max_factor_nf_length or 2 * max(
        [len(pair[1]) for F in (F1, F2) for pair in canonical_key(F)] + [1]
    )
    states = 0
    for key, path in islice(reference_walk(F1, nf_bound), budget.max_states):
        states += 1
        if key in targets:
            return EquivalenceVerdict(
                "equivalent", path=path, conjugator=targets[key], states=states
            )
    return EquivalenceVerdict(
        "inconclusive", states=states, orbit_complete=states < budget.max_states
    )


def test_decide_keeps_the_first_conjugator_in_stream_order():
    # identity and sigma_1^+-1 all fix CUBIC's first factor sigma_1; only
    # sigma_1, the last of them in enumeration order, carries F2 to CUBIC
    F2 = conjugate_all(CUBIC, BraidWord(3, (1,)))
    v = decide_equivalence(CUBIC, F2)
    assert (v.outcome, v.path, v.conjugator.letters) == ("equivalent", (), (1,))
    assert v == reference_decide(CUBIC, F2, SearchBudget())
    # in B_2 every braid of length <= 3 fixes both factors: the first one wins
    v = decide_equivalence(CONIC, CONIC)
    assert v.conjugator.letters == ()
    assert v == reference_decide(CONIC, CONIC, SearchBudget())


def test_decide_matches_the_full_table_reference():
    rng = random.Random(4242)
    pool = [
        CONIC,
        CUBIC,
        search_factorization(3, (1,) * 6, 2),
        search_factorization(3, (2, 2, 1, 1), 3),
    ]
    outcomes = set()
    for case in range(48):
        F1 = pool[case % len(pool)]
        F2 = scramble(rng, F1, rng.randint(0, 3), 3)
        budget = SearchBudget(
            max_states=rng.choice((5, 60, 400)), conjugator_length_bound=1 + case % 3
        )
        for A, B in ((F1, F2), (F2, F1)):
            v = decide_equivalence(A, B, budget)
            assert v == reference_decide(A, B, budget), (case, budget)
            outcomes.add(v.outcome)
    assert outcomes == {"equivalent", "inconclusive"}


def test_decide_matches_the_reference_on_seeded_scrambles():
    rng = random.Random(23)
    outcomes = set()
    for F1 in (CONIC, CUBIC, QUARTIC):
        d = F1.strands
        for _ in range(4):
            F2 = F1
            for _ in range(2):
                F2 = hurwitz_move(F2, rng.randint(1, F2.r - 1), rng.choice(("left", "right")))
            z = tuple(rng.choice((1, -1)) * rng.randint(1, d - 1) for _ in range(rng.randint(1, 2)))
            F2 = conjugate_all(F2, BraidWord(d, z))
            for cap in (50, 300):
                for bound in (1, 2):
                    budget = SearchBudget(max_states=cap, conjugator_length_bound=bound)
                    v = decide_equivalence(F1, F2, budget)
                    assert v == reference_decide(F1, F2, budget), (F1, F2, budget)
                    outcomes.add(v.outcome)
    assert outcomes == {"equivalent", "inconclusive"}


def test_decide_zero_factor_file(capsys, tmp_path):
    for text in ("strands 3\ntarget word=\n", "strands 1\ntarget full_twist\n"):
        F = parse_factorization(text)
        v = decide_equivalence(F, F)
        assert (v.outcome, v.path, v.conjugator.letters) == ("equivalent", (), ())
        path = tmp_path / "empty.fact"
        path.write_text(text)
        assert main(["decide", str(path), str(path)]) == 0
        assert capsys.readouterr().out.startswith("outcome equivalent\n")


def test_orbit_budget_checks():
    # each bound goes through operator.index and must be positive
    for name in ("max_states", "conjugator_length_bound"):
        for value in (0, -3):
            with pytest.raises(ValueError, match=name):
                SearchBudget(**{name: value})
        for value in (2.5, 3.0, "3", None):
            with pytest.raises(TypeError):
                SearchBudget(**{name: value})
    budget = SearchBudget(max_states=True, max_factor_nf_length=True, conjugator_length_bound=True)
    assert budget == SearchBudget(1, 1, 1)
    assert all(type(v) is int for v in vars(budget).values())


def test_decide_identical():
    v = decide_equivalence(CUBIC, CUBIC)
    assert v.outcome == "equivalent" and v.path == ()
    assert equals(v.conjugator, identity_word(3))


def test_decide_equivalent_instances_replay():
    rng = random.Random(2026)
    pool = [
        CONIC,
        CUBIC,
        search_factorization(3, (1,) * 6, 2),
        search_factorization(3, (2, 2, 1, 1), 3),
    ]
    for case in range(60):
        F1 = pool[case % len(pool)]
        F2 = scramble(rng, F1, rng.randint(0, 4), 2)
        v = decide_equivalence(F1, F2, SearchBudget(max_states=3000))
        assert v.outcome == "equivalent", (case, v)
        G = replay(F1, v.path, v.conjugator)
        assert all(equals(a, b) for a, b in zip(factor_words(G), factor_words(F2)))


def test_decide_distinguished_by_s_multiset():
    other = search_factorization(3, (2, 2, 1, 1), 3)
    v = decide_equivalence(CUBIC, other, SearchBudget(max_states=500))
    assert v.outcome == "distinguished"
    assert v.field == "s_multiset"


def test_decide_distinguished_by_factor_count():
    six = search_factorization(3, (1,) * 6, 2)
    v = decide_equivalence(CUBIC, six, SearchBudget(max_states=500))
    assert v.outcome == "distinguished"
    assert v.field == "factor_count"


def test_decide_inconclusive_when_starved():
    F2 = conjugate_all(CUBIC, BraidWord(3, (1, 1, 1, 2, 2, 2)))
    v = decide_equivalence(CUBIC, F2, SearchBudget(max_states=3, conjugator_length_bound=1))
    assert v.outcome == "inconclusive"
    assert v.states <= 3


def test_orbit_complete_only_when_fewer_states_than_the_cap():
    # the bounded orbit of CUBIC has 176 states; the orbit counts as complete
    # only when the search drew fewer than max_states of them
    F2 = conjugate_all(CUBIC, BraidWord(3, (1,) * 5 + (2,) * 4))
    orbit, complete = orbit_keys(CUBIC, 5000, 4)
    assert (len(orbit), complete) == (176, True)
    for max_states, states, orbit_complete in ((5000, 176, True), (177, 176, True), (176, 176, False)):
        budget = SearchBudget(max_states=max_states, max_factor_nf_length=4, conjugator_length_bound=1)
        v = decide_equivalence(CUBIC, F2, budget)
        assert (v.outcome, v.states, v.orbit_complete) == ("inconclusive", states, orbit_complete)


def test_decide_input_checks():
    with pytest.raises(ValueError):
        decide_equivalence(CONIC, CUBIC)  # strand mismatch
    with pytest.raises(ValueError):
        decide_equivalence(CUBIC, CUBIC, SearchBudget(max_states=0))
    with pytest.raises(ValueError):
        decide_equivalence(cuspidal(2, ((), 1)), CONIC)  # left does not validate


def test_verdict_round_trip():
    rng = random.Random(55)
    for _ in range(40):
        F1 = CUBIC
        F2 = scramble(rng, F1, rng.randint(0, 3), 1)
        v = decide_equivalence(F1, F2, SearchBudget(max_states=3000))
        text = format_verdict(v)
        w = parse_verdict(text, F1.strands)
        assert format_verdict(w) == text
        assert w.outcome == v.outcome and w.path == v.path
    v = EquivalenceVerdict("distinguished", field="s_multiset", values=("a", "b"))
    assert parse_verdict(format_verdict(v), 3).field == "s_multiset"
    v = EquivalenceVerdict("inconclusive", states=17)
    assert parse_verdict(format_verdict(v), 3).outcome == "inconclusive"


def test_parse_verdict_rejects_malformed():
    with pytest.raises(FormatError):
        parse_verdict("", 3)
    with pytest.raises(FormatError):
        parse_verdict("outcome equivalent\nmove one left\nconjugator\n", 3)
    with pytest.raises(FormatError):
        parse_verdict("outcome equivalent\n", 3)
    with pytest.raises(FormatError):
        parse_verdict("outcome distinguished\n", 3)
