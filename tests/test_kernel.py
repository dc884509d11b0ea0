"""Normal-form kernel versus an independent fixpoint reference.

Both kernel implementations are checked against a naive left-weighting
procedure that bubbles factors until no letter can move left, plus
permutation-image bookkeeping, and against each other.  The compiled twin
is built from this tree's _garside.c for the session, so it is tested
wherever a C compiler and Python.h exist, installed or not.
"""

import importlib.util
import itertools
import os
import random
import re
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from braidfact._kernel import garside_py

C_SOURCE = Path(__file__).resolve().parents[1] / "src" / "braidfact" / "_kernel" / "_garside.c"


def c_compiler():
    """The C compiler command Python builds extensions with, as a list;
    skips the calling test when it or Python.h is missing."""
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]})")
    if not (Path(sysconfig.get_paths()["include"]) / "Python.h").exists():
        pytest.skip("Python.h not found")
    return cc


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled twin, built from _garside.c into a temporary directory."""
    c_compiler()
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("garside")
    cmd = build_ext(Distribution({"ext_modules": [Extension("_garside", [str(C_SOURCE)])]}))
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location("_garside", cmd.get_ext_fullpath("_garside"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ref_normal_form(d, letters):
    """Independent reference: bubble full passes to the left-weighted fixpoint."""
    w0 = list(range(d - 1, -1, -1))
    raw, dpows = [], []
    for k in letters:
        i = abs(k) - 1
        assert 0 <= i < d - 1
        if k > 0:
            p = list(range(d))
            p[i], p[i + 1] = p[i + 1], p[i]
            raw.append(p)
            dpows.append(0)
        else:
            # X_i^-1 = Delta^-1 * (Delta X_i^-1), second part a permutation braid
            p = list(w0)
            p[d - 1 - i], p[d - 2 - i] = i + 1, i
            raw.append(p)
            dpows.append(-1)
    dp = 0
    for j in range(len(raw) - 1, -1, -1):
        if dp % 2 == 1:
            p = raw[j]
            raw[j] = [d - 1 - p[d - 1 - x] for x in range(d)]
        dp += dpows[j]
    return ref_comb(d, dp, raw)


def ref_comb(d, inf, raw):
    """Reference left normal form of D^inf * raw[0] * raw[1] * ..., raw a
    list of permutation braids: slide the least movable crossing of each
    pair, in full passes, until no pair changes."""
    w0 = list(range(d - 1, -1, -1))
    ident = list(range(d))
    factors = [list(p) for p in raw]

    def starting(p):
        return {i for i in range(d - 1) if p[i] > p[i + 1]}

    def finishing(p):
        inv = [0] * d
        for i in range(d):
            inv[p[i]] = i
        return {i for i in range(d - 1) if inv[i] > inv[i + 1]}

    changed = True
    while changed:
        changed = False
        factors = [p for p in factors if p != ident]
        for j in range(len(factors) - 1):
            a, b = factors[j], factors[j + 1]
            while True:
                cand = starting(b) - finishing(a)
                if not cand:
                    break
                i = min(cand)
                ai = [0] * d
                for x in range(d):
                    ai[a[x]] = x
                a[ai[i]], a[ai[i + 1]] = i + 1, i
                b[i], b[i + 1] = b[i + 1], b[i]
                changed = True
    factors = [p for p in factors if p != ident]
    lead = 0
    while lead < len(factors) and factors[lead] == w0:
        lead += 1
    return inf + lead, tuple(tuple(p) for p in factors[lead:])


def perm_of(d, letters):
    # left-to-right composition: each letter acts after the prefix
    p = list(range(d))
    for k in letters:
        i = abs(k) - 1
        pi, pj = p.index(i), p.index(i + 1)
        p[pi], p[pj] = i + 1, i
    return tuple(p)


def nf_perm(d, inf, factors):
    # permutation image of Delta^inf * factors
    p = list(range(d))
    if inf % 2 == 1:
        p = p[::-1]
    for f in factors:
        p = [f[x] for x in p]
    return tuple(p)


def assert_left_weighted(d, factors):
    w0 = tuple(range(d - 1, -1, -1))
    ident = tuple(range(d))
    for f in factors:
        assert f != ident and f != w0, factors
    for j in range(len(factors) - 1):
        a, b = factors[j], factors[j + 1]
        inv = [0] * d
        for i in range(d):
            inv[a[i]] = i
        starting_b = {i for i in range(d - 1) if b[i] > b[i + 1]}
        finishing_a = {i for i in range(d - 1) if inv[i] > inv[i + 1]}
        assert starting_b <= finishing_a, (factors, j)


def random_word(rng, d, max_len):
    n = rng.randint(0, max_len)
    return [rng.choice([1, -1]) * rng.randint(1, d - 1) for _ in range(n)]


def positive_letters(images):
    """Positive word of a permutation braid: the swaps of a bubble sort."""
    v, out = list(images), []
    for end in range(len(v) - 1, 0, -1):
        for i in range(end):
            if v[i] > v[i + 1]:
                v[i], v[i + 1] = v[i + 1], v[i]
                out.append(i + 1)
    return out


def factors_word(d, inf, factors):
    """Letters of D^inf F_1 ... F_n."""
    half = positive_letters(range(d - 1, -1, -1))
    power = half * inf if inf >= 0 else [-k for k in reversed(half)] * -inf
    return power + [k for f in factors for k in positive_letters(f)]


def random_factors(rng, d):
    """A factor list mixing identities, half twists, random permutation
    braids and the factors of two normal forms set side by side."""
    ident, w0 = tuple(range(d)), tuple(range(d - 1, -1, -1))
    if d > 1 and rng.random() < 0.25:
        return [f for _ in range(2) for f in ref_normal_form(d, random_word(rng, d, 12))[1]]
    return [
        rng.choice((ident, w0, tuple(rng.sample(range(d), d)), tuple(rng.sample(range(d), d))))
        for _ in range(rng.randint(0, 5))
    ]


def factor_key(f):
    """The permutation braid f as a left normal form: (0, ()) for the
    identity, (1, ()) for the half twist, else (0, (f,))."""
    d = len(f)
    if f == tuple(range(d)):
        return 0, ()
    return (1, ()) if f == tuple(range(d - 1, -1, -1)) else (0, (f,))


def factor_keys(inf, factors):
    """D^inf F_1 ... F_n as product's keys: (inf, ()), then one key per factor."""
    return [(inf, ())] + [factor_key(tuple(f)) for f in factors]


def tau(f):
    """The conjugate of a permutation braid by the half twist."""
    return tuple(len(f) - 1 - y for y in reversed(f))


def one_key(keys):
    """The product of keys as one key: every half-twist power moved to the
    front, a factor passing D^n becoming tau^n of itself."""
    total = right = sum(inf for inf, _ in keys)
    factors = []
    for inf, fs in keys:
        right -= inf
        factors.extend(map(tau, fs) if right % 2 else fs)
    return total, factors


def ref_product(d, keys):
    """Reference normal form of the product of keys: ref_comb of one_key."""
    return ref_comb(d, *one_key(keys)) if d > 1 else (0, ())  # the half twist of B_1 is trivial


@pytest.fixture(params=["pure", "compiled"])
def kernel(request):
    return garside_py if request.param == "pure" else request.getfixturevalue("compiled")


# The rejection tests run on the compiled kernel alone: the pure kernel
# checks nothing, and its input is checked where it enters the package.
checking_kernel = pytest.mark.parametrize("kernel", ["compiled"], indirect=True)


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test on empty pure-kernel memos, so each one also runs
    the miss path."""
    garside_py._fix_pair.cache_clear()
    garside_py._tau.cache_clear()


def test_fixed_anchors(kernel):
    assert kernel.normal_form(2, [1, 1]) == (2, ())
    assert kernel.normal_form(3, [1, 2, 1, 2, 1, 2]) == (2, ())
    assert kernel.normal_form(3, [1, 2, 1]) == (1, ())
    assert kernel.normal_form(3, [1, 2, 1]) == kernel.normal_form(3, [2, 1, 2])
    assert kernel.normal_form(3, [1, -1]) == (0, ())
    assert kernel.normal_form(4, []) == (0, ())
    assert kernel.normal_form(1, []) == (0, ())
    # one mixed word by hand: X1^-1 X2 in B_3 has inf -1 and two factors
    inf, factors = kernel.normal_form(3, [-1, 2])
    assert inf == -1 and len(factors) == 2


def test_against_reference(kernel):
    rng = random.Random(20260815)
    for _ in range(800):
        d = rng.randint(2, 6)
        letters = random_word(rng, d, 24)
        got = kernel.normal_form(d, letters)
        assert got == ref_normal_form(d, letters), (d, letters)
        assert_left_weighted(d, got[1])
        assert nf_perm(d, *got) == perm_of(d, letters), (d, letters)


def test_full_twist_and_centrality(kernel):
    for d in range(2, 7):
        ft = []
        for _ in range(d):
            ft.extend(range(1, d))
        assert kernel.normal_form(d, ft) == (2, ())
        for g in range(1, d):
            assert kernel.normal_form(d, [g] + ft) == kernel.normal_form(d, ft + [g])


def test_inverse_cancellation(kernel):
    rng = random.Random(7)
    for _ in range(300):
        d = rng.randint(2, 6)
        w = random_word(rng, d, 30)
        winv = [-k for k in reversed(w)]
        assert kernel.normal_form(d, w + winv) == (0, ())


def half_twist_letters(d):
    return positive_letters(range(d - 1, -1, -1))


def test_runs_reach_and_pass_the_half_twist(kernel):
    # A positive word folds into one run until the run is w0; the next
    # letter opens a second run (in B_2, sigma_1 is the half twist itself).
    assert kernel.normal_form(2, [1, 1, 1]) == (3, ())
    for d in range(3, 9):
        half = half_twist_letters(d)
        assert kernel.normal_form(d, half) == (1, ())
        s1 = (1, 0) + tuple(range(2, d))
        assert kernel.normal_form(d, half + [1]) == (1, (s1,)) == ref_normal_form(d, half + [1])
        inverse = [-k for k in reversed(half)]
        assert kernel.normal_form(d, inverse) == (-1, ())
        assert kernel.normal_form(d, inverse + [-1]) == ref_normal_form(d, inverse + [-1])


@pytest.mark.parametrize(
    "d, letters",
    [
        (2, [1, -1]),
        (2, [-1, 1]),
        (3, [1, 2, -2, -1]),
        (3, [-1, -2, 2, 1]),
        (4, [1, 2, 3, -3, 1, -1, -2, -1]),  # cancels inside a positive run
        (4, [-3, -2, 2, -1, 1, 3]),  # and inside a negative one
        (5, [2, 1, 3, 2, 4, -4, -2, -3, -1, -2]),
    ],
)
def test_inverse_letters_cancel_inside_a_run(kernel, d, letters):
    assert kernel.normal_form(d, letters) == (0, ())


def test_negative_run_grown_back_to_the_half_twist(kernel):
    # sigma_i^-1 opens Delta^-1 (w0 s_i); positive letters may then add
    # crossings to that run until it is w0 again and the Delta cancels.
    for d in range(2, 8):
        half = half_twist_letters(d)
        for cut in range(len(half)):
            negative = [-k for k in reversed(half[cut:])]
            word = negative + half[cut:]
            assert kernel.normal_form(d, word) == (0, ()), word
            # letters after w0 open the next run
            assert kernel.normal_form(d, word + [d - 1, 1]) == ref_normal_form(d, [d - 1, 1])


def half_twist_fold_words(d):
    """Positive words around the half twist whose comb forms Delta at slot
    0, in the middle and at the tail of the factors combed so far."""
    half = half_twist_letters(d)
    mirror = [d - k for k in half]  # also Delta, but ending in sigma_(d-1)
    words = [
        [1] + half,  # Delta appended behind sigma_1: forms at slot 0 of 2
        [1, 1, 1, 1] + half,  # forms at the tail, slot 3 of 5
    ]
    if d >= 4:
        # Delta sigma_1^-1, then sigma_3 and sigma_3 sigma_1: the second
        # sigma_1 slides left through sigma_3 into Delta sigma_1^-1
        words.append(half[:-1] + [3, 3, 1])  # slot 0 of 3
        words.append(mirror[:-1] + half[:-1] + [3, 3, 1])  # slot 1 of 4
        words.append([2, 2] + mirror[:-1] + half[:-1] + [3, 3, 1, 2])  # slot 1 of 5
    return words


@pytest.mark.parametrize("d", range(3, 9))
def test_half_twist_formed_in_the_comb(kernel, d):
    for word in half_twist_fold_words(d):
        for letters in (word, word + [d - 1, 1], [-1, -2] + word):
            got = kernel.normal_form(d, letters)
            assert got == ref_normal_form(d, letters), (d, letters)
            assert_left_weighted(d, got[1])


def test_alternating_word_in_b4(kernel):
    # a half twist forms in the comb of almost every run of this word
    for k in range(1, 13):
        letters = [1, -2, 3, -1, 2, -3] * k
        assert kernel.normal_form(4, letters) == ref_normal_form(4, letters), k


def test_half_twists_fold_where_they_form(monkeypatch):
    # Folding each half twist into the Delta power where it forms, instead
    # of sliding it to the front one pair at a time, halves the pair combs
    # of this word: 15,550 against 30,700.
    calls = []
    fix_pair = garside_py._fix_pair

    def counting_fix_pair(*args):
        calls.append(None)
        return fix_pair(*args)

    monkeypatch.setattr(garside_py, "_fix_pair", counting_fix_pair)
    got = garside_py.normal_form(4, (1, -2, 3, -1, 2, -3) * 100)
    assert got[0] == -100 and len(got[1]) == 200
    assert len(calls) <= 16000


@pytest.mark.parametrize("d", range(2, 6))
def test_every_pair_of_permutation_braids(kernel, d):
    # each comb step is one pair: every slide order must reach the one
    # left-weighted pair, and the half twist or identity it may leave
    perms = list(itertools.permutations(range(d)))
    for a in perms:
        for b in perms:
            assert kernel.product(d, factor_keys(0, [a, b])) == ref_comb(d, 0, [a, b]), (a, b)


def test_random_pairs_in_b6_to_b8(kernel):
    # the insertion pass's long slide chains start at B_6, past the
    # exhaustive test above
    rng = random.Random(20261022)
    for _ in range(2000):
        d = rng.randint(6, 8)
        a, b = (tuple(rng.sample(range(d), d)) for _ in range(2))
        assert kernel.product(d, factor_keys(0, [a, b])) == ref_comb(d, 0, [a, b]), (a, b)


@pytest.fixture(scope="module")
def middle_half_twist_cases():
    """Seeded (d, inf, factors, reference) in B_2..B_8, each factor list
    two normal forms with one or two half twists between them."""
    rng = random.Random(20261019)
    cases = []
    for d in range(2, 9):
        w0 = tuple(range(d - 1, -1, -1))
        for twists in (1, 1, 2):
            head = ref_normal_form(d, random_word(rng, d, 8))[1]
            tail = ref_normal_form(d, random_word(rng, d, 8))[1]
            factors = list(head) + [w0] * twists + list(tail)
            inf = rng.randint(-1, 1)
            cases.append((d, inf, factors, ref_normal_form(d, factors_word(d, inf, factors))))
    return cases


def test_half_twist_factor_in_the_middle(kernel, middle_half_twist_cases):
    for d, inf, factors, expected in middle_half_twist_cases:
        assert kernel.product(d, factor_keys(inf, factors)) == expected, (d, inf, factors)


@pytest.fixture(scope="module")
def long_words():
    """Seeded words in B_7 and B_8 of up to 176 letters, the word-problem
    benchmark's range, with their reference normal forms."""
    rng = random.Random(20261018)
    cases = []
    for j in range(16):
        d = 7 + j % 2
        letters = [rng.choice([1, -1]) * rng.randint(1, d - 1) for _ in range(176 - 11 * j)]
        cases.append((d, letters, ref_normal_form(d, letters)))
    return cases


def test_long_words_against_reference(kernel, long_words):
    for d, letters, expected in long_words:
        assert kernel.normal_form(d, letters) == expected, (d, letters)
        assert nf_perm(d, *expected) == perm_of(d, letters)


@pytest.fixture(scope="module")
def factor_cases():
    """Seeded (d, inf, factors, reference normal form) in B_1..B_8."""
    rng = random.Random(20261018)
    cases = []
    for _ in range(300):
        d = rng.randint(1, 8)
        factors = random_factors(rng, d)
        inf = rng.randint(-3, 3)
        cases.append((d, inf, factors, ref_product(d, [(inf, factors)])))
    return cases


def test_factors_against_reference(kernel, factor_cases):
    for d, inf, factors, expected in factor_cases:
        got = kernel.product(d, factor_keys(inf, factors))
        assert got == expected, (d, inf, factors)
        assert_left_weighted(d, got[1])
    assert kernel.product(4, []) == (0, ())
    assert kernel.product(4, [(0, [])]) == (0, ())
    assert kernel.product(4, factor_keys(-2, [(0, 1, 2, 3)])) == (-2, ())
    assert kernel.product(4, factor_keys(-1, [(3, 2, 1, 0)] * 3)) == (2, ())


@pytest.mark.parametrize("factor", [(0, 1), (0, 1, 2, 3), (0, 0, 2), (0, 1, 3), (-1, 0, 1)])
@checking_kernel
def test_malformed_factor_raises(kernel, factor):
    with pytest.raises(ValueError):
        kernel.product(3, [(0, [(1, 0, 2), factor])])


@pytest.mark.parametrize("warm", [False, True])
@checking_kernel
def test_factor_images_must_be_ints(kernel, warm):
    # images are read through __index__: a bool counts as its int, a float
    # or a string is a TypeError, whatever was multiplied before; the first
    # bad image of a factor decides the error
    if warm:
        for factors in ([(1, 0, 2), (1, 0, 2)], [(1, 0, 2), (0, 2, 1)]):
            got = kernel.product(3, factor_keys(0, factors))
            assert kernel.product(3, [got]) == got
            with pytest.raises(ValueError):  # a factor of B_3 is none of B_4
                kernel.product(4, [got])
    for d, factors in ((3, [(1.0, 0, 2)]), (3, [(1.0, 0, 2), (0, 2, 1)]), (1, [("a",)])):
        with pytest.raises(TypeError):
            kernel.product(d, [(0, factors)])
    for factor, error in ((1, 1.0, 0), TypeError), ((5, 1.0, 0), ValueError), ((1, 1, 1.0), ValueError):
        with pytest.raises(error):
            kernel.product(3, [(0, [factor])])
    got = kernel.product(3, [(0, [(True, False, 2)])])
    assert got == (0, ((1, 0, 2),)) and all(type(v) is int for v in got[1][0])


def test_memos_are_transparent_and_bounded(kernel):
    # the same answers cold, warm, and after more distinct pairs than the
    # memos hold have passed through; each answer fed back in is its own
    # normal form
    rng = random.Random(20261020)
    words, keys = [], []
    for d in range(2, 9):
        for _ in range(12):
            letters = random_word(rng, d, 40)
            words.append((d, letters, ref_normal_form(d, letters)))
            factors = random_factors(rng, d)
            inf = rng.randint(-2, 2)
            keys.append((d, inf, factors, ref_comb(d, inf, [list(f) for f in factors])))

    def check():
        for d, letters, expected in words:
            got = kernel.normal_form(d, letters)
            assert got == expected, (d, letters)
            assert kernel.product(d, [got]) == expected
        for d, inf, factors, expected in keys:
            got = kernel.product(d, factor_keys(inf, factors))
            assert got == expected, (d, inf, factors)
            assert kernel.product(d, [got]) == expected
        assert garside_py._fix_pair.cache_info().currsize <= garside_py._MEMO_SIZE
        assert garside_py._tau.cache_info().currsize <= garside_py._MEMO_SIZE

    check()
    check()
    for _ in range(2 * garside_py._MEMO_SIZE):
        kernel.product(8, factor_keys(1, [tuple(rng.sample(range(8), 8)) for _ in range(2)]))
    if kernel is garside_py:
        assert garside_py._fix_pair.cache_info().currsize == garside_py._MEMO_SIZE
    check()


@pytest.fixture(scope="module")
def multi_key_cases():
    """Seeded (d, keys, expected) in B_1..B_7: keys with no factors first,
    in the middle and last, negative infs, identity and half-twist factors,
    and infs of 2**70; expected is the reference normal form of the product."""
    rng = random.Random(20261019)
    cases = []
    for j in range(300):
        d = 1 + j % 7
        keys = [(rng.randint(-3, 3), random_factors(rng, d)) for _ in range(rng.randint(0, 4))]
        slot = rng.randint(0, len(keys))
        keys.insert(slot, (rng.choice((-1, 0, 1, 2**70, -(2**70) + 1)), []))
        cases.append((d, keys, ref_product(d, keys)))
    return cases


def test_product_reference_matches_spelled_words(multi_key_cases):
    # one_key and ref_comb against the word reference, on the small cases
    # whose product can be spelled out as a word
    checked = 0
    for d, keys, expected in multi_key_cases:
        if d <= 4 and all(abs(inf) < 4 for inf, _ in keys):
            letters = [k for inf, fs in keys for k in factors_word(d, inf, fs)]
            assert expected == (ref_normal_form(d, letters) if d > 1 else (0, ())), (d, keys)
            checked += 1
    assert checked >= 50


def test_multi_key_product(kernel, multi_key_cases):
    # sigma_1 Delta = Delta sigma_2
    assert kernel.product(3, [(0, [(1, 0, 2)]), (1, [])]) == (1, ((0, 2, 1),))
    for d, keys, expected in multi_key_cases:
        got = kernel.product(d, [k for key in keys for k in factor_keys(*key)])
        assert got == expected, (d, keys)
        assert kernel.product(d, factor_keys(*one_key(keys))) == got, (d, keys)


# (d, left key, right key, lookups): products of two normal forms whose seam
# needs combing, and the comb lookups the pure kernel makes for them cold
SEAM_CASES = [
    # the right key's first factor combs back into sigma_3; its second fits
    # the combed pair, and its third goes on after it with no lookup
    (5, (0, ((0, 1, 3, 2, 4),)), (0, ((2, 0, 4, 3, 1), (0, 1, 2, 4, 3), (0, 1, 2, 4, 3))), 2),
    # sigma_2 and the right key's first factor form Delta at the seam, which
    # folds into the Delta power; the other two factors go on with no lookup
    (3, (0, ((0, 2, 1),)), (0, ((2, 0, 1), (0, 2, 1), (0, 2, 1))), 1),
]


@pytest.mark.parametrize("d, left, right, lookups", SEAM_CASES)
def test_product_combs_only_the_seam(kernel, monkeypatch, d, left, right, lookups):
    calls = []
    fix_pair = garside_py._fix_pair

    def counting_fix_pair(*args):
        calls.append(None)
        return fix_pair(*args)

    monkeypatch.setattr(garside_py, "_fix_pair", counting_fix_pair)
    got = kernel.product(d, [left, right])
    assert got == ref_product(d, [left, right])
    if kernel is garside_py:
        assert len(calls) == lookups
    # odd infs on either side conjugate a key's block by the half twist
    for p, q in ((1, 0), (0, -1), (3, 2)):
        keys = [(p, left[1]), (q, right[1])]
        assert kernel.product(d, keys) == ref_product(d, keys), (p, q)


def test_long_key_times_one_factor_key(kernel):
    # a key of many factors times a key of one, in both orders, for every
    # (or, in B_6, a seeded sample of) one-factor key
    rng = random.Random(20261022)
    for d in (3, 4, 5, 6):
        long = (0, ())
        while len(long[1]) < 5:
            long = ref_normal_form(d, random_word(rng, d, 40))
        perms = [p for p in itertools.permutations(range(d)) if factor_key(p)[1]]
        for p in perms if d < 6 else rng.sample(perms, 60):
            for keys in ([long, (0, (p,))], [(0, (p,)), long]):
                assert kernel.product(d, keys) == ref_product(d, keys), (d, keys)


@pytest.mark.parametrize(
    "key, error",
    [
        (5, TypeError),  # not a pair
        ((0,), ValueError),
        ((0, [], 1), ValueError),
        ((1.0, []), TypeError),  # a non-integer inf
        (("1", [(0, 1, 2)]), TypeError),
        ((0, 5), TypeError),  # factors not iterable
        ((0, [(0, 1)]), ValueError),  # a factor of the wrong length
        ((0, [(0, 2, 2)]), ValueError),  # a repeated image
        ((0, [(1.0, 0, 2), (0, 1)]), ValueError),  # every length before any image
        ((0, [(0, 1, 2)]), ValueError),  # an identity factor
        ((0, [(2, 1, 0)]), ValueError),  # a half-twist factor
        ((0, [(1, 0, 2), (0, 2, 1)]), ValueError),  # a pair that is not left-weighted
    ],
)
@checking_kernel
def test_malformed_key_raises(kernel, key, error):
    with pytest.raises(error):
        kernel.product(3, [(1, [(1, 0, 2)]), key])


@checking_kernel
def test_letter_out_of_range_raises(kernel):
    for letter in (0, 3, -3, 2**70, -(2**70)):
        with pytest.raises(ValueError):
            kernel.normal_form(3, [1, letter])
    with pytest.raises(ValueError):
        kernel.normal_form(0, [])


@checking_kernel
def test_letters_must_be_ints(kernel):
    # letters are read through __index__ before the range check, as images
    # are: a float or a string is a TypeError, a bool counts as its int
    for letter in (3.5, 1.0, "1"):
        with pytest.raises(TypeError):
            kernel.normal_form(3, [1, letter])
    assert kernel.normal_form(3, [True, -2, True]) == kernel.normal_form(3, [1, -2, 1])
    for letter in (False, 2**70, -(2**70)):
        with pytest.raises(ValueError):
            kernel.normal_form(3, [letter])


def test_each_kernel_has_two_entries(kernel):
    # normal_form and product, besides the name; imports do not count
    public = {
        name
        for name, value in vars(kernel).items()
        if not name.startswith("_") and (not callable(value) or value.__module__ == kernel.__name__)
    }
    assert public == {"IMPL_NAME", "normal_form", "product"}


def test_pure_compiled_parity(compiled):
    assert compiled.IMPL_NAME == "compiled"
    rng = random.Random(424242)
    for _ in range(500):
        d = rng.randint(2, 8)
        letters = random_word(rng, d, 60)
        assert garside_py.normal_form(d, letters) == compiled.normal_form(d, letters)


def test_pure_compiled_factor_parity(compiled):
    rng = random.Random(515151)
    for _ in range(1000):
        d = rng.randint(1, 8)
        factors = random_factors(rng, d)
        inf = rng.randint(-5, 5)
        keys = factor_keys(inf, factors)
        assert compiled.product(d, keys) == garside_py.product(d, keys), (d, inf, factors)


def test_c_source_compiles_warning_free(tmp_path):
    cc = c_compiler()
    version = subprocess.run(cc + ["--version"], capture_output=True, text=True).stdout
    if not re.search(r"\b(gcc|clang)\b|Free Software Foundation", version):
        pytest.skip(f"{cc[0]} is neither gcc nor clang")
    done = subprocess.run(
        cc + ["-Wall", "-Wextra", "-Wpedantic", "-std=c99", "-Werror",
              "-I", sysconfig.get_paths()["include"],
              "-c", str(C_SOURCE), "-o", str(tmp_path / "_garside.o")],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
