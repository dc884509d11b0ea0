"""The benchmark's four workloads: seeded inputs, one operation at a time,
every answer checked.

Each workload is a function ``make_<name>(seed, size, workdir)`` returning
``(inputs, ops)``: a plain-data description of the generated inputs (hashed
to check that the same seed gives the same inputs) and the list of
operations.  An operation is a zero-argument callable returning an
``Answer``: the value the library gave (used to check that the same seed
gives the same answers), whether that value is correct, and whether it is
definite (not ``inconclusive``/``unknown``/budget exceeded).  Inputs are
built before any operation runs; only the operations are timed.

Library functions are looked up as module attributes at call time
(``braid.equals``, ``equivalence.decide_equivalence``, ``cli.main``) so that
the tracer's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

from braidfact import braid, cli, equivalence
from braidfact._kernel import implementations
from braidfact.braid import BraidWord
from braidfact.factorization import (
    conjugate_all,
    factor_words,
    format_factorization,
    hurwitz_move,
    parse_factorization,
    validate,
)

DATA = Path(__file__).resolve().parent / "data"
POOL = ("conic", "cubic_smooth", "cubic_cusp", "conic_line", "quartic_two_cusp", "quartic_three_cusp")

# Operations per batch.  "tiny" is for the benchmark's own tests.
SIZES = {
    "words": {"full": 400, "tiny": 12},
    "conjugacy": {"full": 40, "tiny": 6},
    "orbits": {"full": 8, "tiny": 1},  # rounds of pairs
}
CONJUGACY_BUDGET = 3000
CATALOGUE_SEED = 1009
ORBIT_BUDGET = equivalence.SearchBudget(max_states=300, conjugator_length_bound=2)


@dataclass(frozen=True)
class Answer:
    value: object
    ok: bool
    decided: bool = True
    error: str | None = None


def rand_word(rng: random.Random, d: int, n: int) -> BraidWord:
    return BraidWord(d, tuple(rng.choice((1, -1)) * rng.randint(1, d - 1) for _ in range(n)))


def reduced_word(rng: random.Random, d: int, n: int) -> BraidWord:
    """Random freely reduced word of exactly n letters (no g g^-1 to cancel)."""
    out: list[int] = []
    while len(out) < n:
        k = rng.choice((1, -1)) * rng.randint(1, d - 1)
        if not out or out[-1] != -k:
            out.append(k)
    return BraidWord(d, tuple(out))


def inverse_letters(letters) -> tuple[int, ...]:
    return tuple(-k for k in reversed(letters))


def load_pool() -> dict:
    pool = {}
    for name in POOL:
        F = parse_factorization((DATA / f"{name}.fact").read_text())
        if not validate(F).product_ok:
            raise ValueError(f"stored factorization {name} does not validate")
        pool[name] = F
    return pool


def scramble(rng: random.Random, F, moves: int, z: BraidWord | int):
    """Seeded Hurwitz moves then one simultaneous conjugation: same type as F.

    z is the conjugator, or a length for a random one."""
    G = F
    for _ in range(moves if F.r >= 2 else 0):
        G = hurwitz_move(G, rng.randint(1, F.r - 1), rng.choice(("left", "right")))
    if isinstance(z, int):
        z = rand_word(rng, F.strands, z)
    return conjugate_all(G, z)


# ---------------------------------------------------------------------------
# words: the word problem on distinct words, so the normal-form cache misses


def rewritten(rng: random.Random, letters: list[int], d: int, steps: int) -> list[int]:
    """Sound rewrites: braid relation, far commutation, insert or cancel g g^-1."""
    w = list(letters)
    for _ in range(steps):
        kind = rng.randint(0, 3)
        if kind == 0:
            spots = [
                j for j in range(len(w) - 2)
                if w[j] == w[j + 2] and w[j] * w[j + 1] > 0 and abs(abs(w[j]) - abs(w[j + 1])) == 1
            ]
            if spots:
                j = rng.choice(spots)
                w[j : j + 3] = [w[j + 1], w[j], w[j + 1]]
                continue
        if kind == 1:
            spots = [j for j in range(len(w) - 1) if abs(abs(w[j]) - abs(w[j + 1])) >= 2]
            if spots:
                j = rng.choice(spots)
                w[j], w[j + 1] = w[j + 1], w[j]
                continue
        if kind == 2:
            j = rng.randint(0, len(w))
            g = rng.choice((1, -1)) * rng.randint(1, d - 1)
            w[j:j] = [g, -g]
            continue
        spots = [j for j in range(len(w) - 1) if w[j] == -w[j + 1]]
        if spots:
            j = rng.choice(spots)
            del w[j : j + 2]
    return w


def word_pairs(seed: int, n: int):
    """(d, u, v, expect_equal): v is u rewritten, and for unequal pairs one
    letter of it replaced by a different letter (x a y != x b y when a != b).

    Strand count and length sweep a fixed grid (B_2..B_8, 0..176 letters)
    and the seed draws the letters, so the batch's cost varies little from
    seed to seed.
    """
    rng = random.Random(seed)
    out = []
    for i in range(n):
        d = 2 + i % 7
        u = list(rand_word(rng, d, i * 53 % 177).letters)
        v = rewritten(rng, u, d, rng.randint(1, 12))  # at most 176 + 2 * 12 letters
        equal = rng.random() < 0.5
        if not equal:
            alphabet = [k for k in range(1 - d, d) if k != 0]
            if v:
                j = rng.randrange(len(v))
                v[j] = rng.choice([k for k in alphabet if k != v[j]])
            else:
                v = [rng.choice(alphabet)]
        out.append((d, tuple(u), tuple(v), equal))
    return out


def make_words(seed: int, size: str, workdir: str):
    pairs = word_pairs(seed, SIZES["words"][size])
    ops = []
    for i, (d, u, v, equal) in enumerate(pairs):
        U, V = BraidWord(d, u), BraidWord(d, v)

        def op(U=U, V=V, equal=equal, by_form=i % 2 == 1):
            if by_form:
                got = braid.canonical_form(U) == braid.canonical_form(V)
            else:
                got = braid.equals(U, V)
            return Answer(got, got == equal)

        ops.append(op)
    return pairs, ops


def kernel_parity(seed: int, size: str):
    """Normal forms of every words input under every importable kernel.

    Returns (per-kernel seconds, indices of pairs where a kernel disagrees
    with the first one).
    """
    words = [(d, w) for d, u, v, _ in word_pairs(seed, SIZES["words"][size]) for w in (u, v)]
    seconds, reference, bad = {}, None, set()
    for impl in implementations():
        t0 = time.perf_counter()
        forms = [impl.normal_form(d, w) for d, w in words]
        seconds[impl.IMPL_NAME] = time.perf_counter() - t0
        if reference is None:
            reference = forms
        else:
            bad.update(i // 2 for i, (a, b) in enumerate(zip(reference, forms)) if a != b)
    return seconds, sorted(bad)


# ---------------------------------------------------------------------------
# conjugacy: super summit closure, heavy-tailed in the strand count


def make_conjugacy(seed: int, size: str, workdir: str):
    """Pairs (u, z^-1 u z): u from a fixed catalogue, z drawn from the seed.

    The catalogue is the sequence of words u drawn by the library's
    random-witness test (seed CATALOGUE_SEED, up to 8 letters), keeping the
    nonempty words in B_3..B_5.  conjugacy_test's cost is set by the
    conjugacy class of u, the size of its super summit set, and is
    heavy-tailed; drawing u from the seed would make one seed's batch
    several times slower than another's.  With u fixed and z a freely
    reduced 3-letter word that does not commute with u, the cost hardly
    depends on the seed.  The work
    budget stops the heaviest B_5 classes while the set of u is still being
    closed, so they end `unknown` after about a second each.
    """
    cat = random.Random(CATALOGUE_SEED)
    rng = random.Random(seed)
    inputs, ops = [], []
    while len(ops) < SIZES["conjugacy"][size]:
        d = cat.randint(2, 5)
        u = rand_word(cat, d, cat.randint(0, 8))
        rand_word(cat, d, cat.randint(0, 4))  # the test's conjugator, unused here
        if d == 2 or not u.letters:
            continue
        for _ in range(100):  # a z commuting with u would make v == u, a trivial pair
            z = reduced_word(rng, d, 3)
            v = BraidWord(d, inverse_letters(z.letters) + u.letters + z.letters)
            if not braid.equals(u, v):
                break
        inputs.append((d, u.letters, z.letters))

        def op(u=u, v=v):
            res = braid.conjugacy_test(u, v, CONJUGACY_BUDGET)
            if res.outcome == "unknown":
                return Answer(("unknown", res.work), True, decided=False)
            if res.outcome != "conjugate":
                return Answer((res.outcome, res.reason), False, error=f"conjugate pair reported {res.outcome}")
            w = res.witness.letters
            ok = braid.equals(BraidWord(u.strands, inverse_letters(w) + u.letters + w), v)
            return Answer(("conjugate", w, res.work), ok, error=None if ok else "witness fails")

        ops.append(op)
    return inputs, ops


# ---------------------------------------------------------------------------
# orbits: Hurwitz breadth-first search with heavy normal-form cache reuse

CONTRASTS = (
    ("cubic_cusp", "conic_line"),
    ("cubic_smooth", "cubic_cusp"),
    ("conic_line", "cubic_smooth"),
    ("quartic_two_cusp", "quartic_three_cusp"),
    ("quartic_three_cusp", "quartic_two_cusp"),
)
LONG = ("quartic_two_cusp", "quartic_three_cusp")


def make_orbits(seed: int, size: str, workdir: str):
    """Pairs of the same type or of different types, decided at ORBIT_BUDGET.

    Each round has three kinds of pair, and every slot has a fixed number of
    moves and conjugator length; the seed draws the moves and the letters.
    That keeps each slot's outcome, and so the batch's cost, nearly the same
    from seed to seed:

    * short: 1 move and a 1-letter conjugator on every pool member; found
      within a few states, so the cost is the fixed part of a decision
      (validation, fingerprints, matching targets).
    * contrast: two pairs of different types, taking turns through
      CONTRASTS; told apart by their fingerprints in about a millisecond.
      More of them would put the median latency among these trivial
      operations.
    * long: 2 moves and a reduced 10-letter conjugator on one of the
      quartics, taking turns; beyond the conjugator bound, so the
      breadth-first search runs to the state budget and ends inconclusive.
      These time the budget-exhaustion path; at about half a second each
      they would dominate the batch if there were more of them.

    Pairs scrambled with more moves (2 moves and a 2-letter conjugator, or 6
    moves, found after anywhere from one to two hundred states) were tried
    and left out: their cost varied so much from seed to seed that the
    latency percentiles did too.
    """
    rng = random.Random(seed)
    pool = load_pool()
    pairs = []  # (F1, F2, same_type)
    for round_ in range(SIZES["orbits"][size]):
        for name in POOL:
            pairs.append((pool[name], scramble(rng, pool[name], 1, 1), True))
        for k in (2 * round_, 2 * round_ + 1):
            a, b = CONTRASTS[k % len(CONTRASTS)]
            pairs.append((scramble(rng, pool[a], 1, 1), scramble(rng, pool[b], 1, 1), False))
        name = LONG[round_ % len(LONG)]
        z = reduced_word(rng, pool[name].strands, 10)
        pairs.append((pool[name], scramble(rng, pool[name], 2, z), True))

    inputs = [
        ([w.letters for w in factor_words(F1)], [w.letters for w in factor_words(F2)], same)
        for F1, F2, same in pairs
    ]
    ops = []
    for F1, F2, same in pairs:

        def op(F1=F1, F2=F2, same=same):
            v = equivalence.decide_equivalence(F1, F2, ORBIT_BUDGET)
            value = (v.outcome, v.path, v.conjugator and v.conjugator.letters, v.field, v.states)
            if v.outcome == "equivalent":
                if not same:
                    return Answer(value, False, error="contrast pair decided equivalent")
                G = equivalence.replay(F1, v.path, v.conjugator)
                got, want = factor_words(G), factor_words(F2)
                ok = len(got) == len(want) and all(braid.equals(a, b) for a, b in zip(got, want))
                return Answer(value, ok, error=None if ok else "verdict does not replay")
            if v.outcome == "distinguished" and same:
                return Answer(value, False, error="equivalent pair distinguished")
            return Answer(value, True, decided=v.outcome != "inconclusive")

        ops.append(op)
    return inputs, ops


# ---------------------------------------------------------------------------
# curves: the README's command-line flow, in process through cli.main

# (name, strands, profile, bound, expected order or None to check only that
# it repeats, "unknown" for a budget-exhausted coset enumeration)
POSITIVE = (
    ("conic", 2, "1,1", 0, 2),
    ("cubic_cusp", 3, "3,1,1,1", 4, None),
    ("cubic_smooth", 3, "1,1,1,1,1,1", 2, 3),
    ("conic_line", 3, "2,2,1,1", 3, "unknown"),
    ("quartic_two_cusp", 4, "3,3,1,1,1,1,1,1", 2, None),
)
# Exhaustive searches that find nothing.  (4;2,2,2,2,1^4) at bound 1 is
# left out: it takes about 10 s alone with the pure kernel, which would
# leave room for only one batch in a run.
NEGATIVE = (
    (4, "3,3,3,1,1,1", 1),
    (4, "3,3,3,3", 2),
)
HOM_DEGREES = (3, 4, 5)
TINY_CURVES = ("conic", "cubic_cusp", "conic_line")


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _kv(text: str, key: str) -> str | None:
    for tok in text.split():
        if tok.startswith(key + "="):
            return tok[len(key) + 1 :]
    return None


def make_curves(seed: int, size: str, workdir: str):
    """Operations run in order and share files in `workdir`."""
    rng = random.Random(seed)
    pool = load_pool()
    quartic = pool["quartic_three_cusp"]
    scrambled = scramble(rng, quartic, rng.randint(1, 4), rng.randint(1, 2))
    stored = {
        "quartic_three_cusp": format_factorization(quartic),
        "quartic_three_cusp_scrambled": format_factorization(scrambled),
    }
    ops, argvs = [], []
    hom_counts: dict[str, str | None] = {}

    def path(name, ext):
        return os.path.join(workdir, f"{name}.{ext}")

    def step(argv, codes, check=None, decided_codes=(0, 1), save=None):
        argvs.append([str(a).removeprefix(workdir + os.sep) for a in argv])

        def op():
            code, out = run_cli(argv)
            value = (argv[0], code, out)
            if save is not None:
                with open(save, "w", encoding="utf-8") as fh:
                    fh.write(out)
            if code not in codes:
                return Answer(value, False, error=f"{argv[0]} exit {code}, expected {codes}")
            ok, why = check(code, out) if check else (True, None)
            return Answer(value, ok, decided=code in decided_codes, error=why)

        ops.append(op)

    def expect(key, want):
        def check(code, out):
            got = _kv(out, key)
            return got == str(want), f"{key}={got}, expected {want}"

        return check

    def order_check(want):
        def check(code, out):
            got = _kv(out, "order")
            if want is None:  # any finite order; that it repeats is checked across batches
                return got is not None and got.isdigit(), f"order={got}"
            return got == str(want), f"order={got}, expected {want}"

        return check

    def same_hom_count(key):
        def check(code, out):
            first = hom_counts.setdefault(key, _kv(out, "count"))
            return _kv(out, "count") == first, "hom count changed by the scramble"

        return check

    def complement(name, order, group=None):
        fact, pres = path(name, "fact"), path(name, "pres")
        step(["validate", fact], (0,), expect("product_ok", "true"))
        step(["pi1", fact, "--simplify", 100], (0,), save=pres)
        order_codes = (2,) if order == "unknown" else (0,)
        step(["order", pres], order_codes, order_check(order), decided_codes=(0,))
        for n in HOM_DEGREES:
            step(["homs", pres, n], (0,), same_hom_count(f"{group}:{n}") if group else None)

    for name, d, profile, bound, order in POSITIVE:
        if size == "tiny" and name not in TINY_CURVES:
            continue
        step(["search", d, profile, "--bound", bound], (0,), save=path(name, "fact"))
        complement(name, order)
    if size == "full":
        for d, profile, bound in NEGATIVE:
            step(["search", d, profile, "--bound", bound], (1,), expect("result", "none"))
        for name, text in stored.items():
            with open(path(name, "fact"), "w", encoding="utf-8") as fh:
                fh.write(text)
            complement(name, 12, group="quartic_three_cusp")
    return (argvs, stored), ops


MAKERS = {
    "words": make_words,
    "curves": make_curves,
    "orbits": make_orbits,
    "conjugacy": make_conjugacy,
}
