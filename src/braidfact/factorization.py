"""Factorizations of the full twist into conjugates of generator powers.

A cuspidal factor (rho, s) stands for the word rho^-1 X_1^s rho with
s in {1, 2, 3} (branch point, node, cusp).  A factorization is an ordered
tuple of such factors, or of plain braid words in the generic variant,
together with a target braid that the factor product must equal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import index

from .braid import (
    MAX_STRANDS,
    BraidWord,
    _braids,
    compose,
    conjugate,
    cycle_count,
    exponent_sum,
    format_word,
    free_reduce,
    full_twist,
    invert,
    nf_inv,
    nf_key,
    nf_mul,
    nf_permutation,
    parse_word,
)
from .errors import FormatError, WorkBudget

VALID_S = (1, 2, 3)


@dataclass(frozen=True)
class CuspidalFactor:
    """rho^-1 X_1^s rho; s is stored as an int through operator.index (a
    float is a TypeError, a bool counts as its int) and must be in VALID_S."""

    rho: BraidWord
    s: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", index(self.s))
        if self.s not in VALID_S:
            raise ValueError(f"s must be one of {VALID_S}, got {self.s}")


@dataclass(frozen=True)
class Factorization:
    """Factors of one kind whose product should equal target (by default
    the full twist); strands is stored as an int through operator.index,
    as in BraidWord."""

    strands: int
    factors: tuple
    target: BraidWord | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "strands", index(self.strands))
        object.__setattr__(self, "factors", tuple(self.factors))
        if self.target is None:
            object.__setattr__(self, "target", full_twist(self.strands))
        if self.target.strands != self.strands:
            raise ValueError("target strand count mismatch")
        kinds = {type(f) for f in self.factors}
        if not kinds <= {CuspidalFactor, BraidWord}:
            raise ValueError("factors must be CuspidalFactor or BraidWord")
        if len(kinds) > 1:
            raise ValueError("cannot mix cuspidal and generic factors")
        if CuspidalFactor in kinds and self.strands < 2:
            raise ValueError("cuspidal factors need at least 2 strands")
        for f in self.factors:
            w = f.rho if isinstance(f, CuspidalFactor) else f
            if w.strands != self.strands:
                raise ValueError("factor strand count mismatch")

    @property
    def is_cuspidal(self) -> bool:
        return all(isinstance(f, CuspidalFactor) for f in self.factors)

    @property
    def r(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class SingularityCounts:
    n1: int
    n2: int
    n3: int


@dataclass(frozen=True)
class ValidationReport:
    """key is canonical_key(F), the factor keys the product check used."""

    product_ok: bool
    counts: SingularityCounts | None
    exponent_ok: bool | None
    key: tuple

    @property
    def ok(self) -> bool:
        return self.product_ok and self.exponent_ok is not False


def factor_word(f: CuspidalFactor) -> BraidWord:
    """The braid rho^-1 X_1^s rho."""
    d = f.rho.strands
    return compose(invert(f.rho), compose(BraidWord(d, (1,) * f.s), f.rho))


def factor_words(F: Factorization) -> tuple[BraidWord, ...]:
    return tuple(
        factor_word(f) if isinstance(f, CuspidalFactor) else f for f in F.factors
    )


def product_word(F: Factorization) -> BraidWord:
    return BraidWord(F.strands, tuple(k for w in factor_words(F) for k in w.letters))


def _cusp_key(d: int, s: int, rho_key) -> tuple:
    """nf_key of rho^-1 X_1^s rho, from the nf_key of rho."""
    return nf_mul(d, nf_inv(d, rho_key), nf_key(BraidWord(d, (1,) * s)), rho_key)


def canonical_key(F: Factorization) -> tuple:
    """Hashable key equal exactly when factor tuples match braid by braid:
    the nf_key of every factor braid, in order."""
    d = F.strands
    return tuple(
        _cusp_key(d, f.s, nf_key(f.rho)) if isinstance(f, CuspidalFactor) else nf_key(f)
        for f in F.factors
    )


def singularity_counts(F: Factorization) -> SingularityCounts | None:
    if not F.is_cuspidal:
        return None
    svals = [f.s for f in F.factors]
    return SingularityCounts(svals.count(1), svals.count(2), svals.count(3))


def validate(F: Factorization) -> ValidationReport:
    """Check the factor product against the target; never raises on failure."""
    key = canonical_key(F)
    product_ok = nf_mul(F.strands, *key) == nf_key(F.target)
    counts = singularity_counts(F)
    exponent_ok = None
    if F.is_cuspidal:
        exponent_ok = sum(f.s for f in F.factors) == exponent_sum(F.target)
    return ValidationReport(product_ok, counts, exponent_ok, key)


def hurwitz_move(F: Factorization, i: int, direction: str) -> Factorization:
    """Hurwitz move at 1-based position i (acting on factors i and i+1).

    right: (g_i, g_{i+1}) -> (g_i g_{i+1} g_i^-1, g_i)
    left:  (g_i, g_{i+1}) -> (g_{i+1}, g_{i+1}^-1 g_i g_{i+1})

    Cuspidal factors keep their s value; the transported conjugator becomes
    rho g^-1 (right move) or rho g (left move) for the adjacent factor word g.
    """
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be left or right, got {direction!r}")
    if F.r < 2:
        raise IndexError(f"no adjacent pair of factors to move (r = {F.r})")
    if not 1 <= i < F.r:
        raise IndexError(f"move index {i} out of range 1..{F.r - 1}")
    a = F.factors[i - 1]
    b = F.factors[i]
    # only the word of the factor the other one is moved past
    f, h = (b, a) if direction == "right" else (a, b)
    g = factor_word(h) if isinstance(h, CuspidalFactor) else h
    if direction == "right":
        g = invert(g)
    if isinstance(f, CuspidalFactor):
        moved = CuspidalFactor(BraidWord(F.strands, free_reduce(compose(f.rho, g).letters)), f.s)
    else:
        moved = BraidWord(F.strands, free_reduce(conjugate(f, g).letters))
    pair = (moved, a) if direction == "right" else (b, moved)
    factors = F.factors[: i - 1] + pair + F.factors[i + 1 :]
    return Factorization(F.strands, factors, F.target)


def conjugate_all(F: Factorization, z: BraidWord) -> Factorization:
    """Simultaneous conjugation: every factor becomes z^-1 (factor) z."""
    if z.strands != F.strands:
        raise ValueError("conjugator strand count mismatch")
    if F.is_cuspidal:
        factors = tuple(CuspidalFactor(compose(f.rho, z), f.s) for f in F.factors)
    else:
        factors = tuple(conjugate(f, z) for f in F.factors)
    return Factorization(F.strands, factors, F.target)


# ---------------------------------------------------------------------------
# exhaustive search for cuspidal factorizations of the full twist


def profile_exponent_ok(d: int, profile) -> bool:
    """The exponent obstruction: the s-values must sum to d(d-1)."""
    return sum(profile) == d * (d - 1)


def _orderings(profile: tuple[int, ...]):
    """The distinct orderings of a sorted profile, lexicographically ascending,
    each the next permutation of the last, so that no recursion grows with it."""
    seq = list(profile)
    while True:
        yield tuple(seq)
        i = max((i for i in range(len(seq) - 1) if seq[i] < seq[i + 1]), default=-1)
        if i < 0:
            return
        j = max(j for j in range(i + 1, len(seq)) if seq[j] > seq[i])
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = reversed(seq[i + 1 :])


def _least_in_class(seq: tuple[int, ...]) -> bool:
    """Whether no rotation of seq, or of seq reversed, is lexicographically
    smaller than seq."""
    return all(seq <= t[i:] + t[:i] for t in (seq, seq[::-1]) for i in range(len(seq)))


def _pair_table(d: int, first: dict, second: dict, budget: WorkBudget) -> dict:
    """Each product k·k' of a key of first and a key of second, to the least
    (rho, rho') pair of their conjugators; first-major in index order, one
    budget tick per product."""
    table: dict = {}
    for key, rho in first.items():
        for key2, rho2 in second.items():
            budget.tick()
            table.setdefault(nf_mul(d, key, key2), (rho, rho2))
    return table


def search_factorization(
    d: int,
    profile,
    max_conjugator_length: int,
    *,
    max_nodes: int = 2_000_000,
) -> Factorization | None:
    """Find a validated cuspidal factorization of the full twist, or None.

    The search is exhaustive over conjugators of word length up to
    max_conjugator_length, one canonical representative per distinct braid
    (shortest word, then smallest letter sequence).  The witness returned
    is the least one under the documented order: s-sequences ascending
    lexicographically, then conjugator candidate indices slot by slot.
    A node holds only the braid that the later slots must multiply to, and
    each slot tries each distinct factor braid once, by least candidate index.
    The last slot is an exact lookup.  The last two slots, with s-values
    (s, s'), loop over the s-keys until that pair has looped |S_s'| times
    (S_s: the distinct factor braids for s); then a table of all |S_s|·|S_s'|
    products, each to its least index pair, makes every later visit one
    lookup, and returns the pair the loop would.  Each table product is a
    node, so max_nodes bounds the table too.

    An s-sequence is searched only when no rotation of it, or of it
    reversed, is lexicographically smaller; each one skipped counts one
    node.  The full twist is central, so
    a witness rotates to a witness with the same factors; sigma_i ->
    sigma_i^-1 sends it to D^-2, so reversing the factors and negating each
    conjugator's letters gives a witness for the reversed s-sequence with
    conjugators of the same lengths.  So an s-sequence has a witness exactly
    when the least of its class does, which came earlier and was searched:
    the first witness lies in a least s-sequence, and the result is the
    same as with every s-sequence searched.  Raises SearchBudgetExceeded
    when max_nodes runs out, which is distinct from returning None (nothing
    within bounds).
    """
    if d < 1:
        raise ValueError("strand count must be >= 1")
    if max_conjugator_length < 0 or max_nodes <= 0:
        raise ValueError("bounds must be nonnegative/positive")
    profile = tuple(sorted(profile))
    for s in profile:
        if s not in VALID_S:
            raise ValueError(f"profile values must be in {VALID_S}")
    if not profile_exponent_ok(d, profile):
        return None
    target = full_twist(d)
    if not profile:
        return Factorization(d, (), target)

    # The DFS holds each braid as its nf_key.  Per s value: the first
    # candidate z, as letters, of each distinct factor key z^-1 X_1^s z, one
    # budget tick per candidate and s value; the (letters, inverse key)
    # steps in that order, and the (min inf, max sup) of the keys.
    budget = WorkBudget(max_nodes)
    index_by_s: dict[int, dict] = {s: {} for s in set(profile)}
    for zkey, letters in _braids(d, max_conjugator_length):
        for s, index in index_by_s.items():
            budget.tick()
            index.setdefault(_cusp_key(d, s, zkey), letters)
    steps_by_s: dict[int, list] = {}
    stats_by_s: dict[int, tuple[int, int]] = {}
    for s, index in index_by_s.items():
        steps_by_s[s] = [(rho, nf_inv(d, key)) for key, rho in index.items()]
        stats_by_s[s] = (min(k[0] for k in index), max(k[0] + len(k[1]) for k in index))

    # Per suffix of s-values: (min inf, max sup) of its factor products, and
    # its number of odd s-values.
    suffix_stats: dict[tuple[int, ...], tuple[int, int, int]] = {}

    def feasible(rest, tail: tuple[int, ...]) -> bool:
        stats = suffix_stats.get(tail)
        if stats is None:
            stats = suffix_stats[tail] = (
                sum(stats_by_s[s][0] for s in tail),
                sum(stats_by_s[s][1] for s in tail),
                sum(s % 2 for s in tail),
            )
        lo, hi, odd = stats
        inf, factors = rest
        if inf < lo or inf + len(factors) > hi:
            return False
        # a factor permutes by one transposition if s is odd, else trivially,
        # and rest's permutation needs d - (its cycle count) transpositions.
        # Parities agree by themselves: rest's exponent sum is the tail's s sum.
        return odd >= d - cycle_count(nf_permutation(d, rest))

    # A remainder that fails for a suffix of s-values fails for it in every
    # ordering, so dead states are keyed on (suffix, rest) and shared.  A
    # loop over the last two slots costs |S_s| products and their table
    # |S_s|·|S_s'|, so a pair's table is built once its loops cost as much.
    dead: set = set()
    loops: Counter = Counter()
    tables: dict[tuple[int, ...], dict] = {}

    def rec(tail: tuple[int, ...], rest) -> tuple | None:
        # conjugator letters for slots of s-values tail whose factors multiply to rest
        budget.tick()
        if len(tail) == 1:  # the last slot is an exact lookup
            rho = index_by_s[tail[0]].get(rest)
            return None if rho is None else (rho,)
        if tail in tables:
            return tables[tail].get(rest)
        state = (tail, rest)
        if state not in dead and feasible(rest, tail):
            if len(tail) == 2:
                s, t = tail
                loops[tail] += 1
                if loops[tail] > len(index_by_s[t]):
                    tables[tail] = _pair_table(d, index_by_s[s], index_by_s[t], budget)
                    return tables[tail].get(rest)
            for rho, key_inv in steps_by_s[tail[0]]:
                found = rec(tail[1:], nf_mul(d, key_inv, rest))
                if found is not None:
                    return (rho,) + found
        dead.add(state)
        return None

    for seq in _orderings(profile):
        if not _least_in_class(seq):
            budget.tick()  # so that max_nodes bounds the orderings examined
            continue
        # the full twist is D^2, as d >= 2 (d = 1 has only the empty profile)
        choice = rec(seq, (2, ()))
        if choice is not None:
            factors = tuple(CuspidalFactor(BraidWord(d, rho), s) for rho, s in zip(choice, seq))
            F = Factorization(d, factors, target)
            if not validate(F).product_ok:
                raise AssertionError("search produced an invalid factorization")
            return F
    return None


# ---------------------------------------------------------------------------
# file format
#
#   strands 3
#   target full_twist          (or: target word=1 2 1 2 1 2)
#   factor s=1 rho=            (cuspidal: rho letters after "rho=")
#   factor s=3 rho=1 -2
#
# Generic factor lines use "factor word=<letters>".  Blank lines and lines
# starting with "#" are ignored.


def format_factorization(F: Factorization) -> str:
    lines = [f"strands {F.strands}"]
    if F.target.letters == full_twist(F.strands).letters:
        lines.append("target full_twist")
    else:
        lines.append(f"target word={format_word(F.target)}")
    for f in F.factors:
        if isinstance(f, CuspidalFactor):
            lines.append(f"factor s={f.s} rho={format_word(f.rho)}")
        else:
            lines.append(f"factor word={format_word(f)}")
    return "\n".join(lines) + "\n"


def parse_factorization(text: str) -> Factorization:
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines or not lines[0].startswith("strands "):
        raise FormatError("first line must be 'strands <d>'")
    try:
        d = int(lines[0].split(maxsplit=1)[1])
    except (IndexError, ValueError):
        raise FormatError("bad strand count") from None
    if not 1 <= d <= MAX_STRANDS:
        raise FormatError(f"strand count must be in 1..{MAX_STRANDS}, got {d}")
    if len(lines) < 2 or not lines[1].startswith("target "):
        raise FormatError("second line must be 'target ...'")
    tgt = lines[1][len("target ") :].strip()
    try:
        if tgt == "full_twist":
            target = full_twist(d)
        elif tgt.startswith("word="):
            target = parse_word(tgt[len("word=") :], d)
        else:
            raise FormatError(f"bad target {tgt!r}")
        factors: list = []
        for ln in lines[2:]:
            if not ln.startswith("factor "):
                raise FormatError(f"unexpected line {ln!r}")
            body = ln[len("factor ") :].strip()
            if body.startswith("word="):
                factors.append(parse_word(body[len("word=") :], d))
            elif body.startswith("s="):
                head, _, rho_part = body.partition(" rho=")
                if not _:
                    raise FormatError(f"factor line missing rho=: {ln!r}")
                try:
                    s = int(head[len("s=") :])
                except ValueError:
                    raise FormatError(f"bad s value in {ln!r}") from None
                factors.append(CuspidalFactor(parse_word(rho_part, d), s))
            else:
                raise FormatError(f"bad factor line {ln!r}")
        return Factorization(d, tuple(factors), target)
    except FormatError:
        raise
    except ValueError as e:
        raise FormatError(str(e)) from None
