"""Words, normal forms, and conjugacy in the braid group B_d.

Conventions used throughout the package:

* Generators are numbered 1..d-1; a signed letter k denotes X_|k|^sign(k).
* Permutations are the kernel's: a 0-based image tuple whose entry x is
  the position where strand x ends, the letters read left to right.
  permutation_of(w) is the image of w in S_d, nf_permutation the same
  permutation from a normal-form key; the permutation of a permutation
  braid's word is that braid's factor tuple.
* Normal forms are left greedy: w = D^inf . A_1 ... A_k where D is the half
  twist, each A_i is a permutation braid distinct from the identity and D,
  and every adjacent pair is left weighted.
* A braid's normal form is held as the kernel's pair (inf, factors), each
  factor the 0-based image tuple of a permutation braid (nf_key).  The
  search loops here and in factorization and equivalence hold braids as
  these pairs and form products and inverses only with nf_mul and nf_inv:
  an inverse is exact and needs no kernel call, and a product hands the
  keys themselves to the kernel's product, which moves the half-twist
  powers to the front and combs only the seams between keys: each key
  must be a left normal form, with no identity or half-twist factor.
  The pure kernel checks nothing (the compiled one checks everything), so
  input is checked once, where it enters: BraidWord checks the strand count
  and every letter of a word, and every key handed to product is built
  from kernel output (nf_key, nf_inv, _simple_steps, slices of those, bare
  half-twist powers).
  Words appear only at input and output.  nf_key (on a word's letters),
  nf_mul and nf_inv are each memoised on their own arguments.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import index

from ._kernel import normal_form as _kernel_normal_form
from ._kernel import product as _kernel_product
from .errors import FormatError, SearchBudgetExceeded, WorkBudget


# Largest strand or generator count of any input: the full twist on 1024 strands is 4 MB.
MAX_STRANDS = 1024


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of B_d; not stored freely reduced.

    The strand count and the letters are stored as ints: each goes through
    operator.index, so a float or a string is a TypeError and a bool counts
    as its int.  The pure kernel re-checks neither.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        strands = self.strands
        if type(strands) is not int:
            strands = index(strands)
            object.__setattr__(self, "strands", strands)
        if strands < 1:
            raise ValueError("strand count must be >= 1")
        letters = tuple(self.letters)
        for k in letters:
            if type(k) is not int or not 0 < abs(k) < strands:
                letters = _int_letters(letters, strands)
                break
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)


def _int_letters(letters: tuple, strands: int) -> tuple[int, ...]:
    """The letters as ints through operator.index (a TypeError for a
    non-integer, a bool counts as its int), each checked to lie in range
    for the strand count (a ValueError)."""
    letters = tuple(map(index, letters))
    for k in letters:
        if not 0 < abs(k) < strands:
            raise ValueError(f"letter {k} out of range for {strands} strands")
    return letters


@lru_cache(maxsize=1 << 16)
def _simple_letters(images: tuple[int, ...]) -> tuple[int, ...]:
    """Positive word for the permutation braid with these images.

    Bubble sort by adjacent position swaps; recording swap indices in the
    order performed yields a reduced word composing left to right to the
    permutation.
    """
    v = list(images)
    out = []
    moved = True
    while moved:
        moved = False
        for i in range(len(v) - 1):
            if v[i] > v[i + 1]:
                v[i], v[i + 1] = v[i + 1], v[i]
                out.append(i + 1)
                moved = True
    return tuple(out)


# ---------------------------------------------------------------------------
# word operations


def compose(u: BraidWord, v: BraidWord) -> BraidWord:
    if u.strands != v.strands:
        raise ValueError(f"strand mismatch: {u.strands} vs {v.strands}")
    return BraidWord(u.strands, u.letters + v.letters)


def invert(u: BraidWord) -> BraidWord:
    return BraidWord(u.strands, tuple(-k for k in reversed(u.letters)))


def conjugate(u: BraidWord, z: BraidWord) -> BraidWord:
    """z^-1 u z."""
    return compose(invert(z), compose(u, z))


def free_reduce(letters) -> tuple[int, ...]:
    """Cancel adjacent inverse letters (k, -k) of a sequence of int letters.

    Serves braid words (the braid is unchanged) and free-group words alike;
    callers check their letters first.
    """
    out: list[int] = []
    for k in letters:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def identity_word(d: int) -> BraidWord:
    return BraidWord(d, ())


def full_twist(d: int) -> BraidWord:
    """The central element (X_1 ... X_{d-1})^d, a word of length d(d-1)."""
    return BraidWord(d, tuple(range(1, d)) * d)


def half_twist(d: int) -> BraidWord:
    """The half twist D = (X_1)(X_2 X_1) ... (X_{d-1} ... X_1)."""
    letters = []
    for i in range(1, d):
        letters.extend(range(i, 0, -1))
    return BraidWord(d, tuple(letters))


@lru_cache(maxsize=1 << 17)
def _cached_nf(d: int, letters: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    return _kernel_normal_form(d, letters)


def nf_key(w: BraidWord) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The normal form of w as the kernel gives it: (inf, factors).

    Each factor is the 0-based image tuple of a permutation braid.  The pair
    is hashable and equal exactly when the braids are equal, so it is the
    package's one normal-form key; inf is pair[0], the canonical length
    len(pair[1]).
    """
    return _cached_nf(w.strands, w.letters)


@lru_cache(maxsize=1 << 17)
def nf_inv(d: int, key) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """nf_key of the inverse of the braid with normal-form key (inf, factors).

    (D^p A_1 ... A_k)^-1 = D^(-p-k) tau^(p+k)(dA_k) ... tau^(p+1)(dA_1) with
    dA = A^-1 D.  The right side is already a left normal form (El-Rifai and
    Morton 1994), so no kernel call is made.
    """
    inf, factors = key
    k = len(factors)
    out = []
    for n, images in enumerate(reversed(factors)):
        inv = sorted(range(d), key=images.__getitem__)  # images of A^-1
        # dA has images d-1-inv[y]; tau(dA) permutes as D A^-1: inv reversed
        out.append(tuple(inv[::-1]) if (inf + k - n) % 2 else tuple(d - 1 - x for x in inv))
    return -inf - k, tuple(out)


@lru_cache(maxsize=1 << 17)
def nf_mul(d: int, *keys) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """nf_key of the product of the braids with these keys, left to right.

    One call of the kernel's product, which moves the half-twist
    powers to the front; a repeated product is a memo hit and makes no call.
    nf_mul(d) is the identity (0, ()).
    """
    return _kernel_product(d, keys)


def nf_letters(d: int, key) -> tuple[int, ...]:
    """Letters of the word D^inf A_1 ... A_k of the normal-form key (inf, factors)."""
    inf, factors = key
    half = half_twist(d)
    power = half.letters * inf if inf >= 0 else invert(half).letters * -inf
    return power + tuple(k for images in factors for k in _simple_letters(images))


canonical_form = nf_key  # the public name of the normal-form key


def normalized(w: BraidWord) -> BraidWord:
    """The word of the canonical form; equal to w, length-stable under reuse."""
    return BraidWord(w.strands, nf_letters(w.strands, nf_key(w)))


def equals(u: BraidWord, v: BraidWord) -> bool:
    """Whether u and v are the same braid, checked in this order:

    1. different strand counts are a ValueError;
    2. identical letter tuples are equal;
    3. different exponent sums are unequal (the sum is the abelianization
       B_d -> Z, so equal braids have equal sums);
    4. otherwise the normal-form keys decide: nf_key(u) == nf_key(v).

    Only step 4 forms normal forms.
    """
    if u.strands != v.strands:
        raise ValueError(f"strand mismatch: {u.strands} vs {v.strands}")
    if u.letters == v.letters:
        return True
    if exponent_sum(u) != exponent_sum(v):
        return False
    return nf_key(u) == nf_key(v)


def exponent_sum(w: BraidWord) -> int:
    return sum(1 if k > 0 else -1 for k in w.letters)


def permutation_of(w: BraidWord) -> tuple[int, ...]:
    """Image under B_d -> S_d, X_i -> (i, i+1): entry x is where strand x ends."""
    strand_at = list(range(w.strands))
    for k in w.letters:
        i = abs(k) - 1
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    return tuple(sorted(range(w.strands), key=strand_at.__getitem__))


def nf_permutation(d: int, key) -> tuple[int, ...]:
    """permutation_of the braid with normal-form key (inf, factors): strand x
    goes through D^inf, then A_1, ..., A_k."""
    inf, factors = key
    images = range(d - 1, -1, -1) if inf % 2 else range(d)
    for f in factors:
        images = [f[x] for x in images]
    return tuple(images)


def cycles(images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Nontrivial cycles of a permutation, each starting at its least element, sorted."""
    seen = set()
    out = []
    for start in range(len(images)):
        if start in seen:
            continue
        cyc = [start]
        x = images[start]
        while x != start:
            cyc.append(x)
            x = images[x]
        seen.update(cyc)
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return tuple(out)


def cycle_type(images: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths, fixed points included, descending: a partition of len(images)."""
    lengths = [len(c) for c in cycles(images)]
    lengths += [1] * (len(images) - sum(lengths))
    return tuple(sorted(lengths, reverse=True))


def cycle_count(images: tuple[int, ...]) -> int:
    """Number of cycles, fixed points included: len(cycle_type(images)),
    counted without building or sorting the cycles."""
    seen = [False] * len(images)
    count = 0
    for start in range(len(images)):
        if not seen[start]:
            count += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = images[x]
    return count


def is_positive(w: BraidWord) -> bool:
    """Membership in the positive monoid, decided by canonical inf >= 0."""
    return nf_key(w)[0] >= 0


# ---------------------------------------------------------------------------
# word text format: whitespace-separated signed integers


def parse_word(text: str, strands: int) -> BraidWord:
    letters = []
    for tok in text.split():
        try:
            k = int(tok)
        except ValueError:
            raise FormatError(f"bad word token {tok!r}") from None
        letters.append(k)
    try:
        return BraidWord(strands, tuple(letters))
    except ValueError as e:
        raise FormatError(str(e)) from None


def format_word(w: BraidWord) -> str:
    return " ".join(str(k) for k in w.letters)


# ---------------------------------------------------------------------------
# the one breadth-first core, and the enumeration of short braids on it


def bfs(root, children):
    """Breadth-first closure of root: (state, labels) once per state, in the
    order first met, root first; labels are those of the moves on the path
    that first reached the state.  children(state, labels) yields (label,
    child) pairs in the order they are tried.  The caller bounds the search:
    by taking fewer states, by yielding no children past a depth, or by a
    budget ticked in children."""
    seen = {root}
    queue = deque([(root, ())])
    yield root, ()
    while queue:
        state, labels = queue.popleft()
        for label, child in children(state, labels):
            if child not in seen:
                seen.add(child)
                path = labels + (label,)
                queue.append((child, path))
                yield child, path


def _braids(d: int, max_len: int):
    """Lazily, (nf_key, letters) of each braid of enumerate_braids, in its order
    (a word is its parent's first word plus one letter); search and decide draw from it."""
    alphabet = [(x, nf_key(BraidWord(d, (x,)))) for x in range(1 - d, d) if x]

    def grow(key, word):
        if len(word) < max_len:
            for x, xkey in alphabet:
                yield x, nf_mul(d, key, xkey)

    return bfs((0, ()), grow)


def enumerate_braids(d: int, max_len: int) -> tuple[BraidWord, ...]:
    """All distinct braids with a word of length <= max_len, one word each.

    Words are enumerated by length, then lexicographically by letter tuple
    (letters ordered as integers); each braid is represented by the first
    word that reaches it, so the result is sorted by that order and starts
    with the empty word.  max_len goes through operator.index: a float is
    a TypeError, a bool counts as its int, and a negative one is a
    ValueError.
    """
    max_len = index(max_len)
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    return tuple(BraidWord(d, word) for _, word in _braids(d, max_len))


# ---------------------------------------------------------------------------
# conjugacy: cycling/decycling to a summit representative, then closure of
# the super summit set under conjugation by permutation braids


@dataclass(frozen=True)
class ConjugacyResult:
    outcome: str  # "conjugate" | "not_conjugate" | "unknown"
    witness: BraidWord | None = None
    reason: str | None = None
    work: int = 0


@lru_cache(maxsize=64)
def _simple_steps(d: int) -> tuple[tuple[tuple, tuple], ...]:
    """(nf_key, inverse nf_key) of every non-identity permutation braid p, in
    a fixed order; p's key is (0, (p,)), the half twist's (1, ())."""
    half = tuple(range(d - 1, -1, -1))
    steps = [(1, ()) if p == half else (0, (p,)) for p in itertools.permutations(range(d))]
    return tuple((step, nf_inv(d, step)) for step in steps[1:])  # the identity comes first


def _summit(d: int, key, budget: WorkBudget):
    """Cycle, then decycle, the braid u with nf_key key to a super summit
    element.

    Returns (nf_key of z^-1 u z, nf_key of z), the first an element of the
    super summit set of u.  Each phase follows its trajectory until a normal
    form repeats.  Neither cycling nor decycling lowers inf or raises sup,
    and by the cycling theorem (El-Rifai and Morton 1994; Birman, Gebhardt
    and Gonzalez-Meneses, "Conjugacy in Garside groups I", 2007) iterated
    cycling raises inf unless it is already maximal in the conjugacy class,
    and iterated decycling lowers sup unless it is already minimal.  A
    repeated normal form lies on a cycle, where neither changes, so each
    phase's repeat point is already extreme.
    """
    budget.tick()
    z = []  # the conjugators, as keys whose product is z
    for cycling in (True, False):
        seen = {key}
        while key[1]:
            inf, factors = key
            budget.tick()
            if cycling:  # conjugate by tau^inf(A_1) = D^inf A_1 D^-inf
                step = [(inf, factors[:1]), (-inf, ())]
                key = nf_mul(d, (inf, factors[1:]), *step)  # D^inf A_2 ... A_k tau^inf(A_1)
            else:  # conjugate by A_k^-1: A_k D^inf A_1 ... A_k-1
                last = (0, factors[-1:])
                step = [nf_inv(d, last)]
                key = nf_mul(d, last, (inf, factors[:-1]))
            z += step
            if key in seen:
                break
            seen.add(key)
    return key, nf_mul(d, *z)


def _super_summit_set(d: int, key, budget: WorkBudget, target=None):
    """Yield the super summit set of the summit element with nf_key key.

    Each member comes as (nf_key, path of _simple_steps(d) indices whose
    steps conjugate key to it), breadth first, as it is first met.  The set
    is closed under conjugation by permutation braids, one budget tick per
    conjugation formed, keeping the conjugates with key's inf and canonical
    length; it is connected under these conjugations (El-Rifai and Morton
    1994), so a generator that runs out has yielded all of it.

    A target is a summit element to look for (conjugacy_test passes v's).
    Before a state w is expanded, it is conjugated by the permutation-
    compatible steps only, in order, and the target comes as soon as one of
    them gives it.  A step p is compatible when its permutation carries w's
    to the target's: p[w[x]] == t[p[x]] for every x, with p the step's
    factor tuple (the reversal for the half twist).  B_d -> S_d is a
    homomorphism, so no other step can give the target.  The expansion then
    reuses those products, so each conjugation is still formed and ticked
    once, and the target comes with the path the closure without a target
    gives it, after no more ticks.
    """
    steps = _simple_steps(d)
    shape = (key[0], len(key[1]))
    if target is not None:
        half = tuple(range(d - 1, -1, -1))
        perms = [step[1][0] if step[1] else half for step, _ in steps]
        t = nf_permutation(d, target)

    def conjugates(wkey, _):
        formed = {}
        if target is not None:
            w = nf_permutation(d, wkey)
            for i, p in enumerate(perms):
                # x = 0 alone rejects most steps
                if p[w[0]] != t[p[0]] or any(p[w[x]] != t[p[x]] for x in range(1, d)):
                    continue
                budget.tick()
                step, step_inv = steps[i]
                k = formed[i] = nf_mul(d, step_inv, wkey, step)
                if k == target:
                    yield i, k
        for i, (step, step_inv) in enumerate(steps):
            k = formed.get(i)
            if k is None:
                budget.tick()
                k = nf_mul(d, step_inv, wkey, step)
            if (k[0], len(k[1])) == shape:
                yield i, k

    return bfs(key, conjugates)


def conjugacy_test(u: BraidWord, v: BraidWord, budget: int) -> ConjugacyResult:
    """Decide conjugacy in B_d within a work budget.

    u and v go to summit elements; if their inf and canonical length differ
    they are not conjugate, and otherwise u's super summit set is closed
    until v's summit element appears in it.  Before each state is expanded,
    the closure first tries v's summit element among the simple braids
    whose permutation carries the state's permutation to v's; work counts
    each conjugation once, so it is never more than a closure without that
    first try would use, and the witness is the same.  "conjugate" always
    carries a witness z verified to satisfy nf_key(conjugate(u, z)) == nf_key(v);
    "not_conjugate" names a separating invariant or reports a completed
    super summit set of u without v's summit element; "unknown" means the
    budget ran out first.  The budget goes through operator.index, as
    summit_key's does.
    """
    if u.strands != v.strands:
        raise ValueError(f"strand mismatch: {u.strands} vs {v.strands}")
    budget = index(budget)
    if budget <= 0:
        raise ValueError("budget must be positive")
    if exponent_sum(u) != exponent_sum(v):
        return ConjugacyResult("not_conjugate", reason="exponent_sum")
    if cycle_type(permutation_of(u)) != cycle_type(permutation_of(v)):
        return ConjugacyResult("not_conjugate", reason="permutation_cycle_type")
    ku, kv = nf_key(u), nf_key(v)
    if ku == kv:
        return ConjugacyResult("conjugate", witness=identity_word(u.strands))
    d = u.strands
    wb = WorkBudget(budget)
    try:
        ukey, zu = _summit(d, ku, wb)
        vkey, zv = _summit(d, kv, wb)
        if (ukey[0], len(ukey[1])) != (vkey[0], len(vkey[1])):
            return ConjugacyResult(
                "not_conjugate", reason="summit_inf_and_length", work=wb.used
            )
        members = _super_summit_set(d, ukey, wb, target=vkey)
        path = next((p for key, p in members if key == vkey), None)
    except SearchBudgetExceeded:
        return ConjugacyResult("unknown", reason="budget_exhausted", work=wb.used)
    if path is None:
        return ConjugacyResult(
            "not_conjugate", reason="disjoint_super_summit_sets", work=wb.used
        )
    z = nf_mul(d, *(_simple_steps(d)[i][0] for i in path))
    witness = BraidWord(d, nf_letters(d, nf_mul(d, zu, z, nf_inv(d, zv))))
    if nf_key(conjugate(u, witness)) != kv:
        raise AssertionError("conjugacy witness failed verification")
    return ConjugacyResult("conjugate", witness=witness, work=wb.used)


def summit_key(d: int, key, budget: int):
    """A conjugacy-invariant key of the braid in B_d with nf_key key: the least
    nf_key in its super summit set, or None if the budget is exhausted before
    the set is closed.  The budget goes through operator.index: a float is a
    TypeError, a bool counts as its int, and one below 1 a ValueError."""
    budget = index(budget)
    if budget <= 0:
        raise ValueError("budget must be positive")
    wb = WorkBudget(budget)
    try:
        key, _ = _summit(d, key, wb)
        return min(member for member, _ in _super_summit_set(d, key, wb))
    except SearchBudgetExceeded:
        return None
