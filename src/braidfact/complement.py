"""Fundamental groups of plane-curve complements, at desk scale.

From a validated cuspidal factorization of the full twist this module
builds the standard finite presentation of the complement group (one
local relator per factor, the image of a model word under the Artin action
of its conjugator, then the projective relator x_1 ... x_d), simplifies
presentations by Tietze moves, enumerates homomorphisms to small symmetric
groups, and bounds group orders by coset enumeration.

Inside the module a word is a freely reduced tuple of nonzero int letters.
`FreeWord` and `FinitePresentation` are the public types and sit at the
boundary: they are the only places that check words arriving from outside.
The Artin action and Tietze elimination share one free-word substitution,
`_substitute`, and one cyclic reduction, `_cyclically_reduced`.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import index

from .braid import MAX_STRANDS, BraidWord, bfs, cycle_type, cycles, equals, free_reduce, full_twist
from .errors import FormatError, ValidationError, WorkBudget
from .factorization import Factorization, validate


@dataclass(frozen=True)
class FreeWord:
    """Freely reduced word over x_1..x_n; letter k means x_|k|^sign(k)."""

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        letters = tuple(map(index, self.letters))
        if 0 in letters:
            raise ValueError("letters must be nonzero")
        object.__setattr__(self, "letters", free_reduce(letters))

    def __mul__(self, other: FreeWord) -> FreeWord:
        return FreeWord(self.letters + other.letters)

    def inverse(self) -> FreeWord:
        return FreeWord(tuple(-k for k in reversed(self.letters)))

    def cyclically_reduced(self) -> FreeWord:
        return FreeWord(_cyclically_reduced(self.letters))

    def max_index(self) -> int:
        return max((abs(k) for k in self.letters), default=0)

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class FinitePresentation:
    """Generator count plus freely reduced relators.

    Relators that reduce to the empty word impose nothing and are dropped,
    which keeps the text format unambiguous (one nonempty line per relator).
    ngens is stored as an int through operator.index, as in BraidWord.
    """

    ngens: int
    relators: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ngens", index(self.ngens))
        if self.ngens < 0:
            raise ValueError("generator count must be >= 0")
        object.__setattr__(self, "relators", tuple(r for r in self.relators if r.letters))
        for r in self.relators:
            if r.max_index() > self.ngens:
                raise ValueError("relator uses a generator out of range")


def _cyclically_reduced(letters: tuple[int, ...]) -> tuple[int, ...]:
    """A freely reduced word less its cancelling ends: x w x^-1 becomes w, repeatedly."""
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return letters[i : j + 1]


def _substitute(letters: tuple[int, ...], table: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """Freely reduced image of a word under x_g -> table[g]; generators not in the table are fixed."""
    images = {-g: tuple(-k for k in reversed(img)) for g, img in table.items()}
    images.update(table)
    out: list[int] = []
    for l in letters:
        for k in images.get(l, (l,)):
            if out and out[-1] == -k:
                out.pop()
            else:
                out.append(k)
    return tuple(out)


def artin_action(w: BraidWord, u: FreeWord) -> FreeWord:
    """Action of a braid word on the free group F_d, first letter first.

    X_i maps x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i; X_i^-1 maps
    x_i to x_{i+1} and x_{i+1} to x_{i+1}^-1 x_i x_{i+1}; others fixed.
    """
    if u.max_index() > w.strands:
        raise ValueError("free-word index exceeds strand count")
    letters = u.letters
    for k in w.letters:
        i = abs(k)
        if k > 0:
            table = {i: (i, i + 1, -i), i + 1: (i,)}
        else:
            table = {i: (i + 1,), i + 1: (-(i + 1), i, i + 1)}
        letters = _substitute(letters, table)
    return FreeWord(letters)


_MODEL_WORDS = {
    1: FreeWord((1, -2)),
    2: FreeWord((1, 2, -1, -2)),
    3: FreeWord((1, 2, 1, -2, -1, -2)),
}


def zvk_presentation(F: Factorization) -> FinitePresentation:
    """Present the complement group of a validated full-twist factorization.

    The relator of a factor (rho, s) is the image under the action of rho
    of a model word: x_1 x_2^-1 for s=1, the commutator x_1 x_2 x_1^-1
    x_2^-1 for s=2, and x_1 x_2 x_1 x_2^-1 x_1^-1 x_2^-1 for s=3.  Relators
    are emitted in factor order, then the projective relator x_1 x_2 ... x_d,
    the boundary loop: the word that every X_i^+-1 fixes under the action.
    Raises ValidationError for a generic factorization, a target other than
    the full twist, or factors whose product misses the target.
    """
    if not F.is_cuspidal:
        raise ValidationError("presentation requires the cuspidal variant")
    d = F.strands
    if not equals(F.target, full_twist(d)):
        raise ValidationError("presentation requires the full-twist target")
    if not validate(F).product_ok:
        raise ValidationError("factorization does not validate")
    relators = [artin_action(f.rho, _MODEL_WORDS[f.s]) for f in F.factors]
    relators.append(FreeWord(tuple(range(1, d + 1))))
    return FinitePresentation(d, tuple(relators))


# ---------------------------------------------------------------------------
# Tietze simplification


def simplify(P: FinitePresentation, budget: int = 1000) -> FinitePresentation:
    """Tietze simplification: eliminate generators occurring once in some
    relator, cyclically reduce, and drop trivial or duplicate relators.

    Presents an isomorphic group, never increases the generator count, and
    is deterministic: among candidates the shortest defining relator wins,
    ties broken by generator index then relator index.  The budget caps
    elimination steps; it goes through operator.index, so a float is a
    TypeError.
    """
    budget = index(budget)
    if budget <= 0:
        raise ValueError("budget must be positive")
    ngens = P.ngens
    relators = [_cyclically_reduced(r.letters) for r in P.relators]
    for _ in range(budget):
        # drop trivial relators, then duplicates, keeping first occurrences
        relators = list(dict.fromkeys(r for r in relators if r))
        best = None
        for ri, r in enumerate(relators):
            counts: dict[int, int] = {}
            for l in r:
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
        pos = next(i for i, l in enumerate(r) if abs(l) == gen)
        rotated = r[pos:] + r[:pos]
        rest = rotated[1:]
        # rotated = (+-gen) . rest == 1, so gen = rest^-1 or gen = rest
        repl = tuple(-k for k in reversed(rest)) if rotated[0] > 0 else rest
        # gen goes to repl, and each higher generator moves down by one, repl's too
        table = {h: (h - 1,) for h in range(gen + 1, ngens + 1)}
        table[gen] = _substitute(repl, table)
        relators = [_cyclically_reduced(_substitute(x, table)) for x in relators]
        ngens -= 1
    return FinitePresentation(ngens, tuple(map(FreeWord, relators)))


# ---------------------------------------------------------------------------
# homomorphisms to symmetric groups


@dataclass(frozen=True)
class SymmetricImage:
    """Images of the presentation generators in S_n, as 0-based image tuples."""

    n: int
    images: tuple[tuple[int, ...], ...]
    epi: bool


def _generates_full(images: tuple[tuple[int, ...], ...], n: int) -> bool:
    """Whether 0-based image tuples generate all of S_n."""
    closure = bfs(tuple(range(n)), lambda q, _: ((p, tuple(p[x] for x in q)) for p in images))
    return sum(1 for _ in closure) == math.factorial(n)


HOMS_MAX_N, HOMS_MAX_GENS = 7, 8  # caps of enumerate_homs: n of S_n, and generators
HOMS_MAX_WORK = 200_000  # enumerate_homs' work: candidate images tried plus conjugates formed


@lru_cache(maxsize=HOMS_MAX_N)
def _class_minima(n: int) -> tuple[tuple[int, ...], ...]:
    """The least 0-based permutation of each cycle type in S_n, in lexicographic order."""
    least: dict[tuple[int, ...], tuple[int, ...]] = {}
    for p in itertools.permutations(range(n)):
        least.setdefault(cycle_type(p), p)
    return tuple(least.values())


@lru_cache(maxsize=HOMS_MAX_N)
def _inverses(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each 0-based permutation of S_n, in lexicographic order, mapped to its inverse."""
    perms = itertools.permutations(range(n))
    return {p: tuple(sorted(range(n), key=p.__getitem__)) for p in perms}


@lru_cache(maxsize=HOMS_MAX_N)
def _centralizers(n: int) -> dict[tuple[int, ...], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """Each of _class_minima(n) mapped to its centralizer in S_n, as
    (c, inverse of c) pairs in lexicographic order."""
    return {
        m: tuple((c, ci) for c, ci in _inverses(n).items() if all(c[m[x]] == m[c[x]] for x in range(n)))
        for m in _class_minima(n)
    }


def enumerate_homs(
    P: FinitePresentation,
    n: int,
    up_to_conjugacy: bool = True,
    epi_only: bool = False,
) -> list[SymmetricImage]:
    """All homomorphisms to S_n by backtracking, complete within the caps.

    Every simultaneous conjugacy class of homomorphisms has a member whose
    first generator maps to the least permutation of its cycle type, so
    generator 1 ranges over those class minima only (one per cycle type)
    and the others over all of S_n in lexicographic order; each relator is
    checked as soon as all its generators are assigned.  Whether a new
    complete assignment generates S_n is decided once per class.  With
    up_to_conjugacy the least member of each class is returned, otherwise
    every member; with epi_only only images generating S_n.  The result is
    sorted by images.

    A new assignment with first image c is closed under conjugation before
    the search goes on, so that no later member of its class is taken for a
    new one.  Generator 1 takes class minima only, so the members the search
    can still meet are those whose first image is c: the conjugates by the
    centralizer of c, which also hold the least member of the class.  With
    up_to_conjugacy only those are formed; otherwise all n! conjugates are,
    since every member is returned.

    The caps bound the input, and HOMS_MAX_WORK the time: one unit of work
    per candidate image tried and one per conjugate formed while closing
    a class; past it SearchBudgetExceeded is raised.  n goes through
    operator.index: a float is a TypeError, and a bool counts as its int.
    """
    n = index(n)
    if n < 1 or n > HOMS_MAX_N:
        raise ValueError(f"n must be in 1..{HOMS_MAX_N}")
    if P.ngens > HOMS_MAX_GENS:
        raise ValueError(f"generator count exceeds cap {HOMS_MAX_GENS}")
    inverse = _inverses(n)
    by_last_gen: dict[int, list[tuple[int, ...]]] = {}
    for r in P.relators:
        by_last_gen.setdefault(r.max_index(), []).append(r.letters)

    budget = WorkBudget(HOMS_MAX_WORK)
    images: list[tuple[int, ...]] = []
    seen: set = set()
    found: list[tuple[tuple[tuple[int, ...], ...], bool]] = []

    def holds(word: tuple[int, ...]) -> bool:
        # trace each point through the letters; stop at the first that moves
        maps = [images[l - 1] if l > 0 else inverse[images[-l - 1]] for l in word]
        for x in range(n):
            y = x
            for p in maps:
                y = p[y]
            if y != x:
                return False
        return True

    def assign(g: int) -> None:
        if g > P.ngens:
            tup = tuple(images)
            if tup in seen:
                return
            # a conjugate of a homomorphism is a homomorphism
            conjugators = _centralizers(n)[tup[0]] if up_to_conjugacy and tup else inverse.items()
            orbit = set()
            for c, c_inv in conjugators:
                budget.tick()
                orbit.add(tuple(tuple(c[p[c_inv[x]]] for x in range(n)) for p in tup))
            seen.update(orbit)
            epi = _generates_full(tup, n)
            if epi or not epi_only:
                found.extend((h, epi) for h in ([min(orbit)] if up_to_conjugacy else orbit))
            return
        words = by_last_gen.get(g, ())
        for p in _class_minima(n) if g == 1 else inverse:
            budget.tick()
            images.append(p)
            if all(map(holds, words)):
                assign(g + 1)
            images.pop()

    assign(1)
    found.sort()
    return [SymmetricImage(n, tup, epi) for tup, epi in found]


# ---------------------------------------------------------------------------
# coset enumeration (HLT with a row and cell budget and one lookahead sweep)


def _abelian_rank(P: FinitePresentation) -> int:
    """Rank over Q of the relators' exponent-sum matrix.

    Below `P.ngens` exactly when the abelianization, and so the group, is
    infinite.  Integer-only elimination: each relator's row is reduced
    against the pivot rows kept so far (keyed by leading generator) and
    kept as a new pivot if anything is left.
    """
    pivots: dict[int, dict[int, int]] = {}
    for r in P.relators:
        row: dict[int, int] = {}
        for l in r.letters:
            row[abs(l)] = row.get(abs(l), 0) + (1 if l > 0 else -1)
        while row := {g: e for g, e in row.items() if e}:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            # cancel the leading entry, then divide out the content to keep entries small
            a, b = pivot[lead], row[lead]
            row = {g: a * row.get(g, 0) - b * pivot.get(g, 0) for g in row.keys() | pivot.keys()}
            content = math.gcd(*row.values()) or 1
            row = {g: e // content for g, e in row.items()}
    return len(pivots)


def group_order(P: FinitePresentation, budget: int = 10000) -> int | None:
    """Exact group order by coset enumeration, or None within the budget.

    A group whose abelianization is infinite (`_abelian_rank` below the
    generator count) is infinite, and no coset table of it can close, so
    it gives None at once, whatever the budget.  Otherwise cosets of the
    trivial subgroup are enumerated HLT-style: relators are scanned at
    every live coset and gaps are filled by defining new cosets, up to
    `budget` rows ever defined, or fewer when the rows are wide: the table
    has 2 * ngens cells a row and stops at 4 * `budget` cells, so one or
    two generators keep `budget` rows.  On budget exhaustion one lookahead
    sweep makes deductions without definitions.  A returned integer is
    exact: the final table is complete and verified against every relator.
    The budget goes through operator.index, so a float is a TypeError.
    """
    budget = index(budget)
    if budget <= 0:
        raise ValueError("budget must be positive")
    if P.ngens == 0:
        return 1
    if _abelian_rank(P) < P.ngens:
        return None
    ncols = 2 * P.ngens
    rows = min(budget, max(1, 4 * budget // ncols))
    relators = [r.letters for r in P.relators]

    def col(l: int) -> int:
        return 2 * (abs(l) - 1) + (0 if l > 0 else 1)

    def inv_col(c: int) -> int:
        return c ^ 1

    table: list[list[int | None]] = [[None] * ncols]
    rep = [0]

    def find(x: int) -> int:
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    def get(a: int, c: int) -> int | None:
        e = table[a][c]
        if e is None:
            return None
        e = find(e)
        table[a][c] = e
        return e

    pending: deque[tuple[int, int]] = deque()

    def set_entry(a: int, c: int, b: int) -> None:
        ea = get(a, c)
        if ea is not None:
            if ea != b:
                pending.append((ea, b))
            return
        table[a][c] = b
        eb = get(b, inv_col(c))
        if eb is None:
            table[b][inv_col(c)] = a
        elif eb != a:
            pending.append((eb, a))

    def process_coincidences() -> None:
        while pending:
            x, y = pending.popleft()
            x, y = find(x), find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            rep[y] = x
            for c in range(ncols):
                e = table[y][c]
                if e is None:
                    continue
                table[y][c] = None
                set_entry(x, c, find(e))

    defined = 1

    def define(a: int, c: int) -> int | None:
        nonlocal defined
        if defined >= rows:
            return None
        table.append([None] * ncols)
        rep.append(len(table) - 1)
        b = len(table) - 1
        defined += 1
        set_entry(a, c, b)
        return b

    def scan(alpha: int, word: tuple[int, ...], fill: bool) -> None:
        f = find(alpha)
        i = 0
        m = len(word)
        while True:
            while i < m:
                nxt = get(f, col(word[i]))
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i == m:
                if f != find(alpha):
                    pending.append((f, find(alpha)))
                return
            b = find(alpha)
            j = m - 1
            while j >= i:
                nxt = get(b, inv_col(col(word[j])))
                if nxt is None:
                    break
                b = nxt
                j -= 1
            if j < i:
                # both directions reached position i: cosets coincide
                if f != b:
                    pending.append((f, b))
                return
            if j == i:
                set_entry(f, col(word[i]), b)
                return
            if not fill:
                return
            g = define(f, col(word[i]))
            if g is None:
                return
            f = g
            i += 1

    exhausted = False
    alpha = 0
    while alpha < len(table):
        if find(alpha) != alpha:
            alpha += 1
            continue
        for word in relators:
            scan(alpha, word, fill=True)
            process_coincidences()
            if find(alpha) != alpha:
                break
            if defined >= rows:
                exhausted = True
                break
        if find(alpha) == alpha and not exhausted:
            # fill the rest of the row so the table provably completes
            for c in range(ncols):
                if get(alpha, c) is not None:
                    continue
                if define(alpha, c) is None:
                    exhausted = True
                    break
                process_coincidences()
                if find(alpha) != alpha:
                    break
        if exhausted:
            break
        alpha += 1

    if exhausted:
        # lookahead: deductions and coincidences only, no definitions
        for alpha in range(len(table)):
            if find(alpha) != alpha:
                continue
            for word in relators:
                scan(alpha, word, fill=False)
                process_coincidences()
                if find(alpha) != alpha:
                    break

    live = [a for a in range(len(table)) if find(a) == a]
    for a in live:
        if any(get(a, c) is None for c in range(ncols)):
            return None
    # verification pass: every relator closes at every live coset
    for a in live:
        for word in relators:
            f = a
            for l in word:
                f = get(f, col(l))
            if f != a:
                return None
    return len(live)


# ---------------------------------------------------------------------------
# presentation text format: generator count, then one relator per line


def format_presentation(P: FinitePresentation) -> str:
    lines = [str(P.ngens)]
    for r in P.relators:
        lines.append(" ".join(str(k) for k in r.letters))
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> FinitePresentation:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty presentation")
    try:
        ngens = int(lines[0])
    except ValueError:
        raise FormatError("first line must be the generator count") from None
    if ngens > MAX_STRANDS:
        raise FormatError(f"generator count must be at most {MAX_STRANDS}, got {ngens}")
    relators = []
    for ln in lines[1:]:
        try:
            letters = tuple(int(tok) for tok in ln.split())
            relators.append(FreeWord(letters))
        except ValueError:
            raise FormatError(f"bad relator line {ln!r}") from None
    try:
        return FinitePresentation(ngens, tuple(relators))
    except ValueError as e:
        raise FormatError(str(e)) from None


def _cycle_notation(images: tuple[int, ...]) -> str:
    """Cycles written 1-based, "(1 2)(3 4)"; "()" for the identity."""
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles(images)) or "()"


def format_homs(homs: list[SymmetricImage]) -> str:
    lines = []
    for h in homs:
        lines.append(" ".join(_cycle_notation(p) for p in h.images) or "()")
    return "\n".join(lines) + ("\n" if lines else "")
