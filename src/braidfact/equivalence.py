"""Semi-deciding whether two factorizations have the same type.

Two factorizations are of the same type when one can be carried to the
other by a finite sequence of Hurwitz moves followed by one simultaneous
conjugation.  Negative certificates come from cheap move-and-conjugation
invariants (fingerprints); positive certificates come from a bounded
breadth-first orbit search and always replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import index

from .braid import (
    BraidWord,
    _braids,
    bfs,
    cycle_type,
    equals,
    exponent_sum,
    format_word,
    nf_inv,
    nf_mul,
    nf_permutation,
    parse_word,
    summit_key,
)
from .errors import FormatError, ValidationError
from .factorization import (
    Factorization,
    canonical_key,
    conjugate_all,
    hurwitz_move,
    validate,
)


@dataclass(frozen=True)
class Fingerprint:
    """Invariants of the move-and-conjugation equivalence.

    Every field is unchanged by Hurwitz moves and by simultaneous
    conjugation.  conjugacy_keys entries are ("known", summit_key) or
    ("unknown",) when the per-factor conjugacy search ran out of budget.
    """

    strands: int
    factor_count: int
    exponent_sum: int
    s_multiset: tuple[int, ...] | None
    cycle_types: tuple[tuple[int, ...], ...]
    conjugacy_keys: tuple | None = None


def fingerprint(F: Factorization, *, conjugacy_budget: int = 0) -> Fingerprint:
    """Compute the invariant fingerprint of a validated factorization.

    Its exponent sum is the target's, which the factors' sum equals once F
    validates.  A conjugacy_budget of 0 leaves out the conjugacy keys; a
    negative one is a ValueError, and one that is not an int through
    operator.index a TypeError."""
    conjugacy_budget = index(conjugacy_budget)
    if conjugacy_budget < 0:
        raise ValueError("conjugacy_budget must be nonnegative")
    return _fingerprint(F, _validated_key(F), conjugacy_budget)


def _validated_key(F: Factorization) -> tuple:
    """canonical_key(F), or ValidationError if F does not validate."""
    report = validate(F)
    if not report.product_ok:
        raise ValidationError("factorization does not validate")
    return report.key


def _fingerprint(F: Factorization, factor_keys, conjugacy_budget: int = 0) -> Fingerprint:
    """fingerprint of a validated F whose canonical key is factor_keys."""
    d = F.strands
    s_multiset = (
        tuple(sorted(f.s for f in F.factors)) if F.is_cuspidal else None
    )
    cycle_types = tuple(sorted(cycle_type(nf_permutation(d, k)) for k in factor_keys))
    keys = None
    if conjugacy_budget > 0:
        entries = []
        for fk in factor_keys:
            k = summit_key(d, fk, conjugacy_budget)
            entries.append(("known", k) if k is not None else ("unknown",))
        keys = tuple(sorted(entries))
    return Fingerprint(
        d,
        F.r,
        exponent_sum(F.target),
        s_multiset,
        cycle_types,
        keys,
    )


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for the orbit search, checked when the budget is built.

    max_states caps both the orbit states and the conjugators tried.
    max_factor_nf_length bounds the canonical length (number of permutation
    braid factors in the normal form) of any single factor in an explored
    state; None derives 2 * (largest input factor canonical length, min 1).
    Each bound is stored as an int through operator.index (a float is a
    TypeError, a bool counts as its int) and must be positive (a
    ValueError naming the field).
    """

    max_states: int = 2000
    max_factor_nf_length: int | None = None
    conjugator_length_bound: int = 3

    def __post_init__(self) -> None:
        for name in ("max_states", "max_factor_nf_length", "conjugator_length_bound"):
            value = getattr(self, name)
            if value is None and name == "max_factor_nf_length":
                continue
            value = index(value)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class EquivalenceVerdict:
    outcome: str  # "equivalent" | "distinguished" | "inconclusive"
    path: tuple[tuple[int, str], ...] | None = None
    conjugator: BraidWord | None = None
    field: str | None = None
    values: tuple[str, str] | None = None
    states: int = 0
    orbit_complete: bool = False


def _interner():
    """A per-decision intern table of factor keys: (keys, intern), where
    intern(key) is key's small-int id, new keys numbered in the order met,
    and keys[id] is the key again."""
    keys: list = []
    ids: dict = {}

    def intern(key) -> int:
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(keys)
            keys.append(key)
        return i

    return keys, intern


def _orbit(d: int, start, nf_bound: int, max_states: int, keys, intern):
    """Breadth-first Hurwitz-move orbit of canonical key start: one (state,
    path) per new state.

    A state is a tuple of ids, one per factor braid, into the intern table
    (keys, intern) of _interner; keys[i] is the factor's nf_key, so the
    state's canonical key is tuple(keys[i] for i in state).  The moves
    at i replace the factors (a, b) by (b, b^-1 a b) ("left") or
    (a b a^-1, a) ("right"), the braids hurwitz_move gives.  Both moves of
    an adjacent id pair are computed once, the first time a state with
    that pair is expanded, and kept in a move table keyed by the pair; the
    table keeps only the moves whose new factor has canonical length at
    most nf_bound.  So every state past start has all its factors within
    the bound, and the whole child is checked only when start itself has a
    factor above it.  start comes first with the empty path; moves are
    tried in ascending index order, "left" before "right".  The search
    stops after max_states states, so the orbit is complete only if fewer
    were yielded.
    """
    start = tuple(map(intern, start))
    table: dict[tuple[int, int], tuple] = {}

    def pair_moves(pair):
        a, b = pair
        ka, kb = keys[a], keys[b]
        new_left = intern(nf_mul(d, nf_inv(d, kb), ka, kb))
        new_right = intern(nf_mul(d, ka, kb, nf_inv(d, ka)))
        moves = []
        if len(keys[new_left][1]) <= nf_bound:
            moves.append(("left", (b, new_left)))
        if len(keys[new_right][1]) <= nf_bound:
            moves.append(("right", (new_right, a)))
        table[pair] = moves = tuple(moves)
        return moves

    over = any(len(keys[f][1]) > nf_bound for f in start)

    def children(state, path):
        for i in range(1, len(state)):
            pair = state[i - 1 : i + 1]
            moves = table.get(pair)
            if moves is None:
                moves = pair_moves(pair)
            for direction, moved in moves:
                child = state[: i - 1] + moved + state[i + 1 :]
                if over and not path and any(len(keys[f][1]) > nf_bound for f in child):
                    continue
                yield (i, direction), child

    return islice(bfs(start, children), max_states)


def replay(F: Factorization, path, conjugator: BraidWord | None) -> Factorization:
    """Apply a move path and a final simultaneous conjugation to F."""
    G = F
    for i, direction in path:
        G = hurwitz_move(G, i, direction)
    if conjugator is not None:
        G = conjugate_all(G, conjugator)
    return G


@lru_cache(maxsize=8)
def _conjugators(d: int, bound: int, max_states: int) -> tuple:
    """The first max_states braids of _braids(d, bound), drawn once for
    every decision that shares these arguments: (nf_key, inverse nf_key,
    letters, permutation, inverse permutation) each."""
    out = []
    for zkey, letters in islice(_braids(d, bound), max_states):
        zinv = nf_inv(d, zkey)
        out.append((zkey, zinv, letters, nf_permutation(d, zkey), nf_permutation(d, zinv)))
    return tuple(out)


def _fingerprint_fields(a: Fingerprint, b: Fingerprint):
    yield "factor_count", a.factor_count, b.factor_count
    if a.s_multiset is not None and b.s_multiset is not None:
        yield "s_multiset", a.s_multiset, b.s_multiset
    yield "cycle_type_multiset", a.cycle_types, b.cycle_types


def decide_equivalence(
    F1: Factorization, F2: Factorization, budget: SearchBudget = SearchBudget()
) -> EquivalenceVerdict:
    """Search for a move path plus conjugation carrying F1 to F2.

    Each input is validated and keyed once; its canonical key serves both
    its fingerprint and the search.  Fingerprints are compared first; a
    differing field is a sound negative certificate.  Otherwise the move
    orbit of F1 is explored breadth first (moves in ascending index order,
    "left" before "right") over states of factor ids, with each adjacent id
    pair's moves computed once (see _orbit).  States are matched against F2
    conjugated by each of the first max_states short braids, a stream drawn
    once per (strands, conjugator bound, max_states): those are indexed by
    the permutation of their image of F2's first factor, which needs no
    product.  A braid conjugates F2's first factor only when a state's
    first factor has that permutation, and F2's other factors, into ids of
    the same table, only when a state's first factor is that image; each
    product is formed at most once per decision.  The first braid in
    enumeration order that matches is the conjugator.  An "equivalent"
    verdict is replayed and verified factor by factor.  The budget checked
    itself when it was built.  Raises ValidationError (a ValueError) for an
    input that does not validate, and ValueError for differing strand
    counts or targets.
    """
    if F1.strands != F2.strands:
        raise ValueError("strand counts differ")
    if not equals(F1.target, F2.target):
        raise ValueError("targets differ")

    f1, f2 = (_validated_key(F) for F in (F1, F2))
    for field, v1, v2 in _fingerprint_fields(_fingerprint(F1, f1), _fingerprint(F2, f2)):
        if v1 != v2:
            return EquivalenceVerdict(
                "distinguished", field=field, values=(str(v1), str(v2))
            )

    # match index: state G hits when G equals conjugate_all(F2, z^-1), whose
    # factors are z f z^-1 for the factors f of F2.  index files the
    # conjugators by the permutation of their image of F2's first factor (a
    # slice, so a factorization with no factors has one key, ()).  The first
    # time a state's first factor has a permutation, the conjugators under
    # it form their images and are filed in hits under those images' ids,
    # still in stream order, so the first conjugator that carries F2 to the
    # state is the first in stream order.
    d = F1.strands
    keys, intern = _interner()
    conjugators = _conjugators(d, budget.conjugator_length_bound, budget.max_states)
    firsts = [nf_permutation(d, f) for f in f2[:1]]
    index: dict[tuple, list] = {}
    for n, (_, _, _, p, p_inv) in enumerate(conjugators):  # x -> p_inv[f[p[x]]]
        head = tuple(tuple(map(p_inv.__getitem__, map(f.__getitem__, p))) for f in firsts)
        index.setdefault(head, []).append(n)
    hits: dict[tuple[int, ...], list] = {}  # head id -> conjugators whose image it is
    images: dict[int, tuple[int, ...]] = {}  # conjugator -> ids of F2 conjugated by it

    def conjugator_to(state):
        head = state[:1]
        found = hits.get(head)
        if found is None:
            for n in index.pop(tuple(nf_permutation(d, keys[i]) for i in head), ()):
                zkey, zinv = conjugators[n][:2]
                image = tuple(intern(nf_mul(d, zkey, f, zinv)) for f in f2[:1])
                hits.setdefault(image, []).append(n)
            found = hits.setdefault(head, [])
        for n in found:
            if n not in images:
                zkey, zinv = conjugators[n][:2]
                images[n] = head + tuple(intern(nf_mul(d, zkey, f, zinv)) for f in f2[1:])
            if images[n] == state:
                return conjugators[n][2]
        return None

    states = 0
    nf_bound = budget.max_factor_nf_length
    if nf_bound is None:
        nf_bound = 2 * max([len(pair[1]) for key in (f1, f2) for pair in key] + [1])
    for state, path in _orbit(d, f1, nf_bound, budget.max_states, keys, intern):
        states += 1
        letters = conjugator_to(state)
        if letters is not None:
            z = BraidWord(d, letters)
            if canonical_key(replay(F1, path, z)) != f2:
                raise AssertionError("equivalence path failed replay verification")
            return EquivalenceVerdict("equivalent", path=path, conjugator=z, states=states)
    return EquivalenceVerdict(
        "inconclusive", states=states, orbit_complete=states < budget.max_states
    )


# ---------------------------------------------------------------------------
# verdict serialization


def format_verdict(v: EquivalenceVerdict) -> str:
    lines = [f"outcome {v.outcome}"]
    if v.outcome == "equivalent":
        for i, direction in v.path:
            lines.append(f"move {i} {direction}")
        lines.append(f"conjugator {format_word(v.conjugator)}".rstrip())
    elif v.outcome == "distinguished":
        lines.append(f"field {v.field}")
        lines.append(f"value1 {v.values[0]}")
        lines.append(f"value2 {v.values[1]}")
    else:
        lines.append(f"states {v.states}")
    return "\n".join(lines) + "\n"


def parse_verdict(text: str, strands: int) -> EquivalenceVerdict:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("outcome "):
        raise FormatError("first line must be 'outcome ...'")
    outcome = lines[0].split(maxsplit=1)[1]
    if outcome == "equivalent":
        path = []
        conjugator = None
        for ln in lines[1:]:
            if ln.startswith("move "):
                parts = ln.split()
                if len(parts) != 3 or parts[2] not in ("left", "right"):
                    raise FormatError(f"bad move line {ln!r}")
                try:
                    path.append((int(parts[1]), parts[2]))
                except ValueError:
                    raise FormatError(f"bad move line {ln!r}") from None
            elif ln.startswith("conjugator"):
                conjugator = parse_word(ln[len("conjugator") :], strands)
            else:
                raise FormatError(f"unexpected line {ln!r}")
        if conjugator is None:
            raise FormatError("missing conjugator line")
        return EquivalenceVerdict("equivalent", path=tuple(path), conjugator=conjugator)
    if outcome == "distinguished":
        fields = dict(
            ln.split(maxsplit=1) if " " in ln else (ln, "") for ln in lines[1:]
        )
        if "field" not in fields:
            raise FormatError("missing field line")
        return EquivalenceVerdict(
            "distinguished",
            field=fields["field"],
            values=(fields.get("value1", ""), fields.get("value2", "")),
        )
    if outcome == "inconclusive":
        states = 0
        for ln in lines[1:]:
            if ln.startswith("states "):
                try:
                    states = int(ln.split()[1])
                except ValueError:
                    raise FormatError(f"bad states line {ln!r}") from None
        return EquivalenceVerdict("inconclusive", states=states)
    raise FormatError(f"unknown outcome {outcome!r}")
