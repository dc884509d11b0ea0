"""Pure-Python kernel for left-greedy Garside normal forms in B_d.

A braid is stored as a pair (inf, factors): a power of the half twist
followed by a sequence of permutation braids, none of them trivial or
equal to the half twist, with every adjacent pair left-weighted.  Two
words represent the same braid iff this pair coincides, which is what
makes the kernel the single arbiter of equality for everything built
on top of it.

Permutation braids are permutations of range(d) in one-line notation.
Composition is read left to right: (p * q)(x) = q(p(x)), so the
permutation of a word is the product of the transpositions of its
letters in reading order.  Under this convention

  - the starting set of a factor b is the descent set {i : b[i] > b[i+1]},
  - the finishing set of a is the descent set of its inverse,
  - a pair (a, b) is left-weighted iff starting(b) is contained in
    finishing(a).

The kernel has two entries on one comb.  normal_form takes a signed
letter word and folds it into runs, each one permutation braid: a letter
joins the current run while it adds a crossing (sigma_i) or cancels one
(sigma_i^-1), else it opens the next run, and the half-twist powers of
runs opened by inverse letters move to the front.  normal_form_factors
takes a half-twist power and whole permutation braids, so a product of
normal forms is combed only where its factors do not already fit (the
right multiplication of Epstein et al., Word Processing in Groups,
ch. 9).

The comb slides one crossing at a time from the front of a factor to the
back of its left neighbour until every pair is left-weighted; each slide
strictly increases the left factor, so the loop terminates, and the
left-weighted pair for a fixed product is unique.  Factors are appended
on the right and combed backwards; once a comb step leaves the left
factor unchanged the prefix is still left-weighted and the comb stops.

This module must stay behaviourally identical to the compiled twin in
_garside.c; tests/test_kernel.py holds both to a brute-force fixpoint
reference and to each other.
"""

from operator import index

IMPL_NAME = "pure"


def _fix_pair(a, ai, b, bi, d):
    """Make the adjacent factor pair (a, b) left-weighted in place.

    a, ai, b, bi are one-line notations of the two factors and their
    inverses, as mutable lists.  Returns True if a changed.
    """
    changed = False
    moved = True
    while moved:
        moved = False
        for i in range(d - 1):
            if b[i] > b[i + 1] and ai[i] < ai[i + 1]:
                # slide crossing i: a <- a * s_i, b <- s_i * b
                x = ai[i]
                y = ai[i + 1]
                a[x] = i + 1
                a[y] = i
                ai[i] = y
                ai[i + 1] = x
                u = b[i]
                b[i] = b[i + 1]
                b[i + 1] = u
                bi[b[i]] = i
                bi[u] = i + 1
                moved = True
                changed = True
    return changed


def _invert(p, d):
    inv = [0] * d
    for i in range(d):
        inv[p[i]] = i
    return inv


def _comb(d, inf, raw):
    """Left normal form of D^inf * raw[0] * raw[1] * ..., raw a list of
    permutation braids as mutable one-line lists (consumed in place)."""
    identity = list(range(d))
    w0 = identity[::-1]

    # Append factors one at a time, combing backwards after each append.
    # Appending a permutation braid to a left normal form and making the
    # pairs left-weighted from right to left gives the left normal form of
    # the product (the domino rule of greedy normal forms), so no second
    # pass is needed; a factor can only be absorbed at the tail.
    factors = []
    inverses = []
    for p in raw:
        if p == identity:
            continue
        factors.append(p)
        inverses.append(_invert(p, d))
        j = len(factors) - 2
        while j >= 0:
            if not _fix_pair(factors[j], inverses[j], factors[j + 1], inverses[j + 1], d):
                break
            if factors[j + 1] == identity:
                factors.pop(j + 1)
                inverses.pop(j + 1)
            j -= 1

    # Leading half twists join the Delta power; a left-weighted sequence
    # has every half twist at its front.
    lead = 0
    while lead < len(factors) and factors[lead] == w0:
        lead += 1

    return inf + lead, tuple(tuple(p) for p in factors[lead:])


def normal_form(d, letters):
    """Left normal form of the braid word given by signed generator letters.

    Letter k with 1 <= |k| <= d-1 is the |k|-th Artin generator, negative
    for its inverse.  Returns (inf, factors) where factors is a tuple of
    permutation tuples in one-line notation over range(d).
    """
    if d < 1:
        raise ValueError("strand count must be >= 1")
    if not letters:
        return 0, ()

    identity = list(range(d))
    w0 = identity[::-1]

    # Consecutive letters accumulate into one run r, a permutation braid
    # held as images p and inverse pi.  sigma_i joins r while s_i does not
    # right-divide it (pi[i] < pi[i+1]), adding a crossing; sigma_i^-1
    # joins while s_i does, cancelling that crossing.  Either way r becomes
    # r * s_i.  Any other letter opens a new run: the identity for sigma_i,
    # and for sigma_i^-1 = Delta^-1 * (Delta sigma_i^-1) the half twist w0
    # with one inverse half twist, before the letter is applied.
    raw = []
    dpows = []
    for k in letters:
        i = abs(k) - 1
        if i < 0 or i >= d - 1:
            raise ValueError("letter %d out of range for %d strands" % (k, d))
        if not raw or (pi[i] < pi[i + 1]) != (k > 0):
            p = identity[:] if k > 0 else w0[:]
            pi = p[:]  # the identity and w0 are involutions
            raw.append(p)
            dpows.append(0 if k > 0 else -1)
        x = pi[i]
        y = pi[i + 1]
        p[x] = i + 1
        p[y] = i
        pi[i] = y
        pi[i + 1] = x

    # Shift all half-twist powers to the front: a factor passing one power
    # of Delta is conjugated by the involution tau(p) = w0 . p . w0.
    dp = 0
    for j in range(len(raw) - 1, -1, -1):
        if dp & 1:
            p = raw[j]
            raw[j] = [d - 1 - p[d - 1 - x] for x in range(d)]
        dp += dpows[j]

    return _comb(d, dp, raw)


def normal_form_factors(d, inf, factors):
    """Left normal form of D^inf * F_1 * ... * F_n.

    Each F_i is a permutation braid given as the one-line notation of its
    permutation of range(d); it may be the identity or the half twist.
    Returns (inf, factors) exactly as normal_form does.
    """
    if d < 1:
        raise ValueError("strand count must be >= 1")
    inf = index(inf)
    identity = list(range(d))
    raw = []
    for f in factors:
        p = list(f)
        if sorted(p) != identity:
            raise ValueError("factor %r is not a permutation of range(%d)" % (f, d))
        raw.append(p)
    if d == 1:
        return 0, ()  # the half twist of B_1 is the identity
    return _comb(d, inf, raw)
