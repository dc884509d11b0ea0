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

The kernel's entries share one shift and one comb.  normal_form
takes a signed letter word and folds it into runs, each one permutation
braid: a letter joins the current run while it adds a crossing (sigma_i)
or cancels one (sigma_i^-1), else it opens the next run, with a Delta^-1
before it if the letter is inverse.  product takes normal-form keys
(inf, factors), each inf before the key's first factor, so a product of
normal forms is combed only where its factors do not already fit (the
right multiplication of Epstein et al., Word Processing in Groups,
ch. 9).  _shift moves every Delta power to the front.

The comb slides crossings from the front of a factor to the back of its
left neighbour until every pair is left-weighted: one insertion pass per
pair (see _fix_pair).  Each slide strictly increases the left factor, so
the comb terminates, and the left-weighted pair for a fixed product is
unique, so the order of the slides does not change the result.  Factors
are appended on the right and combed backwards; once a comb step leaves
the left factor unchanged the prefix is still left-weighted and the comb
stops.  A half twist, appended or formed by a comb step, stops it too: it
is dropped into the Delta power where it stands, and every factor before
it becomes tau of itself at once, instead of each being passed by it one
crossing at a time.

Factors are immutable int tuples throughout, so one comb step is a pure
function of its pair, and _fix_pair and _tau are memoised by bounded
lru_caches.
Searches that multiply the same few normal forms over and over (the
Hurwitz orbits) comb the same pairs again and again, and repeat about 98%
of their steps.

This kernel checks nothing; _garside.c checks everything.  Its input must
keep the contract: d >= 1, every letter an int with 1 <= |k| <= d-1, every
factor an int tuple of a permutation of range(d).  The package keeps it by
checking once, where input enters: BraidWord checks the strand count and
every letter, and every key product gets is built from kernel output.
Input that breaks the contract gives a wrong answer or an arbitrary error,
and can leave a wrong pair in the memos.

This module must stay behaviourally identical to the compiled twin in
_garside.c on input that keeps the contract; tests/test_kernel.py
holds both to a brute-force fixpoint reference and to each other.
"""

from functools import lru_cache

IMPL_NAME = "pure"

# Entries of each memo: more than the distinct pairs one Hurwitz search
# combs (under 500); full of factors from B_2..B_8, the two hold about 0.6 MB.
_MEMO_SIZE = 1 << 10


@lru_cache(maxsize=_MEMO_SIZE)
def _fix_pair(a, b):
    """The left-weighted pair with the product of the factors a and b, or
    None if (a, b) already is left-weighted.

    Works on a's inverse ai and on b.  Sliding crossing i (a <- a * s_i,
    b <- s_i * b) swaps the contents (ai[i], b[i]) and (ai[i+1], b[i+1]),
    and is allowed when b[i] > b[i+1] and ai[i] < ai[i+1].  One insertion
    pass makes every slide: the content at k moves left past every
    neighbour it may slide under.  Up to k no slide is left behind: the
    content's new left neighbour is one it may not pass, the one it passed
    last now sits to its right with the larger b, and the others keep
    their neighbours.  The left-weighted pair of a product is unique, so
    the order of the slides does not change it.  a is rebuilt from its
    inverse at the end.
    """
    d = len(a)
    ai = [0] * d
    for x, y in enumerate(a):
        ai[y] = x
    b = list(b)
    changed = False
    for k in range(1, d):
        y = b[k]
        if b[k - 1] > y:
            x = ai[k]
            j = k - 1
            if ai[j] < x:
                ai[k] = ai[j]
                b[k] = b[j]
                while j and b[j - 1] > y and ai[j - 1] < x:
                    ai[j] = ai[j - 1]
                    b[j] = b[j - 1]
                    j -= 1
                ai[j] = x
                b[j] = y
                changed = True
    if not changed:
        return None
    a = [0] * d
    for x, y in enumerate(ai):
        a[y] = x
    return tuple(a), tuple(b)


@lru_cache(maxsize=16)
def _constants(d):
    """The identity and the half twist of B_d as int tuples."""
    identity = tuple(range(d))
    return identity, identity[::-1]


@lru_cache(maxsize=_MEMO_SIZE)
def _tau(p):
    """tau(p) = w0 . p . w0, the conjugate of p by the half twist."""
    d = len(p)
    return tuple([d - 1 - v for v in reversed(p)])


def _shift(raw, powers, trailing):
    """Move the powers of D^powers[0] raw[0] D^powers[1] raw[1] ... D^trailing
    to the front: a factor passing D^n becomes tau^n of itself.  Returns the sum."""
    dp = trailing
    for j in range(len(raw) - 1, -1, -1):
        if dp & 1:
            raw[j] = _tau(raw[j])
        dp += powers[j]
    return dp


def _comb(d, inf, raw):
    """Left normal form of D^inf * raw[0] * raw[1] * ..., raw a list of
    permutation braids as int tuples."""
    identity, w0 = _constants(d)

    # Append factors one at a time, combing backwards after each append.
    # Appending a permutation braid to a left normal form and making the
    # pairs left-weighted from right to left gives the left normal form of
    # the product (the domino rule of greedy normal forms), so no second
    # pass is needed; a factor can only be absorbed at the tail.
    #
    # a is the factor at slot j.  A half twist there folds at once:
    # x_0..x_(j-1) Delta = Delta tau(x_0)..tau(x_(j-1)), tau is an
    # automorphism, and by the domino rule the new seam (tau(x_(j-1)),
    # x_(j+1)) is left-weighted, so the result is the one the slides give.
    factors = []
    for a in raw:
        if a == identity:
            continue
        j = len(factors)
        factors.append(a)
        while j and a != w0:
            pair = _fix_pair(factors[j - 1], a)
            if pair is None:
                break
            a, b = pair
            if b == identity:
                del factors[j]
            else:
                factors[j] = b
            j -= 1
            factors[j] = a
        if a == w0:
            del factors[j]
            factors[:j] = map(_tau, factors[:j])
            inf += 1
    return inf, tuple(factors)


def normal_form(d, letters):
    """Left normal form of the braid word given by signed generator letters.

    Letter k with 1 <= |k| <= d-1 is the |k|-th Artin generator, negative
    for its inverse.  Returns (inf, factors) where factors is a tuple of
    permutation tuples in one-line notation over range(d).
    """
    if not letters:
        return 0, ()

    identity, w0 = _constants(d)

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
        if not raw or (pi[i] < pi[i + 1]) != (k > 0):
            p = list(identity if k > 0 else w0)
            pi = p[:]  # the identity and w0 are involutions
            raw.append(p)
            dpows.append(0 if k > 0 else -1)
        x = pi[i]
        y = pi[i + 1]
        p[x] = i + 1
        p[y] = i
        pi[i] = y
        pi[i + 1] = x

    raw = list(map(tuple, raw))
    return _comb(d, _shift(raw, dpows, 0), raw)


def product(d, keys):
    """Left normal form of the product of keys, left to right, unchecked.

    Each key is a pair (inf, factors) for D^inf * F_1 * ... * F_n, each F_i
    a permutation braid given as the int tuple of its permutation of
    range(d); it may be the identity or the half twist.  Returns
    (inf, factors) exactly as normal_form does.  Nothing is checked: a key
    that breaks this contract gives a wrong answer or an arbitrary error.
    """
    raw = []
    powers = []
    power = 0  # carried by the next factor, or trailing if none follows
    for inf, factors in keys:
        power += inf
        for f in factors:
            raw.append(f)
            powers.append(power)
            power = 0
    if d == 1:
        return 0, ()  # the half twist of B_1 is the identity
    return _comb(d, _shift(raw, powers, power), raw)
