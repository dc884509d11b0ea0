"""Printer/parser round trips: output re-parses and re-prints identically;
the parsers raise only FormatError on malformed text."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidfact.braid import MAX_STRANDS, BraidWord, format_word, full_twist, parse_word
from braidfact.complement import (
    FinitePresentation,
    FreeWord,
    format_presentation,
    parse_presentation,
    zvk_presentation,
)
from braidfact.equivalence import (
    SearchBudget,
    decide_equivalence,
    format_verdict,
    parse_verdict,
)
from braidfact.errors import FormatError
from braidfact.factorization import (
    CuspidalFactor,
    Factorization,
    conjugate_all,
    format_factorization,
    hurwitz_move,
    parse_factorization,
)


def rand_word(rng, d, n):
    return BraidWord(d, tuple(rng.choice([1, -1]) * rng.randint(1, d - 1) for _ in range(n)))


def test_word_round_trip_random():
    rng = random.Random(101)
    for _ in range(200):
        d = rng.randint(2, 8)
        w = rand_word(rng, d, rng.randint(0, 25))
        text = format_word(w)
        assert parse_word(text, d).letters == w.letters
        assert format_word(parse_word(text, d)) == text


def test_word_parse_is_strict():
    for bad in ("1 2 x", "1.5", "0", "9"):
        with pytest.raises(FormatError):
            parse_word(bad, 3)


def test_factorization_round_trip_closed_under_operations():
    rng = random.Random(55)
    F = parse_factorization(
        "strands 3\ntarget full_twist\n"
        "factor s=1 rho=\nfactor s=1 rho=-2\nfactor s=1 rho=2\nfactor s=3 rho=\n"
    )
    for _ in range(30):
        op = rng.randint(0, 2)
        if op == 0:
            F = hurwitz_move(F, rng.randint(1, F.r - 1), rng.choice(("left", "right")))
        elif op == 1:
            F = conjugate_all(F, rand_word(rng, 3, rng.randint(0, 2)))
        text = format_factorization(F)
        G = parse_factorization(text)
        assert format_factorization(G) == text


def test_plain_word_factor_files():
    text = "strands 2\ntarget word=1\nfactor word=1\n"
    F = parse_factorization(text)
    assert not F.is_cuspidal
    assert format_factorization(F) == text


def test_presentation_round_trip_random():
    rng = random.Random(77)
    for _ in range(60):
        ngens = rng.randint(0, 4)
        relators = tuple(
            FreeWord(tuple(rng.choice([1, -1]) * rng.randint(1, ngens) for _ in range(rng.randint(1, 8))))
            for _ in range(rng.randint(0, 4))
        ) if ngens else ()
        P = FinitePresentation(ngens, relators)
        text = format_presentation(P)
        assert parse_presentation(text) == P
        assert format_presentation(parse_presentation(text)) == text


def test_verdict_round_trip_all_outcomes():
    cubic = parse_factorization(
        "strands 3\ntarget full_twist\n"
        "factor s=1 rho=\nfactor s=1 rho=-2\nfactor s=1 rho=2\nfactor s=3 rho=\n"
    )
    moved = hurwitz_move(cubic, 2, "right")
    v = decide_equivalence(cubic, moved, SearchBudget(max_states=2000))
    assert v.outcome == "equivalent"
    text = format_verdict(v)
    assert format_verdict(parse_verdict(text, 3)) == text

    six = parse_factorization(
        "strands 3\ntarget full_twist\n" + "factor s=1 rho=\n" * 4
        + "factor s=1 rho=-2\nfactor s=1 rho=2\n"
    )
    v = decide_equivalence(cubic, six, SearchBudget(max_states=100))
    assert v.outcome == "distinguished"
    text = format_verdict(v)
    assert format_verdict(parse_verdict(text, 3)) == text

    v = decide_equivalence(
        cubic, conjugate_all(cubic, BraidWord(3, (1, 1, 1, 2, 2, 2))),
        SearchBudget(max_states=2, conjugator_length_bound=1),
    )
    assert v.outcome == "inconclusive"
    text = format_verdict(v)
    assert format_verdict(parse_verdict(text, 3)) == text


def test_zvk_presentation_survives_round_trip():
    cubic = parse_factorization(
        "strands 3\ntarget full_twist\n"
        "factor s=1 rho=\nfactor s=1 rho=-2\nfactor s=1 rho=2\nfactor s=3 rho=\n"
    )
    P = zvk_presentation(cubic)
    assert parse_presentation(format_presentation(P)) == P


# ---------------------------------------------------------------------------
# the parsers raise only FormatError, on any text

# Header counts: small, at and past the cap, huge, past int()'s digit limit, junk.
COUNTS = (
    "0", "1", "2", "3", "4", "-1", "1024", "1025", "3000000", "3000000000",
    "9" * 30, "9" * 5000, "x", "",
)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


def lines_text(draw, first, rest):
    """The first line, then up to 4 lines drawn from rest or arbitrary text."""
    lines = [draw(first)]
    for _ in range(draw(st.integers(0, 4))):
        lines.append(draw(st.one_of(rest, rest, rest, st.text(max_size=12))))
    return "\n".join(lines) + "\n"


def small_word():
    tokens = ("1", "-1", "2", "-2", "0", "5", "x", "9" * 25)
    return st.lists(st.sampled_from(tokens), max_size=4).map(" ".join)


@st.composite
def factorization_file(draw):
    return lines_text(
        draw,
        st.one_of(st.sampled_from(COUNTS).map("strands {}".format), st.text(max_size=12)),
        st.one_of(
            st.sampled_from(("target full_twist", "target x", "target word=", "factor", "# c")),
            small_word().map("target word={}".format),
            small_word().map("factor word={}".format),
            st.tuples(st.sampled_from(("1", "2", "3", "0", "x", "9" * 5000)), small_word()).map(
                lambda t: f"factor s={t[0]} rho={t[1]}"
            ),
        ),
    )


@st.composite
def presentation_file(draw):
    return lines_text(
        draw,
        st.one_of(st.sampled_from(COUNTS), st.text(max_size=12)),
        small_word(),
    )


@st.composite
def verdict_file(draw):
    outcomes = ("equivalent", "distinguished", "inconclusive", "x", "")
    return lines_text(
        draw,
        st.one_of(st.sampled_from(outcomes).map("outcome {}".format), st.text(max_size=12)),
        st.one_of(
            st.tuples(st.sampled_from(COUNTS), st.sampled_from(("left", "right", "up", ""))).map(
                lambda t: f"move {t[0]} {t[1]}"
            ),
            small_word().map("conjugator {}".format),
            st.sampled_from(COUNTS).map("states {}".format),
            st.sampled_from(("field exponent_sum", "value1 3", "value2", "field", "move")),
        ),
    )


@FUZZ
@given(text=factorization_file())
@example(text="strands 3000000\ntarget full_twist\n")
@example(text="strands 1025\ntarget full_twist\n")
@example(text="strands " + "9" * 5000 + "\ntarget full_twist\n")
def test_parse_factorization_raises_only_format_error(text):
    try:
        F = parse_factorization(text)
    except FormatError:
        return
    assert 1 <= F.strands <= MAX_STRANDS


@FUZZ
@given(text=presentation_file())
@example(text="3000000000\n1 2\n")
@example(text="1025\n")
def test_parse_presentation_raises_only_format_error(text):
    try:
        P = parse_presentation(text)
    except FormatError:
        return
    assert 0 <= P.ngens <= MAX_STRANDS


@FUZZ
@given(text=verdict_file(), strands=st.integers(1, 5))
@example(text="outcome equivalent\nmove " + "9" * 5000 + " left\nconjugator\n", strands=3)
@example(text="outcome inconclusive\nstates " + "9" * 5000 + "\n", strands=3)
def test_parse_verdict_raises_only_format_error(text, strands):
    try:
        v = parse_verdict(text, strands)
    except FormatError:
        return
    assert v.outcome in ("equivalent", "distinguished", "inconclusive")


def test_counts_past_the_cap_are_format_errors():
    with pytest.raises(FormatError, match="strand count"):
        parse_factorization("strands 3000000\ntarget full_twist\n")
    with pytest.raises(FormatError, match="generator count"):
        parse_presentation("3000000000\n1 2\n")
    assert parse_presentation(f"{MAX_STRANDS}\n1 -2\n").ngens == MAX_STRANDS
    assert parse_factorization(f"strands {MAX_STRANDS}\ntarget word=1\n").strands == MAX_STRANDS
