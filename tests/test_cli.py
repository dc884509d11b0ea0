"""Command-line surface: documented examples, exit codes, format modes."""

import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import braidfact
import braidfact.cli as cli
import braidfact.equivalence as equivalence
from braidfact.braid import BraidWord, _simple_letters, canonical_form, equals, full_twist
from braidfact.cli import main
from braidfact.complement import group_order, parse_presentation
from braidfact.errors import FormatError, ValidationError
from braidfact.factorization import (
    conjugate_all,
    format_factorization,
    hurwitz_move,
    parse_factorization,
    validate,
)

CONIC_FACT = "strands 2\ntarget full_twist\nfactor s=1 rho=\nfactor s=1 rho=\n"
CUBIC_FACT = (
    "strands 3\ntarget full_twist\n"
    "factor s=1 rho=\nfactor s=1 rho=-2\nfactor s=1 rho=2\nfactor s=3 rho=\n"
)
TREFOIL_PRES = "2\n1 2 1 -2 -1 -2\n"


@pytest.fixture
def conic_file(tmp_path):
    p = tmp_path / "conic.fact"
    p.write_text(CONIC_FACT)
    return str(p)


@pytest.fixture
def cubic_file(tmp_path):
    p = tmp_path / "cubic.fact"
    p.write_text(CUBIC_FACT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    output = capsys.readouterr()
    return code, output.out, output.err


# what stderr starts with for each exit code main maps an error to
ERROR_PREFIX = {64: "usage error: ", 65: "input error: "}


def test_fulltwist_documented_example(capsys):
    code, out, _ = run(capsys, "fulltwist", "3")
    assert code == 0 and out == "1 2 1 2 1 2\n"


def test_invariants_documented_example(capsys):
    code, out, _ = run(capsys, "invariants", "5")
    assert code == 0
    assert out == "5\t8325\t26640\t45289\t115440\t28416\t354644112\n"


def test_validate_documented_example(capsys, conic_file):
    code, out, _ = run(capsys, "validate", conic_file)
    assert code == 0 and out == "product_ok=true n1=2 n2=0 n3=0\n"


def test_validate_structured(capsys, conic_file):
    code, out, _ = run(capsys, "validate", "--format=structured", conic_file)
    assert code == 0
    assert out == "product_ok=true\nn1=2\nn2=0\nn3=0\nexponent_ok=true\n"


def test_validate_failure_exits_one(capsys, tmp_path):
    p = tmp_path / "bad.fact"
    p.write_text("strands 2\ntarget full_twist\nfactor s=1 rho=\n")
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 1 and "product_ok=false" in out


def test_validate_exponent_checks_the_target(capsys, tmp_path):
    # the s values sum to the target's exponent sum, here 1, not d(d - 1)
    p = tmp_path / "generator.fact"
    p.write_text("strands 2\ntarget word=1\nfactor s=1 rho=\n")
    code, out, _ = run(capsys, "validate", "--format=structured", str(p))
    assert code == 0
    assert out == "product_ok=true\nn1=1\nn2=0\nn3=0\nexponent_ok=true\n"


def test_nf_and_eq(capsys):
    code, out, _ = run(capsys, "nf", "3", "1 2 1")
    assert code == 0 and out == "inf=1 factors=\n"
    code, out, _ = run(capsys, "nf", "3", "1 -2")
    assert code == 0 and out.startswith("inf=-1 factors=")
    code, out, _ = run(capsys, "eq", "3", "1 2 1", "2 1 2")
    assert code == 0 and out == "equal=true\n"
    code, out, _ = run(capsys, "eq", "3", "1", "2")
    assert code == 1 and out == "equal=false\n"


def test_eq_settles_identical_words_and_differing_sums(capsys):
    assert run(capsys, "eq", "5", "1 -2 3 4 -1", "1 -2 3 4 -1") == (0, "equal=true\n", "")
    assert run(capsys, "eq", "5", "1 -2 3 4 -1", "1 -2 3 -4 -1") == (1, "equal=false\n", "")
    assert run(capsys, "eq", "3", "", "") == (0, "equal=true\n", "")


def test_homs_out_of_work_is_inconclusive(capsys, tmp_path):
    # three free generators into S_5: about 10^5 candidates and 10^6 conjugates
    pres = tmp_path / "free3.pres"
    pres.write_text("3\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "homs", str(pres), "5")
    assert time.perf_counter() - start < 10
    assert (code, out) == (2, "count=unknown\n")
    assert "work" in err and "Traceback" not in err


def test_nf_factors_reparse_to_same_braid(capsys):
    # positive word keeps inf >= 0 so the printed factors alone rebuild it
    code, out, _ = run(capsys, "nf", "4", "2 1 3 2 2 1 3")
    assert code == 0
    line = out.strip()
    inf = int(line.split()[0].split("=")[1])
    assert inf >= 0
    delta = "1 2 3 1 2 1 "
    rebuilt = delta * inf + " ".join(
        part for part in line.split("factors=")[1].split(";") if part
    )
    code2, out2, _ = run(capsys, "eq", "4", "2 1 3 2 2 1 3", rebuilt)
    assert (code2, out2) == (0, "equal=true\n")


def test_search_and_validate_pipe(capsys, tmp_path):
    code, out, _ = run(capsys, "search", "3", "3,1,1,1", "--bound", "4")
    assert code == 0 and out == CUBIC_FACT
    code, out, _ = run(capsys, "search", "3", "2,1,1,1")
    assert code == 1 and out == "result=none\n"
    code, out, _ = run(capsys, "search", "3", "3,1,1,1", "--max-nodes", "2")
    assert code == 2 and out == "result=inconclusive\n"


def test_move_round_trip(capsys, cubic_file, tmp_path):
    code, out, _ = run(capsys, "move", cubic_file, "1")
    assert code == 0
    moved = tmp_path / "moved.fact"
    moved.write_text(out)
    code, out2, _ = run(capsys, "move", str(moved), "1", "--direction", "right")
    assert code == 0 and out2 == CUBIC_FACT


def test_conjugate_validates(capsys, cubic_file, tmp_path):
    code, out, _ = run(capsys, "conjugate", cubic_file, "1 2")
    assert code == 0
    conj = tmp_path / "conj.fact"
    conj.write_text(out)
    code, out, _ = run(capsys, "validate", str(conj))
    assert code == 0


def test_fingerprint_fields(capsys, cubic_file):
    code, out, _ = run(capsys, "fingerprint", cubic_file)
    assert code == 0
    assert "strands=3" in out and "s_multiset=1,1,1,3" in out
    assert "conj_keys" not in out
    code, out, _ = run(capsys, "fingerprint", cubic_file, "--conj-budget", "2000")
    # keys are kernel tuples (0-based images), written 1-based
    assert out.splitlines()[-1] == "conj_keys=0:1.3.2;0:1.3.2;0:1.3.2;0:1.3.2-1.3.2-1.3.2"


@pytest.mark.parametrize("strands, target", [(1, "full_twist"), (3, "word=")])
def test_fingerprint_of_no_factors_is_cuspidal(capsys, tmp_path, strands, target):
    fact = tmp_path / "empty.fact"
    fact.write_text(f"strands {strands}\ntarget {target}\n")
    assert run(capsys, "validate", str(fact)) == (0, "product_ok=true n1=0 n2=0 n3=0\n", "")
    code, out, _ = run(capsys, "fingerprint", str(fact))
    assert code == 0 and "s_multiset=\n" in out


def test_fingerprint_validates_once(capsys, monkeypatch, cubic_file, tmp_path):
    calls = []

    def counting_validate(F):
        calls.append(F)
        return validate(F)

    for module in (cli, equivalence):
        monkeypatch.setattr(module, "validate", counting_validate)
    assert run(capsys, "fingerprint", cubic_file)[0] == 0
    assert len(calls) == 1
    bad = tmp_path / "bad.fact"
    bad.write_text("strands 2\ntarget full_twist\nfactor s=1 rho=\n")
    code, out, err = run(capsys, "fingerprint", str(bad))
    assert (code, out) == (1, "")
    assert err == "error: factorization does not validate\n"


def test_decide_verdicts(capsys, cubic_file, conic_file, tmp_path):
    code, out, _ = run(capsys, "decide", cubic_file, cubic_file)
    assert code == 0 and out.startswith("outcome equivalent\n")

    six = tmp_path / "six.fact"
    six.write_text(
        "strands 3\ntarget full_twist\n" + "factor s=1 rho=\n" * 4
        + "factor s=1 rho=-2\nfactor s=1 rho=2\n"
    )
    code, out, _ = run(capsys, "decide", cubic_file, str(six))
    assert code == 1 and "outcome distinguished" in out and "factor_count" in out

    code, out, _ = run(capsys, "conjugate", cubic_file, "1 1 1 2 2 2")
    assert code == 0
    far = tmp_path / "far.fact"
    far.write_text(out)
    code, out, _ = run(
        capsys, "decide", cubic_file, str(far), "--max-states", "2", "--conj-bound", "1"
    )
    assert code == 2 and "outcome inconclusive" in out


def test_pi1_order_homs_pipeline(capsys, conic_file, tmp_path):
    code, out, _ = run(capsys, "pi1", conic_file)
    assert code == 0 and out == "2\n1 -2\n1 -2\n1 2\n"
    pres = tmp_path / "conic.pres"
    pres.write_text(out)
    code, out, _ = run(capsys, "order", str(pres))
    assert code == 0 and out == "order=2\n"
    code, out, _ = run(capsys, "homs", str(pres), "2", "--epi")
    assert code == 0 and out.endswith("count=1\n")
    code, out, _ = run(capsys, "homs", str(pres), "3", "--epi")
    assert code == 0 and out == "count=0\n"


def test_pi1_simplify_flag(capsys, conic_file):
    code, out, _ = run(capsys, "pi1", conic_file, "--simplify", "100")
    assert code == 0 and out == "1\n1 1\n"


def test_order_unknown_is_inconclusive(capsys, tmp_path):
    pres = tmp_path / "trefoil.pres"
    pres.write_text(TREFOIL_PRES)
    code, out, _ = run(capsys, "order", str(pres), "--budget", "500")
    assert code == 2 and out == "order=unknown\n"


def test_order_of_a_wide_free_factor_is_unknown_at_once(capsys, tmp_path):
    # 1024 generators, relators x_1 .. x_1023: the group is Z, and the
    # exponent-sum rank shows it before any coset table is built
    pres = tmp_path / "wide.pres"
    pres.write_text("1024\n" + "".join(f"{i}\n" for i in range(1, 1024)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "order", str(pres))
    assert code == 2 and out == "order=unknown\n"
    assert time.perf_counter() - start < 5


def test_order_of_wide_involutions_stops_at_the_cell_budget(capsys, tmp_path):
    # 256 generators, relators x_i x_i: a free product of copies of Z/2,
    # infinite with a finite abelianization, so the coset table runs out;
    # it stops at 4 * budget cells, not at budget rows of 512 cells each
    text = "256\n" + "".join(f"{i} {i}\n" for i in range(1, 257))
    assert group_order(parse_presentation(text)) is None
    pres = tmp_path / "involutions.pres"
    pres.write_text(text)
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "order", str(pres))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "order=unknown\n"
    assert peak < 4 * 2**20


def test_arrangement_output(capsys):
    code, out, _ = run(capsys, "arrangement")
    lines = out.strip().split("\n")
    assert code == 0 and len(lines) == 12
    assert all(l.endswith("mult=3") for l in lines)
    assert "1:1:1 mult=3" in lines
    code, out2, _ = run(capsys, "arrangement", "--format=structured")
    assert out2.count("point=") == 12


def test_invariants_below_range_warns(capsys):
    code, out, err = run(capsys, "invariants", "2")
    assert code == 0 and out.startswith("2\t") and "warning" in err
    code, out, err = run(capsys, "invariants", "5")
    assert err == ""


def test_invariants_structured(capsys):
    code, out, _ = run(capsys, "invariants", "--format=structured", "5")
    assert code == 0
    assert "m=5\n" in out and "delta=354644112\n" in out and "in_standard_range=true" in out


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "nosuchcommand")[0] == 64
    assert run(capsys)[0] == 64
    assert run(capsys, "nf", "x", "1")[0] == 64
    assert run(capsys, "nf", "3", "1 0")[0] == 64
    assert run(capsys, "fulltwist")[0] == 64
    assert run(capsys, "invariants", "0")[0] == 64
    assert run(capsys, "search", "3", "banana")[0] == 64
    assert run(capsys, "search", "3", "7,1")[0] == 64
    assert run(capsys, "eq", "3", "1", "4")[0] == 64


def test_order_nonpositive_budget_is_usage_error(capsys, tmp_path):
    pres = tmp_path / "trefoil.pres"
    pres.write_text(TREFOIL_PRES)
    for budget in ("0", "-5"):
        code, out, err = run(capsys, "order", str(pres), "--budget", budget)
        assert (code, out) == (64, "")
        assert err == "usage error: budget must be positive\n"


def test_negative_skip_budgets_are_usage_errors(capsys, cubic_file):
    # 0 skips the step; a negative value is refused like every other budget
    for argv in (("pi1", cubic_file, "--simplify"), ("fingerprint", cubic_file, "--conj-budget")):
        code, out, err = run(capsys, *argv, "-5")
        assert (code, out) == (64, ""), argv
        assert err.startswith("usage error: ") and "-5" in err, argv
        assert run(capsys, *argv, "0")[0] == 0, argv


def test_move_bad_index_is_usage_error(capsys, cubic_file):
    assert run(capsys, "move", cubic_file, "9")[0] == 64
    assert run(capsys, "move", cubic_file, "0")[0] == 64


def test_move_without_an_adjacent_pair_is_usage_error(capsys, tmp_path):
    for r, text in enumerate(("", "factor s=1 rho=\n")):
        path = tmp_path / f"r{r}.fact"
        path.write_text("strands 2\ntarget full_twist\n" + text)
        code, out, err = run(capsys, "move", str(path), "1")
        assert (code, out) == (64, ""), r
        assert err == f"usage error: no adjacent pair of factors to move (r = {r})\n"


def test_malformed_files_exit_65(capsys, tmp_path):
    assert run(capsys, "validate", str(tmp_path / "missing.fact"))[0] == 65
    bad = tmp_path / "bad.fact"
    bad.write_text("strands 2\ntarget full_twist\nfactor s=9 rho=\n")
    assert run(capsys, "validate", str(bad))[0] == 65
    badpres = tmp_path / "bad.pres"
    badpres.write_text("x\n")
    assert run(capsys, "order", str(badpres))[0] == 65
    garbled = tmp_path / "garbled.fact"
    garbled.write_text("strands 3\ntarget full_twist\nfactor s=1 rho=0\n")
    assert run(capsys, "fingerprint", str(garbled))[0] == 65


def test_counts_past_the_cap_in_files_exit_65(capsys, tmp_path):
    fact = tmp_path / "huge.fact"
    fact.write_text("strands 3000000\ntarget full_twist\n")
    pres = tmp_path / "huge.pres"
    pres.write_text("3000000000\n1 2\n")
    for argv in (
        ("validate", str(fact)),
        ("pi1", str(fact)),
        ("order", str(pres)),
        ("homs", str(pres), "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (65, "") and "count must be" in err, argv


def test_pi1_unusable_factorization_is_input_error(capsys, tmp_path):
    not_validating = "strands 3\ntarget full_twist\nfactor s=1 rho=\nfactor s=1 rho=\n"
    generic = "strands 2\ntarget full_twist\nfactor word=1\nfactor word=1\n"
    for text in (not_validating, generic):
        f = tmp_path / "in.fact"
        f.write_text(text)
        code, _, err = run(capsys, "pi1", str(f))
        assert code == 65 and err.startswith("input error: ") and "Traceback" not in err


def test_decide_non_validating_file_is_input_error(capsys, tmp_path, cubic_file, conic_file):
    # well formed, but the two factors multiply to sigma_1^2, not the full
    # twist of B_3: the file is at fault, as pi1 says for the same file
    bad = tmp_path / "bad.fact"
    bad.write_text("strands 3\ntarget full_twist\nfactor s=1 rho=\nfactor s=1 rho=\n")
    for argv in (("decide", str(bad), str(bad)), ("decide", cubic_file, str(bad)), ("pi1", str(bad))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (65, ""), argv
        assert err == "input error: factorization does not validate\n", argv
    # the call's own faults stay usage errors
    for argv in (
        ("decide", cubic_file, cubic_file, "--max-states", "0"),
        ("decide", cubic_file, cubic_file, "--conj-bound", "0"),
        ("decide", cubic_file, cubic_file, "--nf-bound", "0"),
        ("decide", cubic_file, conic_file),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "") and err.startswith("usage error: "), argv


def test_python_m_braidfact_runs_the_cli():
    src = str(Path(braidfact.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "braidfact", "nf", "3", "1 2 1"],
        capture_output=True, text=True, timeout=30, env={"PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "inf=1 factors=\n", "")
    done = subprocess.run(
        [sys.executable, "-m", "braidfact", "nf", "0", "1"],
        capture_output=True, text=True, timeout=30, env={"PYTHONPATH": src},
    )
    assert done.returncode == 64 and done.stderr.startswith("usage error: ")


ONE_STRAND_CUSPIDAL = "strands 1\ntarget full_twist\nfactor s=1 rho=\n"


def test_one_strand_cuspidal_file_is_input_error(capsys, tmp_path):
    f = tmp_path / "one.fact"
    f.write_text(ONE_STRAND_CUSPIDAL)
    for argv in (
        ("validate", str(f)),
        ("move", str(f), "1"),
        ("conjugate", str(f), ""),
        ("fingerprint", str(f)),
        ("decide", str(f), str(f)),
        ("pi1", str(f)),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 65 and err.startswith("input error: "), (argv, code, err)


def test_fulltwist_nonpositive_strands_is_usage_error(capsys):
    for strands in ("0", "-2"):
        code, _, err = run(capsys, "fulltwist", strands)
        assert code == 64 and "Traceback" not in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "search", "--help")[0] == 0


# Each subcommand and the library function its handler calls, by the name
# cli binds it to; FACT is the cuspidal cubic and PRES a presentation.
LIBRARY_CALLS = (
    (("nf", "3", "1"), "canonical_form"),
    (("eq", "3", "1", "1"), "equals"),
    (("fulltwist", "3"), "full_twist"),
    (("validate", "FACT"), "validate"),
    (("move", "FACT", "1"), "hurwitz_move"),
    (("conjugate", "FACT", "1"), "conjugate_all"),
    (("search", "3", "3,1,1,1"), "search_factorization"),
    (("fingerprint", "FACT"), "fingerprint"),
    (("decide", "FACT", "FACT"), "decide_equivalence"),
    (("pi1", "FACT"), "zvk_presentation"),
    (("homs", "PRES", "2"), "enumerate_homs"),
    (("order", "PRES"), "group_order"),
    (("arrangement",), "intersection_lattice"),
    (("invariants", "5"), "branch_curve_invariants"),
)


@pytest.mark.parametrize("command, name", LIBRARY_CALLS, ids=[c[0] for c, _ in LIBRARY_CALLS])
def test_main_maps_library_errors_to_exit_codes(capsys, monkeypatch, cubic_file, tmp_path, command, name):
    pres = tmp_path / "trefoil.pres"
    pres.write_text(TREFOIL_PRES)
    argv = [{"FACT": cubic_file, "PRES": str(pres)}.get(arg, arg) for arg in command]

    def run_raising(error):
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, name, fail)
        return run(capsys, *argv)

    assert run_raising(ValueError) == (64, "", "usage error: boom\n")
    if command[0] in ("decide", "pi1"):
        assert run_raising(ValidationError) == (65, "", "input error: boom\n")
    if command[0] == "fingerprint":
        assert run_raising(ValidationError) == (1, "", "error: factorization does not validate\n")


# Every integer argument, with N standing for a drawn value; FACT is the
# cuspidal cubic and PRES a two-generator presentation.
CONTRACT_COMMANDS = (
    ("nf", "N", "1 2 -1"),
    ("eq", "N", "1 2 1", "2 1 2"),
    ("fulltwist", "N"),
    ("move", "FACT", "N"),
    ("fingerprint", "FACT", "--conj-budget", "N"),
    ("decide", "FACT", "FACT", "--max-states", "N"),
    ("decide", "FACT", "FACT", "--nf-bound", "N"),
    ("decide", "FACT", "FACT", "--conj-bound", "N"),
    ("pi1", "FACT", "--simplify", "N"),
    ("homs", "PRES", "N"),
    ("order", "PRES", "--budget", "N"),
    ("invariants", "N"),
)


# The fixture files are only read, so one copy serves every example.
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command=st.sampled_from(CONTRACT_COMMANDS), n=st.integers(-3, 5))
@example(command=("order", "PRES", "--budget", "N"), n=0)
@example(command=("nf", "N", "1 2 -1"), n=10**14)
@example(command=("eq", "N", "1 2 1", "2 1 2"), n=10**14)
@example(command=("fulltwist", "N"), n=10**14)
def test_cli_integer_arguments_keep_exit_contract(capsys, cubic_file, tmp_path, command, n):
    pres = tmp_path / "trefoil.pres"
    pres.write_text(TREFOIL_PRES)
    names = {"N": str(n), "FACT": cubic_file, "PRES": str(pres)}
    code, _, err = run(capsys, *(names.get(arg, arg) for arg in command))
    assert code in (0, 1, 2, 64, 65), (command, n, code)
    assert "Traceback" not in err
    assert err.startswith(ERROR_PREFIX.get(code, "")), (command, n, code, err)


def test_strand_count_outside_bound_is_usage_error(capsys):
    for command in (("nf", "N", "1"), ("eq", "N", "1", "1"), ("fulltwist", "N"), ("search", "N", "3,1")):
        for n in ("0", "1025", "99999999999999", "x"):
            code, out, err = run(capsys, *(n if arg == "N" else arg for arg in command))
            assert (code, out) == (64, "") and "strand count" in err, (command, n)
    assert run(capsys, "nf", "1024", "1023 -1")[0] == 0


@st.composite
def cli_word(draw, d):
    """A word for B_d as typed on the command line, and whether every token
    is a letter of B_d.  Most tokens are letters; the rest are zero, letters
    out of range, 20-digit integers and tokens that are not integers."""
    valid = [str(sign * g) for g in range(1, d) for sign in (1, -1)]
    huge = draw(st.sampled_from((1, -1))) * draw(st.integers(10**19, 10**20 - 1))
    junk = ["0", str(d), str(-d - 2), str(huge), "x", "1.5", "--", "1,2"]
    tokens = draw(st.lists(st.sampled_from(valid * 6 + junk), max_size=8))
    return " ".join(tokens), all(t in valid for t in tokens)


def nf_line(d, text):
    inf, perms = canonical_form(BraidWord(d, tuple(int(t) for t in text.split())))
    factors = ";".join(" ".join(map(str, _simple_letters(p))) for p in perms)
    return f"inf={inf} factors={factors}\n"


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data(), d=st.integers(1, 5))
def test_cli_words_keep_exit_contract(capsys, data, d):
    u, u_valid = data.draw(cli_word(d))
    v, v_valid = data.draw(cli_word(d))
    code, out, err = run(capsys, "nf", str(d), u)
    assert code in (0, 1, 64) and "Traceback" not in err, (d, u, code)
    if u_valid:
        assert (code, out) == (0, nf_line(d, u)), (d, u)
    code, out, err = run(capsys, "eq", str(d), u, v)
    assert code in (0, 1, 64) and "Traceback" not in err, (d, u, v, code)
    if u_valid and v_valid:
        U, V = (BraidWord(d, tuple(int(t) for t in w.split())) for w in (u, v))
        assert code == (0 if equals(U, V) else 1), (d, u, v)


@st.composite
def presentation_text(draw):
    """A generator count (or junk), then up to 3 relator lines.  Most lines
    use only generators in range; the rest mix in zero letters, generators
    out of range and tokens that are not integers."""
    ngens = draw(st.integers(0, 3))
    good = [str(sign * g) for g in range(1, ngens + 1) for sign in (1, -1)] or [""]
    bad = good + ["0", str(ngens + 1), str(-ngens - 1), "x", "1.5", "--"]
    lines = [draw(st.sampled_from((str(ngens),) * 5 + ("-1", "x", "2 1")))]
    for _ in range(draw(st.integers(0, 3))):
        tokens = draw(st.sampled_from((good, good, good, bad)))
        lines.append(" ".join(draw(st.lists(st.sampled_from(tokens), max_size=4))))
    return "\n".join(lines) + "\n"


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    text=presentation_text(),
    n=st.sampled_from((-1, 0, 1, 2, 3, 4, 8)),
    epi=st.booleans(),
    all_=st.booleans(),
)
@example(text="3\n", n=4, epi=False, all_=True)  # the largest search these bounds allow
def test_homs_presentation_files_keep_exit_contract(capsys, tmp_path, text, n, epi, all_):
    pres = tmp_path / "fuzz.pres"
    pres.write_text(text)
    argv = ["homs", str(pres), str(n)] + ["--epi"] * epi + ["--all"] * all_
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2, 64, 65), (text, argv, code)
    assert "Traceback" not in err


@st.composite
def factorization_text(draw):
    """A strand line (or junk), a target line, then up to 4 factor lines.
    Most factor lines are cuspidal with a short rho in range; the rest are
    generic words, bad s values, letters out of range and junk lines."""
    d = draw(st.integers(0, 4))
    good = [str(sign * k) for k in range(1, d) for sign in (1, -1)] or [""]
    bad = good + ["0", str(d), str(-d), "x"]

    def word():
        tokens = draw(st.sampled_from((good, good, good, bad)))
        return " ".join(draw(st.lists(st.sampled_from(tokens), max_size=3)))

    lines = [draw(st.sampled_from((f"strands {d}",) * 5 + ("strands x", "strands")))]
    lines.append(draw(st.sampled_from(("target full_twist",) * 4 + ("target word=", "target x"))))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("cusp", "cusp", "cusp", "word", "junk")))
        if kind == "cusp":
            s = draw(st.sampled_from(("1", "1", "2", "3", "0", "4", "x")))
            lines.append(f"factor s={s} rho={word()}")
        elif kind == "word":
            lines.append(f"factor word={word()}")
        else:
            lines.append(draw(st.sampled_from(("factor", "factor s=1", "# note", "bogus"))))
    return "\n".join(lines) + "\n"


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=factorization_text(), conjugator=st.sampled_from(("", "1", "-2 1")))
@example(text=ONE_STRAND_CUSPIDAL, conjugator="")
@example(text=CONIC_FACT, conjugator="1")  # a file that validates
@example(text=CUBIC_FACT, conjugator="-2 1")
def test_factorization_files_keep_exit_contract(capsys, cubic_file, tmp_path, text, conjugator):
    f = tmp_path / "fuzz.fact"
    f.write_text(text)
    fact = str(f)
    for argv in (
        ("validate", fact),
        ("move", fact, "1"),
        ("conjugate", fact, conjugator),
        ("fingerprint", fact, "--conj-budget", "5"),
        ("pi1", fact),
        ("decide", fact, fact, "--max-states", "5"),
        ("decide", fact, cubic_file, "--max-states", "5"),
    ):
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 64, 65), (text, argv, code)
        assert "Traceback" not in err
        assert err.startswith(ERROR_PREFIX.get(code, "")), (text, argv, code, err)
    if validates_as_cuspidal_full_twist(text):  # every command can use it
        for argv in (
            ("validate", fact),
            ("fingerprint", fact, "--conj-budget", "5"),
            ("pi1", fact),
            ("decide", fact, fact),
        ):
            assert run(capsys, *argv)[0] == 0, (text, argv)


def validates_as_cuspidal_full_twist(text):
    try:
        F = parse_factorization(text)
    except FormatError:
        return False
    return F.is_cuspidal and equals(F.target, full_twist(F.strands)) and validate(F).ok


@st.composite
def moved_factorization_text(draw):
    """CONIC_FACT or CUBIC_FACT after up to 3 Hurwitz moves and then a
    simultaneous conjugation by a word of at most 2 letters: a file that
    validates.  Quartics are left out, since pi1 has no bound on moved
    quartics yet."""
    F = parse_factorization(draw(st.sampled_from((CONIC_FACT, CUBIC_FACT))))
    d = F.strands
    for _ in range(draw(st.integers(0, 3))):
        F = hurwitz_move(F, draw(st.integers(1, F.r - 1)), draw(st.sampled_from(("left", "right"))))
    letters = [k for k in range(1 - d, d) if k]
    z = BraidWord(d, tuple(draw(st.lists(st.sampled_from(letters), max_size=2))))
    return format_factorization(conjugate_all(F, z))


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=moved_factorization_text())
def test_moved_factorization_files_keep_exit_contract(capsys, cubic_file, conic_file, tmp_path, text):
    f = tmp_path / "moved.fact"
    f.write_text(text)
    fact = str(f)
    assert validates_as_cuspidal_full_twist(text), text
    base = cubic_file if parse_factorization(text).strands == 3 else conic_file
    for argv, codes in (
        (("validate", fact), (0,)),
        (("move", fact, "1"), (0,)),
        (("move", fact, "1", "--direction", "right"), (0,)),
        (("fingerprint", fact, "--conj-budget", "200"), (0,)),
        (("pi1", fact), (0,)),
        (("decide", fact, fact), (0,)),
        # moves and a conjugation never give "distinguished" (exit 1)
        (("decide", fact, base, "--max-states", "50"), (0, 2)),
    ):
        code, out, err = run(capsys, *argv)
        assert code in codes, (text, argv, code, err)
        assert err == "" and out, (text, argv)


@st.composite
def search_argv(draw):
    """search with a strand count, a profile and bounds as typed.  Profiles
    are short lists of s-values mixed with bad values, or long runs of ones,
    one of them (3540 for 60 strands) passing the exponent check; the node
    budget is always small, so every example ends quickly."""
    strands = draw(st.sampled_from(("1", "2", "3", "4", "60", "1024", "0", "1025", "x")))
    if draw(st.booleans()):
        profile = ",".join(["1"] * draw(st.sampled_from((0, 2, 3540, 100_000))))
    else:
        tokens = ("1", "1", "2", "3", "0", "4", "-1", "x", "1.5", "", "9" * 20)
        sep = draw(st.sampled_from((",", " ", ", ")))
        profile = sep.join(draw(st.lists(st.sampled_from(tokens), max_size=8)))
    bound = draw(st.sampled_from(("-1", "0", "1", "2", "3", "50", str(10**9), "x")))
    nodes = draw(st.sampled_from(("-1", "0", "1", "10", "200", "x")))
    return ["search", strands, profile, "--bound", bound, "--max-nodes", nodes]


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=search_argv())
@example(argv=["search", "60", ",".join(["1"] * 3540), "--bound", "2", "--max-nodes", "10"])
@example(argv=["search", "60", ",".join(["1"] * 3540), "--bound", "0", "--max-nodes", "10"])
@example(argv=["search", "3", "3,1,1,1", "--bound", "50", "--max-nodes", "200"])
@example(argv=["search", "3", "", "--bound", "1", "--max-nodes", "10"])
def test_search_profiles_keep_exit_contract(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2, 64), (argv, code)
    assert "Traceback" not in err
    if code == 0:
        assert validate(parse_factorization(out)).ok, argv


def test_max_nodes_bounds_conjugator_enumeration():
    # 118^3 words of length <= 3 in B_60: enumerating them all first takes
    # minutes, while the budget of 10 nodes runs out after 10 candidates.
    src = str(Path(braidfact.__file__).resolve().parents[1])
    ones = ",".join(["1"] * 3540)
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from braidfact.cli import main; sys.exit(main())",
         "search", "60", ones, "--bound", "3", "--max-nodes", "10"],
        capture_output=True, text=True, timeout=30, env={"PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout) == (2, "result=inconclusive\n"), done.stderr
