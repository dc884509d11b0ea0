"""Command-line surface: one subcommand per library operation.

Every subcommand is a pure function of its arguments and input files.
Exit codes: 0 success / positive verdict, 1 negative verdict (unequal
words, failed validation, nothing found, distinguished), 2 inconclusive
(budget exhausted), 64 usage error, 65 malformed or unreadable input
file, or one that does not validate where a command needs it to (decide,
pi1).  Handlers return 0, 1 or 2; `main` alone maps errors to 64 and 65.
``--format=structured`` turns the compact result lines (nf, eq,
fulltwist, validate, order, arrangement, invariants, search's result=)
into one key=value field per line; other output ignores it.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .braid import (
    MAX_STRANDS,
    BraidWord,
    _simple_letters,
    canonical_form,
    equals,
    format_word,
    full_twist,
    parse_word,
)
from .complement import (
    HOMS_MAX_WORK,
    enumerate_homs,
    format_homs,
    format_presentation,
    group_order,
    parse_presentation,
    simplify,
    zvk_presentation,
)
from .equivalence import SearchBudget, decide_equivalence, fingerprint, format_verdict
from .errors import FormatError, SearchBudgetExceeded, ValidationError
from .factorization import (
    conjugate_all,
    format_factorization,
    hurwitz_move,
    parse_factorization,
    search_factorization,
    validate,
)
from .geometry import (
    branch_curve_invariants,
    format_arrangement,
    format_invariants,
    hesse_dual_lines,
    intersection_lattice,
)

EX_USAGE = 64
EX_DATAERR = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the table says 64
        raise _UsageError(message)


def _strands(text: str) -> int:
    """argparse type of every strand count: an integer in 1..MAX_STRANDS,
    checked before anything of that size is allocated."""
    try:
        d = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid strand count {text!r}") from None
    if not 1 <= d <= MAX_STRANDS:
        raise argparse.ArgumentTypeError(f"strand count must be in 1..{MAX_STRANDS}, got {d}")
    return d


def _nonnegative(text: str) -> int:
    """argparse type of a budget whose 0 means skip: an integer >= 0."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return n


def _bool(x) -> str:
    return "true" if x else "false"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror or e}") from None


def _load_factorization(path: str):
    return parse_factorization(_read_text(path))


def _load_presentation(path: str):
    return parse_presentation(_read_text(path))


def _arg_word(text: str, strands: int) -> BraidWord:
    # word given on the command line, so malformed means usage, not data
    try:
        return parse_word(text, strands)
    except FormatError as e:
        raise _UsageError(str(e)) from None


def _emit(args, pairs, plain: str | None = None) -> None:
    """pairs in structured mode, one per line; `plain` overrides plain mode."""
    if args.format == "structured" or plain is None:
        print("\n".join(f"{k}={v}" for k, v in pairs))
    else:
        print(plain)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_nf(args) -> int:
    w = _arg_word(args.word, args.strands)
    inf, perms = canonical_form(w)
    factors = ";".join(" ".join(str(l) for l in _simple_letters(p)) for p in perms)
    _emit(args, [("inf", inf), ("factors", factors)], f"inf={inf} factors={factors}")
    return 0


def _cmd_eq(args) -> int:
    u = _arg_word(args.word1, args.strands)
    v = _arg_word(args.word2, args.strands)
    same = equals(u, v)
    _emit(args, [("equal", _bool(same))], f"equal={_bool(same)}")
    return 0 if same else 1


def _cmd_fulltwist(args) -> int:
    text = format_word(full_twist(args.strands))
    _emit(args, [("word", text)], text)
    return 0


def _cmd_validate(args) -> int:
    report = validate(_load_factorization(args.file))
    pairs = [("product_ok", _bool(report.product_ok))]
    plain = f"product_ok={_bool(report.product_ok)}"
    if report.counts is not None:
        c = report.counts
        pairs += [("n1", c.n1), ("n2", c.n2), ("n3", c.n3)]
        plain += f" n1={c.n1} n2={c.n2} n3={c.n3}"
    if report.exponent_ok is not None:
        pairs.append(("exponent_ok", _bool(report.exponent_ok)))
    _emit(args, pairs, plain)
    return 0 if report.ok else 1


def _cmd_move(args) -> int:
    F = _load_factorization(args.file)
    try:
        G = hurwitz_move(F, args.index, args.direction)
    except IndexError as e:
        raise _UsageError(str(e)) from None
    sys.stdout.write(format_factorization(G))
    return 0


def _cmd_conjugate(args) -> int:
    F = _load_factorization(args.file)
    z = _arg_word(args.word, F.strands)
    sys.stdout.write(format_factorization(conjugate_all(F, z)))
    return 0


def _cmd_search(args) -> int:
    try:
        profile = [int(x) for x in args.profile.replace(",", " ").split()]
    except ValueError:
        raise _UsageError(f"bad profile {args.profile!r}") from None
    try:
        F = search_factorization(
            args.strands, profile, args.bound, max_nodes=args.max_nodes
        )
    except SearchBudgetExceeded:
        _emit(args, [("result", "inconclusive")], "result=inconclusive")
        return 2
    if F is None:
        _emit(args, [("result", "none")], "result=none")
        return 1
    sys.stdout.write(format_factorization(F))
    return 0


def _format_conj_key(entry) -> str:
    """inf:factors, each factor's 0-based images written 1-based."""
    if entry[0] == "unknown":
        return "unknown"
    inf, perms = entry[1]
    return f"{inf}:" + "-".join(".".join(str(i + 1) for i in p) for p in perms)


def _cmd_fingerprint(args) -> int:
    F = _load_factorization(args.file)
    try:
        fp = fingerprint(F, conjugacy_budget=args.conj_budget)
    except ValidationError:
        print("error: factorization does not validate", file=sys.stderr)
        return 1
    pairs = [
        ("strands", fp.strands),
        ("factors", fp.factor_count),
        ("exponent_sum", fp.exponent_sum),
        ("s_multiset", "none" if fp.s_multiset is None else ",".join(map(str, fp.s_multiset))),
        ("cycle_types", ";".join(",".join(str(i) for i in t) for t in fp.cycle_types)),
    ]
    if fp.conjugacy_keys is not None:
        pairs.append(
            ("conj_keys", ";".join(_format_conj_key(k) for k in fp.conjugacy_keys))
        )
    _emit(args, pairs)
    return 0


def _cmd_decide(args) -> int:
    F1 = _load_factorization(args.file1)
    F2 = _load_factorization(args.file2)
    budget = SearchBudget(
        max_states=args.max_states,
        max_factor_nf_length=args.nf_bound,
        conjugator_length_bound=args.conj_bound,
    )
    verdict = decide_equivalence(F1, F2, budget)
    sys.stdout.write(format_verdict(verdict))
    return {"equivalent": 0, "distinguished": 1}.get(verdict.outcome, 2)


def _cmd_pi1(args) -> int:
    P = zvk_presentation(_load_factorization(args.file))
    if args.simplify > 0:
        P = simplify(P, budget=args.simplify)
    sys.stdout.write(format_presentation(P))
    return 0


def _cmd_homs(args) -> int:
    P = _load_presentation(args.file)
    try:
        homs = enumerate_homs(
            P, args.n, up_to_conjugacy=not args.all, epi_only=args.epi
        )
    except SearchBudgetExceeded:
        print("count=unknown")
        print(f"note: the search ran out of its {HOMS_MAX_WORK} units of work", file=sys.stderr)
        return 2
    out = format_homs(homs)
    if out:
        sys.stdout.write(out)
    print(f"count={len(homs)}")
    return 0


def _cmd_order(args) -> int:
    n = group_order(_load_presentation(args.file), budget=args.budget)
    if n is None:
        _emit(args, [("order", "unknown")], "order=unknown")
        return 2
    _emit(args, [("order", n)], f"order={n}")
    return 0


def _cmd_arrangement(args) -> int:
    lattice = intersection_lattice(hesse_dual_lines())
    pairs = [("point", f"{p} mult={k}") for p, k in lattice]
    _emit(args, pairs, format_arrangement(lattice).rstrip("\n"))
    return 0


def _cmd_invariants(args) -> int:
    inv = branch_curve_invariants(args.m)
    if not inv.in_standard_range:
        print(f"warning: m={inv.m} is below the standard range m >= 5", file=sys.stderr)
    pairs = [(name, getattr(inv, name)) for name in ("m", "deg_f", "d", "g", "kappa", "n1", "delta")]
    pairs.append(("in_standard_range", _bool(inv.in_standard_range)))
    _emit(args, pairs, format_invariants(inv).rstrip("\n"))
    return 0


# ---------------------------------------------------------------------------
# parser


@cache  # one parser per process: main is called many times in one process
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="braidfact", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument(
            "--format",
            choices=("plain", "structured"),
            default="plain",
            help="plain: compact documented lines; structured: key=value per line",
        )
        return p

    p = add("nf", _cmd_nf, "left-greedy normal form of a braid word")
    p.add_argument("strands", type=_strands)
    p.add_argument("word", help='braid word, e.g. "1 2 -1"')

    p = add("eq", _cmd_eq, "decide equality of two braid words")
    p.add_argument("strands", type=_strands)
    p.add_argument("word1")
    p.add_argument("word2")

    p = add("fulltwist", _cmd_fulltwist, "the full-twist word on d strands")
    p.add_argument("strands", type=_strands)

    p = add("validate", _cmd_validate, "check a factorization file against its target")
    p.add_argument("file")

    p = add("move", _cmd_move, "apply one Hurwitz move to a factorization file")
    p.add_argument("file")
    p.add_argument("index", type=int)
    p.add_argument("--direction", choices=("left", "right"), default="left")

    p = add("conjugate", _cmd_conjugate, "conjugate every factor by one braid word")
    p.add_argument("file")
    p.add_argument("word")

    p = add("search", _cmd_search, "search for a cuspidal factorization of the full twist")
    p.add_argument("strands", type=_strands)
    p.add_argument("profile", help='s-values, e.g. "3,1,1,1"')
    p.add_argument("--bound", type=int, default=4, help="conjugator length bound (default 4)")
    p.add_argument(
        "--max-nodes", type=int, default=2_000_000, help="search node budget (default 2000000)"
    )

    p = add("fingerprint", _cmd_fingerprint, "move-and-conjugation invariants of a factorization")
    p.add_argument("file")
    p.add_argument(
        "--conj-budget",
        type=_nonnegative,
        default=0,
        help="per-factor conjugacy work budget; 0 skips conjugacy keys (default 0)",
    )

    p = add("decide", _cmd_decide, "decide equivalence of two factorization files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument(
        "--max-states", type=int, default=2000, help="orbit-state and conjugator cap (default 2000)"
    )
    p.add_argument(
        "--nf-bound",
        type=int,
        default=None,
        help="canonical-length bound per factor (default 2x the largest input factor)",
    )
    p.add_argument(
        "--conj-bound", type=int, default=3, help="conjugator length bound (default 3)"
    )

    p = add("pi1", _cmd_pi1, "complement-group presentation of a factorization")
    p.add_argument("file")
    p.add_argument(
        "--simplify", type=_nonnegative, default=0, help="simplification budget; 0 leaves raw (default 0)"
    )

    p = add("homs", _cmd_homs, "homomorphisms of a presentation into S_n")
    p.add_argument("file")
    p.add_argument("n", type=int)
    p.add_argument("--epi", action="store_true", help="surjections only")
    p.add_argument("--all", action="store_true", help="list all, not one per conjugacy class")

    p = add("order", _cmd_order, "group order by coset enumeration")
    p.add_argument("file")
    p.add_argument(
        "--budget",
        type=int,
        default=10000,
        metavar="N",
        help="N coset rows, or 4N table cells if fewer (default 10000)",
    )

    add("arrangement", _cmd_arrangement, "intersection lattice of the nine-line arrangement")

    p = add("invariants", _cmd_invariants, "branch-curve invariants for index m")
    p.add_argument("m", type=int)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place an error becomes an exit code.

    Handlers report results and let library errors through: a malformed,
    unreadable or non-validating input file exits 65, and any other
    ValueError, like a bad argument, exits 64."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # --help prints and exits 0
        return 0 if not e.code else int(e.code)
    except (FormatError, ValidationError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EX_DATAERR
    except (_UsageError, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
