"""Command-line front end.

Subcommands: validate, words, ktheory, duality, fock-verify, lemma-verify,
pairing.  Exit codes: 0 = all requested checks hold, 1 = checks ran and
defects were found, 2 = input error, 3 = internal error (an unexpected
exception; its traceback goes to stderr).  Finding defects is a success mode
of the tool - the general-matrix corrections to the vacuum-sector identities
are a primary output - so they exit 1, distinct from crashes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import duality as dualitymod
from . import fock, ktheory, sft

EXIT_OK = 0
EXIT_DEFECTS = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Most letters (the lengths of all words, summed) that ``words`` or a Fock
# basis may hold: about 5.5 times the 3.03M letters of the all-ones 4 x 4
# matrix at --max-length 9.
LETTER_BUDGET = 1 << 24


class SizeBudgetError(ValueError):
    """The words a command would enumerate hold more than LETTER_BUDGET letters."""


def _check_letters(a: sft.ZeroOneMatrix, lo: int, hi: int) -> None:
    letters = sft.count_letters(a, lo, hi, LETTER_BUDGET)
    if letters > LETTER_BUDGET:
        span = f"length {hi}" if lo == hi else f"lengths {lo}..{hi}"
        raise SizeBudgetError(
            f"the words of {span} would hold at least {letters} letters, "
            f"more than the budget of {LETTER_BUDGET}"
        )


def _emit_json(obj) -> None:
    # streamed: json.dumps would hold every chunk of the indented text at once
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _warn_unless_cantor(a: sft.ZeroOneMatrix) -> None:
    """Say on stderr when the operator constructions' assumption fails."""
    if not sft.satisfies_cantor_condition(a):
        print(
            "warning: shift space is not a Cantor set "
            "(reducible or permutation matrix); "
            "the operator constructions assume the Cantor condition",
            file=sys.stderr,
        )


def _fock_basis(args) -> fock.FockBasis:
    """The Fock basis of a ``--max-length`` command: the matrix, loaded and
    checked against the letter budget, with the Cantor warning on stderr."""
    a = sft.load_matrix(args.matrix)
    _check_letters(a, 0, args.max_length)
    _warn_unless_cantor(a)
    return fock.FockBasis(a, args.max_length)


def cmd_validate(args) -> int:
    a = sft.load_matrix(args.matrix)
    aperiodic = sft.is_aperiodic(a)
    irreducible = sft.is_irreducible(a)
    cantor = sft.satisfies_cantor_condition(a)
    if args.json:
        _emit_json(
            {
                "matrix": a.to_json(),
                "valid": True,
                "irreducible": irreducible,
                "aperiodic": aperiodic,
                "cantor": cantor,
            }
        )
    else:
        print("valid: true")
        print(f"irreducible: {str(irreducible).lower()}")
        print(f"aperiodic: {str(aperiodic).lower()}")
        print(f"cantor: {str(cantor).lower()}")
        _warn_unless_cantor(a)
    return EXIT_OK


def cmd_words(args) -> int:
    a = sft.load_matrix(args.matrix)
    _check_letters(a, args.length, args.length)
    words = sft.enumerate_words(a, args.length)
    if args.json:
        _emit_json(
            {
                "matrix": a.to_json(),
                "length": args.length,
                "count": len(words),
                "words": [sft.word_str(w) for w in words],
            }
        )
    else:
        for w in words:
            print(sft.word_str(w) if w else "ε")
    return EXIT_OK


def cmd_ktheory(args) -> int:
    a = sft.load_matrix(args.matrix)
    pair = ktheory.presentation_pair(a)
    rep = ktheory.k_groups(a, pair)
    d = ktheory.duality_report(a, pair) if args.duality else None
    if args.json:
        out = rep.to_json()  # the matrix it echoes is A, not B
        if args.duality:
            out["duality"] = d.to_json()
        _emit_json(out)
        return EXIT_OK
    for name, alg in (("O_A", rep.o_a), ("O_AT", rep.o_at)):
        print(f"K0({name})  = {alg.k0}")
        print(f"K1({name})  = {alg.k1}")
        print(f"K^0({name}) = {alg.khom0}")
        print(f"K^1({name}) = {alg.khom1}")
    if args.duality:
        _print_duality(d)
    return EXIT_OK


def _print_duality(d) -> None:
    print(f"presentation match K0(O_A) ~ K^1(O_AT): {str(d.presentation_match_K0_Khom1).lower()}")
    print(f"presentation match K1(O_A) ~ K^0(O_AT): {str(d.presentation_match_K1_Khom0).lower()}")
    print(f"abstract isomorphism of cokernels: {str(d.abstract_iso_cokernels).lower()}")
    print(f"invariant factors of coker(1-A):   {list(d.invariant_factors_A)}")
    print(f"invariant factors of coker(1-A^T): {list(d.invariant_factors_AT)}")


def cmd_duality(args) -> int:
    a = sft.load_matrix(args.matrix)
    d = ktheory.duality_report(a)
    if args.json:
        out = d.to_json()
        out["matrix"] = a.to_json()
        _emit_json(out)
    else:
        _print_duality(d)
    # the presentation matches are identities; only the cokernels are compared
    return EXIT_OK if d.abstract_iso_cokernels else EXIT_DEFECTS


def cmd_fock_verify(args) -> int:
    basis = _fock_basis(args)
    reports = fock.verify_creation_relations(basis, args.relation)
    if args.json:
        _emit_json(
            {
                "matrix": basis.matrix.to_json(),
                "m_max": args.max_length,
                "reports": [r.to_json() for r in reports],
            }
        )
    else:
        for r in reports:
            if r.holds:
                print(f"{r.relation}: ok")
            else:
                print(f"{r.relation}: DEFECT ({len(r.defects)} column(s))")
                for d in r.defects:
                    delta = ", ".join(f"{w or 'Ω'}: {v:+d}" for w, v in d.entries)
                    print(f"  column {d.column or 'Ω'} -> {delta}")
    return EXIT_OK if all(r.holds for r in reports) else EXIT_DEFECTS


def cmd_lemma_verify(args) -> int:
    basis = _fock_basis(args)
    report = dualitymod.verify_lemmas(basis, args.which)
    if args.json:
        _emit_json(report.to_json())
    else:
        print(f"lemma {report.lemma} (m_max={report.m_max})")
        for item in report.items:
            if item.holds:
                suffix = f"  [{item.note}]" if item.note else ""
                print(f"  {item.item_id}: ok{suffix}")
            else:
                print(f"  {item.item_id}: DEFECT ({len(item.defects)} column(s))")
                if item.note:
                    print(f"    note: {item.note}")
                for d in item.defects:
                    entries = ", ".join(f"{w or 'Ω'}: {s}" for w, s in d.entries)
                    print(f"    column {d.column or 'Ω'} (length {d.length}) -> {entries}")
    return EXIT_OK if report.holds else EXIT_DEFECTS


def cmd_pairing(args) -> int:
    basis = _fock_basis(args)
    _x, report = fock.rotation_operator(basis)
    if args.json:
        out = report.to_json()
        out["matrix"] = basis.matrix.to_json()
        out["m_max"] = args.max_length
        _emit_json(out)
    else:
        print(f"vacuum: X Ω = {report.vacuum_eigenvalue} Ω (expected {report.expected_vacuum})")
        for s in report.sectors:
            print(
                f"sector {s.sector}: dim={s.dimension} ker={s.dim_ker} "
                f"coker={s.dim_coker} index={s.index}"
            )
    return EXIT_OK if report.holds else EXIT_DEFECTS


def _length(value: str) -> int:
    m = int(value)
    if m < 0:
        raise argparse.ArgumentTypeError("--length must be >= 0")
    return m


def _max_length(value: str) -> int:
    m = int(value)
    if m < 2:
        raise argparse.ArgumentTypeError("--max-length must be >= 2")
    return m


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckdual",
        description=(
            "Exact K-theory of Cuntz-Krieger algebras and verification of the "
            "restricted Fock space operator identities for a shift of finite type."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, max_length=False):
        p.add_argument("--matrix", required=True, help="matrix file (JSON or plain text)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if max_length:
            p.add_argument(
                "--max-length", type=_max_length, default=5,
                help="Fock truncation length m_max (default 5)",
            )

    p = sub.add_parser("validate", help="validate the matrix; report aperiodicity and the Cantor check")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("words", help="list admissible words of a given length")
    common(p)
    p.add_argument("--length", type=_length, required=True)
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("ktheory", help="K-theory and K-homology of O_A and O_{A^T}")
    common(p)
    p.add_argument("--duality", action="store_true", help="include the duality report")
    p.set_defaults(func=cmd_ktheory)

    p = sub.add_parser("duality", help="presentation-level duality report")
    common(p)
    p.set_defaults(func=cmd_duality)

    p = sub.add_parser("fock-verify", help="verify the creation-operator relations")
    common(p, max_length=True)
    p.add_argument("--relation", choices=["i", "ii", "iii", "iv", "all"], default="all")
    p.set_defaults(func=cmd_fock_verify)

    p = sub.add_parser("lemma-verify", help="verify the W / V_k / Toeplitz identities")
    common(p, max_length=True)
    p.add_argument("--which", choices=["W", "V", "toeplitz"], default="W")
    p.set_defaults(func=cmd_lemma_verify)

    p = sub.add_parser("pairing", help="per-sector index of the rotation operator X = sum L_i* R_i")
    common(p, max_length=True)
    p.set_defaults(func=cmd_pairing)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (sft.MatrixValidationError, sft.MatrixFormatError, SizeBudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        # imported only here: every forked call would otherwise carry the
        # module (about 0.4 MiB of peak RSS) although only a crash needs it
        import traceback

        print("internal error:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
