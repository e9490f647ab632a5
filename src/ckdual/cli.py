"""Command-line front end.

Subcommands: validate, words, ktheory, fock-verify, lemma-verify, pairing.
Exit codes: 0 = all requested checks hold, 1 = checks ran and defects were
found, 2 = input error, 3 = internal error (an unexpected exception; its
traceback goes to stderr).  Finding defects is a success mode of the tool -
the general-matrix corrections to the vacuum-sector identities are a primary
output - so they exit 1, distinct from crashes.  The duality report is the
``--duality`` block of ``ktheory``; its flags are identities of the
presentation pair (``ktheory.duality_report``), so it never sets the exit
code.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

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


# most entries of one list that a single write joins
_JOIN_SLICE = 4096

# json's text for a value of each type that it writes in one way: an int
# (not a bool) by int.__repr__ and, under ensure_ascii, a str by its escaper
_SCALAR = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_STRS = {str}


def _write_json(write, obj, pad: str = "") -> None:
    """Write ``obj`` as ``json.dump(obj, fp, indent=2)`` would, nested at the
    indentation ``pad``.

    An int, str, bool or None is written by ``_SCALAR``, and so is a list
    or tuple whose entries all have one of those types exactly, in one
    ``str.join`` per ``_JOIN_SLICE`` entries.  A list mixing int and bool
    recurses per entry.  Floats, dicts with a non-str key and container
    subclasses go to ``json.dumps``: JSON text holds no raw newline inside
    a string, so indenting each of its line breaks by ``pad`` nests it.
    """
    kind = type(obj)
    render = _SCALAR.get(kind)
    if render is not None:
        write(render(obj))
        return
    if not (kind is list or kind is tuple or kind is dict and _STRS.issuperset(map(type, obj))):
        write(json.dumps(obj, indent=2).replace("\n", "\n" + pad))
        return
    if not obj:
        write("{}" if kind is dict else "[]")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is dict:
        lead = "{\n" + inner
        for key, value in obj.items():
            write(lead + encode_basestring_ascii(key) + ": ")
            _write_json(write, value, inner)
            lead = sep
        write("\n" + pad + "}")
        return
    types = set(map(type, obj))
    render = _SCALAR.get(types.pop()) if len(types) == 1 else None
    if render is None:
        lead = "[\n" + inner
        for value in obj:
            write(lead)
            _write_json(write, value, inner)
            lead = sep
    else:
        write("[\n" + inner)
        for start in range(0, len(obj), _JOIN_SLICE):
            if start:
                write(sep)
            write(sep.join(map(render, obj[start:start + _JOIN_SLICE])))
    write("\n" + pad + "]")


def _emit_json(obj) -> None:
    # Not json.dump: with indent set, CPython's json encodes in pure Python,
    # one generator step and one write per entry, which made the n^2 matrix
    # echo most of a large ``ktheory --json`` call.  The writer emits the same
    # bytes, joins flat lists at C speed and still streams, since ``words``
    # can hold about 10^6 strings.
    _write_json(sys.stdout.write, obj)
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
    d = ktheory.duality_report(pair) if args.duality else None
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
        print(f"presentation match K0(O_A) ~ K^1(O_AT): {str(d.presentation_match_K0_Khom1).lower()}")
        print(f"presentation match K1(O_A) ~ K^0(O_AT): {str(d.presentation_match_K1_Khom0).lower()}")
        print(f"abstract isomorphism of cokernels: {str(d.abstract_iso_cokernels).lower()}")
        print(f"invariant factors of coker(1-A):   {list(d.invariant_factors_A)}")
        print(f"invariant factors of coker(1-A^T): {list(d.invariant_factors_AT)}")
    return EXIT_OK


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


def _length(flag: str, least: int):
    """The argparse type of the integer option ``flag``, at least ``least``."""

    def parse(value: str) -> int:
        try:
            m = int(value)
        except ValueError:
            text = value.strip()
            digits = text[1:] if text[:1] in ("+", "-") else text
            if not digits.isdecimal():
                raise argparse.ArgumentTypeError(f"{flag} must be an integer") from None
            # an integer past Python's limit on int-string conversion
            raise argparse.ArgumentTypeError(f"{flag} is too long: {len(digits)} digits") from None
        if m < least:
            raise argparse.ArgumentTypeError(f"{flag} must be >= {least}")
        return m

    return parse


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
                "--max-length", type=_length("--max-length", 2), default=5,
                help="Fock truncation length m_max (default 5)",
            )

    p = sub.add_parser("validate", help="validate the matrix; report aperiodicity and the Cantor check")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("words", help="list admissible words of a given length")
    common(p)
    p.add_argument("--length", type=_length("--length", 0), required=True)
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("ktheory", help="K-theory and K-homology of O_A and O_{A^T}")
    common(p)
    p.add_argument("--duality", action="store_true", help="include the duality report")
    p.set_defaults(func=cmd_ktheory)

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
