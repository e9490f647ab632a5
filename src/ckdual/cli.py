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

The command line is read against one table, ``COMMANDS``: each command maps
to its handler's name, its help line and its options, and each option to a
parse function (None for a flag), a default (or ``REQUIRED``) and a help
line.  ``main`` accepts ``--opt value``, ``--opt=value`` and any unique
prefix of a long option, as argparse did, and ``-h`` or ``--help``
anywhere on the line.  A command line the table rejects
(no or unknown command, unknown or ambiguous option, missing value or
required option, bad integer or choice) raises ``UsageError``; ``main``
prints ``usage: ...`` and ``ckdual: error: ...`` on stderr and raises
``SystemExit(2)``.  Help is built from the same table and raises
``SystemExit(0)``.

Each ``ckdual`` call is a process of its own, so what a call costs before
its handler runs is paid once per call.  Nothing here imports argparse,
gettext or locale (building argparse's parser imported ``locale`` through
gettext and took about 4 ms a call), and import builds only the table: no
parser, no regex, and help is laid out only when asked for.  Import-time
work would only move the cost from the call into start-up, which a
separate process pays just the same.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

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
    """Say on stderr which premise of the operator constructions fails:
    condition (I), without which the shift space is not a Cantor set, or
    irreducibility."""
    failed = []
    if not sft.satisfies_cantor_condition(a):
        failed.append("shift space is not a Cantor set (a cycle has no exit)")
    if not sft.is_irreducible(a):
        failed.append("matrix is reducible")
    if failed:
        print(
            f"warning: {'; '.join(failed)}; the operator constructions assume "
            "an irreducible matrix whose shift space is a Cantor set",
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
                "words": [sft.word_str(w, a.n) for w in words],
            }
        )
    else:
        for w in words:
            print(sft.word_str(w, a.n) if w else "ε")
    return EXIT_OK


def cmd_ktheory(args) -> int:
    a = sft.load_matrix(args.matrix)
    pair = ktheory.presentation_pair(a)
    rep = ktheory.k_groups(a, pair)
    d = ktheory.duality_report(pair) if args.duality else None
    if args.json:
        out = {"matrix": a.to_json(), **rep.to_json()}  # A, not its amalgamation B
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
        _emit_json({**report.to_json(), "matrix": basis.matrix.to_json()})
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


class UsageError(Exception):
    """A command line that ``COMMANDS`` rejects; ``main`` exits 2 on it."""


def _length(flag: str, least: int):
    """The parse function of the integer option ``flag``, at least ``least``."""

    def parse(value: str) -> int:
        try:
            m = int(value)
        except ValueError:
            text = value.strip()
            digits = text[1:] if text[:1] in ("+", "-") else text
            if not digits.isdecimal():
                raise UsageError(f"{flag} must be an integer") from None
            # an integer past Python's limit on int-string conversion
            raise UsageError(f"{flag} is too long: {len(digits)} digits") from None
        if m < least:
            raise UsageError(f"{flag} must be >= {least}")
        return m

    return parse


def _choice(flag: str, default: str, *names: str) -> tuple:
    """The ``COMMANDS`` entry of the option ``flag``: one of ``names``, ``default`` if not given."""

    def parse(value: str) -> str:
        if value not in names:
            choices = ", ".join(map(repr, names))
            raise UsageError(f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
        return value

    return parse, default, f"one of {', '.join(names)} (default {default})"


REQUIRED = object()

# command -> (handler name, help line, options); option -> (parse function,
# or None for a flag; default, or REQUIRED; help).  A handler is named, not
# bound: ``main`` looks it up in the module when a call runs, so a handler
# replaced on the module is the one called, and ``cmd_x.__name__`` (not a
# string) fails at import once ``cmd_x`` is renamed.
_COMMON = {"--matrix": (str, REQUIRED, "matrix file (JSON or plain text)"),
           "--json": (None, False, "machine-readable output")}
_FOCK = {**_COMMON, "--max-length": (_length("--max-length", 2), 5, "Fock truncation m_max (default 5)")}
COMMANDS = {
    "validate": (cmd_validate.__name__, "validate the matrix; report aperiodicity, Cantor check", _COMMON),
    "words": (cmd_words.__name__, "list admissible words of a given length",
              {**_COMMON, "--length": (_length("--length", 0), REQUIRED, "word length, at least 0")}),
    "ktheory": (cmd_ktheory.__name__, "K-theory and K-homology of O_A and O_{A^T}",
                {**_COMMON, "--duality": (None, False, "include the duality report")}),
    "fock-verify": (cmd_fock_verify.__name__, "verify the creation-operator relations",
                    {**_FOCK, "--relation": _choice("--relation", "all", "i", "ii", "iii", "iv", "all")}),
    "lemma-verify": (cmd_lemma_verify.__name__, "verify the W / V_k / Toeplitz identities",
                     {**_FOCK, "--which": _choice("--which", "W", "W", "V", "toeplitz")}),
    "pairing": (cmd_pairing.__name__, "per-sector index of the rotation operator X = sum L_i* R_i", _FOCK),
}


def _spelled(flag: str, parse) -> str:
    return flag if parse is None else f"{flag} {flag[2:].upper().replace('-', '_')}"


def _usage(command) -> str:
    if command is None:
        return f"usage: ckdual [-h] {{{','.join(COMMANDS)}}} ..."
    words = (_spelled(flag, parse) if default is REQUIRED else f"[{_spelled(flag, parse)}]"
             for flag, (parse, default, _help) in COMMANDS[command][2].items())
    return f"usage: ckdual {command} [-h] {' '.join(words)}"


def _exit_with_help(command) -> None:
    """Print the help of ``command`` (of ``ckdual`` for None) and exit 0."""
    if command is None:
        about, rows = "commands (each takes -h):", [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        about, options = COMMANDS[command][1:]
        rows = [(_spelled(flag, spec[0]), spec[2]) for flag, spec in options.items()]
    width = max(len(left) for left, _right in rows) + 2
    print(_usage(command), "", about, "", *(f"  {left:<{width}}{right}" for left, right in rows), sep="\n")
    raise SystemExit(EXIT_OK)


def _parse(command, argv) -> SimpleNamespace:
    """The options of ``argv``, whose first token names ``command`` (None if
    it names none), each an attribute named as in argparse: ``max_length``."""
    if "-h" in argv or "--help" in argv:
        _exit_with_help(command)
    if command is None:
        raise UsageError(f"argument command: invalid choice: {argv[0]!r} "
                         f"(choose from {', '.join(map(repr, COMMANDS))})"
                         if argv else "the following arguments are required: command")
    options = COMMANDS[command][2]
    values = {flag: spec[1] for flag, spec in options.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        # a unique prefix of an option names it; "", "-" and "--" name none
        found = [flag] if flag in options else [o for o in options if o.startswith(flag) and flag[2:]]
        if len(found) != 1:
            raise UsageError(f"ambiguous option: {flag} could match {', '.join(found)}" if found
                             else f"unrecognized arguments: {token}")
        flag = found[0]
        parse = options[flag][0]
        if parse is None and eq:
            raise UsageError(f"argument {flag}: ignored explicit argument {value!r}")
        if parse is not None and not eq:
            value = next(tokens, "--")
            if value.startswith("--"):
                raise UsageError(f"argument {flag}: expected one argument")
        values[flag] = True if parse is None else parse(value)
    missing = [flag for flag, value in values.items() if value is REQUIRED]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**{flag[2:].replace("-", "_"): value for flag, value in values.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = _parse(command, argv)
        return globals()[COMMANDS[command][0]](args)
    except UsageError as exc:
        print(_usage(command), f"ckdual: error: {exc}", sep="\n", file=sys.stderr)
        raise SystemExit(EXIT_INPUT) from None
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
