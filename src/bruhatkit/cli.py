"""Command-line surface: queries, batch scans, machine-readable exports.

Element notation accepted by --u/--v/--w:

* ``id`` for the identity,
* dot-separated words of simple indices, e.g. ``1.2.1``,
* one-line permutation notation, e.g. ``3412``: an all-digit string of two
  or more digits, in family A of rank <= 8 only,
* a single simple index, e.g. ``2`` or ``10``: any other all-digit string,
  so every element the CLI prints can be read back.

Subsets (--I/--J) are comma-separated simple indices; the empty string is
the empty set.

--type and --rank take the families and ranks of ``rootsys._FAMILIES``; a
rank outside them exits 2 before any root is built.

``main`` returns 0 once a command's handler returns, or else the raised
error's ``exit_code`` (see ``errors``) after writing one stderr line:
``error: <message>``, or under ``--format json`` the object ``{"error":
{"exit_code": int, "hypothesis": str, "message": str}}``.  README's
exit-code paragraph lists the codes for users, and the usage errors that
are always the text line.

``main`` reads argv of the form ``COMMAND (--flag value)*`` straight from
the option table ``_COMMANDS``, whose rows also hold each command's handler;
argparse, built from the same table once per process and imported only
then, reads help and every other spelling.  Each handler gets its root
system from the shared ``root_system`` registry, so a stream of queries in
one process reuses the interned elements and the caches keyed on them.

Report JSON schema:
``{"kind": str, "value": int, "witness": {...}, "meta": {"type": str,
"rank": int, "seed": int, "version": str}}``.

Report CSV: header ``kind,value`` followed by the witness keys in their
documented order; UTF-8, LF line endings.  Scan CSV columns per target are
listed in ``complexity.SCAN_COLUMNS``.
"""

from __future__ import annotations

import json
import os
import sys
from functools import lru_cache
from types import SimpleNamespace
from typing import Sequence

from . import __version__
from .complexity import (SCAN_COLUMNS, SCAN_TARGETS, ComplexityReport,
                         _scan_rows, levi_borel_complexity,
                         partial_flag_levi_complexity,
                         partial_flag_torus_complexity,
                         torus_complexity_richardson,
                         torus_complexity_schubert)
from .deodhar import SKIP, mask_halves
from .errors import BruhatkitError, InvalidInputError
from .rootsys import FAMILIES, Root, RootSystem, root_system
from .weyl import (DEFAULT_GROUP_CAP, WeylElement, from_word, identity,
                   reduced_word, word_string)


# -- element and subset codecs ---------------------------------------------


def parse_word(text: str) -> tuple[int, ...]:
    """Dot-separated simple indices; ``id`` is the empty word.

    >>> parse_word("1.2.1"), parse_word("id")
    ((1, 2, 1), ())
    """
    if text.strip() == "id":
        return ()
    try:
        return tuple(int(t) for t in text.split("."))
    except ValueError:
        raise InvalidInputError(
            f"cannot parse word {text!r}: expected dot-separated integers "
            f"like 1.2.1") from None


def element_from_oneline(rs: RootSystem, perm: Sequence[int]) -> WeylElement:
    p = list(perm)
    word_rev = []
    while True:
        i = next((i for i in range(1, len(p)) if p[i - 1] > p[i]), None)
        if i is None:
            break
        p[i - 1], p[i] = p[i], p[i - 1]
        word_rev.append(i)
    return from_word(rs, reversed(word_rev))


def _oneline(rank: int, word: Sequence[int]) -> str:
    """The one-line notation of a word in A_rank: its adjacent
    transpositions applied in order."""
    p = list(range(1, rank + 2))
    for i in word:
        p[i - 1], p[i] = p[i], p[i - 1]
    return "".join(map(str, p))


def element_to_oneline(w: WeylElement) -> str:
    """One-line notation (family A only)."""
    if w.system.family != "A":
        raise InvalidInputError("one-line notation is specific to family A")
    return _oneline(w.system.rank, reduced_word(w))


def parse_element(rs: RootSystem, text: str) -> WeylElement:
    """Parse ``id``, a dotted word, a single index, or (family A, rank <= 8)
    one-line notation."""
    text = text.strip()
    if text == "id":
        return identity(rs)
    # isdecimal, not isdigit: int() rejects digits such as "²" and "①".
    oneline = (text.isdecimal() and len(text) > 1
               and rs.family == "A" and rs.rank <= 8)
    if "." in text or (text.isdecimal() and not oneline):
        return from_word(rs, parse_word(text))
    if not oneline:
        raise InvalidInputError(
            f"cannot parse element {text!r}: use 'id', a dot-separated word "
            f"like 1.2.1, or (family A) one-line notation like 3412")
    digits = [int(c) for c in text]
    if sorted(digits) != list(range(1, rs.rank + 2)):
        raise InvalidInputError(
            f"{text!r} is not a permutation of 1..{rs.rank + 1}")
    return element_from_oneline(rs, digits)


def parse_subset(text: str | None) -> frozenset[int]:
    if text is None or text.strip() == "":
        return frozenset()
    try:
        return frozenset(int(t) for t in text.split(","))
    except ValueError:
        raise InvalidInputError(
            f"cannot parse subset {text!r}: expected comma-separated "
            f"integers like 1,3") from None


def root_string(root: Root) -> str:
    parts = []
    for i, c in enumerate(root, start=1):
        if c == 0:
            continue
        body = f"a{i}" if abs(c) == 1 else f"{abs(c)}a{i}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) if parts else "0"


def _display(rs: RootSystem, word: str) -> str:
    """A word string as printed, with its one-line form in A1..A8."""
    if rs.family == "A" and rs.rank <= 8:
        return f"{word} (oneline {_oneline(rs.rank, parse_word(word))})"
    return word


# -- output helpers ---------------------------------------------------------


def _meta(args) -> dict:
    return {"type": args.type, "rank": args.rank,
            "seed": args.seed, "version": __version__}


def _quote(cell: str) -> str:
    """A CSV cell, quoted exactly when it holds a comma: no cell the CLI
    writes holds a quote or a line end, so this is ``csv.writer``'s rule."""
    return f'"{cell}"' if "," in cell else cell


def _csv_line(cells) -> str:
    return ",".join(map(_quote, cells)) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(map(str, value))
    return str(value)


_ELEMENT_KEYS = ("u", "v", "w", "levi_factor", "coset_factor",
                 "max_toric_witness")


def _emit_report(report: ComplexityReport, args, out,
                 rs: RootSystem) -> None:
    if args.format == "json":
        payload = {"kind": report.kind, "value": report.value,
                   "witness": report.witness, "meta": _meta(args)}
        out.write(json.dumps(payload) + "\n")
    elif args.format == "csv":
        keys = list(report.witness)
        out.write(_csv_line(["kind", "value", *keys]) + _csv_line(
            [report.kind, str(report.value),
             *(_csv_cell(report.witness[k]) for k in keys)]))
    else:
        out.write(f"kind: {report.kind}\n")
        out.write(f"value: {report.value}\n")
        for key, value in report.witness.items():
            cell = (_display(rs, value) if key in _ELEMENT_KEYS
                    else _csv_cell(value))
            out.write(f"{key}: {cell}\n")


def _group_cap() -> int:
    text = os.environ.get("BRUHAT_GROUP_CAP")
    if text is None:
        return DEFAULT_GROUP_CAP
    try:
        cap = int(text)
    except ValueError:
        cap = -1  # refused below, with the negative values
    if cap < 0:
        raise InvalidInputError(
            f"BRUHAT_GROUP_CAP must be a non-negative integer, got {text!r}")
    return cap


def _run(handler, args) -> None:
    """Run a handler on the root system of --type and --rank; ``main``
    returns 0 once this returns, or the raised error's ``exit_code``.  With
    --out, write to a temporary file next to the target and rename it over
    the target only once the command succeeds, so a failure leaves any
    existing file untouched and no partial one.  A failed write to stdout
    is an input error too; fd 1 then points at the null device, so the
    flush at exit prints nothing more."""
    rs = root_system(args.type, args.rank)
    path = getattr(args, "out", None)
    if not path:
        try:
            handler(rs, args, sys.stdout)
            sys.stdout.flush()
        except OSError as exc:
            try:
                fd = sys.stdout.fileno()
            except (AttributeError, OSError, ValueError):
                pass
            else:
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
            raise InvalidInputError(
                f"cannot write to stdout: {exc.strerror}") from None
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        out = open(tmp, "x", encoding="utf-8", newline="")
        try:
            with out:
                handler(rs, args, out)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise InvalidInputError(
            f"cannot write {path!r}: {exc.strerror}") from None


# -- subcommands -------------------------------------------------------------


def cmd_info(rs: RootSystem, args, out) -> None:
    fields = {"type": rs.family, "rank": rs.rank,
              "positive_roots": len(rs.positive_roots),
              "weyl_order": rs.order,
              "cartan": [list(row) for row in rs.cartan]}
    if args.format == "json":
        out.write(json.dumps({**fields, "meta": _meta(args)}) + "\n")
    elif args.format == "csv":
        fields["cartan"] = ";".join(map(_csv_cell, rs.cartan))
        out.write(_csv_line(fields) + _csv_line(map(str, fields.values())))
    else:
        out.write(f"type: {rs.family}{rs.rank}\n")
        out.write(f"rank: {rs.rank}\n")
        out.write(f"positive roots: {len(rs.positive_roots)}\n")
        out.write(f"weyl group order: {rs.order}\n")
        out.write("cartan matrix:\n")
        for row in rs.cartan:
            out.write("  " + " ".join(f"{x:3d}" for x in row) + "\n")


def cmd_complexity(rs: RootSystem, args, out) -> None:
    kind = args.kind

    def need(flag: str):
        value = getattr(args, flag)
        if value is None:
            raise InvalidInputError(
                f"--{flag} is required for --kind {kind}")
        return value

    if kind == "richardson":
        u = parse_element(rs, need("u"))
        v = parse_element(rs, need("v"))
        report = torus_complexity_richardson(u, v)
    elif kind == "schubert":
        report = torus_complexity_schubert(parse_element(rs, need("w")))
    elif kind == "levi":
        w = parse_element(rs, need("w"))
        report = levi_borel_complexity(parse_subset(need("I")), w)
    else:  # partial
        w = parse_element(rs, need("w"))
        j_sub = parse_subset(need("J"))
        if args.I is None:
            report = partial_flag_torus_complexity(w, j_sub)
        else:
            report = partial_flag_levi_complexity(w, j_sub,
                                                  parse_subset(args.I))
    _emit_report(report, args, out, rs)


#: The scan columns of ints.  The other cells are words and subsets, str
#: that JSON does not escape and CSV quotes only for a subset's commas.
_INT_COLUMNS = frozenset({"length", "rank", "ad", "value", "count"})


def cmd_scan(rs: RootSystem, args, out) -> None:
    """A row is one ``%`` of the target's template, the bytes that
    ``csv.writer`` or ``json.dumps`` write for ``scan``'s row."""
    fmt = args.format
    quote = _quote if fmt == "csv" else str
    rows = _scan_rows(rs, args.target, args.max_length, _group_cap(), quote)
    columns = SCAN_COLUMNS[args.target]
    if fmt == "json":
        out.write(json.dumps({"meta": {**_meta(args), "target": args.target}})
                  + "\n")
        template = "{%s}\n" % ", ".join(
            f'"{c}": %s' if c in _INT_COLUMNS else f'"{c}": "%s"'
            for c in columns)
    else:
        sep = "," if fmt == "csv" else "\t"
        out.write(sep.join(columns) + "\n")
        template = sep.join(["%s"] * len(columns)) + "\n"
    out.writelines(map(template.__mod__, rows))


def _deodhar_table(word: tuple[int, ...], u: WeylElement, fmt: str):
    """(count, rows) for the distinguished masks for u over word, the rows
    made in mask order as they are read.  A move's piece of a row is its
    choice, J+, Jo or J- item and k:beta text (made once per command for
    each (k, beta)), each after a separator, and its shape counts.  A row
    joins a head of ``mask_halves`` to each tail of its state, field by
    field, cuts each field's leading separator and is one ``%`` of the
    template of its shape (|Jo|, |J-|), made on first use.  The shape fixes
    the rest: the entry counts (n - |Jo| - |J-| in J+, |Jo| + |J-| betas),
    so which CSV cells are quoted and whether text prints ``-`` for no
    betas, and the row's shape, td and positive ending.  Every string is
    ASCII with nothing JSON escapes and no "%" or '"': a json line is
    json.dumps's and a csv line csv.writer's."""
    sep, item = {"json": (", ", ', "%s"'), "text": (", ", "; %s"),
                 "csv": (",", ",%s")}[fmt]
    n = len(word)
    cut, places = len(sep), [sep + str(k) for k in range(n + 1)]
    texts: dict[tuple[int, Root], str] = {}

    def piece(k, move):
        choice, _, entry = move
        if not entry:
            return ",take", places[k], "", "", "", 0, 0
        text = texts.get(entry) or texts.setdefault(
            entry, item % f"{k}:{root_string(entry[1])}")
        if choice == SKIP:
            return ",skip", "", places[k], "", text, 1, 0
        return ",take", "", "", places[k], text, 0, 1

    zero = ("", "", "", "", "", 0, 0)
    heads, tails, td = mask_halves(word, u, piece, zero)
    count = sum(len(tails[x]) for x, _ in heads)
    ev = word_string(u)
    templates = [[None] * (n + 1) for _ in range(n + 1)]

    def template(nc, nm):
        positive = "false" if nm else "true"
        if fmt == "csv":
            mask, plus, circ, minus, betas = (
                '"%s"' if entries >= 2 else "%s"
                for entries in (n, n - nc - nm, nc, nm, nc + nm))
            text = (f'{mask},{ev},{plus},{circ},{minus},{betas},'
                    f'"{nc},{nm}",{td},{positive}\n')
        elif fmt == "json":
            text = ('{"mask": "%s", "evaluation": "' + ev + '", "j_plus": '
                    '[%s], "j_circ": [%s], "j_minus": [%s], "betas": [%s], '
                    f'"shape": [{nc}, {nm}], "td": {td}, '
                    f'"positive": {positive}}}\n')
        else:
            text = ("mask (%s)" + ("" if nm else " (positive)")
                    + "\n  J+={%s} Jo={%s} J-={%s}\n  betas: "
                    + ("%s" if nc + nm else "-%s")
                    + f"\n  shape: ({nc},{nm})  td: {td}\n")
        templates[nc][nm] = text
        return text

    def rows():
        for x, (mask, plus, circ, minus, betas, nc, nm) in heads:
            for t_mask, t_plus, t_circ, t_minus, t_betas, tc, tm in tails[x]:
                yield (templates[nc + tc][nm + tm]
                       or template(nc + tc, nm + tm)) % (
                    (mask + t_mask)[1:], (plus + t_plus)[cut:],
                    (circ + t_circ)[cut:], (minus + t_minus)[cut:],
                    (betas + t_betas)[cut:])

    return count, rows()


def cmd_deodhar(rs: RootSystem, args, out) -> None:
    word = parse_word(args.v_word)
    u = parse_element(rs, args.u)
    count, rows = _deodhar_table(word, u, args.format)
    if args.format == "csv":
        out.write("mask,evaluation,j_plus,j_circ,j_minus,betas,shape,td,"
                  "positive\n")
    elif args.format == "json":
        out.write(json.dumps({"meta": _meta(args), "v_word": list(word),
                              "u": word_string(u), "count": count}) + "\n")
    else:
        out.write(f"v-word: {'.'.join(map(str, word)) or 'id'}   "
                  f"u: {_display(rs, word_string(u))}   "
                  f"distinguished subexpressions: {count}\n")
    out.writelines(rows)


# -- entry point --------------------------------------------------------------

_COMMON = (
    ("--type", {"required": True, "choices": tuple(FAMILIES),
                "help": "root system family"}),
    ("--rank", {"required": True, "type": int}),
    ("--format", {"default": "text", "choices": ("text", "json", "csv")}),
    ("--seed", {"type": int, "default": 0,
                "help": "recorded in output metadata"}),
)

#: Each subcommand's handler, help and flags, in the order ``--help`` lists
#: them.  A flag's entry holds the keywords of its ``add_argument``; argparse
#: and ``_read_argv`` both take its dest from the flag, "-" read as "_".
_COMMANDS = {
    "info": (cmd_info, "root system summary", _COMMON),
    "complexity": (cmd_complexity, "one complexity query", _COMMON + (
        ("--kind", {"required": True, "choices": (
            "richardson", "schubert", "levi", "partial")}),
        ("--u", {}), ("--v", {}), ("--w", {}), ("--I", {}), ("--J", {}))),
    "scan": (cmd_scan, "batch scan over the Weyl group", _COMMON + (
        ("--target", {"required": True, "choices": tuple(SCAN_TARGETS)}),
        ("--out", {"help": "output file (default stdout)"}),
        ("--jobs", {"type": int, "default": 1,
                    "help": "accepted for compatibility; has no effect"}),
        ("--max-length", {"type": int}))),
    "deodhar": (cmd_deodhar, "list distinguished subexpressions", _COMMON + (
        ("--v-word", {"required": True,
                      "help": "reduced word, dot-separated, e.g. 1.2.1"}),
        ("--u", {"required": True}))),
}


def build_parser():
    """The argparse parser of ``_COMMANDS``; ``main`` needs it only for
    help and for argv that ``_read_argv`` declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Usage errors are one stderr line, like every other error."""

        def error(self, message: str):
            self.exit(InvalidInputError.exit_code,
                      f"error: {' '.join(message.splitlines())}\n")

    parser = _Parser(
        prog="bruhatkit",
        description="Exact Weyl group combinatorics: Bruhat intervals, "
                    "distinguished subexpressions, and torus/Levi-Borel "
                    "complexity of Schubert and Richardson varieties.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag, keywords in flags:
            p.add_argument(flag, **keywords)
    return parser


@lru_cache(maxsize=1)
def _parser():
    return build_parser()


def _reader_table(flags):
    """(flag -> (dest, type, choices), required flags, dest -> default)."""
    table, required, defaults = {}, set(), {}
    for flag, keywords in flags:
        dest = flag[2:].replace("-", "_")
        table[flag] = dest, keywords.get("type"), keywords.get("choices")
        defaults[dest] = keywords.get("default")
        if keywords.get("required"):
            required.add(flag)
    return table, frozenset(required), defaults


_READER = {command: _reader_table(flags)
           for command, (_, _, flags) in _COMMANDS.items()}


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for argv of the form ``COMMAND (--flag
    value)*``: each flag of the command spelled in full and given once, no
    value starting with "-".  None for any other argv, and for one that
    argparse would refuse; ``main`` then leaves it to argparse."""
    reader = _READER.get(argv[0]) if len(argv) % 2 else None
    if reader is None:
        return None
    table, required, defaults = reader
    flags = set(argv[1::2])
    if len(flags) != len(argv) // 2 or not required <= flags:
        return None
    values = {**defaults, "command": argv[0]}
    for flag, value in zip(argv[1::2], argv[2::2]):
        entry = table.get(flag)
        if entry is None or value[:1] == "-":
            return None
        dest, kind, choices = entry
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # 0 after help, else _Parser.error's code
            return exc.code
    try:
        _run(_COMMANDS[args.command][0], args)
    except BruhatkitError as exc:
        if args.format == "json":
            sys.stderr.write(json.dumps(
                {"error": {"exit_code": exc.exit_code,
                           "hypothesis": type(exc).__name__,
                           "message": str(exc)}}) + "\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
