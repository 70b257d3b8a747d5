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

--rank is at most 45 for family A and 32 for B, C and D (no system with
more positive roots than A45, about 1 s and 32 MB to build); a larger rank
exits 2 before any root is built.

Exit codes: 0 success, 2 input error, 3 precondition/hypothesis failure,
4 enumeration cap exceeded.  The env var BRUHAT_GROUP_CAP overrides the cap.
Each error is one stderr line: ``error: <message>``, or under
``--format json`` the object ``{"error": {"exit_code": int, "hypothesis":
str, "message": str}}``.  Usage errors from argument parsing (exit 2) are
always the text line, even with ``--format json``, since they are found
before the format is known.

``main`` builds its parser once per process and takes each root system from
the shared ``root_system`` registry, so a stream of queries in one process
reuses the interned elements and the caches keyed on them.

Report JSON schema:
``{"kind": str, "value": int, "witness": {...}, "meta": {"type": str,
"rank": int, "seed": int, "version": str}}``.

Report CSV: header ``kind,value`` followed by the witness keys in their
documented order; UTF-8, LF line endings.  Scan CSV columns per target are
listed in ``complexity.SCAN_COLUMNS``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import lru_cache
from typing import Sequence

from . import __version__
from .complexity import (SCAN_COLUMNS, SCAN_TARGETS, ComplexityReport,
                         levi_borel_complexity, partial_flag_levi_complexity,
                         partial_flag_torus_complexity, scan,
                         torus_complexity_richardson,
                         torus_complexity_schubert)
from .deodhar import enumerate_distinguished
from .errors import (GroupTooLargeError, InvalidInputError, PreconditionError)
from .rootsys import (Root, RootSystem, positive_root_count, root_system,
                      weyl_group_order)
from .weyl import (DEFAULT_GROUP_CAP, WeylElement, from_word, identity,
                   reduced_word, word_string)


# -- element and subset codecs ---------------------------------------------


def parse_word(text: str) -> tuple[int, ...]:
    """Dot-separated simple indices; ``id`` is the empty word."""
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


def element_to_oneline(w: WeylElement) -> str:
    """One-line notation (family A only)."""
    if w.system.datum.family != "A":
        raise InvalidInputError("one-line notation is specific to family A")
    p = list(range(1, w.system.rank + 2))
    for i in reduced_word(w):
        p[i - 1], p[i] = p[i], p[i - 1]
    return "".join(map(str, p))


def parse_element(rs: RootSystem, text: str) -> WeylElement:
    """Parse ``id``, a dotted word, a single index, or (family A, rank <= 8)
    one-line notation."""
    text = text.strip()
    if text == "id":
        return identity(rs)
    # isdecimal, not isdigit: int() rejects digits such as "²" and "①".
    oneline = (text.isdecimal() and len(text) > 1
               and rs.datum.family == "A" and rs.rank <= 8)
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


@lru_cache(maxsize=4096)
def root_string(root: Root) -> str:
    # Roots are a finite set per system; the bound covers every root of the
    # largest system the CLI accepts (A45: 2070 roots).
    parts = []
    for i, c in enumerate(root, start=1):
        if c == 0:
            continue
        body = f"a{i}" if abs(c) == 1 else f"{abs(c)}a{i}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) if parts else "0"


def _display(rs: RootSystem, w: WeylElement) -> str:
    if rs.datum.family == "A" and rs.rank <= 8:
        return f"{word_string(w)} (oneline {element_to_oneline(w)})"
    return word_string(w)


# -- output helpers ---------------------------------------------------------


def _meta(args) -> dict:
    return {"type": args.type, "rank": args.rank,
            "seed": getattr(args, "seed", 0), "version": __version__}


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
        writer = csv.writer(out, lineterminator="\n")
        keys = list(report.witness)
        writer.writerow(["kind", "value"] + keys)
        writer.writerow([report.kind, report.value]
                        + [_csv_cell(report.witness[k]) for k in keys])
    else:
        out.write(f"kind: {report.kind}\n")
        out.write(f"value: {report.value}\n")
        for key, value in report.witness.items():
            cell = (_display(rs, parse_element(rs, value))
                    if key in _ELEMENT_KEYS else _csv_cell(value))
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


def _run(handler, args) -> int:
    """Run a subcommand.  With --out, write to a temporary file next to the
    target and rename it over the target only once the command succeeds, so
    a failure leaves any existing file untouched and no partial one.  A
    failed write to stdout is an input error too; fd 1 then points at the
    null device, so the flush at exit prints nothing more."""
    path = getattr(args, "out", None)
    if not path:
        try:
            code = handler(args, sys.stdout)
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
        return code
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        out = open(tmp, "x", encoding="utf-8", newline="")
        try:
            with out:
                code = handler(args, out)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise InvalidInputError(
            f"cannot write {path!r}: {exc.strerror}") from None
    return code


# -- subcommands -------------------------------------------------------------


def cmd_info(args, out) -> int:
    rs = root_system(args.type, args.rank)
    order = weyl_group_order(args.type, args.rank)
    fields = {"type": args.type, "rank": args.rank,
              "positive_roots": positive_root_count(args.type, args.rank),
              "weyl_order": order,
              "cartan": [list(row) for row in rs.cartan]}
    if args.format == "json":
        out.write(json.dumps({**fields, "meta": _meta(args)}) + "\n")
    elif args.format == "csv":
        fields["cartan"] = ";".join(map(_csv_cell, rs.cartan))
        csv.writer(out, lineterminator="\n").writerows(
            [fields, fields.values()])
    else:
        out.write(f"type: {args.type}{args.rank}\n")
        out.write(f"rank: {args.rank}\n")
        out.write(f"positive roots: {len(rs.positive_roots)}\n")
        out.write(f"weyl group order: {order}\n")
        out.write("cartan matrix:\n")
        for row in rs.cartan:
            out.write("  " + " ".join(f"{x:3d}" for x in row) + "\n")
    return 0


def cmd_complexity(args, out) -> int:
    rs = root_system(args.type, args.rank)
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
    elif kind == "partial":
        w = parse_element(rs, need("w"))
        j_sub = parse_subset(need("J"))
        if args.I is None:
            report = partial_flag_torus_complexity(w, j_sub)
        else:
            report = partial_flag_levi_complexity(w, j_sub,
                                                  parse_subset(args.I))
    else:
        raise InvalidInputError(f"unknown kind {kind!r}")
    _emit_report(report, args, out, rs)
    return 0


def cmd_scan(args, out) -> int:
    rs = root_system(args.type, args.rank)
    rows = scan(rs, args.target, max_length=args.max_length, cap=_group_cap())
    columns = SCAN_COLUMNS[args.target]
    if args.format == "json":
        out.write(json.dumps({"meta": {**_meta(args),
                                       "target": args.target}}) + "\n")
        for row in rows:
            out.write(json.dumps({k: row[k] for k in columns}) + "\n")
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row[k]) for k in columns])
    else:
        out.write("\t".join(columns) + "\n")
        for row in rows:
            out.write("\t".join(_csv_cell(row[k]) for k in columns) + "\n")
    return 0


def _deodhar_row(se) -> dict:
    j_circ, j_minus = se.j_circ, se.j_minus
    return {
        "mask": se.mask_string(),
        "evaluation": word_string(se.evaluation),
        "j_plus": sorted(se.j_plus),
        "j_circ": sorted(j_circ),
        "j_minus": sorted(j_minus),
        "betas": [f"{k}:{root_string(b)}" for k, b in se.betas],
        "shape": [len(j_circ), len(j_minus)],
        "td": se.td,
        "positive": not j_minus,
    }


def cmd_deodhar(args, out) -> int:
    rs = root_system(args.type, args.rank)
    word = parse_word(args.v_word)
    u = parse_element(rs, args.u)
    subexprs = enumerate_distinguished(word, u)
    # Rows are built as they are written, so only one is held at a time.
    rows = map(_deodhar_row, subexprs)
    columns = ("mask", "evaluation", "j_plus", "j_circ", "j_minus",
               "betas", "shape", "td", "positive")
    if args.format == "json":
        out.write(json.dumps({"meta": _meta(args),
                              "v_word": list(word),
                              "u": word_string(u),
                              "count": len(subexprs)}) + "\n")
        for row in rows:
            out.write(json.dumps(row) + "\n")
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row[k]) for k in columns])
    else:
        out.write(f"v-word: {'.'.join(map(str, word)) or 'id'}   "
                  f"u: {_display(rs, u)}   "
                  f"distinguished subexpressions: {len(subexprs)}\n")
        for row in rows:
            flag = " (positive)" if row["positive"] else ""
            out.write(f"mask ({row['mask']}){flag}\n")
            # The sorted lists as sets: {6, 8, 9, 10}, or {} when empty.
            out.write("  J+={%s} Jo={%s} J-={%s}\n" % tuple(
                str(row[k])[1:-1] for k in ("j_plus", "j_circ", "j_minus")))
            out.write(f"  betas: {'; '.join(row['betas']) or '-'}\n")
            out.write(f"  shape: ({row['shape'][0]},{row['shape'][1]})  "
                      f"td: {row['td']}\n")
    return 0


# -- entry point --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line, like every other error."""

    def error(self, message: str):
        self.exit(2, f"error: {' '.join(message.splitlines())}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bruhatkit",
        description="Exact Weyl group combinatorics: Bruhat intervals, "
                    "distinguished subexpressions, and torus/Levi-Borel "
                    "complexity of Schubert and Richardson varieties.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", required=True, choices=list("ABCDEFG"),
                       help="root system family")
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--format", default="text",
                       choices=["text", "json", "csv"])
        p.add_argument("--seed", type=int, default=0,
                       help="recorded in output metadata")

    p_info = sub.add_parser("info", help="root system summary")
    common(p_info)

    p_cx = sub.add_parser("complexity", help="one complexity query")
    common(p_cx)
    p_cx.add_argument("--kind", required=True,
                      choices=["richardson", "schubert", "levi", "partial"])
    p_cx.add_argument("--u")
    p_cx.add_argument("--v")
    p_cx.add_argument("--w")
    p_cx.add_argument("--I")
    p_cx.add_argument("--J")

    p_scan = sub.add_parser("scan", help="batch scan over the Weyl group")
    common(p_scan)
    p_scan.add_argument("--target", required=True, choices=list(SCAN_TARGETS))
    p_scan.add_argument("--out", help="output file (default stdout)")
    p_scan.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    p_scan.add_argument("--max-length", type=int, default=None)

    p_deo = sub.add_parser("deodhar",
                           help="list distinguished subexpressions")
    common(p_deo)
    p_deo.add_argument("--v-word", required=True,
                       help="reduced word, dot-separated, e.g. 1.2.1")
    p_deo.add_argument("--u", required=True)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _report_error(args, exc: Exception, code: int) -> None:
    fmt = getattr(args, "format", "text") if args is not None else "text"
    if fmt == "json":
        sys.stderr.write(json.dumps(
            {"error": {"exit_code": code,
                       "hypothesis": type(exc).__name__,
                       "message": str(exc)}}) + "\n")
    else:
        sys.stderr.write(f"error: {exc}\n")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {"info": cmd_info, "complexity": cmd_complexity,
                "scan": cmd_scan, "deodhar": cmd_deodhar}
    try:
        return _run(handlers[args.command], args)
    except InvalidInputError as exc:
        _report_error(args, exc, 2)
        return 2
    except GroupTooLargeError as exc:
        _report_error(args, exc, 4)
        return 4
    except PreconditionError as exc:
        _report_error(args, exc, 3)
        return 3


if __name__ == "__main__":
    sys.exit(main())
