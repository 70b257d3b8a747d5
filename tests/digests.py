"""sha256 digests of the CLI's exit code and stdout for every pinned case.

``test_cli.test_cli_output_digests`` compares them with
``cli_digests.json``.  This module needs only the standard library, so the
same check runs on any Python without pytest::

    python tests/digests.py

It checks the ``src/`` next to it, prints each case whose digest differs
and the count that match, and exits 1 if any differs.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

from bruhatkit import cli, root_system  # noqa: E402
from bruhatkit.weyl import longest_element, word_string  # noqa: E402


def _digest_cases():
    """The argv of every pinned CLI case, each in text, json and csv."""
    systems = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
               ("C", 3), ("G", 2), ("D", 4)]
    b3_w0 = word_string(longest_element(root_system("B", 3), range(1, 4)))
    cases = [["scan", "--type", f, "--rank", str(r), "--target", target]
             + extra for f, r in systems for target in cli.SCAN_TARGETS
             for extra in ([], ["--max-length", "2"])]
    cases += [["deodhar", "--type", "B", "--rank", "3", "--v-word", word,
               "--u", u] for word, u in [(b3_w0, "id"), (b3_w0, "1"),
                                         (b3_w0, "2.3"), (b3_w0, "3.2.1.2"),
                                         ("id", "id")]]
    # A16 and B12 have more than 256 signed roots, so their elements are
    # tuples (see RootSystem._build_permutations).
    cases += [["info", "--type", f, "--rank", str(r)]
              for f, r in [("G", 2), ("A", 3), ("D", 4), ("A", 16)]]
    cases += [["complexity", "--type", f, "--rank", str(r), "--kind", kind]
              + flags for f, r, kind, flags in [
                  ("A", 3, "richardson", ["--u", "1324", "--v", "3412"]),
                  ("D", 4, "richardson", ["--u", "2", "--v", "2.1.3.4.2.1"]),
                  ("B", 3, "richardson", ["--u", "1", "--v", b3_w0]),
                  ("A", 3, "levi", ["--w", "3412", "--I", "2"]),
                  ("B", 3, "levi", ["--w", "1.2.3.2", "--I", "1"]),
                  ("A", 3, "partial", ["--w", "2.1.3", "--J", "2"]),
                  ("A", 3, "partial", ["--w", "3412", "--J", "1,3",
                                       "--I", "2"]),
                  ("A", 16, "richardson", ["--u", "2.4",
                                           "--v", "1.2.3.4.5.4.3.2.1"]),
                  ("A", 16, "schubert", ["--w", "1.2.1.3.2.16.15.16"]),
                  ("B", 12, "richardson", ["--u", "12.10",
                                           "--v", "12.11.12.11.10.9"]),
                  ("B", 12, "schubert", ["--w", "12.11.12.11.10.9.1"])]]
    return [argv + ["--format", fmt] for argv in cases
            for fmt in ("text", "json", "csv")]


def _cli_digests() -> dict:
    """sha256 of (exit code, stdout) for each of ``_digest_cases``; stderr
    is dropped."""
    out = {}
    for argv in _digest_cases():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        text = f"{code}\n{stdout.getvalue()}"
        out[" ".join(argv)] = hashlib.sha256(text.encode()).hexdigest()
    return out


def pinned_digests() -> dict:
    with open(os.path.join(HERE, "cli_digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    expected, got = pinned_digests(), _cli_digests()
    differ = sorted(k for k in expected.keys() | got.keys()
                    if got.get(k) != expected.get(k))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(expected) - len(differ)} of {len(expected)} digests match "
          f"on Python {sys.version.split()[0]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
