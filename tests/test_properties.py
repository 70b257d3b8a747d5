"""Property tests: random words against the independent oracles.

Examples are derandomized and bounded, so every run checks the same cases
and the suite stays fast.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bruhatkit import (bruhat_le, canonical_order, cli,  # noqa: E402
                       enumerate_distinguished, enumerate_group, from_word,
                       identity, inverse, left_descents, multiply,
                       reduced_word, right_descents, root_system)
from bruhatkit.deodhar import build_subexpression  # noqa: E402
from bruhatkit.weyl import simple_reflection  # noqa: E402
from oracles import (WORD_MODEL_CARTAN, perm_bruhat_le,  # noqa: E402
                     perm_from_word, perm_inverse, perm_left_descents,
                     perm_length, perm_mul, perm_right_descents,
                     subword_reachable, td_span, times_simple, word_action,
                     word_lengths)
from sweeps import check_four_way_agreement  # noqa: E402

CASES = settings(derandomize=True, database=None, deadline=None,
                 max_examples=150)


@st.composite
def sn_words(draw, count):
    """n in 2..6 and `count` words over the simple indices of S_n."""
    n = draw(st.integers(2, 6))
    word = st.lists(st.integers(1, n - 1), max_size=12)
    return (n, *(tuple(draw(word)) for _ in range(count)))


@st.composite
def words_of(draw, family, rank, count=2):
    word = st.lists(st.integers(1, rank), max_size=10)
    return (family, rank, *(tuple(draw(word)) for _ in range(count)))


@st.composite
def reduced_words_of(draw, family, rank):
    """A random reduced word (each drawn letter that would not lengthen the
    product is dropped) and a subword of it."""
    rs = root_system(family, rank)
    word, x = [], identity(rs)
    for i in draw(st.lists(st.integers(1, rank), max_size=14)):
        y = multiply(x, simple_reflection(rs, i))
        if y.length > x.length:
            word.append(i)
            x = y
    keep = draw(st.lists(st.booleans(), min_size=len(word),
                         max_size=len(word)))
    return (family, rank, tuple(word),
            tuple(i for i, k in zip(word, keep) if k))


B3_OR_G2 = (("B", 3), ("G", 2))


@CASES
@given(sn_words(3))
def test_sn_group_axioms(case):
    n, a, b, c = case
    rs = root_system("A", n - 1)
    x, y, z = (from_word(rs, w) for w in (a, b, c))
    e = identity(rs)
    assert multiply(multiply(x, y), z) is multiply(x, multiply(y, z))
    assert multiply(x, e) is x is multiply(e, x)
    assert multiply(x, inverse(x)) is e
    assert from_word(rs, a + b) is multiply(x, y)
    # Interning agrees with the oracle's equality of permutations.
    p, q = perm_from_word(n, a), perm_from_word(n, b)
    assert (x is y) == (p == q)
    assert (x == y) == (p == q)
    assert perm_from_word(n, reduced_word(inverse(x))) == perm_inverse(p)
    assert perm_from_word(n, reduced_word(multiply(x, y))) == perm_mul(p, q)


@CASES
@given(sn_words(1))
def test_sn_lengths_and_descents(case):
    n, word = case
    w = from_word(root_system("A", n - 1), word)
    p = perm_from_word(n, word)
    assert w.length == perm_length(p)
    assert right_descents(w) == perm_right_descents(p)
    assert left_descents(w) == perm_left_descents(p)
    assert perm_from_word(n, reduced_word(w)) == p
    assert len(reduced_word(w)) == w.length


@CASES
@given(sn_words(2))
def test_sn_bruhat_le_against_tableau_criterion(case):
    n, a, b = case
    rs = root_system("A", n - 1)
    u, v = from_word(rs, a), from_word(rs, b)
    pu, pv = perm_from_word(n, a), perm_from_word(n, b)
    assert bruhat_le(u, v) == perm_bruhat_le(pu, pv)
    assert bruhat_le(v, u) == perm_bruhat_le(pv, pu)


@CASES
@given(st.one_of(*(words_of(*g) for g in B3_OR_G2)))
def test_bruhat_le_against_subword_criterion(case):
    family, rank, a, b = case
    rs = root_system(family, rank)
    u, v = from_word(rs, a), from_word(rs, b)
    below_v = subword_reachable(rs, reduced_word(v))
    assert bruhat_le(u, v) == (u in below_v)


@CASES
@given(st.one_of(*(words_of(*g, count=3) for g in B3_OR_G2)))
def test_group_axioms_against_word_model(case):
    family, rank, a, b, c = case
    cartan = WORD_MODEL_CARTAN[family, rank]
    rs = root_system(family, rank)
    x, y, z = (from_word(rs, w) for w in (a, b, c))
    e = identity(rs)
    assert multiply(multiply(x, y), z) is multiply(x, multiply(y, z))
    assert multiply(x, e) is x is multiply(e, x)
    assert multiply(x, inverse(x)) is e
    assert from_word(rs, a + b) is multiply(x, y)
    assert from_word(rs, a[::-1]) is inverse(x)
    # Interning agrees with the model's equality of actions.
    assert (x is y) == (word_action(cartan, a) == word_action(cartan, b))
    assert word_action(cartan, reduced_word(x)) == word_action(cartan, a)


@CASES
@given(st.one_of(*(words_of(*g, count=1) for g in B3_OR_G2)))
def test_lengths_and_descents_against_word_model(case):
    family, rank, word = case
    cartan = WORD_MODEL_CARTAN[family, rank]
    lengths = word_lengths(cartan)
    w = from_word(root_system(family, rank), word)
    length = lengths[word_action(cartan, word)]
    assert w.length == len(reduced_word(w)) == length
    steps = range(1, rank + 1)
    assert right_descents(w) == {
        i for i in steps if lengths[word_action(cartan, word + (i,))] < length}
    assert left_descents(w) == {
        i for i in steps if lengths[word_action(cartan, (i,) + word)] < length}


@CASES
@given(st.one_of(*(words_of(*g, count=1) for g in B3_OR_G2 + (("D", 4),))))
def test_times_simple_is_the_memoized_product(case):
    family, rank, word = case
    rs = root_system(family, rank)
    w = from_word(rs, word)
    for i in range(1, rank + 1):
        x = times_simple(w, i)
        assert x is multiply(w, simple_reflection(rs, i))
        assert times_simple(x, i) is w
        assert times_simple(w, i) is x


@pytest.mark.parametrize("family,rank", B3_OR_G2)
@settings(CASES, max_examples=60)
@given(data=st.data())
def test_four_ad_routes_agree(family, rank, data):
    # v by its place in the canonical order, and u a subword of v's reduced
    # word, so u <= v by the subword property.
    rs = root_system(family, rank)
    group = canonical_order(enumerate_group(rs))
    v = group[data.draw(st.integers(0, len(group) - 1))]
    word = reduced_word(v)
    mask = data.draw(st.lists(st.booleans(), min_size=len(word),
                              max_size=len(word)))
    u = from_word(rs, [i for i, keep in zip(word, mask) if keep])
    assert bruhat_le(u, v)
    assert check_four_way_agreement(u, v) <= v.length - u.length


@CASES
@given(st.one_of(*(reduced_words_of(*g) for g in B3_OR_G2)))
def test_walk_masks_against_oracle_route(case):
    # Masks annotated along the walk, td included, equal the masks rebuilt
    # one at a time from their choices.
    family, rank, word, u_word = case
    rs = root_system(family, rank)
    subexprs = enumerate_distinguished(word, from_word(rs, u_word))
    assert subexprs  # u is a subword, so u <= v
    for se in subexprs:
        assert se == build_subexpression(rs, word, se.choices)
        assert se.td == td_span(se)


# -- the CLI contract -----------------------------------------------------

#: Systems on both sides of each family's rank bounds, the ceilings of A-D
#: among them (A45 takes about 0.07 s to build, once per process, as the
#: registry keeps it).
SYSTEMS = (("A", 1), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2),
           ("D", 4), ("F", 4), ("E", 6), ("A", 45), ("B", 32), ("C", 32),
           ("D", 32))
BAD_SYSTEMS = (("A", 0), ("A", 46), ("B", 1), ("D", 33), ("E", 5), ("E", 9),
               ("F", 3), ("G", 3), ("C", -1), ("A", 10**20))
HUGE = str(10**20)
JUNK = ("", "id", " ", "x", "1..2", "1.", "1.1", "1.2.1.2", "3412", "21",
        HUGE, "1\n2", "-1")


def _word_text(rank, max_size):
    """Mostly words over the simple indices, some with letters out of
    range, some malformed."""
    def dotted(letters):
        return st.lists(letters, max_size=max_size).map(
            lambda w: ".".join(map(str, w)) or "id")
    return st.one_of(dotted(st.integers(1, rank)), dotted(st.integers(1, rank)),
                     dotted(st.integers(-1, rank + 1)), st.sampled_from(JUNK))


def _subset_text(rank):
    def joined(indices):
        return st.lists(indices, max_size=3).map(
            lambda s: ",".join(map(str, s)))
    return st.one_of(joined(st.integers(1, rank)), joined(st.integers(1, rank)),
                     joined(st.integers(-1, rank + 1)),
                     st.sampled_from(("", ",", "1,,2", "a", "1,1", HUGE)))


def _rarely(draw, common, *rare):
    """Mostly ``common``, now and then one of ``rare``."""
    return draw(st.sampled_from((common,) * 24 + rare))


def _spelled(draw, flag, value):
    """Mostly ``flag value``; now and then ``flag=value`` or, for flags
    longer than --xy, the value after the flag's first four characters,
    which no other flag of any command starts with."""
    if len(flag) > 4:
        return _rarely(draw, [flag, value], [f"{flag}={value}"],
                       [flag[:4], value])
    return _rarely(draw, [flag, value], [f"{flag}={value}"])


@st.composite
def cli_calls(draw):
    """An argv for cli.main and a BRUHAT_GROUP_CAP value (None: unset)."""
    command = draw(st.sampled_from(("info", "complexity", "scan", "deodhar")))
    # Scans stay at rank 3 or less: a scan of a larger group takes seconds.
    systems = [s for s in SYSTEMS if command != "scan" or s[1] <= 3]
    family, rank = draw(st.sampled_from(_rarely(draw, systems, BAD_SYSTEMS)))
    small = max(1, min(rank, 8))
    flags = [("--type", family), ("--rank", str(rank)),
             ("--format", _rarely(draw, draw(st.sampled_from(
                 ("text", "json", "csv"))), "xml", ""))]
    if command == "complexity":
        flags += [("--kind", _rarely(draw, draw(st.sampled_from(
            ("richardson", "schubert", "levi", "partial"))), "bogus"))]
        flags += [(f"--{name}", draw(_word_text(small, 6)))
                  for name in ("u", "v", "w")]
        flags += [(f"--{name}", draw(_subset_text(small)))
                  for name in ("I", "J")]
    elif command == "scan":
        flags += [("--target", _rarely(draw, draw(st.sampled_from(
                      ("toric_schubert", "toric_richardson",
                       "complexity_histogram", "levi_table"))), "nope")),
                  ("--max-length", draw(st.sampled_from(
                      ("-1", "0", "2", HUGE, "x")))),
                  ("--out", draw(st.sampled_from(
                      ("{dir}/rows", "{dir}/missing/rows"))))]
    elif command == "deodhar":
        word = draw(_word_text(small, 8))
        if (family, rank) in SYSTEMS and draw(st.booleans()):
            word = draw(reduced_words_of(family, rank))[2]
            word = ".".join(map(str, word)) or "id"
        flags += [("--v-word", word), ("--u", draw(_word_text(small, 4)))]
    # --max-length, --out and --I are optional; any flag goes missing now
    # and then.
    argv = [command]
    for flag, value in flags:
        if (draw(st.booleans()) if flag in ("--max-length", "--out", "--I")
                else _rarely(draw, True, False)):
            argv += _spelled(draw, flag, value)
    argv += _rarely(draw, [], ["--bogus"], ["a\nb"])
    cap = _rarely(draw, None, "0", "5", "51840", "-1", "abc", "", HUGE)
    return argv, cap


def _call(argv, cap):
    """Run cli.main on argv, with {dir} in it a fresh directory that holds
    one file, rows.  Returns the exit code, stdout, stderr and the files
    left in the directory, with their contents."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with open(os.path.join(tmp, "rows"), "w", encoding="utf-8") as fh:
            fh.write("old\n")
        os.environ.pop("BRUHAT_GROUP_CAP", None)
        if cap is not None:
            os.environ["BRUHAT_GROUP_CAP"] = cap
        code = cli.main([arg.replace("{dir}", tmp) for arg in argv])
        files = {}
        for name in os.listdir(tmp):
            with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                files[name] = fh.read()
    return code, out.getvalue(), err.getvalue(), files


@settings(CASES, max_examples=400)
@given(cli_calls())
def test_cli_contract(call):
    # Any argv and cap end in a documented exit code.  A failure is one
    # stderr line with no traceback, and leaves the --out target as it was;
    # a success prints the same bytes when run again in the same process.
    argv, cap = call
    code, out, err, files = _call(argv, cap)
    assert code in (0, 2, 3, 4), (code, err)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err
        assert files == {"rows": "old\n"}
    else:
        assert _call(argv, cap) == (code, out, err, files)


# -- the canonical argv reader -----------------------------------------------

#: The flags of each command, and a value argparse accepts for each.
COMMON_FLAGS = ("--type", "--rank", "--format", "--seed")
COMMAND_FLAGS = {
    "info": COMMON_FLAGS,
    "complexity": COMMON_FLAGS + ("--kind", "--u", "--v", "--w", "--I",
                                  "--J"),
    "scan": COMMON_FLAGS + ("--target", "--out", "--jobs", "--max-length"),
    "deodhar": COMMON_FLAGS + ("--v-word", "--u")}
GOOD_VALUES = {"--type": ("A", "D", "G"), "--rank": ("2", "4"),
               "--format": ("text", "json", "csv"), "--seed": ("0", "7"),
               "--kind": ("richardson", "schubert", "levi", "partial"),
               "--u": ("id", "1.2"), "--v": ("3412",), "--w": ("2",),
               "--I": ("1,3",), "--J": ("",),
               "--target": ("levi_table", "toric_schubert"),
               "--out": ("rows",), "--jobs": ("2",), "--max-length": ("3",),
               "--v-word": ("1.2.1",)}
ODD_VALUES = ("-1", "-", "--", "", " 3", "３", "²", "-h", "x", "A", "1",
              "--rank", "a=b")


def _canonical(argv):
    """Whether argv is COMMAND (--flag value)*, each flag of the command in
    full and once, no value starting with "-"."""
    flags = COMMAND_FLAGS.get(argv[0]) if argv else None
    return (flags is not None and len(argv) % 2 == 1
            and len(set(argv[1::2])) == len(argv) // 2
            and set(argv[1::2]) <= set(flags)
            and not any(value.startswith("-") for value in argv[2::2]))


@st.composite
def argv_to_read(draw):
    """Mostly canonical argv with valid values; now and then an odd value,
    a flag spelled with "=" or abbreviated, a flag given twice, -h, a
    token after the last flag, a flag without its value, or no command."""
    command = draw(st.sampled_from(tuple(COMMAND_FLAGS)))
    argv = [_rarely(draw, command, "bogus", "-h", "--type", "", "--")]
    pairs = [(flag, draw(st.sampled_from(
                 GOOD_VALUES[flag] if draw(st.integers(0, 9))
                 else ODD_VALUES)))
             for flag in draw(st.permutations(COMMAND_FLAGS[command]))
             if draw(st.integers(0, 6))]
    if pairs and draw(st.integers(0, 5)) == 0:
        pairs.append(pairs[draw(st.integers(0, len(pairs) - 1))])
    for flag, value in pairs:
        argv += _spelled(draw, flag, value)
    argv += _rarely(draw, [], ["-h"], ["3"], ["--rank"], ["--"],
                    ["--u=2"], ["--ra", "3"])
    return argv


@settings(CASES, max_examples=600)
@given(argv_to_read())
def test_reader_agrees_with_argparse(argv):
    # Whenever _read_argv accepts argv it reads what argparse reads, and it
    # declines only argv that argparse refuses or that is not canonical.
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = vars(cli._parser().parse_args(argv))
        except SystemExit:
            expected = None
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == expected
    else:
        assert expected is None or not _canonical(argv)
