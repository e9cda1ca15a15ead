"""Hypothesis fuzz of the two text inputs: Cayley table files and group specs.

Every text either raises a ValueError subclass (OSError for a file: spec
whose file cannot be opened) or gives a group, and a group is accepted only
when every entry of the table text it came from was an index in [0, n).
"""

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpgraph.catalog as catalog
from gpgraph.catalog import build, parse_spec
from gpgraph.cli import main
from gpgraph.groups import parse_cayley_table, validate_and_build
import kernel_oracles as oracle

SMALL_GROUPS = ("cyclic:1", "cyclic:2", "cyclic:5", "abelian:2,2", "dihedral:3", "gq:8")
FAMILIES = ("cyclic", "abelian", "elemab", "dihedral", "dicyclic", "gq", "heisenberg",
            "symmetric", "nosuch")
TABLE_FILE = "@TABLE@"
# Keeps every table the spec fuzz makes at 512^2 entries or fewer; the cap
# itself is tested in test_catalog.TestOrderCap.
FUZZ_ORDER_CAP = 512


@st.composite
def table_texts(draw) -> str:
    """A small group's table with a few entries replaced: by the same value
    plus a multiple of 2^16, by any integer, or by a non-integer token."""
    table = np.array(build(parse_spec(draw(st.sampled_from(SMALL_GROUPS)))).table)
    n = len(table)
    rows = [[str(int(v)) for v in row] for row in table]
    for _ in range(draw(st.integers(0, 3))):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        v = int(table[r, c])
        rows[r][c] = draw(st.one_of(
            st.integers(-2**40, 2**40).map(lambda k: str(v + k * 2**16)),
            st.integers(-2**70, 2**70).map(str),
            st.sampled_from(["x", "1.0", "0x1", "--1", "#", "1_0"]),
        ))
    header = str(n)
    if draw(st.booleans()):
        header = draw(st.one_of(st.integers(-1, n + 2).map(str), st.sampled_from(["", "n", "8193"])))
    lines = [header] + [" ".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# comment")
    return "\n".join(lines) + "\n"


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(chr(0x0660 + d) for d in range(10)))
FULLWIDTH_DIGITS = str.maketrans("0123456789", "".join(chr(0xFF10 + d) for d in range(10)))


@st.composite
def table_text_spellings(draw) -> str:
    """A small group's table written with the spellings a text may use:
    signs, leading zeros, underscores, non-ASCII digits, a letter that
    numpy's loadtxt reads as a digit, tabs and runs of blanks between
    entries, CRLF line ends, blank and comment lines, inline comments,
    entries past int64, and a dropped entry or row."""
    table = np.array(build(parse_spec(draw(st.sampled_from(SMALL_GROUPS)))).table)
    n = len(table)

    def spell(v: int) -> str:
        digits = str(v)
        return draw(st.sampled_from([
            digits, "+" + digits, "0" + digits, "0_" + digits, "-" + digits,
            digits.translate(ARABIC_INDIC_DIGITS), digits.translate(FULLWIDTH_DIGITS),
            str(2**63), str(10**30), str(-2**63), str(n), "1_0", digits + "\u01fe",
        ]))

    rows = []
    for row in table.tolist():
        tokens = [spell(v) if draw(st.integers(0, 5)) == 5 else str(v) for v in row]
        if draw(st.integers(0, 9)) == 9:
            tokens.pop()
        line = draw(st.sampled_from([" ", "\t", "  ", " \t "])).join(tokens)
        if draw(st.integers(0, 9)) == 9:
            line += " # x"
        rows.append(line)
    if draw(st.integers(0, 9)) == 9:
        rows.pop(draw(st.integers(0, n - 1)))
    lines = [draw(st.sampled_from([str(n), "+" + str(n), " " + str(n) + " "]))] + rows
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "   ", "# comment", "  # indented", "\t"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def table_entries(text: str) -> tuple[int, list[int]]:
    """The order line and every row entry of a text that parsed."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    return int(lines[0]), [int(tok) for ln in lines[1:] for tok in ln.split()]


def assert_group_from_valid_entries(group, text: str) -> None:
    n, entries = table_entries(text)
    assert group.n == n and all(0 <= v < n for v in entries)
    assert group.table.shape == (n, n)


def spec_texts() -> st.SearchStrategy[str]:
    params = st.lists(st.one_of(st.integers(-2, 9), st.sampled_from([2**15, 10**20])),
                      max_size=3).map(lambda ps: ",".join(map(str, ps)))
    leaf = st.one_of(
        st.builds(lambda f, p: f"{f}:{p}", st.sampled_from(FAMILIES), params),
        st.sampled_from([f"file:{TABLE_FILE}", "file:@MISSING@"]),
    )
    products = st.recursive(leaf, lambda inner: st.lists(inner, min_size=1, max_size=3).map(
        lambda parts: "product:" + "x".join(f"({p})" for p in parts)), max_leaves=4)
    return st.one_of(products, st.text(max_size=30))


@given(text=st.one_of(table_texts(), st.text(max_size=40)))
@settings(max_examples=300, deadline=None)
def test_table_text_gives_a_group_or_a_value_error(text):
    try:
        group = parse_cayley_table(text)
    except ValueError:
        return
    assert_group_from_valid_entries(group, text)


@given(text=st.one_of(table_text_spellings(), table_texts(), st.text(max_size=40)))
@settings(max_examples=400, deadline=None)
@example("2\n+0 1\n1 -0\n")
@example("2\n0 1_0\n1 0\n")
@example("2\n0 0_1\n1 0\n")
@example("2\n0 \u0661\n1 0\n")
@example("2\n0 1\n1 \u01fe\n")
@example("2\n0 1 # x\n1 0\n")
@example("2\r\n0\t1\r\n\r\n1 \t 0\r\n")
@example(f"2\n0 {2**63}\n1 0\n")
@example(f"2\n0 1\n1 {10**30}\n")
@example("# head\n\n2\n# between\n0 1\n\n1 0\n# tail\n")
@example("2\n0 x\n1 5\n")
@example("2\n0 5\n1 x\n")
@example("2\n0 1\n1\n")
def test_table_text_parses_as_the_per_token_oracle(text):
    """The same table as the per-token parser, or the same error class
    with the same message."""
    try:
        expected = oracle.parse_cayley_table(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_cayley_table(text)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    group = parse_cayley_table(text)
    assert group.table.dtype == expected.table.dtype
    assert np.array_equal(group.table, expected.table)


@given(spec=spec_texts(), table=table_texts())
@settings(max_examples=200, deadline=None)
def test_spec_gives_a_group_or_a_value_error(spec, table):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(catalog, "MAX_GROUP_ORDER", FUZZ_ORDER_CAP):
        path = Path(tmp) / "table.tbl"
        path.write_text(table)
        spec = spec.replace(TABLE_FILE, str(path)).replace("@MISSING@", str(Path(tmp) / "none"))
        try:
            parsed = parse_spec(spec)
            group = build(parsed)
        except ValueError:
            return
        except OSError:
            assert "file:" in spec.lower()
            return
    checked = validate_and_build(group.table)
    assert np.array_equal(checked.table, group.table)
    if "file:" not in spec.lower():
        assert group.n == parsed.order()
    if str(path) in spec:
        assert_group_from_valid_entries(parse_cayley_table(table), table)


@given(table=table_texts())
@settings(max_examples=50, deadline=None)
def test_cli_exits_2_on_every_refused_table(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.tbl"
        path.write_text(table)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["group", "build", f"file:{path}"])
    try:
        parse_cayley_table(table)
    except ValueError as exc:
        assert code == 2 and err.getvalue() == f"error: {exc}\n"
        return
    n, entries = table_entries(table)
    assert code == 0 and out.getvalue().splitlines()[0] == str(n)
    assert all(0 <= v < n for v in entries)
