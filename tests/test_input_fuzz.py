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
from hypothesis import given, settings
from hypothesis import strategies as st

import gpgraph.catalog as catalog
from gpgraph.catalog import build, parse_spec
from gpgraph.cli import main
from gpgraph.groups import parse_cayley_table, validate_and_build

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


@given(spec=spec_texts(), table=table_texts())
@settings(max_examples=200, deadline=None)
def test_spec_gives_a_group_or_a_value_error(spec, table):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(catalog, "MAX_GROUP_ORDER", FUZZ_ORDER_CAP):
        path = Path(tmp) / "table.tbl"
        path.write_text(table)
        spec = spec.replace(TABLE_FILE, str(path)).replace("@MISSING@", str(Path(tmp) / "none"))
        try:
            group = build(parse_spec(spec))
        except ValueError:
            return
        except OSError:
            assert "file:" in spec.lower()
            return
    checked = validate_and_build(group.table)
    assert np.array_equal(checked.table, group.table)
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
