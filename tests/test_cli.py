import json
import pathlib
import re
import subprocess
import sys

import pytest

import gpgraph.catalog as catalog
from gpgraph.catalog import MAX_GROUP_ORDER, build, parse_spec
from gpgraph.cli import main
from gpgraph.groups import read_cayley_table
from gpgraph.verify import VerifyConfig, run_all
from test_groups import WRAPPED_Z2_TEXTS, loop5_times_cyclic


def test_group_build_round_trip(tmp_path, capsys):
    out = tmp_path / "q8.tbl"
    assert main(["group", "build", "gq:8", "--out", str(out)]) == 0
    loaded = read_cayley_table(out)
    assert loaded.fingerprint() == build(parse_spec("gq:8")).fingerprint()


def test_group_build_stdout(capsys):
    assert main(["group", "build", "cyclic:3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "3"
    assert len(lines) == 4


def test_file_spec_with_relabelling(tmp_path, capsys):
    # identity is element 1 in the file; the loader must relabel
    table = tmp_path / "z2.tbl"
    table.write_text("# shifted Z_2\n2\n1 0\n0 1\n")
    assert main(["check", f"file:{table}", "--convention", "punctured"]) == 0
    assert "order 2" in capsys.readouterr().out


def test_graph_outputs(tmp_path):
    dot = tmp_path / "g.dot"
    edges = tmp_path / "g.txt"
    assert main(["graph", "gp", "gq:8", "--convention", "punctured",
                 "--dot", str(dot), "--edges", str(edges)]) == 0
    dot_text = dot.read_text()
    assert dot_text.startswith("graph G {")
    assert dot_text.count("--") == 21  # K_7
    assert edges.read_text().splitlines()[0] == "7"


def test_graph_pg_stdout(capsys):
    assert main(["graph", "pg", "cyclic:4", "--convention", "full"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "4"
    assert len(out) == 1 + 6  # K_4


def test_convention_is_mandatory():
    with pytest.raises(SystemExit):
        main(["graph", "gp", "cyclic:4"])
    with pytest.raises(SystemExit):
        main(["check", "cyclic:4"])


def test_check_output(capsys):
    assert main(["check", "dihedral:4", "--convention", "punctured"]) == 0
    out = capsys.readouterr().out
    assert "complete: no" in out
    assert "components: 5" in out
    assert "planar: yes" in out


def _z10_reversed() -> str:
    """Z_10 with element k written as 9 - k."""
    rows = [" ".join(str(9 - (18 - i - j) % 10) for j in range(10)) for i in range(10)]
    return "10\n" + "\n".join(rows) + "\n"


def test_check_output_is_pinned(tmp_path, monkeypatch, capsys):
    # Every line of `check` under every convention, for cyclic groups (whose
    # conventions give four vertex sets), non-cyclic ones (two) and a file:
    # table whose identity is not label 0.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z10_reversed.tbl").write_text(_z10_reversed())
    text = (pathlib.Path(__file__).parent / "check_pins.txt").read_text()
    pins = [block.partition("\n") for block in text.split("$ gpgraph ")[1:]]
    assert len(pins) == 6 * 4
    for command, _, expected in pins:
        assert main(command.split()) == 0
        assert capsys.readouterr().out == expected, command


def test_verify_json_and_exit_code(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["verify", "--max-order", "12", "--json", str(report)])
    assert code == 0
    parsed = json.loads(report.read_text())
    assert len(parsed) == 20
    out = capsys.readouterr().out
    assert "T2.2" in out and "punctured" in out


def test_verify_single_convention(capsys):
    assert main(["verify", "--max-order", "12", "--conventions", "punctured"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 10


def test_verify_lists_discrepancies_after_the_report_lines(capsys):
    assert main(["verify", "--max-order", "12", "--conventions", "strict,punctured"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    at = lines.index("convention discrepancies (not counterexamples):")
    assert at == 21 and lines[20] == ""
    assert "  T4.4 [strict] cyclic:8: GP planar=True, classification says GP planar=False" \
        " (outside the planar families)" in lines[at + 1:]


def test_verify_refuses_an_empty_convention_list(tmp_path, capsys):
    with pytest.raises(ValueError, match="at least one convention"):
        run_all(VerifyConfig(max_order=12, conventions=()))
    report = tmp_path / "report.json"
    assert main(["verify", "--max-order", "12", "--conventions", ",", "--json", str(report)]) == 2
    assert "at least one convention" in capsys.readouterr().err
    assert not report.exists()


def test_verify_reports_a_repeated_convention_once(tmp_path, capsys):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert main(["verify", "--max-order", "12", "--conventions", "strict",
                 "--json", str(once)]) == 0
    # Each summary line ends with its wall time, which varies between runs.
    def untimed(out):
        return re.sub(r"\(\d+ ms\)", "(ms)", out)

    printed_once = untimed(capsys.readouterr().out)
    assert main(["verify", "--max-order", "12", "--conventions", "strict,strict",
                 "--json", str(twice)]) == 0
    assert untimed(capsys.readouterr().out) == printed_once
    assert twice.read_bytes() == once.read_bytes()


def test_verify_no_dedupe(capsys):
    assert main(["verify", "--max-order", "12", "--no-dedupe",
                 "--conventions", "punctured"]) == 0


def test_domain_errors_exit_cleanly(capsys):
    assert main(["check", "nosuch:3", "--convention", "punctured"]) == 2
    assert main(["group", "build", "gq:12"]) == 2
    assert main(["check", "file:/nonexistent.tbl", "--convention", "punctured"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3


def test_non_group_table_exits_2(tmp_path, capsys):
    table = loop5_times_cyclic(60)
    path = tmp_path / "loop300.tbl"
    path.write_text("300\n" + "\n".join(" ".join(map(str, row)) for row in table) + "\n")
    assert main(["check", f"file:{path}", "--convention", "punctured"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(a*b)*c != a*(b*c) for (a, b, c) = (" in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "cyclic:4", "--convention", "punctured"],
    ["graph", "gp", "cyclic:4", "--convention", "punctured"],
    ["graph", "pg", "cyclic:4", "--convention", "punctured"],
    ["group", "build", "cyclic:4"],
])
def test_trust_flag_is_gone(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--trust"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text", WRAPPED_Z2_TEXTS)
def test_wrapped_entries_exit_2(text, tmp_path, capsys):
    path = tmp_path / "wrapped.tbl"
    path.write_text(text)
    assert main(["check", f"file:{path}", "--convention", "punctured"]) == 2
    assert "is outside [0, 2)" in capsys.readouterr().err


def test_huge_specs_exit_cleanly(monkeypatch, capsys):
    def no_table(*args):
        raise AssertionError("a Cayley table was made")

    monkeypatch.setattr(catalog, "_cyclic_table", no_table)
    monkeypatch.setattr(catalog, "_product_table", no_table)
    deep = "cyclic:2"
    for _ in range(1200):
        deep = f"product:({deep})x(cyclic:2)"
    for spec in ("cyclic:100000", "product:(cyclic:400)x(cyclic:300)", deep,
                 "elemab:2,1000000000", "heisenberg:1000000000000000003"):
        assert main(["check", spec, "--convention", "strict"]) == 2
    assert capsys.readouterr().err.count("error:") == 5


def test_huge_file_table_exits_cleanly(tmp_path, capsys):
    path = tmp_path / "huge.tbl"
    path.write_text(f"{MAX_GROUP_ORDER + 1}\n0\n")
    assert main(["check", f"file:{path}", "--convention", "strict"]) == 2
    assert f"exceeds the cap {MAX_GROUP_ORDER}" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    # one end-to-end subprocess run through the installed script
    result = subprocess.run(
        [sys.executable, "-m", "gpgraph.cli", "verify", "--max-order", "8"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "PruferShadow" in result.stdout
