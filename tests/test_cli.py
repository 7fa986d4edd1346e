import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from falk3 import (
    DuplicateEdge,
    ParseError,
    SelfPairEdge,
    SignedGraph,
    VertexOutOfRange,
    complete_doubled,
    loop,
    neg,
    parse_graph,
    parse_sigma,
    phi3_oracle,
    pos,
    serialize,
)
from falk3 import algebra, build_report, cli, rank, report
from falk3.cli import main
from falk3.errors import FalkError
from helpers import hub4_mixed, signed_graphs

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"


# ---------------------------------------------------------------- parsing


@given(signed_graphs(min_ell=1, max_ell=5))
@settings(max_examples=50, deadline=None)
def test_round_trip(g):
    assert parse_graph(serialize(g)) == g


def test_parse_comments_and_blanks():
    text = """
# leading comment
vertices 3   # trailing comment

+ 1 2
o 3  # looped
"""
    g = parse_graph(text)
    assert g.ell == 3
    assert g.n == 2
    assert g.loop_vertices() == (3,)


def test_parse_duplicate_edge_reports_line():
    text = "vertices 2\n+ 1 2\n+ 2 1\n"
    with pytest.raises(DuplicateEdge, match="line 3"):
        parse_graph(text)


def test_parse_restates_graph_faults_by_line():
    # SignedGraph makes the edge checks and names the label; the parser names
    # the file line instead, with the same exception class and fault text
    cases = [
        ("vertices 3\n+ 1 2\n\n+ 2 1\n", (3, [pos(1, 2), pos(2, 1)]),
         DuplicateEdge, 2, 4, "duplicate '+' edge at (1, 2)"),
        ("vertices 2\n# c\n+ 1 1\n", (2, [pos(1, 1)]),
         SelfPairEdge, 1, 3, "signed edge from vertex 1 to itself"),
        ("vertices 2\no 1\n- 0 2\n", (2, [loop(1), neg(0, 2)]),
         VertexOutOfRange, 2, 3, "endpoints (0, 2) outside 1..2"),
    ]
    for text, (ell, edges), error, label, line_no, detail in cases:
        with pytest.raises(error) as direct:
            SignedGraph(ell, edges)
        assert (direct.value.label, direct.value.detail) == (label, detail)
        assert str(direct.value) == f"edge {label}: {detail}"
        with pytest.raises(error) as parsed:
            parse_graph(text)
        assert str(parsed.value) == f"line {line_no}: {detail}"


def test_parse_missing_vertices_line():
    with pytest.raises(ParseError, match="vertices"):
        parse_graph("+ 1 2\n")
    with pytest.raises(ParseError) as exc:
        parse_graph("# only a comment\n")
    assert exc.value.line_no == 1


def test_parse_bad_directives():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("vertices 2\n* 1 2\n")
    with pytest.raises(ParseError, match="integer"):
        parse_graph("vertices 2\n+ 1 x\n")
    with pytest.raises(ParseError, match="duplicate 'vertices'"):
        parse_graph("vertices 2\nvertices 3\n")
    with pytest.raises(SelfPairEdge, match="line 2"):
        parse_graph("vertices 2\n+ 1 1\n")
    with pytest.raises(VertexOutOfRange, match="line 3"):
        parse_graph("vertices 2\n+ 1 2\no 5\n")


def test_parse_sigma():
    assert parse_sigma("+,-,+", 3) == (1, -1, 1)
    assert parse_sigma(" + , - ", 2) == (1, -1)
    with pytest.raises(FalkError, match="expected 3"):
        parse_sigma("+,-", 3)
    with pytest.raises(FalkError, match="entries must be"):
        parse_sigma("+,0,-", 3)


# ---------------------------------------------------------------- compute


def test_compute_text(capsys):
    assert main(["compute", str(SAMPLES / "looped_wedge.graph")]) == 0
    out = capsys.readouterr().out
    assert "phi3 (rank oracle)  10" in out
    assert "phi3 (census)       10" in out
    assert "agreement           yes" in out


def test_compute_json_schema(capsys):
    assert main(["compute", "--json", str(SAMPLES / "hub4_mixed.graph")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == [
        "ell", "n", "contains_b2", "triangle_count", "dim_A2", "dim_I3_2",
        "dim_span_F3", "phi3_oracle", "phi3_formula", "census", "agreement",
    ]
    assert data["ell"] == 4
    assert data["n"] == 11
    assert data["contains_b2"] is False
    assert data["triangle_count"] == 12
    assert data["dim_A2"] == 43
    assert data["dim_I3_2"] == 95
    assert data["dim_span_F3"] == 83
    assert data["phi3_oracle"] == 37
    assert data["phi3_formula"] == 37
    assert data["agreement"] is True
    assert data["census"] == {
        "k3": 9, "k4": 2, "d3": 0, "d21": 3, "k22": 0, "k33": 0, "g_circ": 2, "d31": 1,
    }


def test_compute_doubled_triangle_sample(capsys):
    assert main(["compute", "--json", str(SAMPLES / "doubled_triangle_loop.graph")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["phi3_oracle"] == data["phi3_formula"] == 17


def test_compute_doubled_k6_with_loop(tmp_path, capsys):
    # 2635 ideal rows over 4185 monomials, of rank 2155
    path = tmp_path / "k6.graph"
    path.write_text(serialize(complete_doubled(6, loops=(1,))))
    assert main(["compute", "--json", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agreement"] is True
    assert data["phi3_oracle"] == data["phi3_formula"] == 480


def test_compute_b2_graph_is_oracle_only(tmp_path, capsys):
    path = tmp_path / "b2.graph"
    path.write_text("vertices 2\n+ 1 2\n- 1 2\no 1\no 2\n")
    assert main(["compute", "--json", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["contains_b2"] is True
    assert data["census"] is None
    assert data["phi3_formula"] is None
    assert data["agreement"] is None
    assert data["phi3_oracle"] == 8


def test_compute_missing_file(capsys):
    assert main(["compute", "no_such_file.graph"]) == 1
    assert "error:" in capsys.readouterr().err


def test_compute_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("vertices 2\n+ 1 2\n+ 2 1\n")
    assert main(["compute", str(path)]) == 1
    assert "line 3" in capsys.readouterr().err


# ---------------------------------------------------------------- census


def test_census_command(capsys):
    assert main(["census", str(SAMPLES / "looped_wedge.graph")]) == 0
    out = capsys.readouterr().out
    assert "k3=2" in out and "d21=2" in out and "g_circ=1" in out
    assert "phi3 (census)  10" in out


def test_census_command_json(capsys):
    assert main(["census", "--json", str(SAMPLES / "hub4_mixed.graph")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "n": 11,
        "census": {"k3": 9, "k4": 2, "d3": 0, "d21": 3, "k22": 0,
                   "k33": 0, "g_circ": 2, "d31": 1},
        "phi3_formula": 37,
    }


def test_census_command_rejects_b2(tmp_path, capsys):
    path = tmp_path / "b2.graph"
    path.write_text("vertices 2\n+ 1 2\n- 1 2\no 1\no 2\n")
    assert main(["census", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- verify


def test_verify_exhaustive_two_vertices(capsys):
    assert main(["verify", "--vertices", "2", "--exhaustive"]) == 0
    assert capsys.readouterr().out.strip() == "15/15 graphs agree"


@pytest.mark.parametrize("ell", [5, 6])
def test_verify_exhaustive_refuses_five_or_more_vertices(monkeypatch, capsys, ell):
    # 4^C(ell,2) * 2^ell = 2^(ell^2) graphs: refused before the first one is built,
    # so a missing guard fails here at once instead of running for hours
    def enumerate_all(*args, **kwargs):
        raise RuntimeError(f"--exhaustive on {ell} vertices started enumerating")

    monkeypatch.setattr(cli, "enumerate_all", enumerate_all)
    assert main(["verify", "--vertices", str(ell), "--exhaustive"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"4^C({ell},2)*2^{ell} = 2^{ell * ell} graphs" in captured.err


def test_verify_exhaustive_refuses_negative_vertices(capsys):
    assert main(["verify", "--vertices", "-1", "--exhaustive"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ell must be at least 0, got -1\n"


def test_verify_sampled(capsys):
    assert main(["verify", "--vertices", "4", "--samples", "25", "--seed", "3"]) == 0
    assert capsys.readouterr().out.strip() == "25/25 graphs agree"


@pytest.mark.parametrize(
    "off_by_one, broken",
    [(("phi3_formula",), "phi3"), (("phi3_formula", "dim_i3_2_formula"), "dim I3_2 closed form")],
)
def test_verify_names_the_broken_identity(monkeypatch, capsys, off_by_one, broken):
    # the report's census formula off by one makes every graph disagree; the
    # dim I3_2 closed form is named when it disagrees with the rank side too
    modules = {"phi3_formula": report, "dim_i3_2_formula": cli}
    for name in off_by_one:
        real = getattr(modules[name], name)
        monkeypatch.setattr(modules[name], name, lambda *args, real=real: real(*args) + 1)
    assert main(["verify", "--vertices", "2", "--exhaustive"]) == 2
    out = capsys.readouterr().out
    assert out == f"0/15 graphs agree\nfirst counterexample:\nbroken identity: {broken}\nvertices 2\n"


def test_verify_goes_through_build_report_only(monkeypatch, capsys):
    # one pass per graph, shared with compute; never the oracle on its own
    reports = []

    def counting_build_report(g):
        reports.append(g)
        return build_report(g)

    def phi3_oracle(*args, **kwargs):
        raise RuntimeError("verify called algebra.phi3_oracle")

    monkeypatch.setattr(cli, "build_report", counting_build_report)
    monkeypatch.setattr(algebra, "phi3_oracle", phi3_oracle)
    assert main(["verify", "--vertices", "4", "--samples", "12", "--seed", "3"]) == 0
    assert capsys.readouterr().out.strip() == "12/12 graphs agree"
    assert len(reports) == 12


@pytest.mark.parametrize("one_pass", ["build_report", "phi3_oracle"])
def test_build_report_runs_one_elimination(monkeypatch, one_pass):
    # B2-free: every boundary row and every unit row has a private column, so
    # the one elimination ranks only the shared span rows
    calls = []
    eliminate = rank._eliminate

    def counting_eliminate(groups, p):
        groups = [list(rows) for rows in groups]
        calls.append((p, [len(rows) for rows in groups]))
        return eliminate(groups, p)

    monkeypatch.setattr(rank, "_eliminate", counting_eliminate)
    if one_pass == "build_report":
        report = build_report(hub4_mixed())
        assert (report.dim_span_F3, report.dim_I3_2, report.agreement) == (83, 95, True)
    else:
        assert phi3_oracle(hub4_mixed()) == 37
    assert len(calls) == 1
    p, (flat_rows, span_rows, unit_rows) = calls[0]
    assert p is None
    assert (flat_rows, unit_rows) == (0, 0)
    assert span_rows > 0


@given(signed_graphs(max_ell=5, allow_b2=True))
@settings(max_examples=60, deadline=None)
def test_phi3_oracle_is_the_report_oracle_on_every_graph(g):
    # one rank side for both, so the oracle needs no B2-free graph
    assert phi3_oracle(g) == build_report(g).phi3_oracle


@pytest.mark.parametrize(
    "g,triangle_count,phi3",
    [
        (SignedGraph(400, [pos(1, 2)]), 0, 0),
        (SignedGraph(120, [pos(i, i + 1) for i in range(1, 120)]), 0, 0),
        (SignedGraph(3000, [pos(i, i + 1) for i in range(1, 3000)]), 0, 0),
        # one k22 per edge; loops join only the coordinate-plane groups of their edges
        (SignedGraph(1000, [pos(i, i + 1) for i in range(1, 1000)] + [loop(v) for v in range(1, 1001)]),
         999, 2 * 999),
    ],
    ids=["one-edge-400", "path-120", "path-3000", "looped-path-1000"],
)
def test_build_report_cost_follows_the_edges(g, triangle_count, phi3):
    # triples and 4-sets are reached through edges, never through C(ell,3) vertex
    # triples; the rank route groups the normals of each coordinate plane and looks
    # up one direction per pair of normals leaving a vertex upwards
    start = time.perf_counter()
    report = build_report(g)
    elapsed = time.perf_counter() - start
    assert (report.triangle_count, report.phi3_oracle, report.agreement) == (triangle_count, phi3, True)
    assert elapsed < 1.0


def test_main_reuses_one_parser_without_carrying_state(capsys):
    # the parser is built once per process; no call may see another's options
    assert cli._parser() is cli._parser()
    assert main(["verify", "--vertices", "3", "--samples", "4", "--seed", "1"]) == 0
    with pytest.raises(SystemExit):
        main(["verify", "--samples", "7"])
    assert main(["verify", "--vertices", "3", "--seed", "1"]) == 0
    assert main(["verify", "--vertices", "2", "--exhaustive"]) == 0
    out = capsys.readouterr().out.split("\n")
    assert out[:3] == ["4/4 graphs agree", "100/100 graphs agree", "15/15 graphs agree"]


# ---------------------------------------------------------------- switch


def test_switch_output(tmp_path, capsys):
    # sigma values starting with '-' need the --sigma= spelling under argparse
    assert main(["switch", str(SAMPLES / "looped_wedge.graph"), "--sigma=-,+,+"]) == 0
    out = capsys.readouterr().out
    assert out == "vertices 3\n- 1 2\n+ 2 3\n- 1 3\n+ 1 2\n- 2 3\no 2\n"
    switched = parse_graph(out)
    assert phi3_oracle(switched) == 10


def test_switch_preserves_oracle_on_samples(capsys):
    for name, sigma, phi3 in (
        ("looped_wedge.graph", "+,-,+", 10),
        ("doubled_triangle_loop.graph", "-,-,+", 17),
        ("hub4_mixed.graph", "-,+,+,-", 37),
    ):
        assert main(["switch", str(SAMPLES / name), f"--sigma={sigma}"]) == 0
        g = parse_graph(capsys.readouterr().out)
        assert phi3_oracle(g) == phi3


def test_switch_bad_sigma(capsys):
    assert main(["switch", str(SAMPLES / "looped_wedge.graph"), "--sigma", "+,-"]) == 1
    assert "sigma" in capsys.readouterr().err


# ---------------------------------------------------------------- cold start

# Run in a fresh interpreter: numpy is loaded only by the sampler and the
# dense helpers, never by importing the package or by the single-graph commands.
_COLD_START = """
import contextlib, io, sys
import falk3, falk3.cli

if "numpy" in sys.modules:
    raise SystemExit("numpy was imported by import falk3.cli")
for args in (
    ["compute", "--json", "samples/hub4_mixed.graph"],
    ["census", "samples/looped_wedge.graph"],
    ["switch", "--sigma=-,+,+", "samples/looped_wedge.graph"],
    ["verify", "--vertices", "2", "--exhaustive"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = falk3.cli.main(args)
    if code != 0:
        raise SystemExit(f"{args} exited {code}")
    if "numpy" in sys.modules:
        raise SystemExit(f"numpy was imported by {args}")

# the sampler still needs numpy, and gets it
code = falk3.cli.main(["verify", "--vertices", "4", "--samples", "3"])
if code != 0 or "numpy" not in sys.modules:
    raise SystemExit(f"sampled verify exited {code} without numpy loaded")
"""


def _run_fresh(source: str, stdout: str) -> None:
    """Run `source` in a fresh interpreter on the checkout; it must exit 0 and print `stdout`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", source],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0 or proc.stdout != stdout:
        raise AssertionError(
            f"exit {proc.returncode}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )


def test_single_graph_commands_never_import_numpy():
    _run_fresh(_COLD_START, "3/3 graphs agree\n")


# fractions is imported only by an elimination that needs a non-integer pivot;
# the B2-free graphs below need none, so their cold runs never load it
_NO_FRACTIONS = """
import contextlib, io, sys
import falk3, falk3.cli

if "fractions" in sys.modules:
    raise SystemExit("fractions was imported by import falk3.cli")
for args in (
    ["compute", "samples/hub4_mixed.graph"],
    ["compute", "--json", "samples/doubled_triangle_loop.graph"],
    ["verify", "--vertices", "3", "--exhaustive"],
    ["verify", "--vertices", "7", "--samples", "30", "--seed", "4"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = falk3.cli.main(args)
    if code != 0:
        raise SystemExit(f"{args} exited {code}")
    if "fractions" in sys.modules:
        raise SystemExit(f"fractions was imported by {args}")
print("no fractions")
"""


def test_compute_and_verify_never_import_fractions():
    _run_fresh(_NO_FRACTIONS, "no fractions\n")
