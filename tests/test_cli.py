import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from falk3 import (
    DuplicateEdge,
    ParseError,
    SelfPairEdge,
    VertexOutOfRange,
    complete_doubled,
    parse_graph,
    parse_sigma,
    phi3_oracle,
    serialize,
)
from falk3 import cli
from falk3.cli import main
from falk3.errors import FalkError
from helpers import signed_graphs

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


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


def test_verify_exhaustive_refuses_six_vertices(capsys):
    # 4^C(6,2) * 2^6 = 2^36 graphs: refused before the first one is built
    assert main(["verify", "--vertices", "6", "--exhaustive"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "4^C(6,2)*2^6 = 2^36 graphs" in captured.err


def test_verify_sampled(capsys):
    assert main(["verify", "--vertices", "4", "--samples", "25", "--seed", "3"]) == 0
    assert capsys.readouterr().out.strip() == "25/25 graphs agree"


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
