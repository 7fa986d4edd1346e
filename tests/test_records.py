"""The contracts of the record types: repr, immutability, field order and JSON."""

import hashlib
import json
from pathlib import Path

import pytest

from falk3 import (
    Census,
    GenConfig,
    build_report,
    complete_doubled,
    loop,
    neg,
    parse_graph,
    pos,
    to_json_dict,
)
from falk3.cli import main
from helpers import b2_graph, hub4_mixed

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.mark.parametrize(
    "record, text, field",
    [
        (pos(2, 1), "Edge(kind='+', i=1, j=2)", "kind"),
        (loop(3), "Edge(kind='o', i=3, j=3)", "i"),
        (Census(k3=2, g_circ=1), "Census(k3=2, k4=0, d3=0, d21=0, k22=0, k33=0, g_circ=1, d31=0)", "k3"),
        (
            GenConfig(ell=5, seed=7),
            "GenConfig(ell=5, edge_prob_pos=0.5, edge_prob_neg=0.3, loop_prob=0.3, seed=7, samples=1)",
            "samples",
        ),
    ],
    ids=["edge", "loop", "census", "genconfig"],
)
def test_records_keep_their_repr_and_refuse_assignment(record, text, field):
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_edges_sort_and_hash_as_their_field_tuples():
    edges = [loop(1), neg(1, 2), pos(2, 3), pos(1, 3)]
    assert sorted(edges) == [pos(1, 3), pos(2, 3), neg(1, 2), loop(1)]
    assert [hash(e) for e in edges] == [hash((e.kind, e.i, e.j)) for e in edges]
    assert pos(1, 2) == ("+", 1, 2)


def test_census_dict_keys_are_the_compute_json_census_keys(capsys):
    assert main(["compute", "--json", str(SAMPLES / "hub4_mixed.graph")]) == 0
    keys = list(json.loads(capsys.readouterr().out)["census"])
    assert list(Census().as_dict()) == keys


def test_json_dict_holds_the_census_as_a_dict():
    assert type(to_json_dict(build_report(hub4_mixed()))["census"]) is dict
    assert to_json_dict(build_report(b2_graph()))["census"] is None


def _sample(name):
    return parse_graph((SAMPLES / name).read_text(encoding="utf-8"))


# sha256 of json.dumps(to_json_dict(build_report(g)), indent=2), recorded from
# the dataclass records that the namedtuples replaced
_JSON_PINS = [
    pytest.param(lambda: _sample("doubled_triangle_loop.graph"),
                 "2bcf991069199fbc03384c5bc6d12c480dfd8b243d69c5c94b137fa3ffb024b2", id="doubled_triangle_loop"),
    pytest.param(lambda: _sample("hub4_mixed.graph"),
                 "857e09c870bb936832ea00ffaac78c03406871d91656a779d190ed3dd71ce3a5", id="hub4_mixed"),
    pytest.param(lambda: _sample("looped_wedge.graph"),
                 "9d7464bd8a21dbb1087621c5da58d1d1f05ad564f2ceb9521efd3efaff552a49", id="looped_wedge"),
    pytest.param(lambda: complete_doubled(4, loops=(1,)),
                 "e73b6f28914883b435eb50c4918f1e4511bb9ad91ae86c644359e37b8b7399ee", id="doubled4_loop1"),
    pytest.param(lambda: complete_doubled(4, loops=(1, 2)),
                 "b44c116e2a7f77421ee1ebb015d4ecc195b12d87a1bddadb23c3a2094a704fc5", id="doubled4_loops12"),
    pytest.param(lambda: complete_doubled(5, loops=(1,)),
                 "6770a71137d0bcdbfc96bb565c09005e2e5f8c0555bfefa756330bc37523e6a2", id="doubled5_loop1"),
    pytest.param(lambda: complete_doubled(5, loops=(1, 2)),
                 "7c61b4a87574204b9f5b020143286d8a41854dc4f2becef1910d9cbdc9bde4e7", id="doubled5_loops12"),
]


@pytest.mark.parametrize("build, expected", _JSON_PINS)
def test_json_report_is_pinned_by_value(build, expected):
    text = json.dumps(to_json_dict(build_report(build())), indent=2)
    digest = hashlib.sha256(text.encode()).hexdigest()
    # raise, not assert: the pin must hold under python -O too
    if digest != expected:
        raise AssertionError(f"JSON report hashes to {digest}\n{text}")
