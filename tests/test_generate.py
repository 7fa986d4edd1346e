import hashlib

import pytest

from falk3 import (
    GenConfig,
    SignedGraph,
    enumerate_all,
    loop,
    neg,
    pos,
    random_no_b2,
    sample_stream,
    serialize,
)


def test_stream_is_deterministic():
    cfg = GenConfig(ell=5, seed=123, samples=20)
    first = [serialize(g) for g in sample_stream(cfg)]
    second = [serialize(g) for g in sample_stream(cfg)]
    assert first == second
    assert len(first) == 20
    assert len(set(first)) > 1  # the stream actually varies


# The draw order is a contract: these are the sampler's outputs, by value.
_SEED_123_HEAD = [
    "vertices 5\n+ 1 3\n+ 1 4\n- 1 2\n- 1 3\n- 1 5\n- 2 4\n- 2 5\n- 3 5\no 1\no 2\no 5\n",
    "vertices 5\n+ 1 2\n+ 2 4\n- 1 5\n- 2 5\n- 3 4\n- 3 5\n- 4 5\no 2\no 3\n",
    "vertices 5\n+ 1 2\n+ 1 3\n+ 2 3\n+ 2 4\n+ 3 4\n+ 3 5\n- 1 2\n- 3 4\no 5\n",
]
_SEED_123_SHA256 = "8fd57c5fe3f1017a099a8b3095b4880b780a5a68db378b23c87bd7131386450a"


def test_stream_draw_order_is_pinned():
    cfg = GenConfig(ell=5, seed=123, samples=20)
    texts = [serialize(g) for g in sample_stream(cfg)]
    assert texts[:3] == _SEED_123_HEAD
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == _SEED_123_SHA256
    assert serialize(random_no_b2(cfg)) == texts[0]


def test_forced_repair_stream_is_pinned():
    # every draw builds the doubled pair with both loops; one integer draw per
    # graph picks the loop the repair deletes
    def forced(seed, samples=1):
        return GenConfig(
            ell=2, edge_prob_pos=1.0, edge_prob_neg=1.0, loop_prob=1.0, seed=seed, samples=samples
        )

    def text(kept):
        return f"vertices 2\n+ 1 2\n- 1 2\no {kept}\n"

    by_seed = [serialize(random_no_b2(forced(s))) for s in range(8)]
    assert by_seed == [text(v) for v in (2, 2, 2, 2, 2, 1, 2, 2)]
    stream = [serialize(g) for g in sample_stream(forced(0, samples=8))]
    assert stream == [text(v) for v in (2, 1, 1, 2, 2, 1, 1, 2)]


def test_different_seeds_differ():
    a = [serialize(g) for g in sample_stream(GenConfig(ell=5, seed=1, samples=10))]
    b = [serialize(g) for g in sample_stream(GenConfig(ell=5, seed=2, samples=10))]
    assert a != b


def test_samples_are_b2_free():
    cfg = GenConfig(ell=6, edge_prob_pos=0.8, edge_prob_neg=0.8, loop_prob=0.9, seed=7, samples=50)
    for g in sample_stream(cfg):
        assert not g.contains_b2()
        assert g.ell == 6


def test_forced_repair_drops_one_loop():
    # probability-one config on two vertices always builds the forbidden flat,
    # so the repair path must fire and delete exactly one of the two loops
    cfg = GenConfig(ell=2, edge_prob_pos=1.0, edge_prob_neg=1.0, loop_prob=1.0, seed=0)
    g = random_no_b2(cfg)
    assert g.n == 3
    assert len(g.loop_vertices()) == 1
    assert not g.contains_b2()


def test_repair_choice_is_seed_dependent():
    kept = {
        random_no_b2(
            GenConfig(ell=2, edge_prob_pos=1.0, edge_prob_neg=1.0, loop_prob=1.0, seed=s)
        ).loop_vertices()[0]
        for s in range(20)
    }
    assert kept == {1, 2}  # both endpoints survive for some seed
    cfg = GenConfig(ell=2, edge_prob_pos=1.0, edge_prob_neg=1.0, loop_prob=1.0, seed=0)
    assert random_no_b2(cfg) == random_no_b2(cfg)


def test_enumerate_tiny():
    ones = list(enumerate_all(1))
    assert ones == [SignedGraph(1, []), SignedGraph(1, [loop(1)])]
    twos = list(enumerate_all(2))
    assert len(twos) == 15  # 4 pair states x 4 loop patterns minus the forbidden flat
    assert len(set(twos)) == 15
    assert SignedGraph(2, [pos(1, 2), neg(1, 2), loop(1), loop(2)]) not in twos
    assert SignedGraph(2, [pos(1, 2), neg(1, 2), loop(1)]) in twos


def test_enumerate_refuses_negative_vertex_count():
    assert list(enumerate_all(0)) == [SignedGraph(0, [])]
    with pytest.raises(ValueError, match="got -1"):
        next(enumerate_all(-1))


def test_enumerate_counts_without_cap():
    # 4^3 pair states x 2^3 loop patterns = 512, minus 85 graphs containing
    # a doubled pair with loops at both ends (inclusion-exclusion over 3 pairs)
    assert sum(1 for _ in enumerate_all(3)) == 427


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(ell=0)
    with pytest.raises(ValueError):
        GenConfig(ell=3, edge_prob_pos=1.5)
    with pytest.raises(ValueError):
        GenConfig(ell=3, loop_prob=-0.1)
    with pytest.raises(ValueError):
        GenConfig(ell=3, samples=0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("ell", 0),
        ("edge_prob_pos", 1.5),
        ("edge_prob_neg", -0.2),
        ("loop_prob", 1.01),
        ("seed", -1),
        ("samples", 0),
    ],
)
def test_replace_and_make_validate(field, value):
    # _replace builds through _make, and _make through the checks of GenConfig(...)
    cfg = GenConfig(ell=3)
    with pytest.raises(ValueError, match=f"^{field} must"):
        cfg._replace(**{field: value})
    with pytest.raises(ValueError, match=f"^{field} must"):
        GenConfig._make(value if f == field else v for f, v in zip(cfg._fields, cfg))


def test_replace_and_make_keep_valid_configs():
    cfg = GenConfig(ell=3)
    assert cfg._replace(samples=4, seed=2) == GenConfig(ell=3, seed=2, samples=4)
    assert GenConfig._make((5, 0.5, 0.3, 0.3, 7, 2)) == GenConfig(ell=5, seed=7, samples=2)
    assert len(list(sample_stream(cfg._replace(samples=3)))) == 3
