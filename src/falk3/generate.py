"""Seeded random and exhaustive streams of B2-free signed graphs.

Labels always come out densely as 1..n in the order: positive edges by
ascending vertex pair, then negative edges by ascending pair, then loops
by ascending vertex.
"""

import functools
import itertools
from collections import namedtuple

from .graphs import LOOP, NEG, POS, Edge, SignedGraph


class GenConfig(
    namedtuple(
        "GenConfig",
        "ell edge_prob_pos edge_prob_neg loop_prob seed samples",
        defaults=(0.5, 0.3, 0.3, 0, 1),
    )
):
    """Sampler parameters; (seed, config) fully determines the output stream.

    Defaults: edge_prob_pos 0.5, edge_prob_neg 0.3, loop_prob 0.3, seed 0,
    samples 1.  The values are checked when the config is built.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.ell < 1:
            raise ValueError(f"ell must be at least 1, got {self.ell}")
        for name in ("edge_prob_pos", "edge_prob_neg", "loop_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        return self

    @classmethod
    def _make(cls, iterable):
        """Build through the checks of `__new__`; `_replace` builds through here too."""
        return cls(*iterable)


@functools.cache
def _records(ell: int) -> tuple[tuple[Edge, ...], tuple[Edge, ...], tuple[Edge, ...]]:
    """Every positive edge, negative edge and loop on 1..ell, each ascending.

    Built once per ell: an Edge is immutable, so every graph on ell
    vertices shares these records instead of building its own.
    """
    pairs = list(itertools.combinations(range(1, ell + 1), 2))
    return (
        tuple(Edge(POS, i, j) for i, j in pairs),
        tuple(Edge(NEG, i, j) for i, j in pairs),
        tuple(Edge(LOOP, v, v) for v in range(1, ell + 1)),
    )


def random_no_b2(cfg: GenConfig, rng=None) -> SignedGraph:
    """One B2-free sample, drawn from `rng`; with no `rng`, the first graph of sample_stream(cfg).

    The draw order is the reproducibility contract (PCG64 via numpy's
    default_rng): for each vertex pair in ascending order one uniform for
    the positive then one for the negative edge, then one uniform per
    vertex for its loop, then one integer draw per repair step.  A B2
    pattern is repaired by deleting one uniformly chosen loop of the first
    remaining witness until no witness is left.

    The witnesses are the doubled pairs with both ends looped, first the
    least pair.  A repair only removes a loop, so it never makes a new
    witness: one ascending pass over the doubled pairs meets each remaining
    witness first, and the graph is built once, after the repairs.
    """
    if rng is None:
        return next(sample_stream(cfg))
    ell, p_pos, p_neg, p_loop = cfg.ell, cfg.edge_prob_pos, cfg.edge_prob_neg, cfg.loop_prob
    positive, negative, looped = _records(ell)
    # one call draws the same doubles, in the same order, as one call per uniform
    draws = rng.random(2 * len(positive) + ell).tolist()
    pos_edges = [e for e, u in zip(positive, draws[0::2]) if u < p_pos]
    neg_edges = [e for e, u in zip(negative, draws[1::2]) if u < p_neg]
    loops = {v for v, u in enumerate(draws[2 * len(positive) :], start=1) if u < p_loop}
    if loops:
        doubled = {(i, j) for _, i, j in neg_edges}
        for _, i, j in pos_edges:
            if i in loops and j in loops and (i, j) in doubled:
                loops.remove((i, j)[int(rng.integers(0, 2))])
    return SignedGraph(ell, pos_edges + neg_edges + [looped[v - 1] for v in sorted(loops)])


def sample_stream(cfg: GenConfig):
    """Yield cfg.samples graphs from a single PCG64 stream seeded with cfg.seed."""
    import numpy as np

    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.samples):
        yield random_no_b2(cfg, rng)


def enumerate_all(ell: int):
    """Every B2-free signed graph on vertices 1..ell, each exactly once.

    Pairs run through the states absent/positive/negative/both and vertices
    through loop absent/present, in a fixed lexicographic order.  A negative
    ell raises ValueError when the stream is first read.
    """
    if ell < 0:
        raise ValueError(f"ell must be at least 0, got {ell}")
    positive, negative, looped = _records(ell)
    for pair_states in itertools.product(range(4), repeat=len(positive)):
        edges = [e for e, s in zip(positive, pair_states) if s in (1, 3)]
        edges += [e for e, s in zip(negative, pair_states) if s in (2, 3)]
        for loop_bits in itertools.product((0, 1), repeat=ell):
            g = SignedGraph(ell, edges + [e for e, bit in zip(looped, loop_bits) if bit])
            if not g.contains_b2():
                yield g
