"""Seeded random and exhaustive streams of B2-free signed graphs.

Labels always come out densely as 1..n in the order: positive edges by
ascending vertex pair, then negative edges by ascending pair, then loops
by ascending vertex.
"""

import itertools
from dataclasses import dataclass

from .graphs import LOOP, NEG, POS, Edge, SignedGraph


@dataclass(frozen=True)
class GenConfig:
    """Sampler parameters; (seed, config) fully determines the output stream."""

    ell: int
    edge_prob_pos: float = 0.5
    edge_prob_neg: float = 0.3
    loop_prob: float = 0.3
    seed: int = 0
    samples: int = 1

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError(f"ell must be at least 1, got {self.ell}")
        for name in ("edge_prob_pos", "edge_prob_neg", "loop_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")


def _build(ell, pos_pairs, neg_pairs, loops) -> SignedGraph:
    """The graph with labels in the module's order; pairs come as ascending (i, j)."""
    edges = [Edge(POS, i, j) for i, j in pos_pairs]
    edges += [Edge(NEG, i, j) for i, j in neg_pairs]
    edges += [Edge(LOOP, v, v) for v in sorted(loops)]
    return SignedGraph(ell, edges)


def random_no_b2(cfg: GenConfig, rng=None) -> SignedGraph:
    """One B2-free sample.

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
        import numpy as np

        rng = np.random.default_rng(cfg.seed)
    pairs = list(itertools.combinations(range(1, cfg.ell + 1), 2))
    # one call draws the same doubles, in the same order, as one call per uniform
    draws = rng.random(2 * len(pairs) + cfg.ell).tolist()
    pos_pairs = [p for p, u in zip(pairs, draws[0::2]) if u < cfg.edge_prob_pos]
    neg_pairs = [p for p, u in zip(pairs, draws[1::2]) if u < cfg.edge_prob_neg]
    loops = {v for v, u in enumerate(draws[2 * len(pairs) :], start=1) if u < cfg.loop_prob}
    if loops:
        negative = set(neg_pairs)
        for i, j in pos_pairs:
            if i in loops and j in loops and (i, j) in negative:
                loops.remove((i, j)[int(rng.integers(0, 2))])
    return _build(cfg.ell, pos_pairs, neg_pairs, loops)


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
    pairs = list(itertools.combinations(range(1, ell + 1), 2))
    for pair_states in itertools.product(range(4), repeat=len(pairs)):
        pos_pairs = [p for p, s in zip(pairs, pair_states) if s in (1, 3)]
        neg_pairs = [p for p, s in zip(pairs, pair_states) if s in (2, 3)]
        for loop_bits in itertools.product((0, 1), repeat=ell):
            g = _build(
                ell,
                pos_pairs,
                neg_pairs,
                [v for v, bit in enumerate(loop_bits, start=1) if bit],
            )
            if not g.contains_b2():
                yield g
