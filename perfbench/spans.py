"""Per-layer spans and counters, installed from outside the package.

The traced run replaces public functions at the module attributes the
pipeline looks them up through (for example ``falk3.algebra.exact_rank``,
which ``rank_i3_2`` resolves at call time) with wrappers that time the call
and record counts.  Nothing under ``src/`` knows about this.  The untraced
run never calls :func:`install`.

Spans are aggregated in memory, not kept one by one: a span's self time is
its duration minus the time covered by its child spans, so the self times of
every span plus ``other`` (op time outside any span) add up to the op time.
Counters that need the call's result (matrix cells, block structure, ...)
are computed after the span closes.  Their cost is booked under
``trace.counters`` so it is not charged to the layer that was measured.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from math import comb
from time import perf_counter

import numpy as np


class Tracer:
    """Span stack plus summed counters for one run."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.max_block_rows = 0
        self._stack: list[float] = []  # child seconds of each open span

    def add(self, key: str, value: float) -> None:
        self.totals[key] += value

    def _close(self, name: str, seconds: float) -> None:
        child = self._stack.pop()
        self.add(f"{name}.self_ms", (seconds - child) * 1e3)
        self.add(f"{name}.calls", 1)
        if self._stack:
            self._stack[-1] += seconds

    def _count(self, hook, args, result) -> None:
        t0 = perf_counter()
        hook(self, args, result)
        seconds = perf_counter() - t0
        self.add("trace.counters.self_ms", seconds * 1e3)
        if self._stack:
            self._stack[-1] += seconds

    def wrap(self, name: str, fn, hook=None):
        """A stand-in for `fn` that records a span named `name`."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, perf_counter() - t0)
            if hook is not None:
                self._count(hook, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        """Generators are timed per item: only the work inside next() is the layer's."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, perf_counter() - t0)
                yield item

        return traced

    def op(self, fn):
        """Run one op under a root span; its self time is booked as `other`."""
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            seconds = perf_counter() - t0
            self.add("other.self_ms", (seconds - self._stack.pop()) * 1e3)
            self.add("trace.op_ms", seconds * 1e3)

    def merge(self, totals: dict) -> None:
        """Fold in totals recorded by a traced CLI child, inside the open op.

        The child's self times count as covered, so the op's `other` is the
        child's wall time outside its spans (interpreter start and exit).
        """
        covered_ms = 0.0
        for key, value in totals.items():
            if key == "rank.max_block_rows":
                self.max_block_rows = max(self.max_block_rows, int(value))
                continue
            self.add(key, value)
            if key.endswith(".self_ms") or key == "import.falk3_ms":
                covered_ms += value
        self._stack[-1] += covered_ms / 1e3

    def snapshot(self) -> dict:
        out = dict(self.totals)
        out["rank.max_block_rows"] = self.max_block_rows
        return out


# -- counters computed from a call's arguments and result --------------------


def _count_triangles(tracer: Tracer, args, result) -> None:
    g = args[0]
    tracer.add("algebra.triangles.triples_scanned", comb(g.n, 3))
    for tri in result:
        tracer.add(f"algebra.triangles.{tri.kind}", 1)


def _count_matrix(tracer: Tracer, args, result) -> None:
    tracer.add("algebra.rows_to_matrix.cells", result.size)
    tracer.add("algebra.rows_to_matrix.nnz", int(np.count_nonzero(result)))


def row_blocks(a: np.ndarray) -> list[int]:
    """Row counts of the connected blocks of a matrix.

    Two nonzero rows are in one block when a chain of shared nonzero columns
    links them; the rank of the matrix is the sum of its block ranks.
    """
    rows, cols = np.nonzero(a)
    parent = list(range(a.shape[1]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first_col = {}
    for r, c in zip(rows.tolist(), cols.tolist()):
        if r in first_col:
            ra, rb = find(first_col[r]), find(c)
            if ra != rb:
                parent[ra] = rb
        else:
            first_col[r] = c
    sizes = defaultdict(int)
    for c in first_col.values():
        sizes[find(c)] += 1
    return list(sizes.values())


def _count_rank(tracer: Tracer, args, result) -> None:
    a = np.asarray(args[0])
    if a.ndim != 2:
        return
    tracer.add("rank.exact_rank.rows", a.shape[0])
    tracer.add("rank.exact_rank.rank", result)
    blocks = row_blocks(a)
    tracer.add("rank.blocks", len(blocks))
    tracer.max_block_rows = max([tracer.max_block_rows, *blocks])


def install(tracer: Tracer):
    """Wrap the pipeline's lookup points; returns a function that undoes it.

    Each entry names the module (or class) attribute a caller resolves at
    call time and the span it is reported as.
    """
    from falk3 import algebra, cli, graphs, rank, report

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "parse_graph", "graph_io.parse_graph", None),
        (cli, "sample_stream", "generate.sample_stream", None),
        (cli, "census", "census.census", None),
        (cli, "build_report", "report.build_report", None),
        (report, "census", "census.census", None),
        (algebra, "phi3_oracle", "algebra.phi3_oracle", None),
        (algebra, "triangles", "algebra.triangles", _count_triangles),
        (algebra, "bigint_rank", "algebra.bigint_rank", None),
        (algebra, "dim_a2", "algebra.dim_a2", None),
        (algebra, "dim_a2_rank", "algebra.dim_a2_rank", None),
        (algebra, "rank_i3_2", "algebra.rank_i3_2", None),
        (algebra, "dim_span_f3", "algebra.dim_span_f3", None),
        (algebra, "ideal3_rows", "algebra.ideal3_rows", None),
        (algebra, "span_f3_rows", "algebra.span_f3_rows", None),
        (algebra, "rows_to_matrix", "algebra.rows_to_matrix", _count_matrix),
        (algebra, "exact_rank", "rank.exact_rank", _count_rank),
        (rank, "bigint_rank", "rank.bigint_rank", None),
        (graphs.SignedGraph, "contains_b2", "graphs.contains_b2", None),
    ]
    saved = []
    for owner, attr, name, hook in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, hook))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# -- per-op metrics ----------------------------------------------------------

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("rank.exact_rank.self_ms", "ms"),
    ("rank.exact_rank.calls", "count"),
    ("rank.exact_rank.rank_per_row", "pivots/row"),
    ("rank.bigint_rank.calls", "count"),
    ("algebra.rows_to_matrix.self_ms", "ms"),
    ("algebra.rows_to_matrix.cells", "count"),
    ("algebra.rows_to_matrix.nnz_frac", "frac"),
    ("rank.blocks", "count"),
    ("rank.max_block_rows", "count"),
    ("algebra.triangles.self_ms", "ms"),
    ("algebra.triangles.triples_scanned", "count"),
    ("algebra.triangles.k3", "count"),
    ("algebra.triangles.d21", "count"),
    ("algebra.triangles.k22", "count"),
    ("algebra.bigint_rank.calls", "count"),
    ("algebra.ideal3_rows.self_ms", "ms"),
    ("algebra.span_f3_rows.self_ms", "ms"),
    ("algebra.phi3_oracle.self_ms", "ms"),
    ("report.build_report.self_ms", "ms"),
    ("census.census.self_ms", "ms"),
    ("generate.sample_stream.self_ms", "ms"),
    ("graphs.contains_b2.calls", "count"),
    ("graph_io.parse_graph.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("import.falk3_ms", "ms"),
    ("other.self_ms", "ms"),
]

_RATIOS = {
    "rank.exact_rank.rank_per_row": ("rank.exact_rank.rank", "rank.exact_rank.rows"),
    "algebra.rows_to_matrix.nnz_frac": ("algebra.rows_to_matrix.nnz", "algebra.rows_to_matrix.cells"),
}


def per_op(totals: dict, ops: int) -> dict:
    """Every summed total divided by the op count; ratios and maxima as they are."""
    out = {}
    for key, value in sorted(totals.items()):
        out[key] = value if key == "rank.max_block_rows" else value / ops
    for key, (num, den) in _RATIOS.items():
        out[key] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
    return out


def self_times(values: dict) -> dict:
    """The self-time entries (`*.self_ms` and the import time) of a per-op dict."""
    return {k: v for k, v in values.items() if k.endswith(".self_ms") or k == "import.falk3_ms"}
