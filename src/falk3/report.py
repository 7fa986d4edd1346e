"""Assembled invariants for one graph, renderable as text or a JSON dict.

The rank side (triangle count, dim A^2, dim span F3, dim I3_2) comes from
`algebra.rank_side`, the same pass `phi3_oracle` uses, on every graph.  The
census side is computed apart from it.  agreement needs both routes to
agree twice: phi3 from the ranks equals the census formula, and the
triangle count equals the census's k3 + d21 + k22.  When the graph contains
a B2 sub-arrangement the census formula does not apply: census,
phi3_formula and agreement come back None.
"""

from collections import namedtuple

from . import algebra
from .census import census, phi3_formula
from .graphs import SignedGraph


class FalkReport(
    namedtuple(
        "FalkReport",
        "ell n contains_b2 triangle_count dim_A2 dim_I3_2 dim_span_F3"
        " phi3_oracle phi3_formula census agreement",
    )
):
    """One graph's invariants; the last three fields are None on a graph with B2.

    contains_b2 and agreement are bools, census is a `Census`, and every
    other field is an int.
    """

    __slots__ = ()


def build_report(g: SignedGraph) -> FalkReport:
    count, a2, span, i32 = algebra.rank_side(g)
    oracle = algebra.phi3_from_dims(g.n, a2, i32)
    b2 = g.contains_b2()
    cen = None if b2 else census(g)
    formula = None if b2 else phi3_formula(cen)
    agreement = None if b2 else oracle == formula and count == cen.triangle_total()
    # positional, in field order
    return FalkReport(g.ell, g.n, b2, count, a2, i32, span, oracle, formula, cen, agreement)


def to_json_dict(r: FalkReport) -> dict:
    """The report as nested dicts in field order: the census too, or None on a graph with B2."""
    out = r._asdict()
    if r.census is not None:
        out["census"] = r.census.as_dict()
    return out


def render_text(r: FalkReport) -> str:
    yn = {True: "yes", False: "no"}
    lines = [
        f"vertices            {r.ell}",
        f"hyperplanes         {r.n}",
        f"contains B2         {yn[r.contains_b2]}",
        f"triangles           {r.triangle_count}",
        f"dim A^2             {r.dim_A2}",
        f"dim I3_2            {r.dim_I3_2}",
        f"dim span F3         {r.dim_span_F3}",
        f"phi3 (rank oracle)  {r.phi3_oracle}",
    ]
    if r.contains_b2:
        lines.append("phi3 (census)       n/a (B2 present, census formula inapplicable)")
    else:
        counts = " ".join(f"{k}={v}" for k, v in r.census.as_dict().items())
        lines.append(f"phi3 (census)       {r.phi3_formula}")
        lines.append(f"census              {counts}")
        lines.append(f"agreement           {yn[r.agreement]}")
    return "\n".join(lines)
