"""Assembled invariants for one graph, renderable as text or a JSON dict.

The rank side (triangle count, dim A^2, dim span F3, dim I3_2 and the
triangles by kind) comes from
`algebra.rank_side`, the same pass `phi3_oracle` uses, on every graph.  The
census side is computed apart from it.  agreement needs both routes to
agree twice: the rank side's triangles by kind equal the census's k3, d21
and k22, and phi3 from the ranks equals the census formula.
`broken_identity` names the first of these a report breaks.  When the
graph contains a B2 sub-arrangement the census formula does not apply:
census, phi3_formula and agreement come back None.
"""

from collections import namedtuple

from . import algebra
from .census import Census, census, dim_i3_2_formula, phi3_formula
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


def _same_kinds(kinds: dict, cen: Census) -> bool:
    return kinds == {"k3": cen.k3, "d21": cen.d21, "k22": cen.k22}


def build_report(g: SignedGraph) -> FalkReport:
    count, a2, span, i32, kinds = algebra.rank_side(g)
    oracle = algebra.phi3_from_dims(g.n, a2, i32)
    b2 = g.contains_b2()
    cen = None if b2 else census(g)
    formula = None if b2 else phi3_formula(cen)
    agreement = None if b2 else oracle == formula and _same_kinds(kinds, cen)
    # positional, in field order
    return FalkReport(g.ell, g.n, b2, count, a2, i32, span, oracle, formula, cen, agreement)


def broken_identity(g: SignedGraph, r: FalkReport) -> str | None:
    """The first identity that the report `r` of `g` breaks; None when all
    hold, or when `g` has B2 and the census does not apply.

    A wrong triangle count breaks both identities after it, and a wrong
    dim I3_2 breaks phi3, so the order is: the triangles by kind, then
    phi3, named by the dim I3_2 closed form when that disagrees with the
    rank side too.  Only a failing run asks, so the rank side runs again
    for the kinds.
    """
    if r.census is not None and not _same_kinds(algebra.rank_side(g)[4], r.census):
        return "triangle kinds"
    if r.phi3_formula is None or r.phi3_oracle == r.phi3_formula:
        return None
    return "phi3" if r.dim_I3_2 == dim_i3_2_formula(g, r.census) else "dim I3_2 closed form"


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
