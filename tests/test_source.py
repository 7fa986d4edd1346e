"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "falk3"


def _modules():
    sources = sorted(SRC.glob("*.py"))
    if not sources:
        raise FileNotFoundError(f"no package sources under {SRC}")
    return [(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) for path in sources]


def test_no_assert_statements_in_the_package():
    # python -O strips assert, so no check in the package may rely on one;
    # this test fails by raise for the same reason
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    if found:
        raise AssertionError(f"assert statements in the package: {', '.join(found)}")


def _import_time_nodes(node):
    """Statements that run when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "numpy"
    return False


def test_numpy_is_imported_only_inside_functions():
    # importing the package must not load numpy: only the sampler and the
    # dense helpers need it, and they import it where they use it
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _modules()
        for node in _import_time_nodes(tree)
        if _imports_numpy(node)
    ]
    if found:
        raise AssertionError(f"numpy imported at module import time: {', '.join(found)}")


# the stdlib modules the package may import when it is imported: each runs on
# every start of falk3, and all but these are already loaded by argparse or the
# interpreter.  dataclasses (which loads inspect), typing, fractions and numpy
# are not among them: the records are namedtuples, and fractions and numpy are
# imported inside the functions that need them.  __future__ is a compiler
# directive.
_IMPORT_TIME_STDLIB = {"argparse", "json", "collections", "functools", "itertools", "math", "bisect", "sys"}


def _imported_modules(node):
    """Top-level names of the modules an import statement loads; '' for the package's own."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [""] if node.level else [(node.module or "").split(".")[0]]
    return []


def test_module_level_imports_are_on_the_allow_list():
    allowed = _IMPORT_TIME_STDLIB | {"", "falk3", "__future__"}
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path, tree in _modules()
        for node in _import_time_nodes(tree)
        for name in _imported_modules(node)
        if name not in allowed
    ]
    if found:
        raise AssertionError(f"modules imported at module import time: {', '.join(found)}")


def _private_algebra_reads(node):
    """Private `algebra._*` names that a node reads, as attribute or as import."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "algebra" and node.attr.startswith("_"):
            yield node.attr
    elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "algebra":
        yield from (alias.name for alias in node.names if alias.name.startswith("_"))


def test_only_algebra_reads_its_private_names():
    # every caller goes through the public rank side, so algebra's helpers can
    # change without breaking report, cli or census
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path, tree in _modules()
        if path.name != "algebra.py"
        for node in ast.walk(tree)
        for name in _private_algebra_reads(node)
    ]
    if found:
        raise AssertionError(f"private algebra names read outside algebra.py: {', '.join(found)}")


def _package_imports(tree) -> set[str]:
    """The falk3 modules a module imports anywhere, function bodies included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("falk3."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "falk3":
                    continue
                module = module[len("falk3") :].lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_census_and_rank_routes_import_nothing_from_each_other():
    # the cross-check is worth something only while the census never reads a
    # rank and the rank side never reads a census
    forbidden = {"census.py": {"algebra", "rank"}, "algebra.py": {"census"}, "rank.py": {"census"}}
    imports = {path.name: _package_imports(tree) for path, tree in _modules()}
    found = [
        f"{name} imports {sorted(imports[name] & banned)}"
        for name, banned in forbidden.items()
        if imports[name] & banned
    ]
    if found:
        raise AssertionError(f"the two routes import each other: {', '.join(found)}")


def _names(node) -> set[str]:
    """Every name a node spells: variables, attributes, imports and string constants."""
    named = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            named.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            named.add(sub.attr)
        elif isinstance(sub, ast.alias):
            named.update({sub.name, sub.asname} - {None})
        elif isinstance(sub, ast.ImportFrom):
            named.update((sub.module or "").split("."))  # from .census import x
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            named.add(sub.value)  # getattr(g, "_sign_label") names it too
    return named


def _graph_reads(function) -> set[str]:
    """The attributes a function reads on its parameters annotated SignedGraph."""
    params = {
        a.arg
        for a in function.args.args + function.args.kwonlyargs
        if isinstance(a.annotation, ast.Name) and a.annotation.id == "SignedGraph"
    }
    return {
        node.attr
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in params
    }


def test_rank_side_reads_only_the_edge_list():
    # the census checks the rank side's triangles only while the rank side
    # never reads the graph's vertex -> loop label table, its pair -> signs
    # table, its vertex triangles, its B2 table or flag, or the census; the
    # rank side finds its 4-flats (the B2 witnesses) itself.  A (pair, sign)
    # -> label map stays forbidden too, so that no such table comes back.
    # Every function of algebra.py that rank_side or triangles calls,
    # directly or through another, is held to this, and reads nothing of a
    # SignedGraph but its edges and n
    forbidden = {
        "_vertex_triangles", "_neighbours", "_sign_label", "_loop_label", "_signs", "census",
        "_b2", "b2_witnesses", "contains_b2",
    }
    allowed = {"edges", "n"}
    trees = {path.name: tree for path, tree in _modules()}
    functions = {node.name: node for node in trees["algebra.py"].body if isinstance(node, ast.FunctionDef)}
    todo = ["rank_side", "triangles"]
    named = {}
    while todo:
        name = todo.pop()
        if name not in named:
            named[name] = _names(functions[name])
            todo.extend(named[name] & functions.keys())
    found = [
        f"{name} names {sorted(names & forbidden)}"
        for name, names in sorted(named.items())
        if names & forbidden
    ]
    found += [
        f"{name} reads {sorted(reads - allowed)} of its graph"
        for name in sorted(named)
        if (reads := _graph_reads(functions[name])) - allowed
    ]
    if found:
        raise AssertionError(f"the rank side reads more than the edge list: {', '.join(found)}")


def test_census_reads_only_the_pair_table():
    # the census builds its neighbour map and its vertex triangles itself, so
    # of a SignedGraph it reads the pair -> signs table, the loops, the B2
    # flag and n, and no table the graph keeps for anyone else
    allowed = {"_signs", "_loop_label", "contains_b2", "n"}
    trees = {path.name: tree for path, tree in _modules()}
    found = [
        f"{node.name} reads {sorted(reads - allowed)} of its graph"
        for node in ast.walk(trees["census.py"])
        if isinstance(node, ast.FunctionDef) and (reads := _graph_reads(node)) - allowed
    ]
    if found:
        raise AssertionError(f"the census reads more than the pair table: {', '.join(found)}")


def test_no_cached_property_in_the_package():
    # every table is filled where its graph is built, so no state is derived
    # lazily after construction
    found = [path.name for path, tree in _modules() if "cached_property" in _names(tree)]
    if found:
        raise AssertionError(f"cached_property in the package: {', '.join(found)}")


def _self_table_writes(function):
    """The `self._*` attributes a method assigns, or writes an item of."""
    for node in ast.walk(function):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, ast.Store):
            target = node.value if isinstance(node, ast.Subscript) else node
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                if target.value.id == "self" and target.attr.startswith("_"):
                    yield target.attr


def test_graph_tables_are_written_only_in_init():
    # a SignedGraph never changes after __init__, so its tables are filled there
    trees = {path.name: tree for path, tree in _modules()}
    found = [
        f"{node.name}:{node.lineno} writes {attr}"
        for node in ast.walk(trees["graphs.py"])
        if isinstance(node, ast.FunctionDef) and node.name != "__init__"
        for attr in _self_table_writes(node)
    ]
    if found:
        raise AssertionError(f"graph tables written outside __init__: {', '.join(found)}")


def test_contains_b2_is_a_method_of_the_class():
    # the per-layer benchmark wraps SignedGraph.__dict__["contains_b2"] to count
    # its calls, so it stays a plain method defined on the class
    from falk3 import SignedGraph

    method = SignedGraph.__dict__.get("contains_b2")
    if not callable(method):
        raise AssertionError(f"SignedGraph.__dict__ holds no contains_b2 method: {method!r}")


def test_elimination_entry_loop_never_reads_p():
    # over Z/p the row is reduced once after each reduction step, outside the
    # loop over the pivot's entries, so that loop is the same on both paths
    trees = {path.name: tree for path, tree in _modules()}
    eliminate = next(
        node for node in trees["rank.py"].body if isinstance(node, ast.FunctionDef) and node.name == "_eliminate"
    )
    loops = [
        node
        for node in ast.walk(eliminate)
        if isinstance(node, ast.For) and ast.unparse(node.iter) == "pivot.items()"
    ]
    if len(loops) != 1:
        raise AssertionError(f"expected one loop over pivot.items() in _eliminate, found {len(loops)}")
    names = {node.id for node in ast.walk(loops[0]) if isinstance(node, ast.Name)}
    if "p" in names:
        raise AssertionError(f"_eliminate's entry loop at line {loops[0].lineno} reads p")


def test_cli_leaves_the_identities_to_the_report():
    # report.broken_identity is the one list of the cross-check's identities
    # and their order; cli prints the name it returns, so it reads neither the
    # counts nor the closed forms those identities compare, nor spells a name
    trees = {path.name: tree for path, tree in _modules()}
    named = _names(trees["cli.py"])
    found = sorted(named & {"dim_i3_2_formula", "triangle_total", "triangle_count"})
    found += sorted(
        text
        for text in ("triangle kinds", "dim I3_2 closed form")
        if any(text in name for name in named)
    )
    if found:
        raise AssertionError(f"cli.py re-derives the cross-check: {', '.join(found)}")
