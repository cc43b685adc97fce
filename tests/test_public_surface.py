"""Every public name in relmp has a caller outside its own definition.

A public top-level function, public class or public method of a `relmp`
module must be named somewhere in `src/relmp` outside the lines that define
it, or in `demos/` or `perfbench/`. Tests do not count: a name that only its
own tests call is surface without a user. Names are matched as identifiers in
code (names, attributes, imports) and as string constants, since `perfbench`
wraps functions by their qualified names; docstrings and comments do not
count. `relmp.oracles` is exempt: its references exist to be compared against.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "relmp"
EXEMPT_MODULES = {"oracles.py"}

# (module, qualified name) -> why it stays without a caller
ALLOWED = {
    ("builders", "save_patch_grid"):
        "writes the patch-grid format that `build-graph --domain image` reads",
    ("builders", "save_protein_chain"):
        "writes the chain format that `build-graph --domain protein` reads",
    ("builders", "save_triplets"):
        "writes the triplet TSV that `build-graph`, `train-kg` and `eval` read",
    ("graph", "load_edge_list"):
        "reads the edge list that `build-graph` writes",
    ("graph", "RelGraph.in_neighbors"):
        "per-node reference view that graph tests compare the CSR layout to",
    ("graph", "RelGraph.in_degree"):
        "per-node reference view that graph tests compare the CSR layout to",
    ("metrics", "fmax"):
        "the protein-function metric behind the EC/GO results the README reports",
    ("layers", "ContextStackParams.receptive_field"):
        "the one fixed property of a context stack whose kernel split is free",
}


def _docstring_ids(tree):
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                ids.add(id(body[0].value))
    return ids


def _references(tree):
    """(identifier, line) for every name the code of `tree` mentions."""
    skip = _docstring_ids(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            for part in node.value.split("."):
                yield part, node.lineno


def _public_definitions(tree):
    """(qualified name, name, first line, last line) of the public surface."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _surface():
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT_MODULES or path.name.startswith("_"):
            continue
        modules[path] = list(_public_definitions(_parse(path)))
    return modules


def _callers():
    """identifier -> [(file, line)] over src/relmp, demos/ and perfbench/."""
    files = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
             + sorted((ROOT / "perfbench").glob("*.py")))
    seen = {}
    for path in files:
        for name, line in _references(_parse(path)):
            seen.setdefault(name, []).append((path, line))
    return seen


def test_every_public_name_has_a_caller():
    callers = _callers()
    unused = []
    for path, definitions in _surface().items():
        module = path.stem
        for qualname, name, first, last in definitions:
            if (module, qualname) in ALLOWED:
                continue
            outside = [(p, line) for p, line in callers.get(name, ())
                       if not (p == path and first <= line <= last)]
            if not outside:
                unused.append(f"{module}.{qualname}")
    assert not unused, f"public names with no caller: {unused}"


def test_every_allowlist_entry_is_a_public_name_without_a_caller():
    callers = _callers()
    defined = {(path.stem, qualname): (path, name, first, last)
               for path, definitions in _surface().items()
               for qualname, name, first, last in definitions}
    stale = []
    for key in ALLOWED:
        if key not in defined:
            stale.append(f"{key}: not a public definition")
            continue
        path, name, first, last = defined[key]
        if any(not (p == path and first <= line <= last)
               for p, line in callers.get(name, ())):
            stale.append(f"{key}: has a caller, so needs no entry")
    assert not stale, stale
