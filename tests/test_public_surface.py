"""Every public name in relmp has a caller, and every option a setter and a taker.

A public top-level function, public class or public method of a `relmp`
module must be named somewhere in `src/relmp` outside the lines that define
it, or in `demos/` or `perfbench/`. Tests do not count: a name that only its
own tests call is surface without a user. Names are matched as identifiers in
code (names, attributes, imports) and as string constants, since `perfbench`
wraps functions by their qualified names; docstrings and comments do not
count. `relmp.oracles` is exempt: its references exist to be compared against.

The package module `relmp/__init__.py` is surface too: every name it binds at
top level (an import, an assignment, a function or a class), dunders aside,
must be reached through the package in those places, as `relmp.NAME`,
`from relmp import NAME` or, inside `src/relmp`, `from . import NAME`. A
re-export that every caller imports from its submodule has no user.

Likewise every defaulted parameter of a function or method in `src/relmp`,
and every defaulted field of a dataclass there, must be passed, by keyword,
by position or through `**`, by some call in those places outside the
function's (or class's) own lines: an option that only tests set is a
constant with extra steps. And some such call must leave it out: a default
that every caller overrides is a required parameter in disguise. Calls are
matched to definitions by name; a classmethod or static method only through
its class (`GRMPParams.init(...)`), a constructor through its class name
(`AdamW(...)`, or `cls(...)` inside the class), and an instance method
through any receiver (`opt.step(...)`). Fields inherited from a base class
are not followed.
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


def _caller_files():
    return (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
            + sorted((ROOT / "perfbench").glob("*.py")))


def _callers():
    """identifier -> [(file, line)] over src/relmp, demos/ and perfbench/."""
    seen = {}
    for path in _caller_files():
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


def _package_bindings(tree):
    """Every non-dunder name bound at the top level of `tree`."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names
                    if not (n.startswith("__") and n.endswith("__")))


def _package_references():
    """Names reached through the package over src/relmp, demos/ and
    perfbench/: `relmp.NAME`, `from relmp import NAME` and, in src/relmp,
    `from . import NAME`."""
    reached = set()
    for path in _caller_files():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level, node.module) == (0, "relmp")
                    or (path.parent == PACKAGE
                        and (node.level, node.module) == (1, None))):
                reached.update(a.name for a in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id == "relmp"):
                reached.add(node.attr)
    return reached


def test_every_package_level_name_has_a_caller():
    reached = _package_references()
    unused = [name for name in _package_bindings(_parse(PACKAGE / "__init__.py"))
              if name not in reached]
    assert not unused, f"names bound in relmp/__init__.py with no caller: {unused}"


# -- options ---------------------------------------------------------------------------

# (module, qualified function or dataclass name, parameter or field) -> why it
# keeps its default although no call outside tests passes it
ALLOWED_OPTIONS = {
    ("cli", "main", "argv"):
        "the console script passes nothing so argparse reads sys.argv; tests "
        "and embedding programs pass their own argument list",
    ("layers", "GRMPParams.init", "variant"):
        "the structural ablations that acceptance criteria 7 and 8 compare",
    **{("layers", "GRMPVariant", name):
       "the structural ablations that acceptance criteria 7 and 8 compare"
       for name in ("gating", "alpha", "use_w_in", "use_w_out")},
    ("tensor", "Tensor.backward", "retain_graph"):
        "documented contract of the tape: a second sweep over one graph",
    ("tensor", "finite_difference_check", "h"):
        "the difference step, which a caller scales to its function",
}


def _is_dataclass(node):
    return any(_last_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


def _dataclass_fields(node):
    """(name, position, defaulted) of each constructor field of a dataclass."""
    position = 0
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value, defaulted = item.value, item.value is not None
        if isinstance(value, ast.Call) and _last_name(value.func) == "field":
            keys = {kw.arg: kw.value for kw in value.keywords}
            init = keys.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = bool({"default", "default_factory"} & set(keys))
        yield item.target.id, position, defaulted
        position += 1


def _defaulted_options():
    """(module, qualname, param, path, first, last, position, bound, match)
    for every defaulted parameter and dataclass field. `position` is the
    parameter's index among the positional parameters (None for
    keyword-only), `bound` how many leading ones a call binds implicitly
    (self or cls), and `match` how calls reach the function:
    ("function", name), ("class", class name) for a constructor,
    ("classattr", class, name) or ("method", name). A dataclass field's
    qualname is its class's."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT_MODULES:
            continue
        tree = _parse(path)
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for name, position, defaulted in _dataclass_fields(node):
                    if defaulted:
                        yield (path.stem, node.name, name, path, node.lineno,
                               node.end_lineno, position, 0,
                               ("class", node.name))
            if not isinstance(node, ast.FunctionDef):
                continue
            names, up = [node.name], parent[node]
            while up is not tree:
                if isinstance(up, (ast.ClassDef, ast.FunctionDef)):
                    names.insert(0, up.name)
                up = parent[up]
            owner = parent[node]
            decorators = {d.id for d in node.decorator_list
                          if isinstance(d, ast.Name)}
            if not isinstance(owner, ast.ClassDef):
                match, bound = ("function", node.name), 0
            elif node.name == "__init__":
                match, bound = ("class", owner.name), 1
            elif decorators & {"classmethod", "staticmethod"}:
                match = ("classattr", owner.name, node.name)
                bound = 1 if "classmethod" in decorators else 0
            else:
                match, bound = ("method", node.name), 1
            args = node.args
            positional = args.posonlyargs + args.args
            first_default = len(positional) - len(args.defaults)
            params = [(a.arg, i) for i, a in enumerate(positional)
                      if i >= first_default]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                       if d is not None]
            for name, position in params:
                yield (path.stem, ".".join(names), name, path, node.lineno,
                       node.end_lineno, position, bound, match)


def _last_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _calls():
    """(path, line, keys, call) for every call in src/relmp, demos/ and
    perfbench/; `keys` are the `match` values the call can reach."""
    for path in _caller_files():
        tree = _parse(path)
        # cls(...) inside a class constructs that class
        owner_of = {id(call): node.name for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)
                    for call in ast.walk(node) if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name) and call.func.id == "cls"}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            keys = set()
            if id(node) in owner_of:
                keys = {("class", owner_of[id(node)])}
            elif isinstance(func, ast.Name):
                keys = {("function", func.id), ("class", func.id)}
            elif isinstance(func, ast.Attribute):
                keys = {("function", func.attr), ("class", func.attr),
                        ("method", func.attr)}
                owner = _last_name(func.value)
                if owner is not None:
                    keys.add(("classattr", owner, func.attr))
            yield path, node.lineno, keys, node


def _sets(call, name, position, bound):
    """Whether `call` passes the parameter, by keyword or by position."""
    for kw in call.keywords:
        if kw.arg is None or kw.arg == name:    # **kwargs may carry it
            return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i + bound == position:
            return True
    return False


def _options_where(wanted):
    """(module, qualname, param) of every defaulted parameter that no call
    outside its own lines `wanted`-sets: wanted=True finds the options no
    call sets, wanted=False the defaults no call takes."""
    calls = list(_calls())
    found = set()
    for (module, qualname, name, path, first, last, position, bound,
         match) in _defaulted_options():
        if not any(match in keys and _sets(call, name, position, bound) == wanted
                   and not (p == path and first <= line <= last)
                   for p, line, keys, call in calls):
            found.add((module, qualname, name))
    return found


def _unset_options():
    return _options_where(True)


def test_every_option_has_a_setter():
    unset = _unset_options() - set(ALLOWED_OPTIONS)
    assert not unset, f"defaulted parameters that no caller sets: {sorted(unset)}"


def test_every_option_allowlist_entry_is_an_option_without_a_setter():
    defined = {(module, qualname, name)
               for module, qualname, name, *_ in _defaulted_options()}
    unset = _unset_options()
    stale = [f"{key}: not a defaulted parameter" if key not in defined
             else f"{key}: has a setter, so needs no entry"
             for key in ALLOWED_OPTIONS if key not in unset]
    assert not stale, stale


# -- defaults ----------------------------------------------------------------------------

# (module, qualified function or dataclass name, parameter or field) -> why it
# keeps its default although every call outside tests passes it
ALLOWED_DEFAULTS: dict = {}


def _untaken_defaults():
    return _options_where(False)


def test_every_default_is_taken():
    untaken = _untaken_defaults() - set(ALLOWED_DEFAULTS)
    assert not untaken, f"defaults that every caller overrides: {sorted(untaken)}"


def test_every_default_allowlist_entry_is_a_default_nobody_takes():
    defined = {(module, qualname, name)
               for module, qualname, name, *_ in _defaulted_options()}
    untaken = _untaken_defaults()
    stale = [f"{key}: not a defaulted parameter" if key not in defined
             else f"{key}: some call takes its default, so needs no entry"
             for key in ALLOWED_DEFAULTS if key not in untaken]
    assert not stale, stale
