"""No public library name that only the tests reach.

Every public function, method and module constant of ``src/qflag`` must be
referenced by name somewhere in ``src/``, ``bench/`` or ``demos/`` outside
its own definition.  A module-level function or constant counts as used
through an ``ast.Name``, an ``ast.Attribute`` or an import alias; a method
only through an ``ast.Attribute`` or an import alias, since a bare name
(``a, b, c, d = ...``) is a local variable, never a method.
``__init__.py`` re-exports do not count as uses.

The match is by bare name, not by binding: a method counts as used when an
attribute of that name is read anywhere, so two definitions that share a
name (``zero`` on two classes, say) hide each other when only one of them
has a caller.  The test finds names that nothing reaches, not every
definition that only the tests reach; so the public method names defined on
more than one class are pinned, and a new one fails until it is checked by
hand and added.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Public names kept with no caller outside the tests, and why.
ALLOWED = {
    "coset.pushforward_tangent":
        "the paper's closed form dY = (A - Y C) dX (C X + D)^-1 of the "
        "action on tangents",
    "coset.trivial_action":
        "the constant sigma of haar_average that the README documents",
}


# Public method names defined on more than one class, each checked to have a
# caller outside the tests on every class that defines it.
SHARED = {
    "blocks": "QuatMatrix.blocks, and GroupElement.blocks for bench/workloads",
    "n": "StateVector.n and GroupElement.n, the quaternionic dimension",
    "norm_sq": "Quaternion.norm_sq and StateVector.norm_sq",
}


def _trees():
    return {path: ast.parse(path.read_text(), filename=str(path))
            for folder in ("src", "bench", "demos")
            for path in sorted((ROOT / folder).rglob("*.py"))
            if path.name != "__init__.py"}


def _definitions(path, tree):
    """(qualified name, bare name, nodes of the definition) of each public
    function, method and module constant of one module."""
    module = path.stem
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{module}.{node.name}.{sub.name}", sub.name, sub
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield f"{module}.{name.id}", name.id, target


def _references(trees):
    """({bare name: ids of the ``ast.Name`` nodes that reference it}, {bare
    name: ids of the ``ast.Attribute`` and import alias nodes})."""
    names, attributes = {}, {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, set()).add(id(node))
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
                attributes.setdefault(name, set()).add(id(node))
    return names, attributes


def _unused(trees, package):
    """Qualified names of the public definitions in the modules of
    ``package`` that nothing in ``trees`` references outside the
    definition itself."""
    names, attributes = _references(trees)
    unused = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for qualname, name, node in _definitions(path, tree):
            if name.startswith("_"):
                continue
            refs = attributes.get(name, set())
            if qualname.count(".") == 1:   # a module-level function or constant
                refs = refs | names.get(name, set())
            inside = {id(n) for n in ast.walk(node)}
            if not refs - inside:
                unused.append(qualname)
    return unused


def test_every_public_library_name_has_a_caller_outside_the_tests():
    unused = _unused(_trees(), ROOT / "src" / "qflag")
    assert sorted(set(unused) - set(ALLOWED)) == []
    # an allowance that is no longer needed goes too
    assert sorted(set(ALLOWED) - set(unused)) == []


def test_a_method_reached_only_through_a_same_named_local_is_unused():
    package = ROOT / "src" / "toy"
    library = """
class Op:
    def d(self):
        return 1

    def used(self):
        return 2


def helper(x):
    return x


def caller(op):
    d = op.used()
    a, b, c, d = d, d, d, d
    return helper(d)
"""
    user = "import toy\ntoy.caller(toy.Op())\n"
    trees = {package / "toy.py": ast.parse(library),
             ROOT / "bench" / "user.py": ast.parse(user)}
    # the local d hides nothing; helper's bare-name call still counts
    assert _unused(trees, package) == ["toy.Op.d"]


def test_public_method_names_shared_by_classes_are_pinned():
    owners = {}
    for path, tree in _trees().items():
        if path.parent != ROOT / "src" / "qflag":
            continue
        for qualname, name, _ in _definitions(path, tree):
            if qualname.count(".") == 2 and not name.startswith("_"):
                owners.setdefault(name, []).append(qualname)
    shared = {name for name, where in owners.items() if len(where) > 1}
    assert sorted(shared) == sorted(SHARED)
