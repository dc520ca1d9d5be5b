"""Every public name of the package has a caller beyond its own tests.

A top-level def or class in src/fraclap/*.py whose name starts without
an underscore must be referenced in code, outside its own definition,
by the package itself (re-exports in __init__.py do not count), by the
benchmark (perfbench/*.py) or by the acceptance criteria
(tests/test_acceptance.py): as a name, an attribute (.name) or an
imported name.  Docstrings, comments and strings do not count.
The same holds for each public method or property of any class, an
underscore class included, referenced as an attribute (.name).
A name only its unit tests use is a liability: delete it or give it a
caller.  Conversely no module uses another module's underscore names:
what two modules share is public.  And the discrete Gegenbauer transform
has one home: only quadrature.py and gegenbauer.py run the rules'
recurrence or ask a rule for its table.
The package itself re-exports only what callers take from it: each
name that __init__.py imports is imported from fraclap, or used as
fraclap.<name>, by the benchmark or by a python example in README.md.
Building blocks are imported from their modules.
NumPy is the one runtime dependency: no module imports SciPy.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fraclap"


def public_definitions(path):
    """(name, first line, last line) of each public top-level def/class,
    and of each public method or property of any top-level class as
    Class.name; the line span includes decorators and is 1-based,
    inclusive."""
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []

    def add(name, node):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        out.append((name, first, node.end_lineno))

    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
            add(node.name, node)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions) and not member.name.startswith("_"):
                    add(f"{node.name}.{member.name}", member)
    return out


def references(tree, name, attribute_only, skip=range(0)):
    """Whether the code of tree refers to name on a line outside skip: as
    an attribute (.name) or, unless attribute_only, as a bare name or an
    imported name."""
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skip:
            continue
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if not attribute_only and (
            (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.alias) and node.name == name)
        ):
            return True
    return False


def test_every_public_name_has_a_caller():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    callers = sorted(ROOT.glob("perfbench/*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in modules + callers}

    unused = []
    for module in modules:
        for name, first, last in public_definitions(module):
            method = "." in name  # a method or property is referenced as an attribute
            bare = name.rpartition(".")[2]
            if not any(
                references(tree, bare, method, range(first, last + 1) if path == module else range(0))
                for path, tree in trees.items()
            ):
                unused.append(f"{module.stem}.{name}")
    assert unused == [], f"public names without a caller outside their own tests: {unused}"


def names_taken_from_the_package(source):
    """Names a Python source imports from fraclap or reads as fraclap.<name>."""
    taken = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "fraclap":
            taken.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "fraclap":
            taken.add(node.attr)
    return taken


def test_every_reexport_is_imported_from_the_package():
    # a re-export no caller takes from the package is a second entry point
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = [p.read_text() for p in sorted(ROOT.glob("perfbench/*.py"))]
    sources += re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    taken = set().union(*map(names_taken_from_the_package, sources))
    assert sorted(exported - taken) == [], "re-exports no caller imports from fraclap"


def test_no_module_reaches_into_another_modules_private_names():
    # a helper two modules share is public and documented in one place
    reached = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = set()  # local names bound to fraclap modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("fraclap")):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        reached.append(f"{path.stem}: {alias.name}")
                    if node.module is None or node.module == "fraclap":
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                modules.update(a.asname or a.name for a in node.names if a.name.startswith("fraclap"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") and ast.unparse(node.value) in modules:
                reached.append(f"{path.stem}: {ast.unparse(node)}")
    assert reached == [], f"private names used outside their module: {reached}"


def test_only_the_rules_and_the_transform_use_the_recurrence():
    # a second module tabling the basis would fork the transform pair
    used = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("quadrature.py", "gegenbauer.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if "jacobi_ratios" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                used.append(f"{path.stem}: jacobi_ratios")
            if (
                isinstance(node, ast.Call)
                and ast.unparse(node.func).split(".")[-1] == "gauss_jacobi"
                and (len(node.args) > 2 or any(k.arg in ("rows", None) for k in node.keywords))
            ):
                used.append(f"{path.stem}: {ast.unparse(node)}")
    assert used == [], f"modules outside quadrature.py and gegenbauer.py using the rules' recurrence: {used}"


def test_no_module_imports_scipy():
    # SciPy is a test dependency only; a function-local import counts too
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.stem}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == [], f"modules importing SciPy: {found}"
