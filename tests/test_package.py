import ast
import importlib
import pkgutil
import re
import sys
from collections import Counter
from pathlib import Path

import asgrs

PACKAGE = Path(asgrs.__file__).parent


def test_package_imports_only_the_standard_library():
    # relative imports (level > 0) stay inside the package
    outside = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.update((path.name, name) for name in names
                           if name.split(".")[0] not in sys.stdlib_module_names)
    assert not outside


def test_no_bitwise_not_in_the_package():
    # ~x of a non-negative int is negative, and at the sweep's lane width
    # CPython's bitwise ops on a negative int cost 3 to 4.5 times the same
    # ops on a non-negative one: clear bits with x ^ (x & y), and
    # complement against an explicit mask
    found = [(path.name, node.lineno)
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert)]
    assert not found, (f"~ at {found}: bitwise ops on a negative int cost 3-4.5x "
                       "those on a non-negative one at lane width")


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_every_package_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(asgrs.__path__):
        module = importlib.import_module(f"asgrs.{info.name}")
        scopes = [vars(module)] + [vars(v) for v in vars(module).values() if isinstance(v, type)]
        caches.update({f"{obj.__module__}.{obj.__qualname__}": obj.cache_info().maxsize
                       for scope in scopes for obj in scope.values()
                       if hasattr(obj, "cache_info")})
    assert caches
    assert not [name for name, maxsize in caches.items() if maxsize is None]


def test_every_asgrs_name_the_benchmark_uses_resolves():
    # the benchmark reaches the package as `asgrs.<name>` on the imported
    # module and through `from asgrs.<module> import <name>`
    checked, missing = 0, []
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "asgrs"):
                found = [(asgrs, node.attr)]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "asgrs":
                module = importlib.import_module(node.module)
                found = [(module, alias.name) for alias in node.names]
            else:
                continue
            checked += len(found)
            missing += [(path.name, node.lineno, name) for module, name in found
                        if not hasattr(module, name)]
    assert checked and not missing



# Names kept with no caller in the package or the benchmark, each for a reason
UNCALLED_BY_DESIGN = {
    # the writer and reader that complete the params and report file formats
    "write_params", "read_report",
}


def _names(tree, kinds=(ast.Name, ast.Attribute, ast.alias)):
    """How often each name occurs in `tree`: as a variable, an attribute
    or an imported name, or only as the node kinds in `kinds`."""
    return Counter(node.id if isinstance(node, ast.Name)
                   else node.attr if isinstance(node, ast.Attribute) else node.name
                   for node in ast.walk(tree) if isinstance(node, kinds))


def _uncalled(trees, callers=()):
    """How many definitions of `trees` were checked, and those that no
    caller reaches: the module-level functions and classes that no name in
    `trees` or `callers` refers to outside their own definition, and the
    methods but the dunders that no attribute does (a local variable or a
    function of the same name does not call a method)."""
    used = sum(map(_names, [*trees, *callers]), Counter())
    attributes = sum((_names(tree, ast.Attribute) for tree in [*trees, *callers]), Counter())
    checked, uncalled = 0, []
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            checked += 1
            if used[node.name] == _names(node)[node.name]:
                uncalled.append(node.name)
        if isinstance(node, ast.ClassDef):
            methods = [sub for sub in node.body if isinstance(sub, ast.FunctionDef)
                       and not sub.name.startswith("__")]
            checked += len(methods)
            uncalled += [sub.name for sub in methods
                         if attributes[sub.name] == _names(sub, ast.Attribute)[sub.name]]
    return checked, uncalled


def test_every_package_definition_has_a_caller():
    # the benchmark counts as a caller: it reaches some names that
    # nothing in the package calls
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    callers = [ast.parse(path.read_text(), str(path)) for path in sorted(bench.glob("*.py"))]
    checked, uncalled = _uncalled(trees, callers)
    assert checked and not [name for name in uncalled if name not in UNCALLED_BY_DESIGN]


def test_caller_guard_needs_an_attribute_use_for_a_method():
    # a local variable named like a method hid a dead method from the
    # guard when any name counted
    tree = ast.parse(
        "class Vector:\n"
        "    def zeros(self): return self.zeros()\n"
        "    def ones(self): pass\n"
        "def merge(vector):\n"
        "    zeros = ones = 0\n"
        "    return vector.ones(), Vector, zeros\n")
    assert _uncalled([tree]) == (4, ["zeros", "merge"])
