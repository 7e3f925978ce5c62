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
    # the paper's published figures, which the estimate tables are checked against
    "reference_values_table1", "reference_values_table2",
}


def _names(tree):
    """How often each name occurs in `tree`: as a variable, an attribute
    or an imported name."""
    return Counter(node.id if isinstance(node, ast.Name)
                   else node.attr if isinstance(node, ast.Attribute) else node.name
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute, ast.alias)))


def test_every_package_definition_has_a_caller():
    # each module-level function and class, and each method but the
    # dunders, is named in the package outside its own definition or in
    # the benchmark
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    used = sum(map(_names, trees), Counter())
    used += sum((_names(ast.parse(path.read_text(), str(path)))
                 for path in sorted(bench.glob("*.py"))), Counter())
    definitions = []
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            definitions.append(node)
        if isinstance(node, ast.ClassDef):
            definitions += [sub for sub in node.body if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("__")]
    uncalled = [d.name for d in definitions
                if used[d.name] == _names(d)[d.name] and d.name not in UNCALLED_BY_DESIGN]
    assert definitions
    assert not uncalled
