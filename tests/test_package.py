import ast
import sys
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
