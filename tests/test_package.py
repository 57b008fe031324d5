import ast
import importlib
import os

import tunnelvision


def test_reexports_are_in_module_all():
    # every name the package re-exports is public in the module it comes from
    with open(os.path.join(os.path.dirname(tunnelvision.__file__), "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"tunnelvision.{node.module}")
        missing = [a.name for a in node.names if a.name not in module.__all__]
        assert not missing, f"tunnelvision.{node.module}.__all__ lacks {missing}"


def test_module_all_names_exist():
    # a name left in __all__ after its definition is gone breaks ``import *``
    modules = [importlib.import_module(f"tunnelvision.{name[:-3]}")
               for name in sorted(os.listdir(os.path.dirname(tunnelvision.__file__)))
               if name.endswith(".py") and name != "__init__.py"]
    assert any(hasattr(module, "__all__") for module in modules)
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
