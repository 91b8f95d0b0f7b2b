import ast
import os

import imvalign
from imvalign import autodiff


def test_no_private_names_imported_across_modules():
    # a module may use its own underscore-prefixed helpers, never a sibling's
    package = os.path.dirname(os.path.abspath(imvalign.__file__))
    offenders = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("imvalign")):
                offenders += [f"{name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_no_exception_is_swallowed():
    # an except clause whose body is only `pass` hides failures instead of handling them
    package = os.path.dirname(os.path.abspath(imvalign.__file__))
    offenders = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and all(isinstance(s, ast.Pass) for s in node.body):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_every_autodiff_primitive_has_a_library_caller():
    # a primitive that no other module calls is dead API; forward_backward is
    # the entry point, and a re-export in __init__ is not a call
    package = os.path.dirname(os.path.abspath(imvalign.__file__))
    used = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name in ("autodiff.py", "__init__.py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ("ad", "autodiff"):
                    used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
                used.update(alias.name for alias in node.names)
    unused = [n for n in autodiff.__all__ if n.islower() and n != "forward_backward" and n not in used]
    assert unused == []
