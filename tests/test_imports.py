import ast
import os

import imvalign


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
