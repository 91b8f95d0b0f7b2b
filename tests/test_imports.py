import ast
import importlib
import os
import subprocess
import sys

import pytest

import imvalign
from imvalign import autodiff

# The public names the package exported when it imported its submodules
# eagerly, by the submodule each was imported from.
_EXPORTED = {
    "autodiff": "GradCheckReport NonDeterministicError NonFiniteError Tape Value forward_backward gradcheck",
    "attention": "scaled_dot_alignment",
    "checks": "CHECKABLE_OPS run_check",
    "core": "AlignmentError Imv ImvValidationReport check_alignment compute_imv context_map "
    "enumerate_monotonic_paths index_vector validate_imv",
    "monotonic": "DegenerateImvError KernelConfig SmaWeights StreamingHmaState align_from_imv hma_transform "
    "sma_loss streaming_hma_run streaming_hma_step",
    "positions": "AlignedPositions align_from_positions ap_loss extract_positions "
    "infer_t2 scale_positions",
    "toy": "MODES SequenceForward ToyBatch ToyModel ToyTask TrainConfig TrainDivergenceError TrainReport "
    "UntrainedModelError alignment_accuracy diagonality_score infer make_batch positions_from_durations "
    "sequence_forward token_patterns train",
}


def _fresh_interpreter(code: str) -> str:
    """The output of ``code`` run by a new interpreter on this imvalign."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(imvalign.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_a_bare_import_loads_no_submodule():
    out = _fresh_interpreter("import sys, imvalign; print([m for m in sys.modules if m.startswith('imvalign.')])")
    assert out == "[]\n"


def test_importing_the_cli_loads_neither_the_trainer_nor_json():
    out = _fresh_interpreter("import sys, imvalign.cli; print('imvalign.toy' in sys.modules, 'json' in sys.modules)")
    assert out == "False False\n"


def test_importing_the_cli_loads_neither_the_checks_nor_attention():
    # only gradcheck runs them; it imports them when it runs
    out = _fresh_interpreter(
        "import sys, imvalign.cli; print('imvalign.checks' in sys.modules, 'imvalign.attention' in sys.modules)"
    )
    assert out == "False False\n"


@pytest.mark.parametrize("module", sorted(_EXPORTED))
def test_every_exported_name_is_its_modules_object(module):
    source = importlib.import_module(f"imvalign.{module}")
    for name in _EXPORTED[module].split():
        assert getattr(imvalign, name) is getattr(source, name), name


def test_the_star_import_and_dir_list_every_exported_name():
    exported = {name for names in _EXPORTED.values() for name in names.split()}
    assert sorted(exported) == imvalign.__all__
    namespace = {}
    exec("from imvalign import *", namespace)
    assert exported <= set(namespace) and exported <= set(dir(imvalign))
    assert imvalign.toy.train is imvalign.train


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        imvalign.no_such_name
    assert not hasattr(imvalign, "matrixio_reader")


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
