"""Every public module-level function and class in src/patchmem, every
public method of a public class, and every private module-level function
has a caller in src/patchmem.

A name that only tests reach is a test helper or oracle and belongs in
tests/. The check is by name: a load of the bare name or an attribute of
that name anywhere in the package, outside the definition itself, counts as
a use.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "patchmem"

# entry points called from outside the package
EXEMPT = {("cli", "main")}


def _public(node):
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def _private_function(node):
    return (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__"))


def _definitions_and_uses(wanted=_public):
    """Module-level definitions that ``wanted`` selects (with the public
    methods of public classes) and the names the package uses."""
    defs = []
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = {}

        def define(node, label):
            defs.append((path.stem, label))
            for n in ast.walk(node):
                own.setdefault(id(n), set()).add(node.name)

        for node in tree.body:
            if not wanted(node):
                continue
            define(node, node.name)
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if _public(method):
                        define(method, f"{node.name}.{method.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name not in own.get(id(node), ()):
                uses.append(name)
    return defs, set(uses)


def test_every_public_definition_is_used_in_the_package():
    defs, uses = _definitions_and_uses()
    assert defs, f"no definitions found under {PACKAGE}"
    unused = [f"{module}.{label}" for module, label in defs
              if (module, label) not in EXEMPT and label.rsplit(".", 1)[-1] not in uses]
    assert not unused, f"public names with no caller in src/patchmem: {unused}"


def test_every_private_function_is_called_in_the_package():
    defs, uses = _definitions_and_uses(_private_function)
    assert defs, f"no private functions found under {PACKAGE}"
    unused = [f"{module}.{label}" for module, label in defs if label not in uses]
    assert not unused, f"private functions with no caller in src/patchmem: {unused}"


def test_encoder_imports_nothing_from_the_matcher_stack():
    # pyramids are plain {scale: FeatureGrid} dicts, so the encoder needs
    # nothing of the modules that match them
    tree = ast.parse((PACKAGE / "featurizer.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):  # from .x import y, or from . import x
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert imported, "no imports found in featurizer.py"
    assert not imported & {"pyramid", "matcher", "patcher"}, imported
