"""Every public module-level function and class in src/patchmem has a caller
in src/patchmem.

A name that only tests reach is a test helper and belongs in tests/. The
check is by name: a load of the bare name or an attribute of that name
anywhere in the package, outside the definition itself, counts as a use.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "patchmem"

# entry points called from outside the package
EXEMPT = {("cli", "main")}


def _definitions_and_uses():
    defs = []
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = {}
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.append((path.stem, node.name))
                own.update((id(n), node.name) for n in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if own.get(id(node)) != name:
                uses.append(name)
    return defs, set(uses)


def test_every_public_definition_is_used_in_the_package():
    defs, uses = _definitions_and_uses()
    assert defs, f"no definitions found under {PACKAGE}"
    unused = [f"{module}.{name}" for module, name in defs
              if (module, name) not in EXEMPT and name not in uses]
    assert not unused, f"public names with no caller in src/patchmem: {unused}"
