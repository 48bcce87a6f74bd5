"""No library code that only the tests reach: every module-level function,
class and method of `src/suscav/*.py` is named again in the package or in
README.md, the library's documentation."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "suscav"


def definitions(tree):
    """(qualified name, name) of each module-level function and class of
    `tree` and of each method of those classes; dunders are called by
    Python itself, so they are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                    yield f"{node.name}.{sub.name}", sub.name


def test_every_definition_is_named_elsewhere():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    text = "\n".join([*sources.values(), (ROOT / "README.md").read_text()])
    unnamed = [f"{module}: {qualified}"
               for module, source in sources.items()
               for qualified, name in definitions(ast.parse(source))
               # one occurrence is the definition itself
               if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2]
    assert unnamed == []
