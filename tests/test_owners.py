"""Each rule has one owner.  XML text becomes an element only in
``ome_xml.read_xml``, which maps every XML fault to ``MalformedXmlError``;
and the Turtle oracle shares no code with the writer it checks."""

import ast
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
WRITER = "ome_rdf.rdf.serialize"


def _functions_naming(tree, module: str, name: str) -> set:
    """The qualified names of the functions (the module, outside any) whose
    own code names ``name``: as an attribute, a variable or an import."""
    owners = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if name in (getattr(child, "attr", None), getattr(child, "id", None),
                        getattr(child, "name", None)):
                owners.add(owner)
            visit(child, owner)

    visit(tree, module)
    return owners


def test_each_rule_has_one_owner():
    owners = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        owners |= _functions_naming(ast.parse(path.read_text(), str(path)), module, "fromstring")
    assert owners == {"ome_rdf.ome_xml.read_xml"}

    tree = ast.parse((ROOT / "tests" / "oracle.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not {m for m in imported if m == WRITER or m.startswith(WRITER + ".")}
    # nor any of the writer's names through a package that re-exports them
    assert not [name for name, value in vars(oracle).items()
                if WRITER in (getattr(value, "__module__", None),
                              getattr(value, "__name__", None))]
