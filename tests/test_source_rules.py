"""Rules on the package source that a new builder must keep.

ops._csr is the only place in the package that builds a sparse matrix
from (row, col) coordinates, because it picks the index type every
operator of a basis shares: a coo_array or coo_matrix anywhere else
would store coordinates of whatever integer type its caller holds.  The
scan flags every reference to either name (a call, an attribute, an
import), with the function that holds it.
"""

import ast
from pathlib import Path

import ibcfock

PACKAGE = Path(ibcfock.__file__).resolve().parent
COO = {"coo_array", "coo_matrix"}


def coo_uses(source: str) -> list:
    """Qualified name of the function (or "<module>") holding each
    reference to coo_array or coo_matrix in a module's source."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, child.name if owner == "<module>"
                      else owner + "." + child.name)
                continue
            name = (child.attr if isinstance(child, ast.Attribute) else
                    child.id if isinstance(child, ast.Name) else
                    child.name if isinstance(child, ast.alias) else None)
            if name in COO:
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_scan_sees_every_kind_of_reference():
    source = ("from scipy.sparse import coo_matrix as m\n"
              "def f(x):\n"
              "    return sparse.coo_array(x)\n"
              "class C:\n"
              "    def g(self):\n"
              "        build = scipy.sparse.coo_matrix\n")
    assert coo_uses(source) == ["<module>", "f", "C.g"]


def test_only_csr_builds_from_coordinates():
    uses = {(path.relative_to(PACKAGE).as_posix(), owner)
            for path in sorted(PACKAGE.rglob("*.py"))
            for owner in coo_uses(path.read_text())}
    assert uses == {("ops.py", "_csr")}
