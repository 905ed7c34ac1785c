"""Rules on the package source that a new builder must keep.

ops._csr is the only place in the package that builds a sparse matrix
from (row, col) coordinates, because it picks the index type every
operator of a basis shares: a coo_array or coo_matrix anywhere else
would store coordinates of whatever integer type its caller holds.  The
scan flags every reference to either name (a call, an attribute, an
import), with the function that holds it.

The command line's settings are pinned: every config key cli.py reads
and every flag it declares is listed here, so a new knob (or a second
spelling of an old one) fails until this list names it.
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


def cli_settings(source: str) -> tuple:
    """The sorted "section.key" names a module's source reads from its
    config, and the sorted option strings of its add_argument calls.

    raw is the parsed INI, a dict of sections.  A key read is x["key"] or
    x.get("key", ...) where x is raw["section"], raw.get("section", ...),
    or a name that the same function binds to one of those.
    """
    def key_read(node):
        # (receiver, key) of x["key"] and x.get("key", ...), else None
        if isinstance(node, ast.Subscript):
            receiver, key = node.value, node.slice
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"):
            receiver, key = node.func.value, node.args[0]
        else:
            return None
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return receiver, key.value
        return None

    def section_of(node):
        read = key_read(node)
        if read and isinstance(read[0], ast.Name) and read[0].id == "raw":
            return read[1]
        return None

    tree = ast.parse(source)
    keys = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        bound = {t.id: section_of(node.value) for node in ast.walk(fn)
                 if isinstance(node, ast.Assign) and section_of(node.value)
                 for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(fn):
            read = key_read(node)
            if read is None:
                continue
            receiver, key = read
            section = (bound.get(receiver.id)
                       if isinstance(receiver, ast.Name)
                       else section_of(receiver))
            if section:
                keys.add(section + "." + key)
    flags = {arg.value for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "add_argument"
             for arg in node.args if isinstance(arg, ast.Constant)}
    return sorted(keys), sorted(flags)


def test_the_settings_scan_sees_every_kind_of_read():
    source = ("def load(raw, parser, data):\n"
              "    grid = raw.get('grid', {})\n"
              "    sect = raw['model']\n"
              "    n = grid.get('n', '3') + sect['d'] + sect.get('m', '1')\n"
              "    x = raw['study']['seed'] + raw.get('output', {}).get('f')\n"
              "    y = data['outputs'] + data.get('not_a_key', 0)\n"
              "    parser.add_argument('--tol', type=float)\n"
              "def other(grid):\n"
              "    return grid.get('not_a_section_here', 1)\n")
    assert cli_settings(source) == (
        ["grid.n", "model.d", "model.m", "output.f", "study.seed"],
        ["--tol"])


# Every config key and flag of the command line.  The identity gate is
# not among them: it is verify_identity's default tolerance.
CLI_KEYS = [
    "grid.basis_cap", "grid.k_max", "grid.n_max", "grid.n_per_axis",
    "model.alpha", "model.beta", "model.coupling", "model.d",
    "model.delta", "model.gamma", "model.kind", "model.m",
    "model.m_boson", "model.mu",
    "output.dump_operators",
    "study.eig_tol", "study.eta_list", "study.fit_lambda_list",
    "study.ladder_k_max", "study.lambda_list", "study.lambda_shifts",
    "study.n_p_samples", "study.n_samples", "study.scaling_exponents",
    "study.seed", "study.variants",
]
CLI_FLAGS = ["--config", "--corrupt-offdiag-sign", "--out",
             "--override-conditions", "--seed"]


def test_cli_settings_are_the_pinned_list():
    keys, flags = cli_settings((PACKAGE / "cli.py").read_text())
    assert (len(CLI_KEYS), len(CLI_FLAGS)) == (26, 5)
    assert keys == CLI_KEYS
    assert flags == CLI_FLAGS
