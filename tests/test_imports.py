"""Every module-level import in the package and the scripts is used, and
every public name of the package, public methods and properties included,
has a caller outside the tests or a place on the keep list (no linter
needed)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "monogamy_lab"
FILES = {p.name: p for p in SRC.glob("*.py")}
FILES.update({f"scripts/{p.name}": p for p in (ROOT / "scripts").glob("*.py")})


def imported_names(tree: ast.Module):
    """The names the module's top-level import statements bind."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("module", sorted(FILES))
def test_module_uses_every_import(module):
    tree = ast.parse(FILES[module].read_text(), module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []


def import_parts(tree: ast.Module):
    """Each dotted part of each module and name that the module's import
    statements name, wherever they stand: ``from .polylp import x``,
    ``from . import polylp`` and ``import monogamy_lab.polylp`` all give
    polylp."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]:
                yield from name.split(".")


# No-signalling is defined in scenario; polylp only turns its rows into LPs,
# so no module below the LP layer reads it.
@pytest.mark.parametrize("module", ["scenario.py", "bell.py", "quantum.py", "svamp.py"])
def test_module_does_not_import_the_lp_module(module):
    assert "polylp" not in set(import_parts(ast.parse(FILES[module].read_text(), module)))


# The functions of src/ that no production path reaches (test_reach.py),
# kept on purpose, each with its reason; ROADMAP items are cited by number.
# Its public names are also the ones the caller check below lets pass.
KEEP = {
    "polylp._simplex": "the last-resort stage of solve, for an LP that HiGHS's result does not certify (item 4)",
    "polylp._run_simplex": "the pivot loop of _simplex (item 4)",
    "polylp._pivot": "one pivot of _simplex (item 4)",
    "polylp._priced": "the reduced costs of _simplex (item 4)",
    "polylp.verify_certificate": "the public checker that trusts no solver (items 11 and 16)",
    "polylp.verify_certificate.<locals>.exact": "verify_certificate's reading of a vector as Fractions (items 11 and 16)",
    "polylp._certified": "the exact test behind verify_certificate and the simplex stage (items 11 and 16)",
    "bell.load_functional": "reads what `bell --format json` writes, for tightness on any functional (item 7)",
    "bell.functional_from_json": "the object reader of load_functional (item 7)",
    "quantum.violation_behavior": "the behavior that attains the chained quantum value (item 13)",
    "svamp.q_factor_tilde": "the paper's Q~ factor, with input likelihoods (item 8)",
    "svamp.AdversaryModel.input_probability": "p(x), the input distribution the adversary's mixture shows (item 8)",
    "svamp.AdversaryModel.posterior": "p(w|x) as Fractions, the Bayes terms that q_factor reads in integers (item 8)",
    "monogamy._require_ns": "the default check of monogamy_lhs_general; the ns-lp workload passes check=False",
    "scenario.Behavior.__getattr__": "builds the probs of a scaled_sum behavior on first read; the workloads read only scaled",
}
CALLER_FILES = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def public_methods(tree: ast.Module):
    """(class name, method) for the public methods and properties of the
    public classes."""
    for cls in public_definitions(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield cls.name, node


def module_references(module: str, tree: ast.Module):
    """The names of ``module`` that the tree imports from it, or reads as an
    attribute of the module where the tree imports the module itself (a
    local variable named ``scenario`` is no reference)."""
    nodes = list(ast.walk(tree))
    aliases = {
        alias.asname or alias.name
        for node in nodes
        if isinstance(node, ast.ImportFrom) and node.module in (None, "monogamy_lab")
        for alias in node.names
        if alias.name == module
    }
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"monogamy_lab.{module}"):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            yield node.attr


def own_uses(tree: ast.Module):
    """The bare names that a module reads outside each name's own
    definition."""
    for node in tree.body:
        skip = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        yield from (n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id != skip)


def test_public_names_have_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CALLER_FILES}
    # a method counts as called where any attribute of its name is read, whatever the object
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    uncalled = set()
    for path in SRC.glob("*.py"):
        module = path.stem
        referenced = set(own_uses(trees[path]))
        for other, tree in trees.items():
            if other != path:
                referenced.update(module_references(module, tree))
        uncalled.update(
            f"{module}.{node.name}" for node in public_definitions(trees[path]) if node.name not in referenced
        )
        uncalled.update(
            f"{module}.{cls}.{node.name}" for cls, node in public_methods(trees[path]) if node.name not in attributes
        )
    # give each name a caller outside the tests, or move it into them; a kept
    # name may have a caller that is itself unreached, and test_reach.py
    # drops it from KEEP once it is reached or gone
    assert sorted(uncalled - KEEP.keys()) == []
