"""The library's public surface: a public name that no package code refers
to stays only with a stated reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dptheta"

BENCH = "bench/ calls it; ROADMAP items 2 and 22 retire it after item 1A"
REFLECTIONS = ("it generates the Weyl group; the tests build every conjugated "
               "configuration with it, and ROADMAP items 10, 17 and 20 name it")

# name -> why it stays public although no package code refers to it
UNREFERENCED = {
    **{f"nodal.{alias}": BENCH for alias in (
        "line_scheme", "blowdown_scheme", "bitangent_scheme", "double_six_scheme",
        "aronhold_scheme", "even_theta_scheme")},
    "nodal.congruence_classes": BENCH,
    "poly.resultant": BENCH,
    "poly.squarefree_multiplicities": BENCH,
    "poly.uni_from_binary_form": BENCH,
    "lattice.weyl_order": "criterion 2 calls it and README's Library section names it",
    "spin.betti": "criterion 6 calls it",
    "theta_f2.even_theta_of_blowdown": "criterion 7 calls it",
    "theta_f2.odd_classes": "criterion 7 calls it",
    "theta_f2.q_theta": "criterion 8 calls it",
    "theta_f2.weil_pair": "criterion 8 calls it",
    "detrep.cubic_threefold": "criterion 9 calls it",
    "detrep.extract_matrix": "criterion 9 calls it",
    "theta_f2.syzygetic": "ROADMAP item 16 checks it on the split quartic",
    "lattice.reflect": REFLECTIONS,
    "lattice.simple_roots": REFLECTIONS,
}


def unreferenced_names(src):
    """Public top-level functions and classes of the modules in src, and the
    public methods of their public classes, that no `ast.Name` or
    `ast.Attribute` in src refers to, as "module.name" or
    "module.Class.method".  A word grep would miss a name that a docstring
    mentions."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            found.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found += [(f"{module}.{node.name}.{sub.name}", sub.name) for sub in node.body
                          if isinstance(sub, ast.FunctionDef) and sub.name[0] != "_"]
    return {qualified for qualified, name in found if name not in used}


def test_every_unreferenced_public_name_has_a_reason():
    """A new public name with no caller in the package fails here until it
    gets a caller, or an entry in UNREFERENCED that says why it stays."""
    assert unreferenced_names(SRC) == UNREFERENCED.keys()
