"""Every public name of regg.spectral, regg.observables, regg.switchings and
ResolventView is used by the program: src/ or scripts/ reference it outside its own
definition.  A name only tests call is a second implementation that the
commands never run."""

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")])
SPECTRAL = ROOT / "src" / "regg" / "spectral.py"
OBSERVABLES = ROOT / "src" / "regg" / "observables.py"
SWITCHINGS = ROOT / "src" / "regg" / "switchings.py"

#: public names with no caller in src/ or scripts/, each kept on purpose
ALLOWED = {
    # the direct-solve oracle the tests check ResolventView.grid against
    "resolvent_solve",
    # the only check of the abstract's isotropic delocalization claim; a
    # command that runs it would add an eigen mode
    "isotropic_error",
    "isotropic_envelope",
    "random_unit_perp_e",
    "default_zeta",
    # the paper's one-edge adjacency matrix Delta_ij, kept as the reference
    # notation; no command builds a dense single-edge matrix
    "delta",
}


def _span(node):
    return range(node.lineno, node.end_lineno + 1)


def _module_names(tree):
    """(name, definition lines) of each public top-level def, class or
    assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, _span(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    yield target.id, _span(node)


def _class_members(cls):
    """(name, definition lines) of each method, class attribute and
    self.<attribute> assignment of a class."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, _span(node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, _span(node)
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for part in ast.walk(target):
                    if (isinstance(part, ast.Attribute)
                            and isinstance(part.value, ast.Name)
                            and part.value.id == "self"):
                        yield part.attr, _span(node)


def _uses(path):
    """(line, name, follows a dot) for each name token outside imports,
    strings and comments."""
    text = path.read_text(encoding="utf-8")
    imports = {line for node in ast.walk(ast.parse(text))
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for line in _span(node)}
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    return [(tok.start[0], tok.string, prev.string == ".")
            for prev, tok in zip(tokens, tokens[1:])
            if tok.type == tokenize.NAME and tok.start[0] not in imports]


def _unreferenced(candidates, home, attribute):
    """Names of `candidates`, defined in `home`, with no use elsewhere; with
    attribute=True only uses after a dot count."""
    uses = {path: _uses(path) for path in SOURCES}
    out = []
    for name, lines in candidates:
        if name.startswith("_") or name in ALLOWED:
            continue
        if not any(used == name and (dotted or not attribute)
                   and not (path == home and line in lines)
                   for path, found in uses.items()
                   for line, used, dotted in found):
            out.append(name)
    return out


def test_module_names_are_used_by_the_program():
    for path in (SPECTRAL, OBSERVABLES, SWITCHINGS):
        names = list(_module_names(ast.parse(path.read_text(encoding="utf-8"))))
        assert len(names) > 5, f"no public names parsed from {path.name}"
        assert _unreferenced(names, path, attribute=False) == [], path.name


def test_resolvent_view_members_are_used_by_the_program():
    tree = ast.parse(SPECTRAL.read_text(encoding="utf-8"))
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "ResolventView"]
    members = list(_class_members(cls))
    assert {"grid", "eigenvalues", "eigenvectors", "n", "EXHAUSTIVE_N"} <= {
        name for name, _ in members}
    assert _unreferenced(members, SPECTRAL, attribute=True) == []
