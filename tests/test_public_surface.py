"""Every public name of every module of src/regg, and every public member of
its public classes, is used by the program: src/ or scripts/ reference it
outside its own definition.  A name only tests call is a second
implementation that the commands never run.  So is a private top-level
name left beside the entry that replaced it, which this checks too.  Each module's __all__ lists
exactly its public functions and classes, and may add its constants.

Dataclass fields are out of scope: some are read only through column-name
strings, as LawRecord's are by the CSV writer."""

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")])
MODULES = sorted((ROOT / "src" / "regg").glob("*.py"))

#: public names with no caller in src/ or scripts/, each kept on purpose;
#: the tests' own reference implementations live in tests/oracles.py
ALLOWED = {
    # criterion 12 re-executes a manifest's argv through it
    "rerun_manifest",
    # the benchmark reads edge lists back and checks adjacency through these
    "from_edgelist",
    "adj",
    # the tests read versioned CSVs back with it
    "read_table",
    # the only check of the abstract's isotropic delocalization claim; a
    # command that runs it would add an eigen mode
    "isotropic_error",
    "random_unit_perp_e",
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


def _public_classes(tree):
    return [node for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]


def _class_members(cls):
    """(name, definition lines) of each method, property, class attribute
    and self.<attribute> assignment of a class; annotated class-level names
    (dataclass fields) are left out."""
    fields = {node.target.id for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
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
                            and part.value.id == "self"
                            and part.attr not in fields):
                        yield part.attr, _span(node)


#: each source read and parsed once, so that the definitions and the uses
#: every test compares come from the same text even if a file changes
#: while the suite runs
TEXTS = {path: path.read_text(encoding="utf-8") for path in SOURCES}
TREES = {path: ast.parse(text) for path, text in TEXTS.items()}


def _uses(path):
    """(line, name, follows a dot) for each name token outside imports,
    strings and comments."""
    imports = {line for node in ast.walk(TREES[path])
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for line in _span(node)}
    tokens = list(tokenize.generate_tokens(io.StringIO(TEXTS[path]).readline))
    return [(tok.start[0], tok.string, prev.string == ".")
            for prev, tok in zip(tokens, tokens[1:])
            if tok.type == tokenize.NAME and tok.start[0] not in imports]


USES = {path: _uses(path) for path in SOURCES}


def _unreferenced(candidates, home, attribute, allowed=ALLOWED,
                  private=False):
    """Names of `candidates`, defined in `home`, with no use elsewhere; with
    attribute=True only uses after a dot count.  Only the public names are
    looked at, or with private=True only the private ones."""
    out = []
    for name, lines in candidates:
        if name.startswith("_") != private or name in allowed:
            continue
        if not any(used == name and (dotted or not attribute)
                   and not (path == home and line in lines)
                   for path, found in USES.items()
                   for line, used, dotted in found):
            out.append(name)
    return out


def test_every_module_is_walked():
    names = {path.stem for path in MODULES}
    assert {"cli", "graphs", "invariance", "law", "manifest", "observables",
            "spectral", "stability", "switchings"} <= names
    classes = {cls.name for path in MODULES for cls in _public_classes(TREES[path])}
    assert {"MultiGraph", "ResolventView", "RunManifest",
            "TripleSelection"} <= classes
    assert "_Parser" not in classes


def test_module_names_are_used_by_the_program():
    unused = {path.stem: _unreferenced(_module_names(TREES[path]), path,
                                       attribute=False)
              for path in MODULES}
    assert {stem: names for stem, names in unused.items() if names} == {}


def test_private_module_names_are_used_by_the_program():
    unused = {path.stem: _unreferenced(_module_names(TREES[path]), path,
                                       attribute=False, allowed=set(),
                                       private=True)
              for path in MODULES}
    assert {stem: names for stem, names in unused.items() if names} == {}


def test_class_members_are_used_by_the_program():
    unused = {}
    for path in MODULES:
        for cls in _public_classes(TREES[path]):
            names = _unreferenced(_class_members(cls), path, attribute=True)
            if names:
                unused[f"{path.stem}.{cls.name}"] = names
    assert unused == {}


def test_dataclass_fields_out_of_scope():
    (cls,) = [node for node in TREES[ROOT / "src" / "regg" / "law.py"].body
              if isinstance(node, ast.ClassDef) and node.name == "LawRecord"]
    assert list(_class_members(cls)) == []
    (cls,) = [node for node in TREES[ROOT / "src" / "regg" / "spectral.py"].body
              if isinstance(node, ast.ClassDef) and node.name == "ResolventView"]
    assert {"grid", "eigenvalues", "eigenvectors", "n", "EXHAUSTIVE_N"} <= {
        name for name, _ in _class_members(cls)}


def _listed(tree):
    """The literal list a module assigns to __all__, or [] without one;
    anything appended later is not in it."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            return ast.literal_eval(node.value)
    return []


def test_all_lists_exactly_the_public_functions_and_classes():
    wrong = {}
    for path in MODULES:
        if path.stem == "__init__":  # re-exports, and computes its list
            continue
        tree = TREES[path]
        listed = _listed(tree)
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")}
        constants = {name for name, _ in _module_names(tree)
                     if not name.startswith("_")} - defined
        missing = sorted(defined - set(listed))
        extra = sorted(set(listed) - defined - constants)
        if missing or extra or len(set(listed)) != len(listed):
            wrong[path.stem] = {"missing": missing, "extra": extra,
                                "listed": listed}
    assert wrong == {}


def test_allowlist_names_only_unused_names():
    unused = set()
    for path in MODULES:
        tree = TREES[path]
        unused.update(_unreferenced(_module_names(tree), path, attribute=False,
                                    allowed=set()))
        for cls in _public_classes(tree):
            unused.update(_unreferenced(_class_members(cls), path,
                                        attribute=True, allowed=set()))
    assert ALLOWED - unused == set()


def test_only_package_builders_skip_validation():
    """MultiGraph._built, Matching._built and Permutation._built check
    nothing, so only the modules that build the arrays they take call them:
    graphs and switchings.  from_edgelist, the CLI and the scripts read
    outside input and go through the validating constructors."""
    calls = [(path, line) for path, found in USES.items()
             for line, used, dotted in found if used == "_built" and dotted]
    regg = ROOT / "src" / "regg"
    assert {path for path, _ in calls} == {regg / "graphs.py",
                                           regg / "switchings.py"}
    (reader,) = [node for node in TREES[regg / "graphs.py"].body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "from_edgelist"]
    assert not [line for path, line in calls
                if path == regg / "graphs.py" and line in _span(reader)]


#: the names through which a module reads the process environment
_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    """A command's argv holds every setting it runs with, so a manifest's
    recorded argv reproduces its outputs: no module of src/regg reads
    os.environ or calls os.getenv, directly or through an import."""
    readers = {}
    for path in MODULES:
        found = sorted({node.lineno for node in ast.walk(TREES[path])
                        if getattr(node, "attr", None) in _ENVIRONMENT
                        or (isinstance(node, ast.ImportFrom)
                            and node.module == "os"
                            and {alias.name for alias in node.names}
                            & _ENVIRONMENT)})
        if found:
            readers[path.stem] = found
    assert readers == {}
