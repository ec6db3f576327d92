"""The package's public surface stays the code that the program runs.

Every name is imported from the module that defines it, so no package
`__init__` re-exports one; and every definition in `src/ponziscan` is read
somewhere in `src/` besides its own body, unless ALLOWED says why not. Both
checks read the source with `ast` and import nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ponziscan"

# name -> why it stays although no other line of src/ reads it
ALLOWED = {
    "SEG_PAD": "perfbench/tracer.py imports it (ROADMAP item 9)",
    "mask_additive": "perfbench/tracer.py rebinds it (ROADMAP item 9)",
    "render": "the lexer tests' lossless-span oracle",
    "iter_leaves": "the parser tests' lossless-tree oracle",
    "parse_known_args": "argparse calls it on the subcommand parser",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _trees() -> dict[str, tuple[Path, ast.Module]]:
    return {_module_name(path): (path, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.rglob("*.py"))}


def _definitions(tree: ast.Module):
    """(name, node, is_method) for every module-level function, class and
    assigned name, and every method that is no dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("__")):
                        yield member.name, member, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, node, False


def test_package_inits_import_nothing_from_the_package():
    """An `__init__.py` that binds a module's name offers a second import
    path for it, which no caller needs."""
    bound = []
    for module, (path, tree) in _trees().items():
        if path.name != "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "ponziscan"):
                bound += [f"{module}: {a.asname or a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                bound += [f"{module}: {a.name}" for a in node.names
                          if a.name.split(".")[0] == "ponziscan"]
    assert bound == []


def _unread() -> list[tuple[str, int, str]]:
    """(module, line, name) of every definition that no line of src/ reads
    outside the definition itself (recursion and `super()` calls do not
    count). A module-level name is read where its own module, or a module
    that imports it under any alias, loads it, or where any module loads it
    as an attribute; a method is read only as an attribute."""
    trees = _trees()
    names, attributes = [], []  # ((defining module, name) or attribute, module, line)
    for module, (_, tree) in trees.items():
        imported = {a.asname or a.name: (node.module, a.name)
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.append((imported.get(node.id, (module, node.id)), module, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.append((node.attr, module, node.lineno))

    unread = []
    for module, (_, tree) in trees.items():
        for name, node, is_method in _definitions(tree):
            def elsewhere(site):
                return not (site[1] == module and node.lineno <= site[2] <= node.end_lineno)
            read = any(a[0] == name and elsewhere(a) for a in attributes) or (
                not is_method and any(n[0] == (module, name) and elsewhere(n) for n in names))
            if not read:
                unread.append((module, node.lineno, name))
    return unread


def test_every_definition_is_read_elsewhere_in_src():
    assert [u for u in _unread() if u[2] not in ALLOWED] == []


def test_allowlist_names_only_unread_definitions():
    """An allowlisted name that is deleted, or that src/ starts to read,
    leaves the list."""
    assert set(ALLOWED) <= {name for _, _, name in _unread()}
