#!/usr/bin/env python3
"""Link, anchor and code-reference checker for the repository's markdown docs.

Stdlib-only, no network: validates that every relative link in every
tracked ``*.md`` file points at an existing file, and that every
``#fragment`` (same-file or cross-file) matches a real heading under
GitHub's slugification rules.  External ``http(s)://`` / ``mailto:``
targets are skipped.  Also fails on a stale code reference: a backticked
``repro.*`` dotted name or ``dir/file.py`` path that no longer resolves
in the tree, or — in a code span or a fenced block — a ``repro <word>``
command line whose subcommand ``src/repro/cli.py`` does not register or
whose ``repro run <preset>`` is not in ``workloads/scenarios.py`` (all
resolved statically, nothing is imported).

Usage::

    python tools/check_docs.py [root]

Exit status 0 when clean, 1 with one line per broken link otherwise.
Run by CI (.github/workflows/ci.yml) and wrapped as a unit test in
tests/test_docs_links.py so local pytest catches doc rot too.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import re
import sys

#: Directories never scanned for markdown (generated or vendored).
SKIP_DIRS = {".git", ".pytest_cache", "__pycache__", "node_modules", ".benchmarks"}

_LINK = re.compile(r"(?<!\!)\[[^\]^\[]*\]\(([^()\s]+(?:\([^()]*\))?)\)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*$")
_FENCE = re.compile(r"^(```|~~~)")

#: Docs that name removed code on purpose (history, plans, the work
#: order of the PR in flight): their code references are not checked.
HISTORY_DOCS = {"CHANGES.md", "ROADMAP.md", "ISSUE.md"}

_CODE_SPAN = re.compile(r"`([^`]+)`")
_DOTTED = re.compile(r"\brepro(?:\.\w+)+")
_PY_PATH = re.compile(r"[\w./-]*/[\w.-]+\.py\b")
#: ``repro <subcommand> [<first argument>]`` — not ``repro.x``, a path
#: ending in ``repro``, or ``from repro import``.
_CLI_CALL = re.compile(
    r"(?<![\w./-])(?<!from )(?<!import )repro +([a-z][\w-]*)(?: +([^\s`]+))?"
)
_PRESET_WORD = re.compile(r"[a-z][a-z0-9-]*$")


def _strip_fences(text: str) -> list[str]:
    """The file's lines with fenced code blocks blanked out."""
    lines = []
    in_fence = False
    for line in text.split("\n"):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            lines.append("")
            continue
        lines.append("" if in_fence else line)
    return lines


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line's text."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # drop code spans, keep text
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: pathlib.Path) -> set[str]:
    """All anchor slugs a markdown file exposes (with -N dedup suffixes)."""
    slugs: set[str] = set()
    seen: dict[str, int] = {}
    for line in _strip_fences(path.read_text(encoding="utf-8")):
        match = _HEADING.match(line)
        if not match:
            continue
        base = github_slug(match.group(2))
        count = seen.get(base, 0)
        seen[base] = count + 1
        slugs.add(base if count == 0 else f"{base}-{count}")
    return slugs


def markdown_files(root: pathlib.Path) -> list[pathlib.Path]:
    files = []
    for path in sorted(root.rglob("*.md")):
        if not SKIP_DIRS.intersection(part for part in path.parts):
            files.append(path)
    return files


def _bound_names(body: list[ast.stmt]) -> dict[str, ast.stmt]:
    """Names a module or class body binds: defs, assignments, imports."""
    names: dict[str, ast.stmt] = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names[leaf.id] = node
    return names


def dotted_name_resolves(dotted: str, src: pathlib.Path) -> bool:
    """Whether ``repro.a.b.Name`` is a package, module or a name bound in one.

    Walks packages and modules on disk, then the module's top-level
    bindings (re-exports count) and, for a class, its body.  Anything
    reached through an import or an assignment is taken on trust.
    """
    here = src
    parts = dotted.split(".")
    while parts and (here / parts[0]).is_dir():
        here = here / parts.pop(0)
    if not parts:
        return True
    module = here / f"{parts[0]}.py"
    if module.is_file():
        parts.pop(0)
    else:
        module = here / "__init__.py"
    if not module.is_file():
        return False
    body = ast.parse(module.read_text(encoding="utf-8")).body
    for part in parts:
        node = _bound_names(body).get(part)
        if node is None:
            return False
        if not isinstance(node, ast.ClassDef):
            return True
        body = node.body
    return True


def check_code_refs(line: str, path: pathlib.Path, root: pathlib.Path) -> list[str]:
    """Stale ``repro.*`` names and ``dir/file.py`` paths in code spans."""
    stale = []
    for span in _CODE_SPAN.findall(line):
        for dotted in _DOTTED.findall(span):
            # repro.bench.v1 / .v2 are result-schema ids, not modules.
            if not dotted.startswith("repro.bench.v") and not dotted_name_resolves(
                dotted, root / "src"
            ):
                stale.append(f"stale name {dotted!r}")
        for py_path in _PY_PATH.findall(span):
            bases = (root, root / "src", root / "src" / "repro", path.parent)
            if not any((base / py_path).exists() for base in bases):
                stale.append(f"stale path {py_path!r}")
    return stale


def _string_literals(source: pathlib.Path, callee: str, keyword: str | None) -> set[str]:
    """String literals passed to calls of ``callee``: first argument, or ``keyword=``."""
    found = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        if name != callee:
            continue
        values = (
            node.args[:1] if keyword is None
            else [k.value for k in node.keywords if k.arg == keyword]
        )
        found.update(
            v.value for v in values
            if isinstance(v, ast.Constant) and isinstance(v.value, str)
        )
    return found


@functools.lru_cache(maxsize=None)
def cli_vocabulary(root: pathlib.Path) -> tuple[set[str], set[str]] | None:
    """``(subcommands, presets)`` read off the source; None without a CLI."""
    cli = root / "src" / "repro" / "cli.py"
    scenarios = root / "src" / "repro" / "workloads" / "scenarios.py"
    if not cli.is_file():
        return None
    presets = _string_literals(scenarios, "Scenario", "name") if scenarios.is_file() else set()
    return _string_literals(cli, "add_parser", None), presets


def check_cli_calls(text: str, root: pathlib.Path) -> list[str]:
    """Removed subcommands and unknown presets in ``repro ...`` command lines."""
    vocabulary = cli_vocabulary(root)
    if vocabulary is None:
        return []
    subcommands, presets = vocabulary
    stale = []
    for command, argument in _CLI_CALL.findall(text):
        if command not in subcommands:
            stale.append(f"stale subcommand 'repro {command}'")
        elif command == "run" and _PRESET_WORD.match(argument) and argument not in presets:
            stale.append(f"unknown preset 'repro run {argument}'")
    return stale


def check_file(path: pathlib.Path, root: pathlib.Path) -> list[str]:
    errors = []
    check_refs = path.name not in HISTORY_DOCS
    text = path.read_text(encoding="utf-8")
    for lineno, (raw, line) in enumerate(zip(text.split("\n"), _strip_fences(text)), 1):
        if check_refs:
            stale = check_code_refs(line, path, root)
            # A line blanked by _strip_fences is fenced code: all of it is checked.
            for code in _CODE_SPAN.findall(line) if line else [raw]:
                stale.extend(check_cli_calls(code, root))
            errors.extend(f"{path.relative_to(root)}:{lineno}: {s}" for s in stale)
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, fragment = target.partition("#")
            dest = path if not base else (path.parent / base).resolve()
            where = f"{path.relative_to(root)}:{lineno}"
            if base and not dest.exists():
                errors.append(f"{where}: broken link target {target!r}")
                continue
            if fragment:
                if dest.suffix != ".md" or dest.is_dir():
                    continue  # anchors into non-markdown files aren't checked
                if fragment.lower() not in heading_slugs(dest):
                    errors.append(f"{where}: broken anchor {target!r}")
    return errors


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path(__file__).parent.parent
    root = root.resolve()
    errors: list[str] = []
    files = markdown_files(root)
    for path in files:
        errors.extend(check_file(path, root))
    for error in errors:
        print(error)
    print(f"check_docs: {len(files)} markdown files, {len(errors)} broken references")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
