#!/usr/bin/env python3
"""Docs drift guard: links, driver names and cited docs must resolve, flags and solvers must be documented.

Six checks, all cheap enough to run as a ctest case on every build:

1. Link check — every relative markdown link in README.md and docs/*.md
   must point at a file (or directory) that exists in the repo. External
   schemes (http/https/mailto) and pure in-page anchors are skipped;
   `file.md#section` links are checked for the file part only. This is
   what catches a renamed doc or a moved header leaving a dead link
   behind.

2. Driver names — every `./build/<name>` in README.md, docs/*.md and
   the verify skill (.claude/skills/verify/SKILL.md) must name a binary
   built from examples/<name>.cpp, bench/<name>.cpp or tests/<name>.cpp.
   This is what catches a deleted driver still being advertised.

3. Flag coverage — every `--flag` that `batch_service --help` and
   `traffic_gen --help` print must appear somewhere in
   docs/OPERATIONS.md, which promises a complete flag reference. Adding
   a CLI flag without documenting it fails the build.

4. Flag tables — the reverse direction, for the reference tables only:
   every `--flag` that opens a table row of OPERATIONS.md §2 must appear
   in `batch_service --help`, and every one in §3 in `traffic_gen
   --help`, so a flag removed from a binary cannot stay documented in
   its table. Prose mentions stay exempt: OPERATIONS.md may name flags in
   examples beyond the help text.

5. Cited docs — every `NAME.md` named in a comment under src/, examples/,
   bench/ or tests/ must exist at the repo root, in docs/, or at the path
   given (`docs/OPERATIONS.md`). This is what catches a comment pointing
   readers at a document that was renamed or never written.

6. Solver table — every solver name `batch_service --help` lists after
   `known:` must have a row in the solver table of OPERATIONS.md §2 (the
   table whose first column is `solver`), and every row there must name
   a registered solver: checks 3 and 4 for registry names, so a solver
   deleted from the registry cannot stay documented.

Usage:
    tools/docs_lint.py REPO_ROOT [BATCH_SERVICE_BIN TRAFFIC_GEN_BIN]

Without the two binary paths only the link, driver-name and cited-doc
checks run (handy when the tree is not built). Exit 0 = clean, 1 = findings (each
printed one per line), 2 = usage/environment error.
"""

import re
import subprocess
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
DRIVER_RE = re.compile(r"\./build/([A-Za-z0-9_]+)")
DRIVER_DIRS = ("examples", "bench", "tests")
VERIFY_SKILL = Path(".claude") / "skills" / "verify" / "SKILL.md"
FLAG_RE = re.compile(r"--[A-Za-z][A-Za-z0-9-]*")
ROW_FLAG_RE = re.compile(r"^\|\s*`(--[A-Za-z][A-Za-z0-9-]*)")
ROW_NAME_RE = re.compile(r"^\|\s*`([^`]+)`")
SOLVER_HEADER_RE = re.compile(r"^\|\s*solver\s*\|")
KNOWN_RE = re.compile(r"known:((?:[ \t]+[A-Za-z0-9_-]+)+)")
SECTION_RE = re.compile(r"^## (\d+)\.")
SKIP_SCHEMES = ("http://", "https://", "mailto:")
CODE_DIRS = ("src", "examples", "bench", "tests")
COMMENT_MARKERS = {".cpp": "//", ".hpp": "//", ".sh": "#", ".py": "#"}
CITED_DOC_RE = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w-]+\.md)\b")


def markdown_files(root: Path):
    files = [root / "README.md"]
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.glob("*.md")))
    return [f for f in files if f.is_file()]


def check_links(root: Path):
    problems = []
    for md in markdown_files(root):
        text = md.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for target in LINK_RE.findall(line):
                if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                    continue
                path_part = target.split("#", 1)[0]
                if not path_part:
                    continue
                resolved = (md.parent / path_part).resolve()
                if not resolved.exists():
                    rel = md.relative_to(root)
                    problems.append(
                        f"{rel}:{lineno}: dead relative link '{target}'"
                    )
    return problems


def check_driver_names(root: Path):
    problems = []
    docs = markdown_files(root)
    if (root / VERIFY_SKILL).is_file():
        docs.append(root / VERIFY_SKILL)
    for md in docs:
        text = md.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for name in DRIVER_RE.findall(line):
                if not any((root / d / f"{name}.cpp").is_file() for d in DRIVER_DIRS):
                    rel = md.relative_to(root)
                    problems.append(
                        f"{rel}:{lineno}: './build/{name}' has no "
                        f"examples/, bench/ or tests/ source"
                    )
    return problems


def check_cited_docs(root: Path):
    problems = []
    for top in CODE_DIRS:
        for path in sorted((root / top).rglob("*")):
            marker = COMMENT_MARKERS.get(path.suffix)
            if marker is None or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8")
            for lineno, line in enumerate(text.splitlines(), 1):
                at = line.find(marker)
                if at < 0:
                    continue
                for name in CITED_DOC_RE.findall(line[at + len(marker):]):
                    places = [root / name]
                    if "/" not in name:
                        places.append(root / "docs" / name)
                    if not any(p.is_file() for p in places):
                        rel = path.relative_to(root)
                        problems.append(
                            f"{rel}:{lineno}: cites '{name}', which is not at "
                            f"the repo root, in docs/ or at that path"
                        )
    return problems


def help_text(binary: str):
    out = subprocess.run(
        [binary, "--help"], capture_output=True, text=True, timeout=30
    )
    if out.returncode != 0:
        raise RuntimeError(f"{binary} --help exited {out.returncode}")
    return out.stdout + out.stderr


def help_flags(binary: str):
    return sorted(set(FLAG_RE.findall(help_text(binary))))


def table_row_flags(ops_text: str):
    """Maps each numbered section of OPERATIONS.md to (line, flag) for every
    table row that opens with a `--flag`."""
    rows = {}
    section = None
    for lineno, line in enumerate(ops_text.splitlines(), 1):
        heading = SECTION_RE.match(line)
        if heading:
            section = int(heading.group(1))
            continue
        row = ROW_FLAG_RE.match(line)
        if row and section is not None:
            rows.setdefault(section, []).append((lineno, row.group(1)))
    return rows


def check_flag_coverage(root: Path, binaries):
    ops = root / "docs" / "OPERATIONS.md"
    if not ops.is_file():
        return [f"docs/OPERATIONS.md missing (flag reference lives there)"]
    ops_text = ops.read_text(encoding="utf-8")
    rows = table_row_flags(ops_text)
    problems = []
    # §2 is the batch_service reference, §3 the traffic_gen one.
    for section, binary in zip((2, 3), binaries):
        name = Path(binary).name
        flags = help_flags(binary)
        for flag in flags:
            if flag not in ops_text:
                problems.append(
                    f"docs/OPERATIONS.md: `{flag}` from `{name} --help` is undocumented"
                )
        if not rows.get(section):
            problems.append(f"docs/OPERATIONS.md: §{section} has no `{name}` flag table")
        for lineno, flag in rows.get(section, []):
            if flag not in flags:
                problems.append(
                    f"docs/OPERATIONS.md:{lineno}: table row `{flag}` is not in `{name} --help`"
                )
    return problems


def solver_table_rows(ops_text: str):
    """(line, name) for every row of the solver table in OPERATIONS.md §2."""
    rows = []
    section = None
    in_table = False
    for lineno, line in enumerate(ops_text.splitlines(), 1):
        heading = SECTION_RE.match(line)
        if heading:
            section = int(heading.group(1))
        if section != 2:
            continue
        if SOLVER_HEADER_RE.match(line):
            in_table = True
            continue
        if in_table and not line.startswith("|"):
            in_table = False
        row = ROW_NAME_RE.match(line) if in_table else None
        if row:
            rows.append((lineno, row.group(1)))
    return rows


def check_solver_table(root: Path, batch_service: str):
    ops = root / "docs" / "OPERATIONS.md"
    if not ops.is_file():
        return ["docs/OPERATIONS.md missing (solver table lives there)"]
    known = KNOWN_RE.search(help_text(batch_service))
    if not known:
        return [f"`{Path(batch_service).name} --help` lists no `known:` solver names"]
    names = set(known.group(1).split())
    rows = solver_table_rows(ops.read_text(encoding="utf-8"))
    if not rows:
        return ["docs/OPERATIONS.md: §2 has no solver table (first column `solver`)"]
    documented = {name for _, name in rows}
    problems = [
        f"docs/OPERATIONS.md: solver `{name}` from `--help` has no §2 solver-table row"
        for name in sorted(names - documented)
    ]
    problems += [
        f"docs/OPERATIONS.md:{lineno}: solver-table row `{name}` is not a registered solver"
        for lineno, name in rows
        if name not in names
    ]
    return problems


def main(argv):
    if len(argv) not in (2, 4):
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    if not (root / "README.md").is_file():
        print(f"docs_lint: no README.md under {root}", file=sys.stderr)
        return 2

    problems = check_links(root) + check_driver_names(root) + check_cited_docs(root)
    if len(argv) == 4:
        problems += check_flag_coverage(root, argv[2:4])
        problems += check_solver_table(root, argv[2])

    for p in problems:
        print(p)
    if problems:
        print(f"docs_lint: {len(problems)} problem(s)")
        return 1
    print("docs_lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
