#!/usr/bin/env python3
"""Docs drift guard: links and driver names must resolve, flags must be documented.

Three checks, all cheap enough to run as a ctest case on every build:

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
   a CLI flag without documenting it fails the build. (The reverse
   direction is deliberately not enforced: OPERATIONS.md may mention
   flags in prose examples beyond the help text.)

Usage:
    tools/docs_lint.py REPO_ROOT [BATCH_SERVICE_BIN TRAFFIC_GEN_BIN]

Without the two binary paths only the link and driver-name checks run
(handy when the tree is not built). Exit 0 = clean, 1 = findings (each
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
SKIP_SCHEMES = ("http://", "https://", "mailto:")


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


def help_flags(binary: str):
    out = subprocess.run(
        [binary, "--help"], capture_output=True, text=True, timeout=30
    )
    if out.returncode != 0:
        raise RuntimeError(f"{binary} --help exited {out.returncode}")
    return sorted(set(FLAG_RE.findall(out.stdout + out.stderr)))


def check_flag_coverage(root: Path, binaries):
    ops = root / "docs" / "OPERATIONS.md"
    if not ops.is_file():
        return [f"docs/OPERATIONS.md missing (flag reference lives there)"]
    ops_text = ops.read_text(encoding="utf-8")
    problems = []
    for binary in binaries:
        name = Path(binary).name
        for flag in help_flags(binary):
            if flag not in ops_text:
                problems.append(
                    f"docs/OPERATIONS.md: `{flag}` from `{name} --help` is undocumented"
                )
    return problems


def main(argv):
    if len(argv) not in (2, 4):
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    if not (root / "README.md").is_file():
        print(f"docs_lint: no README.md under {root}", file=sys.stderr)
        return 2

    problems = check_links(root) + check_driver_names(root)
    if len(argv) == 4:
        problems += check_flag_coverage(root, argv[2:4])

    for p in problems:
        print(p)
    if problems:
        print(f"docs_lint: {len(problems)} problem(s)")
        return 1
    print("docs_lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
