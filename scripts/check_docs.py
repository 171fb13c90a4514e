"""Validate the documentation against the repo (run by the CI docs job).

Eight checks over every tracked ``*.md`` file:

1. **links** — inline links/images must resolve to an existing file or
   directory; ``path#anchor`` anchors are verified against the target's
   headings when the target is markdown (external schemes and pure
   in-page anchors are skipped);
2. **paths** — every ``src/repro/...`` path mentioned in prose or tables
   must exist on disk (catches docs naming moved/renamed modules);
3. **artifacts** — every ``BENCH_*.json`` artifact name mentioned in the
   docs must be produced by some benchmark under ``benchmarks/`` (catches
   tables advertising artifacts nothing writes; ``ROADMAP.md`` is exempt
   from this check only, see ``PLAN_FILES``);
4. **package index** — ``docs/api.md`` must name every package under
   ``src/repro/`` (catches new subsystems that never got documented);
5. **env knobs** — every fully spelled ``REPRO_*`` name in the docs or in
   ``.github/workflows/ci.yml`` must appear in some ``*.py`` under
   ``src/``, ``benchmarks/``, ``tests/`` or ``scripts/`` (catches docs and
   CI steps setting knobs nothing reads; prefix mentions such as
   ``REPRO_BENCH_*`` are skipped);
6. **API names** — every ```pkg.Name``` code span in ``docs/api.md`` whose
   ``pkg`` is a package under ``src/repro/`` must name something
   ``src/repro/<pkg>/__init__.py`` binds (import, ``def``, ``class``,
   assignment) or one of the package's submodules (catches entry points
   that were renamed or deleted; read with ``ast``, nothing is imported);
7. **routes** — every ``("GET"|"POST", "/path")`` key of the route table
   in ``scripts/serve.py`` (``ast`` again) must be a row of an endpoint
   table under ``docs/`` (``| `/path` | METHOD | ...``), and every such
   row must be a key (catches a route added or dropped without its doc);
8. **profile names** — every string literal ``profile.section(...)`` /
   ``profile.count(...)`` is called with in ``src/repro`` (``ast``) must
   be a backticked name in a row of ``docs/architecture.md``'s "Profiling
   hooks" table, and every name there must be called (catches a hook
   added or dropped without its row).

    python scripts/check_docs.py [root]

Exits non-zero listing every problem.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
# Repo paths named in prose/tables (``src/repro/serve/``, src/repro/geo/grid.py ...)
SRC_PATH_PATTERN = re.compile(r"src/repro[\w./-]*")
BENCH_ARTIFACT_PATTERN = re.compile(r"BENCH_\w+\.json")
ENV_KNOB_PATTERN = re.compile(r"REPRO_[A-Z0-9_]+")
ROUTE_ROW_PATTERN = re.compile(r"^\|\s*`(/[\w/]*)`\s*\|\s*(GET|POST)\s*\|", re.M)
KNOB_SOURCE_DIRS = ("src", "benchmarks", "tests", "scripts")
CI_WORKFLOW = Path(".github") / "workflows" / "ci.yml"
SKIP_PREFIXES = ("http://", "https://", "mailto:", "ftp://")
SKIP_DIRS = {".git", "__pycache__", "_cache", "node_modules", ".pytest_cache"}
# Neither is documentation of the current tree.  The per-PR task statement
# names the paths a PR is asked to delete, which therefore cannot exist
# once the PR is done; the change log's past entries name modules,
# artifacts and knobs that later PRs retired.
SKIP_FILES = {"ISSUE.md", "CHANGES.md"}
# The plan names the artifacts its open items are to produce, which no
# benchmark writes yet; every other check still reads it.
PLAN_FILES = {"ROADMAP.md"}


def heading_anchors(markdown: str) -> set:
    """GitHub-style anchor slugs of every heading in a markdown document."""
    anchors = set()
    for line in markdown.splitlines():
        match = re.match(r"#{1,6}\s+(.*)", line)
        if not match:
            continue
        slug = match.group(1).strip().lower()
        slug = re.sub(r"[`*_]", "", slug)
        slug = re.sub(r"[^\w\- ]", "", slug)
        anchors.add(slug.replace(" ", "-"))
    return anchors


def markdown_files(root: Path):
    for path in sorted(root.rglob("*.md")):
        if (path.name not in SKIP_FILES
                and not any(part in SKIP_DIRS for part in path.parts)):
            yield path


def check_file(path: Path, root: Path, text: str) -> list:
    problems = []
    for target in LINK_PATTERN.findall(text):
        if target.startswith(SKIP_PREFIXES):
            continue
        if target.startswith("#"):  # in-page anchor
            if target[1:] not in heading_anchors(text):
                problems.append(f"{path.relative_to(root)}: broken anchor {target!r}")
            continue
        raw_path, _, anchor = target.partition("#")
        resolved = (path.parent / raw_path).resolve()
        if not resolved.exists():
            problems.append(f"{path.relative_to(root)}: missing target {target!r}")
            continue
        if anchor and resolved.suffix == ".md":
            anchors = heading_anchors(resolved.read_text(encoding="utf-8"))
            if anchor not in anchors:
                problems.append(
                    f"{path.relative_to(root)}: missing anchor {target!r}")
    return problems


def check_source_paths(path: Path, root: Path, text: str) -> list:
    """Every ``src/repro/...`` path a doc names must exist on disk."""
    problems = []
    for token in set(SRC_PATH_PATTERN.findall(text)):
        cleaned = token.rstrip(".")         # sentence-final "src/repro/geo."
        if "*" in cleaned:                  # glob-speak like src/repro/*
            continue
        if not (root / cleaned).exists():
            problems.append(
                f"{path.relative_to(root)}: names missing path {cleaned!r}")
    return problems


def check_bench_artifacts(path: Path, root: Path, text: str,
                          bench_sources: str) -> list:
    """Every ``BENCH_*.json`` a doc advertises must be written by a bench."""
    problems = []
    for artifact in set(BENCH_ARTIFACT_PATTERN.findall(text)):
        if artifact not in bench_sources:
            problems.append(
                f"{path.relative_to(root)}: artifact {artifact!r} is not "
                "produced by any file under benchmarks/")
    return problems


def knobs_read(root: Path) -> set:
    """Every ``REPRO_*`` name spelled in the repo's python sources."""
    names = set()
    for directory in KNOB_SOURCE_DIRS:
        for source in (root / directory).rglob("*.py"):
            if not any(part in SKIP_DIRS for part in source.parts):
                names.update(ENV_KNOB_PATTERN.findall(
                    source.read_text(encoding="utf-8")))
    return names


def check_env_knobs(path: Path, root: Path, text: str, known: set) -> list:
    """Every fully spelled ``REPRO_*`` name must be read by some ``*.py``."""
    return [
        f"{path.relative_to(root)}: env knob {knob!r} is not read by any "
        f"*.py under {', '.join(KNOB_SOURCE_DIRS)}"
        for knob in sorted(set(ENV_KNOB_PATTERN.findall(text)))
        if not knob.endswith("_") and knob not in known
    ]


def repo_packages(root: Path) -> list:
    """Package names under ``src/repro/`` (directories with __init__.py)."""
    return sorted(
        entry.name for entry in (root / "src" / "repro").iterdir()
        if entry.is_dir() and (entry / "__init__.py").exists()
    )


def check_package_index(root: Path) -> list:
    """``docs/api.md`` must document every ``src/repro/*`` package."""
    api = root / "docs" / "api.md"
    if not api.exists():
        return ["docs/api.md: missing — the package index must cover every "
                "package under src/repro/"]
    text = api.read_text(encoding="utf-8")
    return [
        f"docs/api.md: package `repro.{name}` (src/repro/{name}/) is not "
        "documented"
        for name in repo_packages(root)
        if f"repro.{name}" not in text
    ]


def bound_names(package: Path) -> set:
    """What ``from repro.<pkg> import name`` can find: the package's
    submodules plus every name its ``__init__.py`` binds at module level."""
    names = {entry.stem for entry in package.iterdir()
             if entry.suffix == ".py" or (entry / "__init__.py").exists()}
    init = (package / "__init__.py").read_text(encoding="utf-8")
    for node in ast.parse(init).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        else:  # assignments, in whatever statement: every name stored to
            names.update(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Store))
    return names


def check_api_names(root: Path) -> list:
    """Every ```pkg.Name``` span in ``docs/api.md`` must resolve in ``pkg``."""
    api = root / "docs" / "api.md"
    packages = repo_packages(root)
    if not api.exists() or not packages:
        return []
    # `pkg.Name`, `pkg.Name(...)`, `pkg.sub.Name`: the first name is checked.
    mention = re.compile(r"`(%s)\.([A-Za-z_]\w*)[\w.]*[`(]" % "|".join(packages))
    bound = {name: bound_names(root / "src" / "repro" / name)
             for name in packages}
    return [
        f"docs/api.md: `{package}.{name}` is not bound in "
        f"src/repro/{package}/__init__.py nor a submodule of it"
        for package, name in sorted(set(mention.findall(
            api.read_text(encoding="utf-8"))))
        if name not in bound[package]
    ]


def check_routes(root: Path) -> list:
    """The front door's route table and the docs' endpoint tables agree."""
    script = root / "scripts" / "serve.py"
    if not script.exists():
        return []
    served = {
        tuple(part.value for part in key.elts)
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8")))
        if isinstance(node, ast.Dict) for key in node.keys
        if isinstance(key, ast.Tuple) and len(key.elts) == 2
        and all(isinstance(part, ast.Constant) for part in key.elts)
        and key.elts[0].value in ("GET", "POST")
    }
    documented = {}
    for path in sorted((root / "docs").glob("*.md")):
        for route, method in ROUTE_ROW_PATTERN.findall(
                path.read_text(encoding="utf-8")):
            documented.setdefault((method, route), path.relative_to(root))
    return [
        f"scripts/serve.py: route `{method} {route}` is in no endpoint table "
        "under docs/" for method, route in sorted(served - set(documented))
    ] + [
        f"{documented[method, route]}: endpoint table lists `{method} {route}`, "
        "which scripts/serve.py does not route"
        for method, route in sorted(set(documented) - served)
    ]


def check_profile_names(root: Path) -> list:
    """The profiling hooks in ``src/repro`` and their docs table agree."""
    doc = root / "docs" / "architecture.md"
    if not doc.exists():
        return []
    called = {
        node.args[0].value
        for source in (root / "src" / "repro").rglob("*.py")
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("section", "count")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "profile"
        and node.args and isinstance(node.args[0], ast.Constant)
    }
    hooks = doc.read_text(encoding="utf-8").partition(
        "## Profiling hooks")[2].partition("\n## ")[0]
    listed = {name for cell in re.findall(r"^\|([^|]*)\|", hooks, re.M)
              for name in re.findall(r"`([\w.]+)`", cell)}
    return [
        f"src/repro: profile name `{name}` is in no row of the Profiling "
        "hooks table in docs/architecture.md" for name in sorted(called - listed)
    ] + [
        f"docs/architecture.md: Profiling hooks table lists `{name}`, which no "
        "profile.section / profile.count call in src/repro uses"
        for name in sorted(listed - called)
    ]


def main() -> int:
    root = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent)
    bench_sources = "\n".join(
        bench.read_text(encoding="utf-8")
        for bench in sorted((root / "benchmarks").glob("*.py")))
    known_knobs = knobs_read(root)
    problems = []
    count = 0
    for path in markdown_files(root):
        count += 1
        text = path.read_text(encoding="utf-8")
        problems.extend(check_file(path, root, text))
        problems.extend(check_source_paths(path, root, text))
        if path.name not in PLAN_FILES:
            problems.extend(check_bench_artifacts(path, root, text,
                                                  bench_sources))
        problems.extend(check_env_knobs(path, root, text, known_knobs))
    workflow = root / CI_WORKFLOW
    if workflow.exists():
        problems.extend(check_env_knobs(
            workflow, root, workflow.read_text(encoding="utf-8"), known_knobs))
    problems.extend(check_package_index(root))
    problems.extend(check_api_names(root))
    problems.extend(check_routes(root))
    problems.extend(check_profile_names(root))
    if problems:
        print(f"checked {count} markdown files — {len(problems)} problem(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    packages = ", ".join(repo_packages(root))
    print(f"checked {count} markdown files — links, src/repro paths, "
          f"BENCH artifacts, REPRO_* knobs, docs/api.md names, the serve.py "
          f"route table and the profiling hooks all resolve; docs/api.md "
          f"covers: {packages}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
