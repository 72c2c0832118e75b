"""Docs-site validity checks runnable without mkdocs installed.

CI's docs lane runs ``mkdocs build --strict``, which fails on nav
entries pointing at missing files and on broken intra-docs links. These
tests pin the same properties with stdlib + pyyaml so a broken docs
change fails in the fast lane too, and run the docstring-coverage gate
(``tools/check_docstrings.py``) the docs lane enforces.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest
import yaml

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS_DIR = os.path.join(REPO_ROOT, "docs")
MKDOCS_YML = os.path.join(REPO_ROOT, "mkdocs.yml")

#: Markdown inline links: [text](target). Images and autolinks excluded.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")

#: The body of a fenced Python code block.
_PY_FENCE_RE = re.compile(r"^```py(?:thon)?[ \t]*\n(.*?)^```", re.S | re.M)

#: A ``from repro… import …`` statement, parenthesised continuation included.
_REPRO_IMPORT_RE = re.compile(
    r"^[ \t]*from repro[\w.]* import (?:\([^)]*\)|[^\n]*)", re.M
)


def _nav_files(nav) -> list:
    """Flatten mkdocs nav (list of {title: target-or-sublist}) to paths."""
    files = []
    for entry in nav:
        if isinstance(entry, str):
            files.append(entry)
            continue
        for _title, target in entry.items():
            if isinstance(target, list):
                files.extend(_nav_files(target))
            else:
                files.append(target)
    return files


@pytest.fixture(scope="module")
def config():
    with open(MKDOCS_YML) as handle:
        return yaml.safe_load(handle)


class TestMkdocsConfig:
    def test_strict_mode_is_on(self, config):
        assert config["strict"] is True

    def test_theme_is_bundled(self, config):
        # The docs CI lane installs only `mkdocs`; any non-bundled theme
        # would break `mkdocs build` there.
        assert config["theme"]["name"] in ("mkdocs", "readthedocs")

    def test_every_nav_entry_exists(self, config):
        for target in _nav_files(config["nav"]):
            assert os.path.isfile(os.path.join(DOCS_DIR, target)), (
                f"mkdocs.yml nav references docs/{target}, which does "
                "not exist (mkdocs build --strict would fail)"
            )

    def test_every_docs_page_is_in_nav(self, config):
        in_nav = set(_nav_files(config["nav"]))
        on_disk = {
            name for name in os.listdir(DOCS_DIR) if name.endswith(".md")
        }
        assert on_disk == in_nav, (
            "docs/ pages and mkdocs.yml nav disagree "
            f"(only on disk: {sorted(on_disk - in_nav)}, "
            f"only in nav: {sorted(in_nav - on_disk)})"
        )


class TestDocsLinks:
    def test_intra_docs_links_resolve(self, config):
        """Every relative .md link in a docs page targets a real page."""
        broken = []
        for page in _nav_files(config["nav"]):
            path = os.path.join(DOCS_DIR, page)
            with open(path) as handle:
                text = handle.read()
            for target in _LINK_RE.findall(text):
                if target.startswith(("http://", "https://", "#", "mailto:")):
                    continue
                target_file = target.split("#", 1)[0]
                if not target_file.endswith(".md"):
                    continue
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), target_file)
                )
                if not os.path.isfile(resolved):
                    broken.append(f"{page} -> {target}")
        assert not broken, f"broken intra-docs links: {broken}"

    def test_tutorial_cross_links_example(self):
        """The chaos tutorial and its runnable example reference each other."""
        with open(os.path.join(DOCS_DIR, "chaos-tutorial.md")) as handle:
            tutorial = handle.read()
        assert "examples/chaos_recovery.py" in tutorial
        example = os.path.join(REPO_ROOT, "examples", "chaos_recovery.py")
        with open(example) as handle:
            assert "chaos-tutorial.md" in handle.read()

    def test_trace_replay_page_cross_links(self):
        """The trace-replay page, example, and fixture stay in sync."""
        with open(os.path.join(DOCS_DIR, "trace-replay.md")) as handle:
            page = handle.read()
        assert "examples/trace_round_trip.py" in page
        assert "tests/fixtures/trace_small.csv" in page
        assert "benchmarks/bench_trace_replay.py" in page
        example = os.path.join(REPO_ROOT, "examples", "trace_round_trip.py")
        with open(example) as handle:
            assert "trace-replay.md" in handle.read()
        fixture = os.path.join(
            REPO_ROOT, "tests", "fixtures", "trace_small.csv"
        )
        with open(fixture) as handle:
            assert handle.readline().strip() == "# repro-trace v1"


class TestDocsImports:
    def test_repro_imports_in_code_blocks_resolve(self):
        """Every name a docs or README code block imports from repro exists."""
        pages = [
            os.path.join(DOCS_DIR, name)
            for name in sorted(os.listdir(DOCS_DIR))
            if name.endswith(".md")
        ] + [os.path.join(REPO_ROOT, "README.md")]
        statements = []
        for page in pages:
            with open(page) as handle:
                text = handle.read()
            for block in _PY_FENCE_RE.findall(text):
                for match in _REPRO_IMPORT_RE.finditer(block):
                    statements.append((page, match.group(0).strip()))
        assert statements, "no repro imports found in docs code blocks"
        broken = []
        for page, statement in statements:
            try:
                exec(statement, {})
            except ImportError as exc:
                broken.append(f"{os.path.relpath(page, REPO_ROOT)}: {exc}")
        assert not broken, f"docs import names that do not exist: {broken}"


class TestDocstringGate:
    def test_gated_packages_fully_documented(self):
        """The gate CI enforces passes: 100% public-symbol coverage."""
        proc = subprocess.run(
            [
                sys.executable,
                os.path.join(REPO_ROOT, "tools", "check_docstrings.py"),
                os.path.join(REPO_ROOT, "src", "repro", "core"),
                os.path.join(REPO_ROOT, "src", "repro", "faults"),
                os.path.join(REPO_ROOT, "src", "repro", "metrics"),
                os.path.join(REPO_ROOT, "src", "repro", "workloads"),
                os.path.join(REPO_ROOT, "src", "repro", "suts", "analytic.py"),
                os.path.join(REPO_ROOT, "src", "repro", "learned", "optimizer.py"),
                os.path.join(REPO_ROOT, "src", "repro", "learned", "cardinality.py"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
