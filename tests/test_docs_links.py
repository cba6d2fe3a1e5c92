"""Tests for the docs tree: link integrity and code/format-spec consistency.

Two guarantees:

1. ``README.md`` and ``docs/`` contain no dead intra-repo links or anchors
   (the same check the CI ``docs`` job runs via ``tools/check_links.py``).
2. ``docs/FORMATS.md`` documents exactly the NPZ keys and format versions
   the implementation in :mod:`repro.dataset.io` enforces — the on-disk
   contract cannot silently drift from its specification.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

from repro.dataset import io

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_links():
    """The ``tools/check_links.py`` module, loaded from its file path."""
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO_ROOT / "tools" / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table_keys(markdown: str, section_heading: str) -> set[str]:
    """Backticked first-column entries of the table under one heading."""
    start = markdown.index(section_heading)
    following = markdown[start + len(section_heading) :]
    next_heading = re.search(r"^#{1,6} ", following, flags=re.MULTILINE)
    section = following[: next_heading.start()] if next_heading else following
    return set(re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE))


class TestRepoLinks:
    def test_readme_and_docs_have_no_dead_links(self, check_links):
        targets = [REPO_ROOT / "README.md"] + sorted((REPO_ROOT / "docs").rglob("*.md"))
        errors = []
        for path in targets:
            errors.extend(check_links.check_file(path, REPO_ROOT))
        assert not errors, "\n".join(errors)

    def test_checker_flags_dead_links(self, check_links, tmp_path):
        good = tmp_path / "good.md"
        good.write_text("# Title\n\nSee [self](good.md#title).\n")
        assert check_links.check_file(good, tmp_path) == []
        bad = tmp_path / "bad.md"
        bad.write_text("[gone](missing.md) and [anchor](good.md#absent)\n")
        errors = check_links.check_file(bad, tmp_path)
        assert len(errors) == 2
        assert "dead link" in errors[0]
        assert "dead anchor" in errors[1]

    def test_checker_accepts_deduplicated_heading_anchors(self, check_links, tmp_path):
        page = tmp_path / "dup.md"
        page.write_text(
            "# Example\n\n# Example\n\n"
            "[first](#example) [second](#example-1) [third](#example-2)\n"
        )
        errors = check_links.check_file(page, tmp_path)
        assert len(errors) == 1  # only #example-2 has no matching heading
        assert "example-2" in errors[0]

    def test_checker_ignores_code_blocks_and_external_links(self, check_links, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "[ext](https://example.com/x)\n"
            "```\n[fake](not-checked.md)\n```\n"
            "`[inline](also-not-checked.md)`\n"
        )
        assert check_links.check_file(page, tmp_path) == []


class TestFormatsSpecMatchesCode:
    @pytest.fixture(scope="class")
    def formats_md(self) -> str:
        return (REPO_ROOT / "docs" / "FORMATS.md").read_text(encoding="utf-8")

    def test_table_npz_keys_match(self, formats_md):
        documented = _table_keys(formats_md, "## Table NPZ")
        assert documented == set(io.TABLE_NPZ_KEYS)

    def test_versions_and_error_classes_documented(self, formats_md):
        assert f"dataset JSON **{io._FORMAT_VERSION}**" in formats_md
        assert f"table NPZ **{io._NPZ_FORMAT_VERSION}**" in formats_md
        for constant in ("TABLE_NPZ_KEYS", "DatasetError"):
            assert constant in formats_md
