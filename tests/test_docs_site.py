"""The documentation site build (``make docs``).

CI gates on this build, so its failure modes need pinning: the real
tree must build with zero problems, dead links and unimportable API
directives must fail, and the API pages must actually carry the live
docstrings (they are the generated API reference the architecture
pages link to).
"""

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))
from build_docs import (  # noqa: E402
    Page,
    build,
    render_api_object,
    render_markdown,
    render_page_body,
    slugify,
)

sys.path.pop(0)


def make_page(rel="page.md"):
    return Page(src=Path(rel), rel=rel, title="t")


class TestMarkdownRenderer:
    def test_headings_get_github_slugs(self):
        page = make_page()
        html = render_markdown("# Hello World\n## The `code` bit", page)
        assert '<h1 id="hello-world">' in html
        assert '<h2 id="the-code-bit">' in html
        assert page.anchors == {"hello-world", "the-code-bit"}

    def test_code_fences_escape_html(self):
        page = make_page()
        html = render_markdown("```py\nx = a < b\n```", page)
        assert "x = a &lt; b" in html
        assert 'class="language-py"' in html

    def test_tables_and_inline_markup(self):
        page = make_page()
        html = render_markdown(
            "| a | b |\n| --- | --- |\n| `x` | **y** |", page
        )
        assert "<table>" in html and "<th>a</th>" in html
        assert "<code>x</code>" in html and "<strong>y</strong>" in html

    def test_md_links_rewritten_to_html(self):
        page = make_page()
        html = render_markdown("[go](other.md#sec) and [out](https://x.y)", page)
        assert 'href="other.html#sec"' in html
        assert 'href="https://x.y"' in html
        assert page.links == ["other.md#sec", "https://x.y"]

    def test_slugify(self):
        assert slugify("Running table & migration ticks") == (
            "running-table--migration-ticks"
        )


class TestApiDirectives:
    def test_renders_live_docstring_and_members(self):
        page = make_page()
        html = render_api_object("repro.accounting.pricing.QuoteTableCache", page)
        assert "Keyed LRU store" in html
        assert "get_or_build" in html
        assert "repro.accounting.pricing.QuoteTableCache" in page.anchors
        assert "repro.accounting.pricing.QuoteTableCache.stats" in page.anchors

    def test_unknown_object_fails(self):
        with pytest.raises(ValueError, match="no attribute"):
            render_api_object("repro.accounting.pricing.NoSuchThing", make_page())

    def test_directive_inside_page_body(self):
        page = make_page()
        html = render_page_body(
            "# Title\n\n::: repro.sim.events.EventCalendar\n", page
        )
        assert '<h1 id="title">' in html
        assert "Merged event streams" in html
        # The directive's HTML must not be escaped by the markdown pass.
        assert "&lt;section" not in html


class TestRealSiteBuild:
    def test_builds_clean(self, tmp_path):
        problems = build(REPO / "docs", tmp_path / "site", REPO / "mkdocs.yml")
        assert problems == []
        site = tmp_path / "site"
        for expected in (
            "index.html",
            "architecture/pricing.html",
            "architecture/events.html",
            "architecture/migration-ticks.html",
            "architecture/sweep.html",
            "guide/reproducing.html",
            "guide/benchmarks.html",
            "api/pricing.html",
            "api/events.html",
            "api/sim.html",
            "assets/style.css",
        ):
            assert (site / expected).exists(), expected

    def test_api_pages_carry_docstrings(self, tmp_path):
        build(REPO / "docs", tmp_path / "site", REPO / "mkdocs.yml")
        pricing = (tmp_path / "site" / "api" / "pricing.html").read_text()
        assert "workload-determined half of a pricing kernel" in pricing
        events = (tmp_path / "site" / "api" / "events.html").read_text()
        assert "Bounded FCFS + backfill queue" in events


class TestSyntheticFailures:
    def write_site(self, tmp_path, index_md, config=None):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "index.md").write_text(index_md)
        cfg = tmp_path / "mkdocs.yml"
        cfg.write_text(config or "site_name: t\nnav:\n  - Home: index.md\n")
        return docs, cfg

    def test_dead_link_fails(self, tmp_path):
        docs, cfg = self.write_site(tmp_path, "# Hi\n[bad](missing.md)\n")
        problems = build(docs, tmp_path / "site", cfg)
        assert any("dead link" in p for p in problems)

    def test_dead_anchor_fails(self, tmp_path):
        docs, cfg = self.write_site(tmp_path, "# Hi\n[bad](#nope)\n")
        problems = build(docs, tmp_path / "site", cfg)
        assert any("dead same-page anchor" in p for p in problems)

    def test_orphan_page_fails(self, tmp_path):
        docs, cfg = self.write_site(tmp_path, "# Hi\n")
        (docs / "orphan.md").write_text("# Lost\n")
        problems = build(docs, tmp_path / "site", cfg)
        assert any("not referenced in nav" in p for p in problems)

    def test_missing_nav_file_fails(self, tmp_path):
        docs, cfg = self.write_site(
            tmp_path,
            "# Hi\n",
            config="site_name: t\nnav:\n  - Home: index.md\n  - Gone: gone.md\n",
        )
        problems = build(docs, tmp_path / "site", cfg)
        assert any("has no file" in p for p in problems)

    def test_bad_api_directive_fails(self, tmp_path):
        docs, cfg = self.write_site(
            tmp_path, "# Hi\n\n::: repro.not_a_module.Thing\n"
        )
        problems = build(docs, tmp_path / "site", cfg)
        assert any("API directive failed" in p for p in problems)

    def test_nothing_written_on_failure(self, tmp_path):
        docs, cfg = self.write_site(tmp_path, "# Hi\n[bad](missing.md)\n")
        site = tmp_path / "site"
        assert build(docs, site, cfg)
        assert not site.exists()

    def test_failed_directive_reported_once_not_as_orphan(self, tmp_path):
        """A nav page whose directive fails is one problem, not also a
        bogus 'not referenced in nav' report."""
        docs, cfg = self.write_site(
            tmp_path, "# Hi\n\n::: repro.not_a_module.Thing\n"
        )
        problems = build(docs, tmp_path / "site", cfg)
        assert len(problems) == 1
        assert "API directive failed" in problems[0]

    def test_stale_pages_removed_on_rebuild(self, tmp_path):
        """Pages dropped from the nav (and disk) must not survive as
        stale HTML from an earlier build."""
        docs, cfg = self.write_site(
            tmp_path,
            "# Hi\n[old](old.md)\n",
            config="site_name: t\nnav:\n  - Home: index.md\n  - Old: old.md\n",
        )
        (docs / "old.md").write_text("# Old\n")
        site = tmp_path / "site"
        assert build(docs, site, cfg) == []
        assert (site / "old.html").exists()
        (docs / "old.md").unlink()
        (docs / "index.md").write_text("# Hi\n")
        cfg.write_text("site_name: t\nnav:\n  - Home: index.md\n")
        assert build(docs, site, cfg) == []
        assert not (site / "old.html").exists()
