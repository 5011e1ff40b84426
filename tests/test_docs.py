"""Documentation integrity: markdown links resolve, doc contents stay current.

This is the CI markdown link checker: every relative link (and intra-page
anchor) in ``README.md`` and ``docs/`` must point at a real file or heading,
and the prose must not drift from the code (command listings, catalog size,
committed benchmark baselines).
"""

import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#+\s+(.*)$", re.MULTILINE)
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)


def _anchor(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def _links(path: Path):
    text = _CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    return _LINK.findall(text)


def _anchors(path: Path):
    text = _CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    return {_anchor(m) for m in _HEADING.findall(text)}


def test_doc_files_exist():
    assert (REPO / "README.md").exists(), "the repo must have a top-level README"
    names = {p.name for p in DOC_FILES}
    assert {"architecture.md", "dse.md", "running.md", "performance.md",
            "service.md", "report.md", "REPORT.md"} <= names


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_markdown_links_resolve(doc):
    broken = []
    for link in _links(doc):
        if link.startswith(("http://", "https://", "mailto:")):
            continue  # external links are not checked offline
        target, _, fragment = link.partition("#")
        target_path = (doc.parent / target).resolve() if target else doc
        if target and not target_path.exists():
            broken.append(f"{doc.name}: {link} (missing file)")
            continue
        if fragment and target_path.suffix == ".md":
            if fragment not in _anchors(target_path):
                broken.append(f"{doc.name}: {link} (missing anchor)")
    assert not broken, "broken links:\n" + "\n".join(broken)


def test_architecture_is_cross_linked():
    for name in ("running.md", "performance.md", "service.md", "dse.md"):
        text = (REPO / "docs" / name).read_text(encoding="utf-8")
        assert "architecture.md" in text, f"docs/{name} must link the architecture page"


def test_running_doc_lists_every_cli_command():
    from repro.runtime.cli import build_parser

    text = (REPO / "docs" / "running.md").read_text(encoding="utf-8")
    subcommands = {"list", "run", "sweep", "explore", "bench", "report", "stats"}
    # Keep this set in sync with the parser itself.
    parser_commands = set()
    for action in build_parser()._subparsers._group_actions:  # noqa: SLF001
        parser_commands.update(action.choices)
    assert subcommands == parser_commands
    for command in sorted(subcommands):
        # Require a real mention: a code-formatted invocation or a fenced
        # `python -m repro <command>` line, not an incidental prose substring.
        assert re.search(
            rf"`(python -m repro )?{command}`|python -m repro {command}\b",
            text, re.MULTILINE,
        ), f"docs/running.md does not mention the `{command}` command"


def test_report_md_matches_regeneration(paper_report):
    """The committed reproduction report regenerates byte-for-byte.

    Renders the report twice against one shared cache: the first pass runs
    every claimed experiment (cold), the second is served entirely from the
    warm cache.  Both renderings must be identical to each other and to the
    committed ``docs/REPORT.md``, and no claim may grade ``fail``.
    """
    from repro.report import Grade, render_markdown

    _, cold_run, warm_run = paper_report
    assert {check.cache_status for check in warm_run.experiments} == {"hit"}
    cold, warm = render_markdown(cold_run), render_markdown(warm_run)
    assert cold == warm, "report rendering is not cache-stable"
    committed = (REPO / "docs" / "REPORT.md").read_text(encoding="utf-8")
    assert committed == cold, (
        "docs/REPORT.md drifted from regeneration; run "
        "`python -m repro report --out docs/REPORT.md` and commit the result"
    )
    assert cold_run.count(Grade.FAIL) == 0
    assert len(cold_run.graded) >= 20


def test_readme_mentions_catalog_and_tier1_command():
    from repro.experiments.registry import CATALOG

    text = (REPO / "README.md").read_text(encoding="utf-8")
    assert "python -m pytest" in text
    assert "python -m repro" in text
    assert str(len(CATALOG)) in text, "README experiment count drifted from the catalog"
    for command in ("list", "run", "sweep", "bench", "explore"):
        assert command in text


def test_performance_doc_mentions_both_committed_baselines():
    text = (REPO / "docs" / "performance.md").read_text(encoding="utf-8")
    schema_section = text[text.index("## The benchmark baseline"):]
    for name in ("BENCH_noc.json", "BENCH_service.json", "BENCH_dse.json", "BENCH_sim.json",
                 "BENCH_perfmodel.json"):
        assert name in schema_section
        baseline = json.loads((REPO / name).read_text(encoding="utf-8"))
        for entry in baseline["entries"]:
            speedup = f"{entry['speedup']:.1f}x"
            assert speedup in schema_section, (
                f"docs/performance.md must mention the committed {name} "
                f"baseline speedup ({speedup})"
            )
