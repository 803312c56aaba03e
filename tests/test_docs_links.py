"""Wrap tools/check_docs.py so local pytest catches doc rot.

CI runs the script directly; this keeps the same guarantee in every
plain `pytest tests/` run, and pins the checker's own behaviour.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture(scope="module")
def checker():
    path = ROOT / "tools" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_docs_have_no_broken_links(checker):
    errors = []
    for path in checker.markdown_files(ROOT):
        errors.extend(checker.check_file(path, ROOT))
    assert not errors, "\n".join(errors)


def test_repo_docs_are_scanned(checker):
    names = {p.name for p in checker.markdown_files(ROOT)}
    assert {"README.md", "DESIGN.md", "PAPER_MAP.md", "OBSERVABILITY.md"} <= names


class TestCheckerBehaviour:
    def test_detects_all_break_modes(self, checker, tmp_path):
        (tmp_path / "b.md").write_text("# Other\n\n## Real Section\n")
        (tmp_path / "a.md").write_text(
            "# One\n"
            "[ok](b.md) [ok2](b.md#real-section) [self](#one)\n"
            "[bad](gone.md) [badanchor](b.md#nope) [badself](#zzz)\n"
            "```\n[fenced](alsogone.md)\n```\n"
            "[ext](https://example.com/x#y)\n"
        )
        errors = checker.check_file(tmp_path / "a.md", tmp_path)
        assert len(errors) == 3
        assert any("gone.md" in e for e in errors)
        assert any("b.md#nope" in e for e in errors)
        assert any("#zzz" in e for e in errors)

    def test_detects_stale_code_references(self, checker, tmp_path):
        package = tmp_path / "src" / "repro" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("from repro.pkg.mod import Thing\n")
        (package / "mod.py").write_text(
            "LIMIT = 3\n\nclass Thing:\n    def run(self):\n        pass\n"
        )
        live = (
            "`repro.pkg` `repro.pkg.mod.Thing.run` `repro.pkg.Thing` "
            "`repro.pkg.mod.LIMIT` `pkg/mod.py` `src/repro/pkg/mod.py::Thing` "
            "`repro.bench.v2` `bench_*.py`\n"
        )
        stale = "`repro.pkg.Gone` `repro.pkg.mod.Thing.stop` `repro.nope` `pkg/gone.py`\n"
        (tmp_path / "a.md").write_text(live + stale + "```\n`repro.fenced`\n```\n")
        errors = checker.check_file(tmp_path / "a.md", tmp_path)
        assert len(errors) == 4 and all(e.startswith("a.md:2: stale") for e in errors)
        # History and plans name removed code on purpose.
        (tmp_path / "CHANGES.md").write_text(stale)
        assert checker.check_file(tmp_path / "CHANGES.md", tmp_path) == []

    def test_detects_removed_subcommands_and_unknown_presets(self, checker, tmp_path):
        package = tmp_path / "src" / "repro"
        (package / "workloads").mkdir(parents=True)
        (package / "cli.py").write_text(
            'sub.add_parser("run", help="x")\nsub.add_parser("serve")\n'
        )
        (package / "workloads" / "scenarios.py").write_text(
            'S = [Scenario(name="flash-sale", l=1), Scenario(name="smoke", l=2)]\n'
        )
        live = (
            "`python -m repro run flash-sale` `repro serve` `repro run [PRESET]` "
            "`repro run --rounds 3` `repro.cli` `src/repro cli`\n"
            "```\npython -m repro run smoke --seed 7\nfrom repro import main\n```\n"
        )
        stale = (
            "`python -m repro stream --preset x` and `repro run durable-smoke`\n"
            "```\nPYTHONPATH=src python -m repro shard --rounds 6\n```\n"
        )
        (tmp_path / "a.md").write_text(live + stale)
        errors = checker.check_file(tmp_path / "a.md", tmp_path)
        assert errors == [
            "a.md:6: stale subcommand 'repro stream'",
            "a.md:6: unknown preset 'repro run durable-smoke'",
            "a.md:8: stale subcommand 'repro shard'",
        ]
        (tmp_path / "CHANGES.md").write_text(stale)
        assert checker.check_file(tmp_path / "CHANGES.md", tmp_path) == []

    def test_github_slugs(self, checker):
        assert checker.github_slug("3. Metric reference") == "3-metric-reference"
        assert (
            checker.github_slug("Fault model (repro.faults)")
            == "fault-model-reprofaults"
        )
        assert (
            checker.github_slug("6. `BENCH_*.json` — machine-readable benchmark results")
            == "6-bench_json--machine-readable-benchmark-results"
        )

    def test_duplicate_headings_get_suffixes(self, checker, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("# Same\n\n# Same\n")
        assert checker.heading_slugs(doc) == {"same", "same-1"}
