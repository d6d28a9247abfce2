"""The regression corpus: five restart/ordering bugs, re-encoded statically.

Each fixture under ``tests/lint/corpus/`` preserves the exact broken
shape a chaos campaign (PRs 3, 6, and 8) or a review (PR 13) once
caught, opted into the flow pass with ``# lint: effect[watch]``. The
checker must
flag each with exactly one finding of the expected rule — and the fixed
real tree must stay flow-clean, proving the rules encode the contract
and not the bugs' incidental syntax.
"""

from pathlib import Path

from repro.lint.engine import (diff_against_baseline, load_baseline,
                               run_lint)

CORPUS = Path(__file__).resolve().parent / "corpus"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: fixture -> (expected rule, substring of the expected message)
EXPECTED = {
    "pr3_swift_restart_offset.py": ("R010", "seek(0)"),
    "pr6_readahead_checkpoint.py": ("R008", "at-least-once"),
    "pr8_at_most_once_replay.py": ("R008", "at-most-once output"),
    "pr8_checkpoint_index_zero.py": ("R010", "_checkpoint_index"),
    "pr13_backup_id_zero.py": ("R010", "'backup_id'"),
}


class TestCorpusFixtures:
    def test_corpus_is_complete(self):
        found = sorted(p.name for p in CORPUS.glob("*.py"))
        assert found == sorted(EXPECTED)

    def test_each_fixture_yields_exactly_one_expected_finding(self):
        for name, (rule, needle) in sorted(EXPECTED.items()):
            report = run_lint(REPO_ROOT, paths=[CORPUS / name], flow=True)
            assert report.parse_errors == [], name
            assert len(report.findings) == 1, (
                f"{name}: expected exactly one finding, got "
                f"{[(f.rule, f.line, f.message) for f in report.findings]}")
            finding = report.findings[0]
            assert finding.rule == rule, (name, finding)
            assert needle in finding.message, (name, finding)
            assert finding.path.endswith(name)

    def test_fixtures_are_clean_without_the_flow_pass(self):
        # The bugs are ordering bugs: the per-file rules cannot see them.
        report = run_lint(REPO_ROOT, paths=sorted(CORPUS.glob("*.py")),
                          flow=False)
        assert report.findings == []


class TestTheFixedTreeIsFlowClean:
    def test_full_tree_has_no_new_flow_findings(self):
        report = run_lint(REPO_ROOT, flow=True)
        assert report.parse_errors == []
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        diff = diff_against_baseline(report, baseline)
        assert diff.new == [], [
            (f.rule, f.path, f.line, f.message) for f in diff.new]

    def test_committed_baseline_is_minimal(self):
        report = run_lint(REPO_ROOT, flow=True)
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        diff = diff_against_baseline(report, baseline)
        assert diff.stale == []
