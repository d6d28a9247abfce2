"""Determinism sanitizer: double-run digests must be byte-identical."""

import pytest

from repro.lint.sanitizer import format_report, run_once, run_sanitizer

pytestmark = pytest.mark.determinism

#: The seed-0 campaign's committed digest (``python -m repro.lint
#: --sanitize``). The campaign is deterministic, so a change here is a
#: behavior change to Stylus, Scribe or the state backends: re-pin it
#: only for a deliberate one.
SEED0_DIGEST = ("0c14c8c10455acf30ac598fefc0d3c5c"
                "244bdd97493cd9a561f7599324f7a323")


class TestSanitizer:
    def test_double_run_is_deterministic(self):
        report = run_sanitizer(seed=0, runs=2)
        assert report.deterministic, format_report(report)
        assert report.differences == []

    def test_seed0_digest_is_pinned(self):
        assert run_once(seed=0).combined_digest() == SEED0_DIGEST

    def test_digest_covers_metrics_offsets_and_state(self):
        run = run_once(seed=0)
        assert run.metrics_snapshot
        assert run.scribe_offsets
        assert run.state_digests
        assert len(run.combined_digest()) == 64

    def test_different_seeds_diverge(self):
        # The campaign must actually depend on the seed — otherwise a
        # "deterministic" verdict would be vacuous.
        assert run_once(seed=0).combined_digest() \
            != run_once(seed=1).combined_digest()

    def test_chaos_is_accounted(self):
        # The sanitizer campaign injects HDFS outages; every give-up must
        # surface in the degraded-mode counter chain (the R004 invariant).
        snapshot = run_once(seed=0).metrics_snapshot
        assert snapshot.get("hdfs.unavailable_errors", 0) > 0
        give_ups = snapshot.get("backup.retry.give_ups", 0)
        assert snapshot.get("backup.snapshot.skipped", 0) == give_ups
