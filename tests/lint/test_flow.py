"""reproflow unit tests: classification, guards, splicing, R007–R010.

Snippets are written under ``src/repro/stylus/`` (a watched directory)
unless a test is specifically about scoping. Each rule gets a broken
shape and its fixed counterpart — the checker must flag the first and
stay silent on the second.
"""

from tests.lint.conftest import rules_hit

STYLUS = "src/repro/stylus/mod.py"


def flow_rules(report):
    return [f for f in report.findings if f.rule in ("R007", "R008",
                                                     "R009", "R010")]


class TestScopingAndGating:
    def test_flow_rules_off_by_default(self, lint):
        report = lint("""\
            class T:
                def restart(self):
                    self._checkpoint_index = 0
            """, filename=STYLUS)
        assert flow_rules(report) == []

    def test_flow_flag_enables_them(self, lint):
        report = lint("""\
            class T:
                def restart(self):
                    self._checkpoint_index = 0
            """, filename=STYLUS, flow=True)
        assert rules_hit(report) == ["R010"]

    def test_select_enables_a_flow_rule_without_the_flag(self, lint):
        report = lint("""\
            class T:
                def restart(self):
                    self._checkpoint_index = 0
            """, filename=STYLUS, select=["R010"])
        assert rules_hit(report) == ["R010"]

    def test_unwatched_modules_are_skipped(self, lint):
        report = lint("""\
            class T:
                def restart(self):
                    self._checkpoint_index = 0
            """, filename="src/repro/laser/mod.py", flow=True)
        assert flow_rules(report) == []

    def test_watch_marker_opts_a_file_in(self, lint):
        report = lint("""\
            # lint: effect[watch]
            class T:
                def restart(self):
                    self._checkpoint_index = 0
            """, filename="src/other/mod.py", flow=True)
        assert rules_hit(report) == ["R010"]


class TestR007ExactlyOncePublishOrder:
    BROKEN = """\
        from repro.core.semantics import StateSemantics

        class T:
            def _checkpoint(self):
                if self.semantics.state == StateSemantics.EXACTLY_ONCE:
                    self._writer.write(self._pending)
                    self.state_backend.save_atomic_with_outputs(
                        self._state, self._offset, [])
        """

    def test_publish_before_commit_is_flagged(self, lint):
        report = lint(self.BROKEN, filename=STYLUS, flow=True)
        assert rules_hit(report) == ["R007"]

    def test_publish_after_commit_is_clean(self, lint):
        report = lint("""\
            from repro.core.semantics import StateSemantics

            class T:
                def _checkpoint(self):
                    if self.semantics.state == StateSemantics.EXACTLY_ONCE:
                        self.state_backend.save_atomic_with_outputs(
                            self._state, self._offset, [])
                        self._writer.write(self._pending)
            """, filename=STYLUS, flow=True)
        assert flow_rules(report) == []

    def test_at_least_once_guard_does_not_trip_it(self, lint):
        report = lint("""\
            from repro.core.semantics import StateSemantics

            class T:
                def _checkpoint(self):
                    if self.semantics.state == StateSemantics.AT_LEAST_ONCE:
                        self._writer.write(self._pending)
                        self.state_backend.save_state(self._state)
                        self.state_backend.save_offset(self._offset)
            """, filename=STYLUS, flow=True)
        assert flow_rules(report) == []

    def test_interprocedural_publish_is_seen_through_helpers(self, lint):
        # The publish lives two calls away from the commit.
        report = lint("""\
            from repro.core.semantics import StateSemantics

            class T:
                def _flush(self):
                    self._emit_pending()

                def _emit_pending(self):
                    self._writer.write(self._pending)

                def _checkpoint(self):
                    if self.semantics.state == StateSemantics.EXACTLY_ONCE:
                        self._flush()
                        self.state_backend.save_atomic_with_outputs(
                            self._state, self._offset, [])
            """, filename=STYLUS, flow=True)
        assert "R007" in rules_hit(report)

    def test_pragma_suppresses_a_flow_finding(self, lint):
        source = self.BROKEN.replace(
            "self._writer.write(self._pending)",
            "self._writer.write(self._pending)"
            "  # lint: ignore[R007] transaction is simulated here")
        report = lint(source, filename=STYLUS, flow=True)
        assert flow_rules(report) == []
        assert report.suppressed == 1


class TestR008SaveOrder:
    def test_alo_offset_before_state_is_flagged(self, lint):
        report = lint("""\
            from repro.core.semantics import StateSemantics

            class T:
                def _checkpoint(self):
                    if self.semantics.state == StateSemantics.AT_LEAST_ONCE:
                        self.state_backend.save_offset(self._offset)
                        self.state_backend.save_state(self._state)
            """, filename=STYLUS, flow=True)
        assert rules_hit(report) == ["R008"]

    def test_alo_state_before_offset_is_clean(self, lint):
        report = lint("""\
            from repro.core.semantics import StateSemantics

            class T:
                def _checkpoint(self):
                    if self.semantics.state == StateSemantics.AT_LEAST_ONCE:
                        self.state_backend.save_state(self._state)
                        self.state_backend.save_offset(self._offset)
            """, filename=STYLUS, flow=True)
        assert flow_rules(report) == []

    def test_amo_state_before_offset_is_flagged(self, lint):
        report = lint("""\
            from repro.core.semantics import StateSemantics

            class T:
                def _checkpoint(self):
                    if self.semantics.state == StateSemantics.AT_MOST_ONCE:
                        self.state_backend.save_state(self._state)
                        self.state_backend.save_offset(self._offset)
            """, filename=STYLUS, flow=True)
        assert rules_hit(report) == ["R008"]

    def test_amo_publish_without_offset_advance_is_flagged(self, lint):
        report = lint("""\
            from repro.core.semantics import OutputSemantics

            class T:
                def adopt(self, task):
                    if task.semantics.output is OutputSemantics.AT_MOST_ONCE:
                        self._writer.write(self._history)
            """, filename=STYLUS, flow=True)
        assert rules_hit(report) == ["R008"]

    def test_amo_publish_after_offset_advance_is_clean(self, lint):
        report = lint("""\
            from repro.core.semantics import OutputSemantics

            class T:
                def adopt(self, task):
                    if task.semantics.output is OutputSemantics.AT_MOST_ONCE:
                        self.state_backend.save_offset(self._tail)
                        self._writer.write(self._fresh)
            """, filename=STYLUS, flow=True)
        assert flow_rules(report) == []

    def test_sibling_branch_saves_do_not_shadow(self, lint):
        # The at-most-once branch's offset advance must not satisfy the
        # at-least-once branch's ordering: environments are disjoint.
        report = lint("""\
            from repro.core.semantics import StateSemantics

            class T:
                def _checkpoint(self):
                    if self.semantics.state == StateSemantics.AT_MOST_ONCE:
                        self.state_backend.save_offset(self._offset)
                    elif self.semantics.state == StateSemantics.AT_LEAST_ONCE:
                        self.state_backend.save_offset(self._offset)
                        self.state_backend.save_state(self._state)
            """, filename=STYLUS, flow=True)
        assert rules_hit(report) == ["R008"]
        assert len(flow_rules(report)) == 1

    def test_retrier_indirection_is_unwrapped(self, lint):
        report = lint("""\
            from repro.core.semantics import StateSemantics

            class T:
                def _checkpoint(self):
                    if self.semantics.state == StateSemantics.AT_LEAST_ONCE:
                        self._retrier.call(self.state_backend.save_offset,
                                           self._offset)
                        self._retrier.call(self.state_backend.save_state,
                                           self._state)
            """, filename=STYLUS, flow=True)
        assert rules_hit(report) == ["R008"]

    def test_class_level_assumption_narrows_every_method(self, lint):
        report = lint("""\
            class T:  # lint: effect[state=at_least_once]
                def _checkpoint(self):
                    self.state_backend.save_offset(self._offset)
                    self.state_backend.save_state(self._state)
            """, filename=STYLUS, flow=True)
        assert rules_hit(report) == ["R008"]

    def test_effect_none_annotation_exempts_a_line(self, lint):
        report = lint("""\
            class T:  # lint: effect[state=at_least_once]
                def _checkpoint(self):
                    self.state_backend.save_offset(self._offset)  # lint: effect[none]
                    self.state_backend.save_state(self._state)
            """, filename=STYLUS, flow=True)
        assert flow_rules(report) == []


class TestR009Counters:
    def test_granted_without_partner_is_flagged(self, lint):
        report = lint("""\
            class Gate:
                def __init__(self, metrics):
                    self._granted = metrics.counter("scribe.credits.granted")
            """, filename="src/repro/scribe/mod.py", flow=True)
        assert rules_hit(report) == ["R009"]

    def test_granted_with_blocked_partner_is_clean(self, lint):
        report = lint("""\
            class Gate:
                def __init__(self, metrics):
                    self._granted = metrics.counter("scribe.credits.granted")
                    self._blocked = metrics.counter("scribe.credits.blocked")
            """, filename="src/repro/scribe/mod.py", flow=True)
        assert flow_rules(report) == []

    def test_degraded_handler_without_counter_is_flagged(self, lint):
        report = lint("""\
            class T:
                def _defer_checkpoint(self):
                    self._events_since_checkpoint = 0
            """, filename=STYLUS, flow=True)
        assert rules_hit(report) == ["R009"]

    def test_degraded_handler_with_counter_is_clean(self, lint):
        report = lint("""\
            class T:
                def _defer_checkpoint(self):
                    self._deferred_counter.increment()
                    self._events_since_checkpoint = 0
            """, filename=STYLUS, flow=True)
        assert flow_rules(report) == []

    def test_degraded_marker_annotation(self, lint):
        report = lint("""\
            class T:
                def _quiesce(self):  # lint: effect[degraded]
                    self._events_since_checkpoint = 0
            """, filename=STYLUS, flow=True)
        assert rules_hit(report) == ["R009"]

    def test_counter_reached_through_a_helper_counts(self, lint):
        report = lint("""\
            class T:
                def _count_it(self):
                    self._deferred_counter.increment()

                def _defer_checkpoint(self):
                    self._count_it()
            """, filename=STYLUS, flow=True)
        assert flow_rules(report) == []


class TestR010RestartPaths:
    def test_seek_zero_in_restart_is_flagged(self, lint):
        report = lint("""\
            class T:
                def restart(self):
                    self._reader.seek(0)
            """, filename=STYLUS, flow=True)
        assert rules_hit(report) == ["R010"]

    def test_restart_from_durable_state_is_clean(self, lint):
        report = lint("""\
            class T:
                def restart(self):
                    state, offset = self.state_backend.load()
                    self._checkpoint_index = (
                        self.state_backend.last_checkpoint_index())
                    self._reader.seek(offset)
                    self._next_offset = offset
            """, filename=STYLUS, flow=True)
        assert flow_rules(report) == []

    def test_zero_index_outside_restart_paths_is_fine(self, lint):
        # __init__ legitimately starts numbering at zero.
        report = lint("""\
            class T:
                def __init__(self):
                    self._checkpoint_index = 0
            """, filename=STYLUS, flow=True)
        assert flow_rules(report) == []

    def test_memory_counter_with_zero_default_is_flagged_anywhere(self, lint):
        # The default is what the first call after a restart takes.
        report = lint("""\
            class Engine:
                def create_backup(self, store):
                    backup_id = self._next_id.get(store.name, 0)
                    self.hdfs.put(f"b/{backup_id}", store)
            """, filename=STYLUS, flow=True)
        assert rules_hit(report) == ["R010"]

    def test_zero_defaults_of_other_names_and_listed_ids_are_clean(self, lint):
        report = lint("""\
            class Engine:
                def create_backup(self, store):
                    seen = self._counts.get(store.name, 0)
                    names = self.hdfs.list(store.name)
                    backup_id = 0
                    if names:
                        backup_id = int(names[-1]) + 1
                    self.hdfs.put(f"b/{backup_id}", (store, seen))
            """, filename=STYLUS, flow=True)
        assert flow_rules(report) == []

    def test_restart_marker_annotation(self, lint):
        report = lint("""\
            class T:
                def rebuild(self):  # lint: effect[restart]
                    self._next_offset = 0
            """, filename=STYLUS, flow=True)
        assert rules_hit(report) == ["R010"]

    def test_adopt_and_recover_names_are_restart_like(self, lint):
        report = lint("""\
            class T:
                def adopt_bucket(self, bucket):
                    self._checkpoint_index = 0

                def _recover(self):
                    self._next_offset = 0
            """, filename=STYLUS, flow=True)
        assert len(flow_rules(report)) == 2


class TestAgainstTheRealTree:
    def test_list_rules_includes_flow_rules(self):
        from repro.lint.engine import registered_rules
        ids = set(registered_rules())
        assert {"R007", "R008", "R009", "R010", "P001"} <= ids

    def test_flow_summary_sees_the_stylus_checkpoint_protocol(self):
        # The real Stylus checkpoint must summarise to guarded events:
        # a commit only under exactly-once, offset/state saves under the
        # two other modes — proof the guard recognition matches the code
        # this analysis was built for.
        import ast
        from pathlib import Path

        from repro.lint import flow
        from repro.lint.engine import FileContext

        path = Path(__file__).resolve().parents[2] / "src/repro/stylus/engine.py"
        source = path.read_text(encoding="utf-8")
        ctx = FileContext("src/repro/stylus/engine.py", source,
                          ast.parse(source))
        index, summarizer = flow._module_state(ctx)
        events = summarizer.summary("StylusTask._checkpoint")
        kinds = {event.kind for event in events}
        assert flow.CHECKPOINT_COMMIT in kinds
        assert flow.OFFSET_ADVANCE in kinds
        assert flow.STATE_SAVE in kinds
        assert flow.PUBLISH in kinds
        commits = [e for e in events if e.kind == flow.CHECKPOINT_COMMIT]
        assert all(e.states == frozenset({"exactly_once"}) for e in commits)
