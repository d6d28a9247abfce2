"""Isolation of copy-free backups: the guarantee ``deepcopy`` used to give.

A snapshot blob, the live store and every store restored from the blob
share their SSTable runs by reference. That is sound only while a run is
never mutated after construction — which nothing on the flush path
enforces (freezing there would tax every write). It is enforced *here*:
seeded interleavings of put / merge / delete / flush / ``compact_step`` /
``create_backup`` / ``restore`` / writes-to-the-restored-store run
against a dict model, and

(a) every restore equals the model as of its snapshot;
(b) no later write, flush or compaction of the source or of any restored
    store changes an earlier snapshot or a sibling restore;
(c) a fingerprint of every run referenced by any blob, taken at backup
    time, is unchanged at the end.

The same ledger then rides a Stylus task through machine failures under
all three semantics. Both campaigns carry a meta-check in the chaos
campaign's style: some compaction must have replaced a run that a
retained snapshot still references, or the sharing was never stressed.
"""

import copy

import pytest

from repro.core.semantics import SemanticsPolicy
from repro.runtime.clock import SimClock
from repro.runtime.rng import make_rng
from repro.scribe.store import ScribeStore
from repro.storage.backup import BackupEngine
from repro.storage.hdfs import HdfsBlobStore
from repro.storage.lsm import LsmStore
from repro.storage.merge import DictSumMergeOperator
from repro.stylus.checkpointing import CheckpointPolicy
from repro.stylus.engine import StylusTask
from repro.stylus.state import LocalDbStateBackend

from tests.stylus.helpers import DimensionCounter

KEYS = [f"k{i:02d}" for i in range(12)]
STEPS = 400
SEMANTICS = [SemanticsPolicy.at_least_once(), SemanticsPolicy.at_most_once(),
             SemanticsPolicy.exactly_once()]


def fingerprint(run) -> str:
    """Everything a reader can observe of a run, as an immutable value."""
    return repr((run.level, list(run.items())))


class RunLedger:
    """Fingerprints of every run any blob references, as of backup time."""

    def __init__(self, hdfs):
        self.hdfs = hdfs
        self.prints = {}           # SSTable (by identity) -> fingerprint
        self.shared_replacements = 0

    def record(self):
        for name in self.hdfs.list("backups/"):
            for run in self.hdfs.get(name)[1]:
                self.prints.setdefault(run, fingerprint(run))

    def watch(self, store, operation):
        """Run ``operation``; count snapshot-referenced runs it replaced."""
        before = list(store._sstables)
        result = operation()
        after = set(store._sstables)
        self.shared_replacements += sum(
            run in self.prints and run not in after for run in before)
        return result

    def assert_unchanged(self):
        assert self.prints
        for run, taken in self.prints.items():
            assert fingerprint(run) == taken


def contents(store) -> dict:
    return copy.deepcopy(dict(store.scan()))


def run_store_campaign(seed):
    rng = make_rng(seed, "backup-isolation")
    hdfs = HdfsBlobStore(clock=SimClock())
    engine = BackupEngine(hdfs)
    ledger = RunLedger(hdfs)
    operator = DictSumMergeOperator()

    def make_store():
        return LsmStore(disk={}, name="app", merge_operator=operator,
                        memtable_flush_bytes=600, compaction_trigger=3)

    #: Every live store with its model: the source first, then restores.
    live = [(make_store(), {})]
    snapshots = {}  # backup_id -> the model as of the snapshot

    for _ in range(STEPS):
        store, model = live[rng.randrange(len(live))]
        roll = rng.random()
        key = rng.choice(KEYS)
        if roll < 0.25:
            value = {"n": rng.randrange(100), "tag": rng.randrange(5)}
            model[key] = dict(value)
            ledger.watch(store, lambda: store.put(key, value))
        elif roll < 0.60:
            delta = {"n": rng.randrange(1, 10)}
            model[key] = operator.merge(model.get(key, {}), delta)
            ledger.watch(store, lambda: store.merge(key, delta))
        elif roll < 0.70:
            model.pop(key, None)
            ledger.watch(store, lambda: store.delete(key))
        elif roll < 0.78:
            ledger.watch(store, store.flush)
        elif roll < 0.86:
            ledger.watch(store, store.compact_step)
        elif roll < 0.94:
            info = ledger.watch(store, lambda: engine.create_backup(store))
            snapshots[info.backup_id] = copy.deepcopy(model)
            ledger.record()
        elif snapshots:
            backup_id = rng.choice(sorted(snapshots))
            restored = engine.restore("app", {}, backup_id=backup_id,
                                      merge_operator=operator)
            assert contents(restored) == snapshots[backup_id]      # (a)
            live.append((restored, copy.deepcopy(snapshots[backup_id])))

    for store, model in live:                                      # (b)
        assert contents(store) == model
        for key in KEYS:
            assert store.get(key) == model.get(key)
    for backup_id, model in snapshots.items():                     # (b)
        again = engine.restore("app", {}, backup_id=backup_id,
                               merge_operator=operator)
        assert contents(again) == model
    ledger.assert_unchanged()                                      # (c)
    return ledger, len(live) - 1, len(snapshots)


class TestStoreLevelIsolation:
    @pytest.mark.parametrize("seed", range(12))
    def test_snapshots_restores_and_source_never_affect_each_other(self,
                                                                   seed):
        run_store_campaign(seed)

    def test_campaign_actually_shares_and_replaces_runs(self):
        """Meta-check: restores happened, stores were written after being
        restored, and compactions replaced runs that retained snapshots
        still reference. If not, the campaign proves nothing."""
        replaced = restores = backups = 0
        for seed in range(12):
            ledger, restored, taken = run_store_campaign(seed)
            replaced += ledger.shared_replacements
            restores += restored
            backups += taken
        assert backups > 50 and restores > 20
        assert replaced > 20, "no compaction replaced a snapshotted run"


TOTAL = 600


def run_recovery_campaign(seed, semantics):
    """A monoid task backing up and losing its machine, repeatedly."""
    rng = make_rng(seed, "backup-isolation-recovery")
    clock = SimClock()
    scribe = ScribeStore(clock=clock)
    scribe.create_category("in", 1)
    hdfs = HdfsBlobStore(clock=clock)
    ledger = RunLedger(hdfs)
    backend = LocalDbStateBackend("t", {}, backup_engine=BackupEngine(hdfs),
                                  merge_operator=DictSumMergeOperator())
    task = StylusTask("t", scribe, "in", 0, DimensionCounter(),
                      semantics=semantics, state_backend=backend,
                      checkpoint_policy=CheckpointPolicy(every_n_events=10),
                      clock=clock)
    failures = 0
    for seq in range(TOTAL):
        scribe.write_record("in", {"event_time": clock.now(), "seq": seq},
                            key=str(seq))
        if seq % 10 == 9:
            ledger.watch(backend.store, task.pump)
        if seq % 40 == 39:
            ledger.watch(backend.store, backend.maybe_backup)
            ledger.record()
        elif seq > 100 and rng.random() < 0.02:
            task.crash()
            backend.recover_after_machine_failure({})
            task.restart()
            failures += 1
    task.pump()
    task.checkpoint_now()
    assert task.lag_messages() == 0
    ledger.assert_unchanged()
    for name in hdfs.list("backups/"):  # every snapshot still restores
        info = hdfs.get(name)[0]
        restored = backend.backup_engine.restore(
            "t", {}, backup_id=info.backup_id,
            merge_operator=DictSumMergeOperator())
        assert sum(len(run) for run in restored._sstables) == info.entry_count
    count = sum((backend.read_value(f"dim{i}") or {}).get("count", 0)
                for i in range(10))
    return count, failures, ledger


class TestIsolationUnderAllThreeSemantics:
    @pytest.mark.parametrize("seed", range(6))
    def test_lattice_and_fingerprints_hold_through_machine_failures(self,
                                                                    seed):
        for semantics in SEMANTICS:
            count, _, _ = run_recovery_campaign(seed, semantics)
            label = f"seed={seed} semantics={semantics.state.value}"
            if semantics == SemanticsPolicy.at_least_once():
                assert count >= TOTAL, f"{label}: lost events ({count})"
            elif semantics == SemanticsPolicy.at_most_once():
                assert count <= TOTAL, f"{label}: doubled events ({count})"
            else:
                assert count == TOTAL, f"{label}: expected exact ({count})"

    def test_campaign_is_not_vacuous(self):
        for semantics in SEMANTICS:
            failures = replaced = 0
            for seed in range(6):
                _, failed, ledger = run_recovery_campaign(seed, semantics)
                failures += failed
                replaced += ledger.shared_replacements
            assert failures >= 6, "machines barely failed"
            assert replaced > 0, "no compaction replaced a snapshotted run"
