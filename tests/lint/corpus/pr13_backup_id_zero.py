# lint: effect[watch]
"""Regression corpus: the PR 13 backup-numbering restart bug
(expects R010).

Found by review, not by chaos: ``BackupEngine`` numbered snapshots from
a per-process dict, so a second engine over the same HDFS (a restarted
process, another machine) took the dict's default, reused id 0 and
overwrote its predecessor's oldest snapshot — and could neither see nor
restore the snapshots that were there. The fixed tree derives the next
id from a listing of the blobs in HDFS; this fixture preserves the
process-memory counter with its literal-zero default.
"""


class EngineWithPr13BackupIdBug:

    def __init__(self, hdfs):
        self.hdfs = hdfs
        self._next_id = {}

    def create_backup(self, store):
        store.flush()
        # BUG: a fresh engine starts every store at id 0 again, whatever
        # HDFS already holds under that name.
        backup_id = self._next_id.get(store.name, 0)
        self.hdfs.put(f"backups/{store.name}/{backup_id:08d}", store.runs())
        self._next_id[store.name] = backup_id + 1
        return backup_id
