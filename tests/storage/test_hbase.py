"""Tests for the HBase-style table store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage.hbase import HBaseTable


@pytest.fixture
def table():
    return HBaseTable("t")


class TestRows:
    def test_put_merges_columns(self, table):
        table.put("r", {"a": 1})
        table.put("r", {"b": 2})
        assert table.get("r") == {"a": 1, "b": 2}

    def test_get_returns_copy(self, table):
        table.put("r", {"a": 1})
        row = table.get("r")
        row["a"] = 999
        assert table.get_column("r", "a") == 1

    def test_missing_row_is_none(self, table):
        assert table.get("nope") is None
        assert table.get_column("nope", "c", default=7) == 7

    def test_empty_put_rejected(self, table):
        with pytest.raises(StorageError):
            table.put("r", {})

    def test_delete_row(self, table):
        table.put("r", {"a": 1})
        table.delete_row("r")
        assert table.get("r") is None
        assert table.row_count() == 0


class TestAtomics:
    def test_increment(self, table):
        assert table.increment("r", "count") == 1
        assert table.increment("r", "count", 4) == 5

    def test_check_and_put_applies_on_match(self, table):
        table.put("r", {"v": 1})
        assert table.check_and_put("r", "v", 1, {"v": 2})
        assert table.get_column("r", "v") == 2

    def test_check_and_put_rejects_on_mismatch(self, table):
        table.put("r", {"v": 1})
        assert not table.check_and_put("r", "v", 99, {"v": 2})
        assert table.get_column("r", "v") == 1

    def test_check_and_put_against_absent_column(self, table):
        assert table.check_and_put("new", "v", None, {"v": 1})
        assert table.get_column("new", "v") == 1


class TestScan:
    def test_scan_is_key_ordered(self, table):
        for key in ["b", "a", "c"]:
            table.put(key, {"k": key})
        assert [k for k, _ in table.scan()] == ["a", "b", "c"]

    def test_scan_range_half_open(self, table):
        for key in ["a", "b", "c", "d"]:
            table.put(key, {"x": 1})
        assert [k for k, _ in table.scan("b", "d")] == ["b", "c"]

    def test_scan_limit(self, table):
        for i in range(10):
            table.put(f"r{i}", {"x": i})
        assert len(list(table.scan(limit=3))) == 3

    def test_scan_sees_increment_created_rows(self, table):
        table.increment("r1", "c")
        table.put("r0", {"c": 0})
        assert [k for k, _ in table.scan()] == ["r0", "r1"]

    def test_running_scan_keeps_its_snapshot(self, table):
        table.put("a", {"x": 1})
        table.put("c", {"x": 1})
        running = table.scan()
        assert next(running)[0] == "a"
        table.put("b", {"x": 1})
        assert [k for k, _ in table.scan()] == ["a", "b", "c"]
        assert [k for k, _ in running] == ["c"]


KEYS = st.sampled_from([f"k{i:02d}" for i in range(12)])
BOUNDS = st.one_of(st.none(), KEYS)

OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("put"), KEYS, st.integers(0, 9)),
    st.tuples(st.just("increment"), KEYS, st.integers(1, 3)),
    st.tuples(st.just("delete"), KEYS, st.just(0)),
    st.tuples(st.just("check_and_put"), KEYS, st.integers(0, 9)),
    st.tuples(st.just("scan"), st.tuples(BOUNDS, BOUNDS),
              st.one_of(st.none(), st.integers(0, 5))),
), max_size=60)


@settings(max_examples=200, deadline=None)
@given(operations=OPERATIONS)
def test_sorted_index_matches_sorted_dict_model(operations):
    """The incrementally kept key order answers every scan exactly like
    sorting a plain dict model, whatever the write/delete history."""
    table = HBaseTable("t")
    model: dict[str, dict] = {}
    for op, key, arg in operations:
        if op == "put":
            table.put(key, {"v": arg})
            model.setdefault(key, {})["v"] = arg
        elif op == "increment":
            row = model.setdefault(key, {})
            row["n"] = row.get("n", 0) + arg
            assert table.increment(key, "n", arg) == row["n"]
        elif op == "delete":
            table.delete_row(key)
            model.pop(key, None)
        elif op == "check_and_put":
            applied = model.get(key, {}).get("v") == arg
            assert table.check_and_put(key, "v", arg, {"v": arg + 1}) \
                == applied
            if applied:
                model.setdefault(key, {})["v"] = arg + 1
        else:
            (start, end), limit = key, arg
            expected = [(k, model[k]) for k in sorted(model)
                        if (start is None or k >= start)
                        and (end is None or k < end)][:limit]
            assert list(table.scan(start, end, limit)) == expected
        assert table.row_count() == len(model)
    assert list(table.scan()) == sorted(model.items())
