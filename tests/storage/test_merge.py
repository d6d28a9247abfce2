"""Tests for the merge operators (associative and pure is the contract)."""

import copy
import inspect

import pytest

from repro.storage import merge as merge_module
from repro.storage.merge import (
    CounterMergeOperator,
    DictSumMergeOperator,
    ListAppendMergeOperator,
    MaxMergeOperator,
    MergeOperator,
    MinMergeOperator,
    SetUnionMergeOperator,
)

ALL_OPERATORS = [
    (CounterMergeOperator(), [1, 2, 3]),
    (MaxMergeOperator(), [5, 1, 9]),
    (MinMergeOperator(), [5, 1, 9]),
    (ListAppendMergeOperator(), [[1], [2, 3], [4]]),
    (DictSumMergeOperator(), [{"a": 1}, {"a": 2, "b": 1}, {"b": 4}]),
    (SetUnionMergeOperator(), [{1}, {2, 3}, {1, 4}]),
]


class TestMonoidLaws:
    @pytest.mark.parametrize("operator,operands", ALL_OPERATORS,
                             ids=lambda x: type(x).__name__
                             if hasattr(x, "merge") else "")
    def test_identity_is_neutral(self, operator, operands):
        for operand in operands:
            assert operator.merge(operator.identity(), operand) == operand
            assert operator.merge(operand, operator.identity()) == operand

    @pytest.mark.parametrize("operator,operands", ALL_OPERATORS,
                             ids=lambda x: type(x).__name__
                             if hasattr(x, "merge") else "")
    def test_associativity(self, operator, operands):
        a, b, c = operands
        left = operator.merge(operator.merge(a, b), c)
        right = operator.merge(a, operator.merge(b, c))
        assert left == right


class TestFullMerge:
    def test_none_base_uses_identity(self):
        operator = CounterMergeOperator()
        assert operator.full_merge(None, [1, 2, 3]) == 6

    def test_base_is_folded_first(self):
        operator = ListAppendMergeOperator()
        assert operator.full_merge([0], [[1], [2]]) == [0, 1, 2]

    def test_partial_merge_collapses_operands(self):
        operator = DictSumMergeOperator()
        assert operator.partial_merge([{"a": 1}, {"a": 4}]) == {"a": 5}


class TestOperatorsArePure:
    """Stores, snapshots and restored stores share values by reference
    (:mod:`repro.storage.backup`), so an operator that mutated an
    argument would corrupt all of them at once."""

    def test_every_shipped_operator_is_covered(self):
        shipped = {cls for _, cls in inspect.getmembers(merge_module,
                                                        inspect.isclass)
                   if issubclass(cls, MergeOperator)
                   and not inspect.isabstract(cls)}
        assert shipped == {type(operator) for operator, _ in ALL_OPERATORS}

    @pytest.mark.parametrize("operator,operands", ALL_OPERATORS,
                             ids=lambda x: type(x).__name__
                             if hasattr(x, "merge") else "")
    def test_merge_and_full_merge_leave_their_arguments_unchanged(
            self, operator, operands):
        pristine = copy.deepcopy(operands)
        a, b, c = operands
        merged = operator.merge(a, b)
        assert operands == pristine
        folded = operator.full_merge(a, [b, c])
        assert operands == pristine
        assert operator.partial_merge(operands) == folded
        assert operands == pristine
        # The results are new values: changing them reaches no input.
        for result in (merged, folded):
            if isinstance(result, (dict, list, set)):
                result.clear()
        assert operands == pristine
