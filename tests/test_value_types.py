"""Value semantics of the package's types. The validated types are slotted
classes: equal and hashable by their normalized fields within one class,
except `LogicFunction` and `StateVector`, which compare by value in their
own way and are not hashable. The result records are named tuples, whose
`_asdict` keeps the field order that JSON output is written in."""
import json
import pickle

import numpy as np
import pytest

from lfqec import (
    CodeSpec,
    CycloInt,
    FpMatrix,
    LogicFunction,
    MatrixCheckResult,
    PauliLabel,
    StateVector,
    VerifyReport,
    WeightedGraph,
    state_from_function,
)


def test_cyclotomic_integers_compare_in_canonical_form():
    # 1 + zeta + zeta^2 = 0: a constant added to every coefficient is zero
    assert CycloInt(3, (1, 1, 1)) == CycloInt(3, (0, 0, 0))
    assert hash(CycloInt(3, (1, 1, 1))) == hash(CycloInt(3, (0, 0, 0)))
    assert CycloInt(3, (2, 3, 2)) == CycloInt(3, (0, 1, 0)) != CycloInt(3, (1, 0, 0))
    assert CycloInt(2, (0, 0)) != CycloInt(3, (0, 0, 0))
    assert CycloInt(3, (0, 0, 0)) != (3, (0, 0, 0))  # equal only within the class
    assert repr(CycloInt(3, (2, 3, 2))) == "CycloInt(p=3, coeffs=(0, 1, 0))"


def test_labels_and_matrices_are_equal_and_hashable_by_residues():
    u, v = PauliLabel(3, (4, -1), (0, 5)), PauliLabel(3, (1, 2), (0, 2))
    assert u == v and hash(u) == hash(v) and (u.a, u.b) == ((1, 2), (0, 2))
    assert u != PauliLabel(5, (1, 2), (0, 2)) and len({u, v, PauliLabel(3, (1, 2), (0, 1))}) == 2
    A, B = FpMatrix(2, ((3, 1), (2, 5))), FpMatrix.from_rows(2, [[1, 1], [0, 1]])
    assert A == B and hash(A) == hash(B) and A.entries == ((1, 1), (0, 1))
    assert A != FpMatrix(3, ((1, 1), (0, 1))) and len({A, B, FpMatrix.identity(2, 2)}) == 2
    G = WeightedGraph(3, 2, FpMatrix(3, ((0, 4), (1, 0))))
    assert G == WeightedGraph(3, 2, FpMatrix(3, ((0, 1), (1, 0)))) and len({G, G}) == 1
    for value in (u, A, G, CycloInt(5, (1, 2, 3, 4, 5))):
        assert pickle.loads(pickle.dumps(value)) == value


def test_functions_and_states_keep_their_own_equality_and_no_hash():
    f, g = LogicFunction(2, 2, anf=[(1, (0,))]), LogicFunction(2, 2, values=[0, 0, 1, 3])
    assert f == g and f != LogicFunction(2, 2, values=[0, 1, 0, 1])  # by table, either form
    assert f != LogicFunction(3, 2, anf=[(1, (0,))]) and f != "x1"
    s = state_from_function(f)
    assert s == StateVector(2, 2, np.asarray(s.amps) + 7)  # zeta^0 + zeta^1 = 0 at each |x>
    assert s != state_from_function(LogicFunction(2, 2, anf=[(1, (1,))]))
    spec = CodeSpec(2, 2, [f], 1, "test")
    assert spec == CodeSpec(2, 2, (g,), 1, "test") != CodeSpec(2, 2, (g,), 2, "test")
    for value in (f, s, spec):  # a function's hash would have to agree across its two forms
        with pytest.raises(TypeError):
            hash(value)


def test_values_take_no_attribute_besides_their_fields():
    with pytest.raises(AttributeError):
        CycloInt(2, (0, 1)).cache = 1
    with pytest.raises(AttributeError):
        LogicFunction(2, 1, anf=[(1, (0,))]).table_cache = None


def test_records_keep_their_field_order():
    res = MatrixCheckResult(False, "joint_rank", (0, 2), None)
    assert list(res._asdict()) == ["accepted", "condition", "erased", "vector", "warning"]
    assert json.dumps(res._asdict()) == (
        '{"accepted": false, "condition": "joint_rank", "erased": [0, 2], "vector": null, '
        '"warning": null}')
    assert not res and MatrixCheckResult(True)
    report = VerifyReport(2, 3, 1, 1, "pass")
    assert report.failures == () and report.passed and report._replace(verdict="fail") == (
        VerifyReport(2, 3, 1, 1, "fail"))
