from fractions import Fraction

import pytest

from segrekit import jordan
from segrekit import (ExactMatrix, InternalInconsistencyError,
                      IrrationalEigenvalueError, JordanSpec, Partition,
                      RankPattern, SegreCharacteristic, analyze, build_jordan,
                      enumerate_segre, mat_mul, rank_pattern_of)

WORKED_SPEC = JordanSpec(
    SegreCharacteristic([[2, 1], [3], [1], [2, 1]]), [1, 2, 3, 4])

WORKED_MATRIX = ExactMatrix.from_rows([
    [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 2, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 2, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 2, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 3, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 4, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 4, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 4],
])


def test_spec_validation():
    s = SegreCharacteristic([[2], [1]])
    with pytest.raises(ValueError):
        JordanSpec(s, [1])
    with pytest.raises(ValueError):
        JordanSpec(s, [1, 2, 3])
    with pytest.raises(ValueError):
        JordanSpec(s, [5, 5])
    with pytest.raises(TypeError):
        JordanSpec(s, [0.5, 1])
    spec = JordanSpec(s, [Fraction(1, 2), -3])
    assert spec.eigenvalues == (Fraction(1, 2), Fraction(-3))
    assert spec.dimension == 3


def test_spec_positional():
    spec = JordanSpec.positional(SegreCharacteristic([[3], [2, 1], [1]]))
    assert spec.eigenvalues == (1, 2, 3)
    assert spec.dimension == 7
    # list-of-lists input is accepted directly
    assert JordanSpec.positional([[2]]).eigenvalues == (1,)


def test_build_single_block():
    spec = JordanSpec(SegreCharacteristic([[2]]), [5])
    assert build_jordan(spec) == ExactMatrix.from_rows([[5, 1], [0, 5]])


def test_build_diagonal():
    spec = JordanSpec(SegreCharacteristic([[1], [1]]), [0, 1])
    assert build_jordan(spec) == ExactMatrix.from_rows([[0, 0], [0, 1]])


def test_build_worked_example():
    assert build_jordan(WORKED_SPEC) == WORKED_MATRIX


def test_build_is_bidiagonal():
    for s in enumerate_segre(5):
        a = build_jordan(JordanSpec.positional(s))
        n = a.rows
        for i in range(n):
            for j in range(n):
                e = a[i, j]
                if j == i + 1:
                    assert e in (0, 1)
                elif i != j:
                    assert e == 0


def test_rank_pattern_of_worked_example():
    assert rank_pattern_of(WORKED_MATRIX, 1) == RankPattern(10, (10, 8, 7))
    assert rank_pattern_of(WORKED_MATRIX, 2) == RankPattern(10, (10, 9, 8, 7))
    assert rank_pattern_of(WORKED_MATRIX, 3) == RankPattern(10, (10, 9))
    assert rank_pattern_of(WORKED_MATRIX, 4) == RankPattern(10, (10, 8, 7))
    # not an eigenvalue: the pattern stabilizes immediately
    assert rank_pattern_of(WORKED_MATRIX, 7) == RankPattern(10, (10,))


def test_rank_pattern_of_identity():
    ident = ExactMatrix.identity(3)
    assert rank_pattern_of(ident, 1) == RankPattern(3, (3, 0))
    assert rank_pattern_of(ident, 0) == RankPattern(3, (3,))
    with pytest.raises(ValueError):
        rank_pattern_of(ExactMatrix.from_rows([[1, 2]]), 0)


def test_analyze_worked_example():
    report = analyze(WORKED_MATRIX)
    assert str(report.segre) == "[(3),(2,1),(2,1),(1)]"
    assert report.segre == WORKED_SPEC.segre
    assert [r.eigenvalue for r in report.per_eigenvalue] == [1, 2, 3, 4]
    by_eig = {r.eigenvalue: r for r in report.per_eigenvalue}
    assert by_eig[1].rank_pattern.ranks == (10, 8, 7)
    assert by_eig[1].blocks == Partition([2, 1])
    assert by_eig[2].rank_pattern.ranks == (10, 9, 8, 7)
    assert by_eig[2].blocks == Partition([3])
    assert by_eig[3].blocks == Partition([1])
    assert by_eig[4].blocks == Partition([2, 1])


def test_analyze_small_matrices():
    report = analyze(ExactMatrix.from_rows([[7]]))
    assert str(report.segre) == "[(1)]"
    assert report.per_eigenvalue[0].eigenvalue == 7
    assert report.per_eigenvalue[0].rank_pattern.ranks == (1, 0)

    report = analyze(ExactMatrix.identity(3))
    assert str(report.segre) == "[(1,1,1)]"
    assert len(report.per_eigenvalue) == 1

    report = analyze(ExactMatrix.zeros(2, 2))
    assert str(report.segre) == "[(1,1)]"
    assert report.per_eigenvalue[0].eigenvalue == 0


def test_analyze_orders_eigenvalues_ascending():
    spec = JordanSpec(SegreCharacteristic([[2], [1]]), [Fraction(1, 2), -3])
    report = analyze(build_jordan(spec))
    assert [r.eigenvalue for r in report.per_eigenvalue] == [-3, Fraction(1, 2)]
    assert report.per_eigenvalue[0].blocks == Partition([1])
    assert report.per_eigenvalue[1].blocks == Partition([2])
    assert str(report.segre) == "[(2),(1)]"


def test_analyze_similarity_invariance():
    # conjugate by a unimodular matrix; the characteristic must not move
    u = ExactMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    u_inv = ExactMatrix.from_rows([[1, -1, 1], [0, 1, -1], [0, 0, 1]])
    assert mat_mul(u, u_inv) == ExactMatrix.identity(3)
    j = build_jordan(JordanSpec(SegreCharacteristic([[2], [1]]), [2, 5]))
    conjugated = mat_mul(mat_mul(u, j), u_inv)
    assert conjugated != j
    assert analyze(conjugated).segre == analyze(j).segre


def test_analyze_rejects_irrational_spectrum():
    with pytest.raises(IrrationalEigenvalueError) as exc_info:
        analyze(ExactMatrix.from_rows([[0, 1], [2, 0]]))
    assert exc_info.value.remainder_degree == 2
    assert "irrational" in str(exc_info.value)
    # rotation matrix: complex eigenvalues
    with pytest.raises(IrrationalEigenvalueError):
        analyze(ExactMatrix.from_rows([[0, -1], [1, 0]]))
    with pytest.raises(ValueError):
        analyze(ExactMatrix.from_rows([[1, 2]]))


def test_analyze_mixed_rational_irrational():
    # block diag of eigenvalue 3 and an irrational 2x2 piece
    m = ExactMatrix.from_rows([
        [3, 0, 0],
        [0, 0, 1],
        [0, 2, 0],
    ])
    with pytest.raises(IrrationalEigenvalueError) as exc_info:
        analyze(m)
    assert exc_info.value.remainder_degree == 2


def test_report_json_shape():
    halves = ExactMatrix.from_rows([["1/2", 1], [0, "1/2"]])
    d = analyze(halves).to_json_dict()
    assert d == {
        "segre": "[(2)]",
        "eigenvalues": [
            {"value": "1/2", "rank_pattern": [2, 1, 0], "blocks": [2]},
        ],
    }


def test_round_trip_all_characteristics_up_to_4():
    for n in range(1, 5):
        for s in enumerate_segre(n):
            spec = JordanSpec.positional(s)
            report = analyze(build_jordan(spec))
            assert report.segre == s
            assert report.segre.groups == report.segre.canonical().groups
            assert len(report.per_eigenvalue) == len(s.groups)


def test_internal_inconsistency_is_runtime_error():
    # never raised through the public API on valid input; the class exists
    # so arithmetic bugs surface loudly instead of as wrong answers
    assert issubclass(InternalInconsistencyError, RuntimeError)


@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [0, 1, 0], [0, 0, 2]],  # eigenvalue 1 overshoots m = 1
    [[1, 1, 0], [0, 1, 0], [0, 0, 2]],  # 1 meets m = 1; 2 misses m = 2
])
def test_stop_at_multiplicity_keeps_the_cross_check(monkeypatch, rows):
    a = ExactMatrix.from_rows(rows)
    analyze(a)
    # (x - 1)(x - 2)^2, where the truth is (x - 1)^2 (x - 2)
    monkeypatch.setattr(jordan, "_int_char_poly", lambda b: [-4, 8, -5, 1])
    with pytest.raises(InternalInconsistencyError):
        analyze(a)


def test_rank_pattern_of_runs_to_stabilization():
    a = build_jordan(JordanSpec(SegreCharacteristic([[5, 2]]), [0]))
    assert rank_pattern_of(a, 0).ranks == (7, 5, 3, 2, 1, 0)
    assert rank_pattern_of(a, 1).ranks == (7,)
