import itertools
from fractions import Fraction

import pytest

from segrekit import linalg
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


def test_spec_equality_hash_and_repr():
    spec = JordanSpec([[2, 1], [1]], [1, "1/2"])
    same = JordanSpec(SegreCharacteristic([[2, 1], [1]]),
                      [Fraction(1), Fraction(1, 2)])
    assert spec == same and hash(spec) == hash(same)
    # the same pairs of group and eigenvalue in the other order: the
    # characteristics are equal, the specs are not
    swapped = JordanSpec([[1], [2, 1]], ["1/2", 1])
    assert swapped.segre == spec.segre
    assert spec != swapped
    assert spec != JordanSpec([[2, 1], [1]], [1, 2])
    assert spec != "[(2,1),(1)]" and spec.__eq__(spec.segre) is NotImplemented
    assert repr(spec) == ("JordanSpec(SegreCharacteristic([[2, 1], [1]]), "
                          "[Fraction(1, 1), Fraction(1, 2)])")


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


def test_report_is_a_frozen_record():
    spec = JordanSpec(SegreCharacteristic([[2, 1], [1]]), [Fraction(1, 2), -3])
    report = analyze(build_jordan(spec))
    assert repr(report) == (
        "AnalysisReport(segre=SegreCharacteristic([[2, 1], [1]]), "
        "per_eigenvalue=(EigenvalueReport(eigenvalue=Fraction(-3, 1), "
        "rank_pattern=RankPattern(4, (4, 3)), blocks=Partition((1,))), "
        "EigenvalueReport(eigenvalue=Fraction(1, 2), "
        "rank_pattern=RankPattern(4, (4, 2, 1)), blocks=Partition((2, 1)))))")
    again = analyze(build_jordan(spec))
    assert report == again and hash(report) == hash(again)
    assert report.per_eigenvalue[1] == again.per_eigenvalue[1]
    assert report != analyze(build_jordan(JordanSpec.positional(spec.segre)))
    with pytest.raises(AttributeError):
        report.segre = spec.segre
    with pytest.raises(AttributeError):
        report.per_eigenvalue[0].blocks = Partition([1])
    with pytest.raises(AttributeError):
        report.extra = 1


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


@pytest.mark.parametrize("rows, message", [
    # eigenvalue 1 overshoots m = 1
    ([[1, 0, 0], [0, 1, 0], [0, 0, 2]],
     "eigenvalue 1 has multiplicity 1 but nullity 2"),
    # 1 meets m = 1; 2 misses m = 2
    ([[1, 1, 0], [0, 1, 0], [0, 0, 2]],
     "eigenvalue 2 has multiplicity 2 but nullity 1"),
], ids=["rows0", "rows1"])
def test_stop_at_multiplicity_keeps_the_cross_check(monkeypatch, rows,
                                                    message):
    a = ExactMatrix.from_rows(rows)
    analyze(a)
    # (x - 1)(x - 2)^2, where the truth is (x - 1)^2 (x - 2), as the only,
    # so proven, polynomial
    monkeypatch.setattr(linalg, "_char_polys",
                        lambda b: iter([[-4, 8, -5, 1]]))
    with pytest.raises(InternalInconsistencyError) as exc_info:
        analyze(a)
    assert str(exc_info.value) == message


def spy_on_root_searches(monkeypatch):
    searched = []
    search = linalg._rational_roots
    monkeypatch.setattr(linalg, "_rational_roots", lambda f: searched.append(
        list(f)) or search(f))
    return searched


@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
    [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
    # an entry of 10**30 asks for two primes, though no coefficient needs
    # more than one
    [[1, 10 ** 30, 0], [0, 1, 0], [0, 0, 2]],
])
@pytest.mark.parametrize("wrong", [
    [-4, 8, -5, 1],  # (x - 1)(x - 2)^2: splits, but a ladder misses its m
    [-2, 1, -2, 1],  # (x - 2)(x^2 + 1): a remainder of degree 2
])
def test_a_wrong_unproven_polynomial_gives_way(monkeypatch, rows, wrong):
    a = ExactMatrix.from_rows(rows)
    expected = analyze(a)
    candidates = linalg._char_polys
    monkeypatch.setattr(linalg, "_char_polys", lambda b: itertools.chain(
        [wrong], candidates(b)))
    searched = spy_on_root_searches(monkeypatch)
    report = analyze(a)
    assert report == expected
    assert repr(report) == repr(expected)
    assert searched == [wrong, [-2, 5, -4, 1]]


def test_a_failed_check_on_a_wrong_candidate_is_raised(monkeypatch):
    # the first ladder, on the wrong candidate's eigenvalue 1, fails a
    # check: that is a bug, not a wrong candidate, so analyze must not
    # return the next candidate's report
    a = ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    candidates = linalg._char_polys
    monkeypatch.setattr(linalg, "_char_polys", lambda b: itertools.chain(
        [[-4, 8, -5, 1]], candidates(b)))
    calls = []
    rank_pattern = linalg._rank_pattern

    def failing_first(b, mu, m):
        calls.append(mu)
        if len(calls) == 1:
            raise InternalInconsistencyError("injected")
        return rank_pattern(b, mu, m)

    monkeypatch.setattr(linalg, "_rank_pattern", failing_first)
    with pytest.raises(InternalInconsistencyError, match="injected"):
        analyze(a)
    assert calls == [1]


def spy_on_residues(monkeypatch):
    residues = []
    char_poly_mod = linalg._char_poly_mod
    monkeypatch.setattr(linalg, "_char_poly_mod", lambda b, p: residues.append(
        p) or char_poly_mod(b, p))
    return residues


def test_certified_first_prime_polynomial_skips_the_rest(monkeypatch):
    # the bound asks for two primes; the first one's polynomial is
    # certified by the ladders, so the second is never computed
    residues = spy_on_residues(monkeypatch)
    rows = [[1, 10 ** 30, 0], [0, 1, 0], [0, 0, 2]]
    assert str(analyze(ExactMatrix.from_rows(rows)).segre) == "[(2),(1)]"
    assert residues == [linalg._prime(0)]
    # the second prime leaves the reconstruction as it was, so the proven
    # polynomial is no new candidate
    assert list(linalg._char_polys(rows)) == [[-2, 5, -4, 1]]


def test_a_new_reconstruction_is_tried_at_once(monkeypatch):
    # (x - 2^35)^2: the bound asks for three primes, and the coefficient
    # 2^70 needs two, whose reconstruction is tried and certified with no
    # third prime to confirm it
    residues = spy_on_residues(monkeypatch)
    rows = [[2 ** 35, 10 ** 30], [0, 2 ** 35]]
    assert str(analyze(ExactMatrix.from_rows(rows)).segre) == "[(2)]"
    assert residues == [linalg._prime(0), linalg._prime(1)]
    residues.clear()
    candidates = list(linalg._char_polys(rows))
    assert residues == [linalg._prime(i) for i in range(3)]
    assert len(candidates) == 2
    assert candidates[-1] == [2 ** 70, -2 ** 36, 1]


def test_a_reconstruction_off_the_trace_is_never_searched(monkeypatch):
    # x^2 - 2a x for a of 4,300 nines: c_1 = -2a needs about half the primes
    # the bound asks for, and every reconstruction before it misses the
    # trace; every one after it is the answer, so there is one candidate
    a = 10 ** 4300 - 1
    rows = [[a, a], [a, a]]
    # the 461 primes found here stay out of the process-wide list
    monkeypatch.setattr(linalg, "_PRIMES", list(linalg._PRIMES))
    assert list(linalg._char_polys(rows)) == [[0, -2 * a, 1]]
    searched = spy_on_root_searches(monkeypatch)
    report = analyze(ExactMatrix.from_rows(rows))
    assert [r.eigenvalue for r in report.per_eigenvalue] == [0, 2 * a]
    assert searched == [[0, -2 * a, 1]]


def test_no_candidate_off_the_trace_comes_before_the_error(monkeypatch):
    # residues whose c_{n-1} disagrees with the trace: no reconstruction
    # meets it, so the first thing the candidates give is the proven
    # polynomial's error, not the first prime's wrong polynomial
    residues = linalg._char_poly_mod
    monkeypatch.setattr(linalg, "_char_poly_mod", lambda b, p: [
        (c + (k == len(b) - 1)) % p for k, c in enumerate(residues(b, p))])
    candidates = linalg._char_polys([[1, 10 ** 30, 0], [0, 1, 0], [0, 0, 2]])
    with pytest.raises(InternalInconsistencyError, match="= -trace"):
        next(candidates)


def test_a_failed_polynomial_is_not_run_again(monkeypatch):
    # x^2 - 2 conjugated by I + c*e_01: entries near c^2 put the bound at
    # two primes, and the first prime's polynomial is already right; the
    # proven one equals it, so it is searched once, and its error is raised
    c = 10 ** 10
    a = ExactMatrix.from_rows([[c, 2 - c * c], [1, -c]])
    searched = spy_on_root_searches(monkeypatch)
    with pytest.raises(IrrationalEigenvalueError) as exc_info:
        analyze(a)
    assert str(exc_info.value) == (
        "matrix has irrational or non-real eigenvalues "
        "(irreducible remainder of degree 2)")
    assert exc_info.value.remainder_degree == 2
    assert searched == [[-2, 0, 1]]


def test_rank_pattern_of_runs_to_stabilization():
    a = build_jordan(JordanSpec(SegreCharacteristic([[5, 2]]), [0]))
    assert rank_pattern_of(a, 0).ranks == (7, 5, 3, 2, 1, 0)
    assert rank_pattern_of(a, 1).ranks == (7,)
