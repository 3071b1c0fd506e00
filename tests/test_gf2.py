import random

import pytest

from projquad.gf2 import BitMatrix, Gf2Solver, kernel_basis, rank_gf2


def naive_rank(rows: list[list[int]], cols: int) -> int:
    """Straightforward elimination over the two-element field."""
    work = [list(r) for r in rows]
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][c]:
                work[r] = [a ^ b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def from_rows(rows: list[list[int]]) -> BitMatrix:
    return BitMatrix.from_lists(rows, cols=len(rows[0]) if rows else 0)


def test_matrix_basics():
    m = from_rows([[1, 0, 1], [0, 1, 1]])
    assert m.get(0, 2) == 1
    assert m.get(1, 0) == 0
    t = m.transpose()
    assert t.rows == 3 and t.cols == 2
    assert t.to_lists() == [[1, 0], [0, 1], [1, 1]]


def test_rank_known_cases():
    assert rank_gf2(from_rows([[1, 0], [0, 1]])) == 2
    assert rank_gf2(from_rows([[1, 1], [1, 1]])) == 1
    assert rank_gf2(BitMatrix(0, 5)) == 0
    assert rank_gf2(BitMatrix(5, 0)) == 0


def test_rank_matches_naive_on_random():
    rng = random.Random(7)
    for _ in range(80):
        r = rng.randrange(1, 12)
        c = rng.randrange(1, 12)
        rows = [[rng.randrange(2) for _ in range(c)] for _ in range(r)]
        assert rank_gf2(from_rows(rows)) == naive_rank(rows, c)


def test_solver_finds_combinations():
    rows = [[1, 1, 0], [0, 1, 1]]
    solver = Gf2Solver(from_rows(rows))
    # rows 0 xor 1 = [1,0,1]
    x = solver.solve(0b101)
    assert x is not None
    combo = [0, 0, 0]
    for i in range(2):
        if (x >> i) & 1:
            combo = [a ^ b for a, b in zip(combo, rows[i])]
    assert combo == [1, 0, 1]
    assert solver.solve(0b111) is None
    assert solver.solve(0b100) is None


def test_solver_zero_target_gives_zero_witness():
    solver = Gf2Solver(from_rows([[1, 0], [0, 1]]))
    assert solver.solve(0) == 0


def test_kernel_basis():
    # row2 = row0 xor row1, so the kernel is spanned by (1,1,1)
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    basis = kernel_basis(from_rows(rows))
    assert len(basis) == 1
    assert basis[0] == 0b111


def test_solver_randomized_consistency():
    rng = random.Random(13)
    for _ in range(50):
        r = rng.randrange(1, 10)
        c = rng.randrange(1, 10)
        rows = [[rng.randrange(2) for _ in range(c)] for _ in range(r)]
        solver = Gf2Solver(from_rows(rows))
        # any target generated from the rows must be solvable and verified
        picks = [i for i in range(r) if rng.randrange(2)]
        target = 0
        for i in picks:
            acc = 0
            for j, bit in enumerate(rows[i]):
                acc |= bit << j
            target ^= acc
        x = solver.solve(target)
        assert x is not None
        check = 0
        for i in range(r):
            if (x >> i) & 1:
                acc = 0
                for j, bit in enumerate(rows[i]):
                    acc |= bit << j
                check ^= acc
        assert check == target


def test_from_lists_infers_width():
    m = BitMatrix.from_lists([[1, 0, 1], [0, 1, 0]])
    assert m.cols == 3
    assert m.rows == 2
    with pytest.raises(ValueError):
        BitMatrix(3, 2, [1])
