"""Reference induction tables for the binary polyhedral groups.

These are the classical decompositions of Ind(omega^r) from the cyclic
subgroups <R>, <S>, <T> and the central <RST> into labeled irreducibles.
They are checked data only: the irreps are named from the McKay graph
(`characters.NODE_NAMES`), and the `table` verdicts and the induction
tests compare the derived decompositions with these rows.

Rows are listed for r = 0 upward only as far as they are independent;
r and q - r induce equivalent representations, which the code verifies.
The tetrahedral group has no separate S column: there [S] = [T^-1], so
Ind from <S> with twist r equals Ind from <T> with twist 6 - r (also
verified by the tests).
"""

REFERENCE_INDUCTIONS = {
    "2T": {
        "T": [
            {"1": 1, "3": 1},
            {"2s''": 1, "2s": 1},
            {"1''": 1, "3": 1},
            {"2s'": 1, "2s''": 1},
            {"1'": 1, "3": 1},
            {"2s": 1, "2s'": 1},
        ],
        "R": [
            {"1": 1, "1'": 1, "1''": 1, "3": 1},
            {"2s": 1, "2s'": 1, "2s''": 1},
            {"3": 2},
        ],
        "RST": [
            {"1": 1, "1'": 1, "1''": 1, "3": 3},
            {"2s": 2, "2s'": 2, "2s''": 2},
        ],
    },
    "2O": {
        "T": [
            {"1": 1, "2": 1, "3": 1},
            {"2s": 1, "4s": 1},
            {"3": 1, "3'": 1},
            {"2s'": 1, "4s": 1},
            {"1'": 1, "2": 1, "3'": 1},
        ],
        "S": [
            {"1": 1, "1'": 1, "3": 1, "3'": 1},
            {"2s": 1, "2s'": 1, "4s": 1},
            {"2": 1, "3": 1, "3'": 1},
            {"4s": 2},
        ],
        "R": [
            {"1": 1, "2": 1, "3": 1, "3'": 2},
            {"2s": 1, "2s'": 1, "4s": 2},
            {"1'": 1, "2": 1, "3": 2, "3'": 1},
        ],
        "RST": [
            {"1": 1, "1'": 1, "2": 2, "3": 3, "3'": 3},
            {"2s": 2, "2s'": 2, "4s": 4},
        ],
    },
    "2I": {
        "T": [
            {"1": 1, "3": 1, "3'": 1, "5": 1},
            {"2s": 1, "4s": 1, "6s": 1},
            {"3'": 1, "4": 1, "5": 1},
            {"2s'": 1, "4s": 1, "6s": 1},
            {"3": 1, "4": 1, "5": 1},
            {"6s": 2},
        ],
        "S": [
            {"1": 1, "3": 1, "3'": 1, "4": 2, "5": 1},
            {"2s": 1, "2s'": 1, "4s": 1, "6s": 2},
            {"3": 1, "3'": 1, "4": 1, "5": 2},
            {"4s": 2, "6s": 2},
        ],
        "R": [
            {"1": 1, "3": 1, "3'": 1, "4": 2, "5": 3},
            {"2s": 1, "2s'": 1, "4s": 2, "6s": 3},
            {"3": 2, "3'": 2, "4": 2, "5": 2},
        ],
        "RST": [
            {"1": 1, "3": 3, "3'": 3, "4": 4, "5": 5},
            {"2s": 2, "2s'": 2, "4s": 4, "6s": 6},
        ],
    },
}

# Classical inversion matrices expressing per-irrep spectral quantities
# in terms of chosen lens-space quantities S(r; generator).  Two of the
# six are known to deviate from a fresh solve of the induction tables:
# the 2I non-spinor matrix has its 3 and 3' rows interchanged, and the
# 2T spinor matrix carries an overall factor 2 together with a
# 2s'/2s'' row interchange.  They are transcribed as printed; the
# comparator classifies the discrepancies instead of silently matching.
REFERENCE_SOLUTION_MATRICES = {
    ("2I", "spinor"): {
        "rows": ["2s", "2s'", "4s", "6s"],
        "rhs": [(1, "T"), (3, "T"), (5, "T"), (1, "S")],
        "matrix": [
            ["0", "-1", "-1/2", "1"],
            ["-1", "0", "-1/2", "1"],
            ["1", "1", "0", "-1"],
            ["0", "0", "1/2", "0"],
        ],
    },
    ("2I", "nonspinor"): {
        "rows": ["1", "3", "3'", "4", "5"],
        "rhs": [(0, "T"), (2, "T"), (4, "T"), (2, "S"), (2, "R")],
        "matrix": [
            ["1", "1", "1", "-1", "-1/2"],
            ["0", "0", "-1", "0", "1/2"],
            ["0", "-1", "0", "0", "1/2"],
            ["0", "1", "1", "-1", "0"],
            ["0", "0", "0", "1", "-1/2"],
        ],
    },
    ("2O", "spinor"): {
        "rows": ["2s", "2s'", "4s"],
        "rhs": [(1, "T"), (1, "S"), (3, "S")],
        "matrix": [
            ["1", "0", "-1/2"],
            ["-1", "1", "0"],
            ["0", "0", "1/2"],
        ],
    },
    ("2O", "nonspinor"): {
        "rows": ["1", "1'", "2", "3", "3'"],
        "rhs": [(0, "T"), (2, "T"), (4, "T"), (2, "S"), (2, "R")],
        "matrix": [
            ["1", "1", "1/2", "-1", "-1/2"],
            ["0", "0", "1/2", "-1", "1/2"],
            ["0", "-1", "0", "1", "0"],
            ["0", "0", "-1/2", "0", "1/2"],
            ["0", "1", "1/2", "0", "-1/2"],
        ],
    },
    ("2T", "spinor"): {
        "rows": ["2s", "2s'", "2s''"],
        "rhs": [(1, "T"), (3, "T"), (5, "T")],
        "matrix": [
            ["1", "-1", "1"],
            ["1", "1", "-1"],
            ["-1", "1", "1"],
        ],
    },
    ("2T", "nonspinor"): {
        "rows": ["1", "1'", "1''", "3"],
        "rhs": [(0, "T"), (2, "T"), (4, "T"), (2, "R")],
        "matrix": [
            ["1", "0", "0", "-1/2"],
            ["0", "0", "1", "-1/2"],
            ["0", "1", "0", "-1/2"],
            ["0", "0", "0", "1/2"],
        ],
    },
}

# How the rows of the two deviating matrices compare with a fresh solve
# (theorems.compare_reference_matrices); every other row is "exact".
REFERENCE_MATRIX_DEVIATIONS = {
    ("2I", "nonspinor"): {"3": "permuted", "3'": "permuted"},
    ("2T", "spinor"): {"2s": "scaled", "2s'": "scaled_permuted",
                       "2s''": "scaled_permuted"},
}
