from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from affine_singular.weights import (dot, multiplicity, weight_multiplicities,
                                     weyl_dim)
from oracles import coroot_pairing


def test_dot_and_coroot_pairing():
    assert dot((1, 2), (3, -1)) == 1
    assert dot((Fraction(1, 2), 0), (2, 5)) == 1
    # long root of C: alpha = 2e1, <e1, alpha^vee> = 1/2 * 2*2/4 = ... = 1
    assert coroot_pairing((1, 0), (2, 0)) == 1
    assert coroot_pairing((1, 1), (1, -1)) == 0


def test_weyl_dim_known_values(table_c2, table_c3, table_a3, table_a4):
    # trivial and natural representations
    assert weyl_dim(table_c2, (0, 0)) == 1
    assert weyl_dim(table_c2, (1, 0)) == 4
    assert weyl_dim(table_c3, (1, 0, 0)) == 6
    assert weyl_dim(table_a3, (Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3))) == 3
    # adjoint representations have dimension equal to the algebra
    assert weyl_dim(table_c2, table_c2.theta) == table_c2.dimension == 10
    assert weyl_dim(table_c3, table_c3.theta) == table_c3.dimension == 21
    assert weyl_dim(table_a3, table_a3.theta) == table_a3.dimension == 8
    assert weyl_dim(table_a4, table_a4.theta) == table_a4.dimension == 15
    # the two key modules for the classification checks
    assert weyl_dim(table_c3, (1, 1, 1)) == 14
    assert weyl_dim(table_c3, (2, 2, 2)) == 84
    assert weyl_dim(table_c2, (2, 2)) == 14
    assert weyl_dim(table_c2, (1, 1)) == 5


def test_multiplicities_sum_to_weyl_dim(table_c2, table_c3, table_a3):
    cases = [
        (table_c2, (1, 0)), (table_c2, (1, 1)), (table_c2, (2, 0)),
        (table_c2, (2, 2)), (table_c2, (3, 1)),
        (table_c3, (1, 1, 1)), (table_c3, (2, 2, 2)),
        (table_a3, table_a3.theta),
        (table_a3, (Fraction(4, 3), Fraction(1, 3), Fraction(-5, 3))),
    ]
    for table, lam in cases:
        mult = weight_multiplicities(table, lam)
        assert sum(mult.values()) == weyl_dim(table, lam), lam
        assert mult[tuple(Fraction(c) for c in lam)] == 1


def test_weights_closed_under_weyl_sign_flips(table_c2):
    """For C the Weyl group contains all sign changes, so multiplicities
    must be invariant under flipping any coordinate."""
    mult = weight_multiplicities(table_c2, (2, 2))
    for (w1, w2), m in mult.items():
        assert mult.get((-w1, w2)) == m
        assert mult.get((w1, -w2)) == m
        assert mult.get((w2, w1)) == m


def test_zero_weight_multiplicities(table_c2, table_c3, table_a3):
    # adjoint zero-weight space is the Cartan
    assert multiplicity(table_c2, table_c2.theta, (0, 0)) == 2
    assert multiplicity(table_a3, table_a3.theta, (0, 0, 0)) == 2
    assert multiplicity(table_c3, table_c3.theta, (0, 0, 0)) == 3
    # the classification module
    assert multiplicity(table_c3, (2, 2, 2), (0, 0, 0)) == 4
    # the 14-dimensional C3 module with highest weight (1,1,1) has weights
    # (+-1,+-1,+-1) and +-e_i only, so no zero weight at all; its sibling
    # with highest weight (1,1,0) picks up the zero weight twice
    assert multiplicity(table_c3, (1, 1, 1), (0, 0, 0)) == 0
    assert weyl_dim(table_c3, (1, 1, 0)) == 14
    assert multiplicity(table_c3, (1, 1, 0), (0, 0, 0)) == 2
    # absent weight
    assert multiplicity(table_c2, (1, 1), (3, 3)) == 0


def test_random_dominant_weights_consistent(table_c2, table_a3):
    rng = random.Random(3)
    for _ in range(6):
        a, b = sorted((rng.randint(0, 3), rng.randint(0, 3)), reverse=True)
        lam = (a, b)
        assert sum(weight_multiplicities(table_c2, lam).values()) == weyl_dim(table_c2, lam)
    for _ in range(4):
        # dominant sl_3 weight from fundamental coefficients
        c1, c2 = rng.randint(0, 2), rng.randint(0, 2)
        w1 = table_a3.fundamental_weight(1)
        w2 = table_a3.fundamental_weight(2)
        lam = tuple(c1 * x + c2 * y for x, y in zip(w1, w2))
        assert sum(weight_multiplicities(table_a3, lam).values()) == weyl_dim(table_a3, lam)


def test_degenerate_inputs(table_c2):
    # Weyl's product alone gives 0 on the first three (not dominant; (-3, 0)
    # lies on a shifted reflection wall) and a non-integer on (1/2, 0), which
    # is off the lattice; both functions refuse all four with one message
    for lam, shown in (((-3, 0), "(-3, 0)"), ((1, 2), "(1, 2)"), ((0, 1), "(0, 1)"),
                       ((Fraction(1, 2), 0), "(1/2, 0)")):
        message = r"^highest weight %s is not dominant integral$" % re.escape(shown)
        with pytest.raises(ValueError, match=message):
            weyl_dim(table_c2, lam)
        with pytest.raises(ValueError, match=message):
            weight_multiplicities(table_c2, lam)


@pytest.mark.parametrize("lam, shown", [
    ("(Fraction(1, 2), 0)", "(1/2, 0)"),  # off the weight lattice: the recursion never ended
    ("(-1, 0)", "(-1, 0)"),  # not dominant: it failed at a weight below lam
])
def test_weights_that_are_not_dominant_integral_are_refused(lam, shown):
    # in a child process, so a regression that loops fails here instead of hanging
    code = ("from fractions import Fraction\n"
            "from affine_singular.liealg import build_algebra\n"
            "from affine_singular.weights import weight_multiplicities\n"
            "try:\n"
            "    weight_multiplicities(build_algebra('C', 2), %s)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n" % lam)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=20, env=env)
    assert done.returncode == 0, done.stderr
    assert "highest weight %s is not dominant integral" % shown in done.stdout
