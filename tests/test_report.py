from __future__ import annotations

import time

import pytest

from affine_singular import category_o, determinants, vacuum, zhu
from affine_singular.determinants import DeterminantSpec, determinant_vector

SPEC = DeterminantSpec("C", 2, 2, 1)


def _singular_check():
    table = SPEC.table()
    return vacuum.singular_check(table, determinant_vector(table, SPEC))


CHECKS = {
    "verify_singular": lambda: determinants.verify_singular(SPEC),
    "lowering_factor_check": lambda: determinants.lowering_factor_check(SPEC),
    "verify_zhu_generator": lambda: zhu.verify_zhu_generator(SPEC),
    "verify_weyl_vanishing": lambda: zhu.verify_weyl_vanishing(SPEC),
    "classify_sp6": lambda: category_o.classify_sp6(controls=1),
    "singular_check": _singular_check,
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_timing_covers_the_whole_call(monkeypatch, name):
    # the first step each check runs is slowed: the spec checks build their table
    # through DeterminantSpec.table, and singular_check weighs its state first
    if name == "singular_check":
        owner, attr = vacuum, "state_weight"
    else:
        owner, attr = DeterminantSpec, "table"
    step = getattr(owner, attr)

    def slow(*args):
        time.sleep(0.05)
        return step(*args)

    monkeypatch.setattr(owner, attr, slow)
    assert CHECKS[name]().timing_ms >= 50
