"""The canonical reports are the fixed point of every optimisation.

Each case renders a group of reports as canonical JSON with the timing
removed, concatenates them and compares the SHA-256 with a pinned value.
A change that moves any verdict, witness text, parameter or detail changes
the digest; a failure names the group, and rerunning that group's reports
against an older checkout finds the report that moved.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from affine_singular.category_o import classify_sp6
from affine_singular.determinants import (DeterminantSpec, lowering_factor_check,
                                          verify_singular)
from affine_singular.serialize import canonical_json
from affine_singular.zhu import verify_weyl_vanishing, verify_zhu_generator
from test_acceptance import A_GRID, C_GRID

GRID = [DeterminantSpec(*case) for case in C_GRID + A_GRID]
# the specs of the benchmark's annihilate and enveloping workloads
BENCHMARK_SPECS = [DeterminantSpec(*case)
                   for case in (("C", 4, 4, 3), ("C", 5, 5, 2), ("A", 8, 4, 2), ("C", 6, 6, 1))]

OPERATIONS = {
    "verify_auto": verify_singular,
    "verify_symbolic": lambda spec: verify_singular(spec, None),
    "verify_level_plus_1": lambda spec: verify_singular(spec, spec.level + 1),
    "verify_level_plus_half": lambda spec: verify_singular(spec, spec.level + Fraction(1, 2)),
    "verify_level_plus_third": lambda spec: verify_singular(spec, spec.level + Fraction(1, 3)),
    "lowering_factor": lowering_factor_check,
    "zhu_generator": verify_zhu_generator,
    "weyl_vanishing": verify_weyl_vanishing,
}

DIGESTS = {
    "lowering_factor": "5922369f5ad30b1a0dcd5a61953ac0e6796c4dfb3947eac91f72030c422d7408",
    "verify_auto": "f07b4e7049569ff45e9815af3bf28917c0b89e381b29146379621cced1bc3597",
    "verify_level_plus_1": "19ffbe43e97b2218d78ebbfdc904f94efe9773fde7007c26284bafbab9f35feb",
    "verify_level_plus_half": "6148f9eb3a9a908402a7927c09f15d6ca5aab007582ed05ab9c690d01876ac6d",
    "verify_level_plus_third": "9f05cc6d7a526d82ef94269795f822cc68b4e7ce291061a40753b3e3194b73b6",
    "verify_symbolic": "ff8483c1a9944dde5e0fb847770c1da329b86e5f2a79589e76f30dd7554b75ff",
    "weyl_vanishing": "fec99c4eee15574e8b62eefb09ea09376fda9f70d1dc1168010de20120db952c",
    "zhu_generator": "2ae9a5d1aadae7b080857489f7470f937f05b8e8f27bdeffeef5ec5e38f42641",
    "classify_sp6_seed0": "33d174723839ecd8efa3b223b772126e206c14f5a637a0192136dc26c6b8429c",
    "classify_sp6_seed1": "c667c7292b4f2fe33207c5ccb506b0ee39671d35678ee8e20c70c13b96891720",
    "benchmark_zhu_generator": "bc2584c3608c54f61bcddda29b4731b4cbeb2e2a0aa7da84bc238a3e6d32b39b",
    "benchmark_weyl_vanishing": "23caab72609d34fd58d4e1c1ea17c0f5af88552bfdaf47bc7b5b048d3a1191ff",
    "benchmark_verify_auto": "b275ea57783d82bf794452e00940febb7ddce8998fb7725d0b0f2e56fc044957",
    "benchmark_verify_level_plus_1": "b42db1a5168192bbac6087c3dc7f2462cf0cda1a3a00423e2b6af4a6b6736554",
    "benchmark_verify_symbolic": "f3e13ad0931ab88e4dfeded71f261e58064f7f802f345f8a9876b3858bc44d04",
    "benchmark_verify_level_plus_third": "08dd0824e777ced982393742c05fabb35bbf7b5537b072acd977ee5d09d2680d",
    "benchmark_lowering_factor": "e3683c6bb2a7557a1974a49fa3bf3e429d03c47833d6a76170db4279b99e757b",
}


def _digest(reports) -> str:
    text = ""
    for report in reports:
        obj = report.to_obj()
        del obj["timing_ms"]
        text += canonical_json(obj)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_grid_reports_are_pinned(name):
    assert _digest(OPERATIONS[name](spec) for spec in GRID) == DIGESTS[name]


@pytest.mark.parametrize("name", ["zhu_generator", "weyl_vanishing", "verify_auto", "verify_level_plus_1",
                                  "verify_level_plus_third", "verify_symbolic", "lowering_factor"])
def test_benchmark_spec_reports_are_pinned(name):
    reports = (OPERATIONS[name](spec) for spec in BENCHMARK_SPECS)
    assert _digest(reports) == DIGESTS["benchmark_" + name]


@pytest.mark.parametrize("seed", [0, 1])
def test_classify_sp6_reports_are_pinned(seed):
    assert _digest([classify_sp6(seed=seed)]) == DIGESTS["classify_sp6_seed%d" % seed]
