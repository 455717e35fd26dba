from __future__ import annotations

import affine_singular

# What the README quick start and perfbench/run.py take from the top-level
# package; the command line and the demos import from the submodules.
TOP_LEVEL = [
    "DeterminantSpec", "build_algebra", "classify_sp6", "determinant_vector",
    "lowering_factor_check", "verify_singular", "verify_weyl_vanishing",
    "verify_zhu_generator", "weyl_dim",
]


def test_top_level_names_resolve():
    assert sorted(affine_singular.__all__) == TOP_LEVEL
    for name in TOP_LEVEL:
        assert callable(getattr(affine_singular, name)), name
