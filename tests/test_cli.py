from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import affine_singular
from affine_singular import cache as cache_mod
from affine_singular import determinants
from affine_singular.cli import main

REPORT_FIELDS = {"claim", "verdict", "parameters", "timing_ms", "seed", "versions"}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_alg_info_text(capsys):
    assert main(["alg", "info", "--type", "C", "--rank", "2"]) == 0
    out = capsys.readouterr().out
    assert "algebra C_2  dimension 10" in out
    assert "(X[-2e1], X[2e1]) = -4" in out


@pytest.mark.parametrize("kind, rank, digest", [
    ("C", 4, "12ab7e491a38f05aea3a9a744fc89dbcf4e760cb0ea01c0c4214a5cac785c15f"),
    ("A", 5, "21f7aec8bd781fcaf03d7b8392be567707d15365f730cb94dabc4ba502dc235c"),
    ("C", 6, "f6ba13a33232b44803d6025c4e8db43ca150a906e58023f61039df47dcb70202"),
    ("A", 8, "e88092abe38ac64d17e7fff7d3c7b644a465b14aa76272c53ba5d6abc082779c"),
    # the largest algebras MAX_DIMENSION admits: 3,986,063 and 3,446,414 bytes
    ("C", 18, "f6611449b32792fd8cb02215f8f16a6e8967b3ad801ad35c7c45825b2a0b2b27"),
    ("A", 26, "bbba81540669e2466fc22b5dbabd7e39db7cbfbf7cc180db79035fe55248b1c8"),
])
def test_alg_info_json_is_pinned(capsys, kind, rank, digest):
    assert main(["alg", "info", "--type", kind, "--rank", str(rank), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_alg_info_json(capsys):
    code, obj = run_json(capsys, ["alg", "info", "--type", "A", "--rank", "3", "--json"])
    assert code == 0
    assert obj["algebra"] == "A_3"
    assert obj["dimension"] == 8
    assert len(obj["basis"]) == 8
    assert obj["versions"]["package"]


def test_singular_verify_pass(capsys, tmp_path):
    code, obj = run_json(capsys, [
        "singular", "verify", "--type", "C", "--rank", "2", "-m", "2", "-n", "1",
        "--json", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert obj["verdict"] is True
    assert REPORT_FIELDS <= set(obj)
    assert obj["parameters"]["level"] == "-1/2"


def test_singular_verify_fail_exit_code(capsys, tmp_path):
    code, obj = run_json(capsys, [
        "singular", "verify", "--type", "C", "--rank", "2", "-m", "2", "-n", "1",
        "--level", "7", "--json", "--cache-dir", str(tmp_path)])
    assert code == 1
    assert obj["verdict"] is False
    assert "witness" in obj


def test_a_negative_rational_level_follows_its_flag(capsys):
    args = ["singular", "verify", "--type", "C", "--rank", "2", "-m", "2", "-n", "1",
            "--json", "--no-cache", "--level"]
    code, obj = run_json(capsys, args + ["-1/2"])
    assert code == 0
    assert obj["parameters"]["level"] == "-1/2"
    code, obj = run_json(capsys, args + ["-3/2"])
    assert code == 1
    assert obj["verdict"] is False
    assert obj["parameters"]["level"] == "-3/2"
    assert obj["witness"]["residual"]


def test_usage_error_exit_code(capsys):
    code = main(["singular", "verify", "--type", "C", "--rank", "2", "-m", "5", "-n", "1",
                 "--no-cache"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_arithmetic_error_exit_code(capsys):
    for text in ("1/0", "abc", "1e5000", "0.5"):
        code = main(["singular", "verify", "--type", "C", "--rank", "2", "-m", "2", "-n", "1",
                     "--level", text, "--no-cache"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --level")
        assert repr(text) in err
        assert "Traceback" not in err


def test_negative_controls_exit_code(capsys):
    assert main(["classify", "sp6", "--controls", "-1"]) == 2
    captured = capsys.readouterr()
    assert "controls must be nonnegative" in captured.err
    assert "PASS" not in captured.out


def test_oversized_determinant_exits_2_before_expanding(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the determinant was expanded")

    monkeypatch.setattr(determinants, "det_entry_poly", fail)
    assert main(["singular", "verify", "--type", "C", "--rank", "12", "-m", "12", "-n", "1",
                 "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: size 12 is above the limit of 8 (m! determinant terms)\n"
    assert captured.out == ""


def test_level_and_symbolic_are_exclusive(capsys):
    with pytest.raises(SystemExit) as info:
        main(["singular", "verify", "--type", "C", "--rank", "2", "-m", "2", "-n", "1",
              "--level", "1", "--symbolic", "--no-cache"])
    assert info.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_bad_arguments_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["singular", "verify", "--type", "Z", "--rank", "2", "-m", "1"])
    assert info.value.code == 2


def test_warm_cache_output_is_byte_identical(capsys, tmp_path):
    argv = ["singular", "verify", "--type", "C", "--rank", "2", "-m", "1", "-n", "2",
            "--json", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    # the record landed in the given directory
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1


def test_tampered_cache_recomputes_with_note(capsys, tmp_path):
    argv = ["singular", "factor", "--type", "C", "--rank", "2", "-m", "2", "-n", "1",
            "--json", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    (record_path,) = tmp_path.glob("*.json")
    record = json.loads(record_path.read_text())
    record["payload"] = record["payload"].replace("PASS", "FAIL").replace("true", "false")
    record_path.write_text(json.dumps(record))
    code, obj = run_json(capsys, argv)
    assert code == 0
    assert obj["verdict"] is True
    assert any("digest" in note for note in obj.get("notes", []))
    # the warning belongs to that run alone: the record it rewrote is clean
    code, warm = run_json(capsys, argv)
    assert code == 0
    assert not any("digest" in note for note in warm.get("notes", []))
    code, cold = run_json(capsys, argv + ["--no-cache"])
    assert code == 0
    warm.pop("timing_ms")
    cold.pop("timing_ms")
    assert warm == cold


@pytest.mark.parametrize("corrupt", [
    lambda record: [1, 2],
    lambda record: dict(record, payload=5),
], ids=["list", "int-payload"])
def test_malformed_cache_record_recomputes_with_note(capsys, tmp_path, corrupt):
    argv = ["singular", "factor", "--type", "C", "--rank", "2", "-m", "2", "-n", "1",
            "--json", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    (record_path,) = tmp_path.glob("*.json")
    record_path.write_text(json.dumps(corrupt(json.loads(record_path.read_text()))))
    code, obj = run_json(capsys, argv)
    assert code == 0
    warning = "cache record unreadable, recomputing: %s" % record_path
    assert warning in obj["notes"]
    code, cold = run_json(capsys, argv + ["--no-cache"])
    assert code == 0
    obj["notes"].remove(warning)
    obj.pop("timing_ms")
    cold.pop("timing_ms")
    assert obj == cold


def test_unwritable_cache_keeps_the_verdict_exit_code(capsys, tmp_path):
    not_a_directory = tmp_path / "cache"
    not_a_directory.write_text("a regular file\n")
    argv = ["singular", "factor", "--type", "C", "--rank", "2", "-m", "2", "-n", "1",
            "--json", "--cache-dir", str(not_a_directory)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert str(not_a_directory) in captured.err
    assert captured.err.endswith(": the cache directory is not a directory\n")
    assert len(captured.err.splitlines()) == 1
    obj = json.loads(captured.out)
    code, cold = run_json(capsys, argv + ["--no-cache"])
    assert code == 0
    obj.pop("timing_ms")
    cold.pop("timing_ms")
    assert obj == cold
    assert not_a_directory.read_text() == "a regular file\n"
    # a refuted check keeps exit code 1 and fails without a traceback
    off = ["singular", "verify", "--type", "C", "--rank", "2", "-m", "2", "-n", "1",
           "--level", "0", "--cache-dir", str(not_a_directory)]
    assert main(off) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL")
    assert "Traceback" not in captured.err
    assert str(not_a_directory) in captured.err
    assert captured.err.endswith(": the cache directory is not a directory\n")


def test_no_cache_bypasses_directory(capsys, tmp_path):
    argv = ["singular", "verify", "--type", "A", "--rank", "2", "-m", "1", "-n", "1",
            "--json", "--cache-dir", str(tmp_path), "--no-cache"]
    code, obj = run_json(capsys, argv)
    assert code == 0
    assert list(tmp_path.glob("*.json")) == []


def test_symbolic_verify_reports_factor(capsys, tmp_path):
    code, obj = run_json(capsys, [
        "singular", "verify", "--type", "A", "--rank", "2", "-m", "1", "-n", "2",
        "--symbolic", "--json", "--cache-dir", str(tmp_path)])
    assert code == 1
    assert obj["parameters"]["level"] == "symbolic"
    assert "k" in obj["witness"]["residual"]


def test_singular_factor(capsys, tmp_path):
    code, obj = run_json(capsys, [
        "singular", "factor", "--type", "A", "--rank", "4", "-m", "2", "-n", "1",
        "--json", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert obj["parameters"]["beta"] == "1"
    assert any("derived" in note for note in obj["notes"])


def test_zhu_commands(capsys):
    code, obj = run_json(capsys, [
        "zhu", "project", "--type", "C", "--rank", "2", "-m", "2", "-n", "1", "--json"])
    assert code == 0 and obj["verdict"] is True
    code, obj = run_json(capsys, [
        "zhu", "phi", "--type", "C", "--rank", "2", "-m", "2", "-n", "1", "--json"])
    assert code == 0 and obj["verdict"] is True
    code, obj = run_json(capsys, [
        "zhu", "phi", "--type", "C", "--rank", "2", "-m", "1", "-n", "2", "--json"])
    assert code == 0
    assert obj["details"]["image"] == "(1) a1^4"


def test_classify_text_and_alias(capsys):
    assert main(["classify", "sp6", "--controls", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "module_dimension: 84" in out
    assert main(["classify", "exc6", "--controls", "5", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] is True
    assert obj["details"]["zero_weight_dimension"] == 4


def test_default_n_is_one(capsys):
    code, obj = run_json(capsys, [
        "zhu", "phi", "--type", "C", "--rank", "2", "-m", "2", "--json"])
    assert code == 0
    assert obj["parameters"]["n"] == 1


def test_versions_follow_package(capsys, tmp_path):
    code, obj = run_json(capsys, [
        "singular", "verify", "--type", "C", "--rank", "2", "-m", "1", "-n", "1",
        "--json", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert obj["versions"]["cache_format"] == cache_mod.FORMAT_VERSION
    assert obj["versions"]["package"] == affine_singular.__version__
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (declared,) = re.findall(r'^version = "([^"]+)"', pyproject, re.MULTILINE)
    assert declared == affine_singular.__version__


# Each child process runs one command and writes the modules it loaded to stderr.
_CHILD = ("import sys\n"
          "from affine_singular.cli import main\n"
          "code = main(sys.argv[1:])\n"
          "print(' '.join(sys.modules), file=sys.stderr)\n"
          "sys.exit(code)\n")


def run_child(argv):
    src = str(Path(affine_singular.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", _CHILD, *argv], capture_output=True, text=True,
                          timeout=60, env=env)


@pytest.mark.parametrize("command", ["verify", "factor"])
def test_warm_cached_command_loads_no_algebra(tmp_path, command):
    argv = ["singular", command, "--type", "C", "--rank", "3", "-m", "3", "-n", "1", "--json",
            "--cache-dir", str(tmp_path)]
    assert run_child(argv).returncode == 0
    warm = run_child(argv)
    assert warm.returncode == 0
    assert json.loads(warm.stdout)["verdict"] is True
    loaded = set(warm.stderr.split())
    assert "affine_singular.cache" in loaded
    for name in ("vacuum", "determinants", "liealg", "weyl", "zhu", "category_o", "weights", "linalg",
                 "scalars"):
        assert "affine_singular." + name not in loaded
    assert {name for name in loaded if name.startswith("affine_singular.")} == {
        "affine_singular.cli", "affine_singular.cache", "affine_singular.serialize", "affine_singular.spec"}
    assert "dataclasses" not in loaded
    assert "_hashlib" not in loaded  # the cache digest does not load OpenSSL


def test_alg_info_loads_only_the_table_modules():
    done = run_child(["alg", "info", "--type", "C", "--rank", "2"])
    assert done.returncode == 0
    loaded = set(done.stderr.split())
    assert "affine_singular.liealg" in loaded
    for name in ("vacuum", "determinants", "zhu", "category_o"):
        assert "affine_singular." + name not in loaded
    assert "dataclasses" not in loaded
    assert "_hashlib" not in loaded


@pytest.mark.parametrize("argv", [
    ["alg", "info", "--type", "C", "--rank", "40"],
    ["alg", "info", "--type", "A", "--rank", "40", "--json"],
    ["singular", "verify", "--type", "C", "--rank", "40", "-m", "2", "--no-cache"],
    ["singular", "factor", "--type", "A", "--rank", "40", "-m", "2", "--no-cache"],
    ["zhu", "project", "--type", "C", "--rank", "40", "-m", "2"],
    ["zhu", "phi", "--type", "C", "--rank", "40", "-m", "2"],
])
def test_oversized_rank_exits_2_at_once(argv):
    # in a child process with a timeout, so a regression fails instead of hanging
    done = run_child(argv)
    assert done.returncode == 2
    assert done.stdout == ""
    kind = argv[argv.index("--type") + 1]
    dim = 3240 if kind == "C" else 1599
    assert done.stderr.startswith("error: %s_40 has dimension %d, above the limit of 700 basis elements"
                                  % (kind, dim))


@pytest.mark.parametrize("command, rank, m, n, code", [
    pytest.param(["singular", "verify", "--no-cache", "--level", "0"], 4, 4, 40, 1, id="4-40"),
    pytest.param(["singular", "verify", "--no-cache", "--level", "0"], 3, 3, 1_000_000, 1, id="3-1000000"),
    pytest.param(["singular", "verify", "--no-cache", "--level", "0"], 2, 2, 2000, 1, id="verify-2-2-2000"),
    pytest.param(["singular", "verify", "--no-cache", "--level", "0"], 2, 1, 1_000_000, 1, id="verify-2-1-1000000"),
    pytest.param(["singular", "factor", "--no-cache"], 2, 1, 1_000_000, 0, id="factor-2-1-1000000"),
    pytest.param(["singular", "factor", "--no-cache"], 2, 1, 2828, 0, id="factor-2-1-2828"),
])
def test_oversized_power_exits_2(command, rank, m, n, code):
    # No check expands det^n for its verdict, and a failing one expands its
    # witness minor(1,1) det^(n-1) only while that has at most
    # WITNESS_TERMS Leibniz terms and det^(n-1) sorts at most the letter
    # limit.  So a huge power passes the factor check and fails off the
    # level with a factored witness, at m = 1 too.  In a child process with
    # a timeout, so an expansion fails the test.
    done = run_child(command + ["--type", "C", "--rank", str(rank), "-m", str(m), "-n", str(n)])
    assert done.returncode == code
    if code == 1:
        assert done.stdout.startswith("FAIL  determinant vector singular: C%d m=%d n=%d level=0\n" % (rank, m, n))
        assert re.search(r"residual: \(-?\d+\) minor\(1,1\) det\^%d \|0>\n" % (n - 1), done.stdout)
    else:
        assert done.stdout.startswith("PASS  lowering factor identity: C2 m=1 n=%d\n" % n)


def test_singular_verify_of_a_huge_power_at_the_level_finishes():
    # at the level x(1) is certified on the entry matrix and no power is
    # expanded; in a child process with a timeout, so an expansion fails the test
    done = run_child(["singular", "verify", "--no-cache", "--type", "C", "--rank", "3", "-m", "3", "-n", "1000000"])
    assert done.returncode == 0
    assert done.stdout.startswith("PASS  determinant vector singular: C3 m=3 n=1000000 level=999998\n")


def test_zhu_project_of_a_huge_power_finishes():
    # the projection is certified on the entry matrix and expands no power;
    # in a child process with a timeout, so an expansion fails the test
    done = run_child(["zhu", "project", "--type", "C", "--rank", "2", "-m", "1", "-n", "1000000000"])
    assert done.returncode == 0
    assert done.stdout.startswith("PASS  projection sends det vector to det power: C2 m=1 n=1000000000\n")


@pytest.mark.parametrize("kind, rank, m, image", [
    ("C", 2, 1, "  image: (1) a1^2000000000\n"),
    ("C", 2, 2, ""),
    ("A", 4, 1, "  image: (1) a1^1000000000 a*4^1000000000\n"),
])
def test_zhu_phi_of_a_huge_power_finishes(kind, rank, m, image):
    # phi(det)^n is taken by repeated squaring, at most 60 products for n = 10^9;
    # in a child process with a timeout, so a product per power fails the test
    done = run_child(["zhu", "phi", "--type", kind, "--rank", str(rank), "-m", str(m), "-n", "1000000000"])
    assert done.returncode == 0
    lines = done.stdout.splitlines(keepends=True)
    assert lines[0] == "PASS  oscillator image of det power %s: %s%d m=%d n=1000000000\n" % (
        "survives" if m == 1 else "vanishes", kind, rank, m)
    assert "".join(lines[2:-1]) == image


@pytest.mark.parametrize("argv, code, name, level", [
    (["verify"], 0, "singular-verify-C--1_2-2-1-2.json", "-1/2"),
    (["verify", "--level", "-3/2"], 1, "singular-verify-C--3_2-2-1-2.json", "-3/2"),
    (["verify", "--symbolic"], 1, "singular-verify-C-symbolic-2-1-2.json", "symbolic"),
    (["factor"], 0, "singular-factor-C-symbolic-2-1-2.json", "symbolic"),
], ids=["verify", "verify-level", "verify-symbolic", "factor"])
def test_cache_file_names_are_pinned(capsys, tmp_path, argv, code, name, level):
    # names and keys of records written by earlier releases, so their caches stay valid
    command, *rest = argv
    assert main(["singular", command, "--type", "C", "--rank", "2", "-m", "2", *rest,
                 "--cache-dir", str(tmp_path)]) == code
    capsys.readouterr()
    assert [path.name for path in tmp_path.iterdir()] == [name]
    record = json.loads((tmp_path / name).read_text())
    assert record["key"] == {"command": "singular-" + command, "kind": "C", "rank": 2, "m": 2, "n": 1,
                             "level": level}
