import hashlib
import json

import pytest

from kronecker.cli import load_representation, run
from kronecker.slp import AffineChange, compose_affine, parse_system
from kronecker.verify import check_representation

TWO_QUADRICS = "vars x, y;\nx^2 + y^2 - 5;\nx*y - 2;\n"


def _write(tmp_path, text, name="sys.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_writes_verified_json(tmp_path, capsys):
    src = _write(tmp_path, TWO_QUADRICS)
    out = str(tmp_path / "rep.json")
    code = run([src, "--mode", "heuristic", "--seed", "42", "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["format"] == "kronecker-rep/1"
    assert doc["coefficients"] == "rational"
    assert len(doc["representation"]["minimal_poly"]) == 5  # degree 4
    assert doc["verification"]["passed"]
    assert doc["stage_degrees"] == [2, 4]


def test_mod_p_only_with_pinned_prime(tmp_path):
    src = _write(tmp_path, TWO_QUADRICS)
    out = str(tmp_path / "rep.json")
    code = run([src, "--mod-p-only", "--prime", "10007", "--seed", "1", "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["coefficients"] == "modular"
    assert doc["modulus"] == "10007"
    assert len(doc["representation"]["minimal_poly"]) == 5


def test_malformed_input_exits_3(tmp_path):
    src = _write(tmp_path, "vars x; x + ;")
    assert run([src]) == 3


def test_missing_file_exits_3(tmp_path):
    assert run([str(tmp_path / "absent.txt")]) == 3


def test_unsolvable_input_exits_2(tmp_path):
    src = _write(tmp_path, "vars x, y;\nx^2;\nx;\n")
    assert run([src, "--retries", "2", "--seed", "0"]) == 2


def test_determinism_byte_identical(tmp_path):
    src = _write(tmp_path, TWO_QUADRICS)
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert run([src, "--seed", "9", "--out", out1]) == 0
    assert run([src, "--seed", "9", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_seed_from_environment(tmp_path, monkeypatch):
    src = _write(tmp_path, TWO_QUADRICS)
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    monkeypatch.setenv("KRONECKER_SEED", "77")
    assert run([src, "--out", out1]) == 0
    monkeypatch.delenv("KRONECKER_SEED")
    assert run([src, "--seed", "77", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_emit_univariate_included(tmp_path):
    src = _write(tmp_path, TWO_QUADRICS)
    out = str(tmp_path / "rep.json")
    assert run([src, "--seed", "3", "--emit-univariate", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert "univariate" in doc["representation"]


def test_emitted_json_roundtrips_and_verifies(tmp_path):
    src = _write(tmp_path, TWO_QUADRICS)
    out = str(tmp_path / "rep.json")
    assert run([src, "--seed", "5", "--out", out]) == 0
    doc = json.loads(open(out).read())
    rep = load_representation(doc)
    lam = doc["lambda"]
    n = len(doc["variables"])
    rows = [lam[i * n : (i + 1) * n] for i in range(n)]
    composed = compose_affine(
        parse_system(TWO_QUADRICS), AffineChange.from_matrix(rows)
    )
    report = check_representation(rep, composed, exact=True)
    assert report.passed


def test_modular_json_roundtrips_and_verifies(tmp_path):
    src = _write(tmp_path, TWO_QUADRICS)
    out = str(tmp_path / "rep.json")
    assert run([src, "--mod-p-only", "--seed", "6", "--out", out]) == 0
    doc = json.loads(open(out).read())
    rep = load_representation(doc)
    lam = doc["lambda"]
    n = len(doc["variables"])
    rows = [lam[i * n : (i + 1) * n] for i in range(n)]
    composed = compose_affine(
        parse_system(TWO_QUADRICS), AffineChange.from_matrix(rows)
    )
    assert check_representation(rep, composed).passed


# sha256 of the output document for TWO_QUADRICS at seed 42.  Two runs of
# the same code agreeing cannot show drift in the representation, the
# certificate or the JSON layout between versions; these pinned digests can.
# The representation is canonical given (lambda, lifting point), so a
# change here must be deliberate and said so.
GOLDEN_SHA256 = {
    (): "06fdfc3981930a573bf71c58b7917b1ef6b59fb09cd3b947caf8a0d38b972f07",
    ("--mode", "provable"): (
        "9722d44d394a6cb2d965f541c0a8e66e229fb67d95c117e2cf356a54ebe59f73"
    ),
    ("--mod-p-only",): (
        "98861b05505b40e494cae739cd54c1ae5617225c2cb152b2866ccd9f0b8568a8"
    ),
}


@pytest.mark.parametrize("flags", sorted(GOLDEN_SHA256))
def test_golden_output_bytes(tmp_path, flags):
    src = _write(tmp_path, TWO_QUADRICS)
    out = tmp_path / "rep.json"
    assert run([src, "--seed", "42", "--out", str(out), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[flags]


@pytest.mark.parametrize("flags", [[], ["--mod-p-only"]])
def test_non_prime_prime_exits_3(tmp_path, capsys, flags):
    src = _write(tmp_path, TWO_QUADRICS)
    assert run([src, "--prime", "4", *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_seed_in_environment_exits_3(tmp_path, capsys, monkeypatch):
    src = _write(tmp_path, TWO_QUADRICS)
    monkeypatch.setenv("KRONECKER_SEED", "abc")
    assert run([src]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: KRONECKER_SEED") and err.count("\n") == 1
    # An explicit --seed does not read the environment.
    assert run([src, "--seed", "1", "--out", str(tmp_path / "rep.json")]) == 0


@pytest.mark.parametrize("mod_p_only", [[], ["--mod-p-only"]])
@pytest.mark.parametrize(
    "flags, message",
    [(["--retries", "0"], "retries"), (["--verify-primes", "0"], "verify_primes")],
)
def test_unusable_counts_exit_3(tmp_path, capsys, flags, message, mod_p_only):
    src = _write(tmp_path, TWO_QUADRICS)
    assert run([src, *flags, *mod_p_only]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
