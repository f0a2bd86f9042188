import hashlib
import json
import sys
import time

import pytest

import kronecker.cli as cli
from kronecker.cli import load_representation, run
from kronecker.polys import poly_deriv
from kronecker.rings import PolyQuotient
from kronecker.slp import AffineChange, compose_affine, parse_system
from kronecker.verify import check_representation

TWO_QUADRICS = "vars x, y;\nx^2 + y^2 - 5;\nx*y - 2;\n"
EXACT_CLAUSE = "exact residual over Q"


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


def test_coefficients_past_the_digit_cap_are_written(tmp_path, capsys):
    # The interpreter's str() of an int stops at 4300 digits; the output's
    # constant term is λ·10^5000, with 5003 digits.
    src = _write(tmp_path, "vars x; x - 10^5000;")
    assert run([src, "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    constant = doc["representation"]["minimal_poly"][0]["num"]
    assert len(constant) > 5000 and constant.endswith("0" * 5000)


def test_huge_power_of_a_constant_is_parsed_at_once(tmp_path):
    # The equation is linear; its 1^100000000 is expanded in closed form,
    # not by 10^8 multiplications.
    src = _write(tmp_path, "vars x; 1^100000000*x - 2;")
    start = time.perf_counter()
    assert run([src, "--seed", "0"]) == 0
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "source",
    [
        "vars x; x^300000 - 1;",
        "vars x; x^99999999999;",
        "vars x, y; x^200 - y; y^200 - x - 1;",
        "vars x; (x+1)^100000;",
    ],
)
def test_oversized_input_exits_3_at_once(tmp_path, capsys, source):
    src = _write(tmp_path, source)
    start = time.perf_counter()
    assert run([src, "--seed", "0"]) == 3
    assert time.perf_counter() - start < 1
    assert "above 256" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source", ["vars x, y; 3; x - y;", "vars x, y; x - y; 3;"]
)
def test_constant_polynomial_exits_2(tmp_path, capsys, source):
    src = _write(tmp_path, source)
    assert run([src, "--seed", "0"]) == 2
    assert "reduced regular sequence" in capsys.readouterr().err


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


def test_modular_document_with_a_composite_modulus_is_refused(tmp_path):
    src = _write(tmp_path, TWO_QUADRICS)
    out = str(tmp_path / "rep.json")
    assert run([src, "--mod-p-only", "--seed", "6", "--out", out]) == 0
    doc = json.loads(open(out).read())
    doc["modulus"] = "15"
    with pytest.raises(ValueError, match="15 is not an odd prime"):
        load_representation(doc)


@pytest.mark.parametrize("flags", [[], ["--mod-p-only"]])
def test_documents_with_coefficients_past_4300_digits_read_back(
    tmp_path, flags
):
    # int() refuses a decimal string of more than 4300 digits; the CLI
    # writes such coefficients through Decimal and must read them back.
    src = _write(tmp_path, "vars x; x - 10^5000;")
    out = str(tmp_path / "rep.json")
    assert run([src, "--seed", "3", "--out", out] + flags) == 0
    doc = json.loads(open(out).read())
    rep = load_representation(doc)
    root = doc["lambda"][0] * 10**5000  # the solution in Y = lambda * x
    if flags:
        assert rep.min_poly == (-root % int(doc["modulus"]), 1)
    else:
        assert rep.min_poly == (-root, 1)


@pytest.mark.parametrize("bad", ["1.5", "1e5"])
def test_document_with_a_non_integer_coefficient_is_refused(tmp_path, bad):
    src = _write(tmp_path, TWO_QUADRICS)
    out = str(tmp_path / "rep.json")
    assert run([src, "--mod-p-only", "--seed", "6", "--out", out]) == 0
    doc = json.loads(open(out).read())
    doc["representation"]["minimal_poly"][0] = bad
    with pytest.raises(ValueError, match="not an integer string"):
        load_representation(doc)


# sha256 of the output document for TWO_QUADRICS at seed 42.  Two runs of
# the same code agreeing cannot show drift in the representation, the
# certificate or the JSON layout between versions; these pinned digests can.
# The representation is canonical given (lambda, lifting point), so a
# change here must be deliberate and said so.
GOLDEN_SHA256 = {
    (): "39a7e83483c1b9acd391ce58f162b1b53f7eec08d12e1dcca1d9e55c7abbfb5d",
    ("--mode", "provable"): (
        "85c2df0bc9d7cdfd7e3ffc177d32829ab77eca8624d4e429bcfd85062fcd2a4a"
    ),
    ("--mod-p-only",): (
        "98861b05505b40e494cae739cd54c1ae5617225c2cb152b2866ccd9f0b8568a8"
    ),
}

# The same documents without certificate.verify_primes, re-serialized as the
# CLI writes them.  The verify primes are drawn from the attempt's generator
# after the modular solve, so they move whenever the solve takes a different
# number of draws; everything else must not.  The heuristic one was pinned
# while the intersection still factored Q_new (Cantor-Zassenhaus draws); the
# provable one when provable mode began to check its output exactly over Q.
GOLDEN_SHA256_WITHOUT_VERIFY_PRIMES = {
    (): "39015c2a352bd94a3588fb76faed0f68c1b0dd552ae303151e742de4f0facbc2",
    ("--mode", "provable"): (
        "875a2fffab7275f0bbc40b4ba65afaf6cc841dbe28eb9a04ea61eee773684f94"
    ),
}


@pytest.mark.parametrize("flags", sorted(GOLDEN_SHA256))
def test_golden_output_bytes(tmp_path, flags):
    src = _write(tmp_path, TWO_QUADRICS)
    out = tmp_path / "rep.json"
    assert run([src, "--seed", "42", "--out", str(out), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[flags]


@pytest.mark.parametrize("flags", sorted(GOLDEN_SHA256_WITHOUT_VERIFY_PRIMES))
def test_golden_output_without_verify_primes(tmp_path, flags):
    src = _write(tmp_path, TWO_QUADRICS)
    out = tmp_path / "rep.json"
    assert run([src, "--seed", "42", "--out", str(out), *flags]) == 0
    doc = json.loads(out.read_bytes())
    assert len(doc["certificate"].pop("verify_primes")) == 1
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_SHA256_WITHOUT_VERIFY_PRIMES[flags]


# The provable document as it was before provable mode checked its output
# exactly over Q: ``certificate.exact_checked`` set back to false and the
# exact clause taken out of the verification report, re-serialized as the
# CLI writes it.  This is the full provable digest of the code before that
# check, so the check moved nothing else.
GOLDEN_SHA256_PROVABLE_WITHOUT_EXACT_CHECK = (
    "6a036a7004fec86cb69f1633fbcffb801bf1837ec4fd4f1db8f3925b4fd4cb36"
)


def test_golden_provable_output_without_the_exact_clause(tmp_path):
    src = _write(tmp_path, TWO_QUADRICS)
    out = tmp_path / "rep.json"
    assert run([src, "--seed", "42", "--out", str(out), "--mode", "provable"]) == 0
    doc = json.loads(out.read_bytes())
    assert doc["certificate"]["exact_checked"] is True
    doc["certificate"]["exact_checked"] = False
    for report in (doc["verification"], doc["certificate"]["verification"]):
        exact = [c for c in report["clauses"] if c["name"] == EXACT_CLAUSE]
        assert [c["ok"] for c in exact] == [True]
        report["clauses"].remove(exact[0])
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_SHA256_PROVABLE_WITHOUT_EXACT_CHECK


# The heuristic document without the two certificate fields that record how
# far the p-adic ladder climbed, re-serialized as the CLI writes them.
# Pinned while heuristic mode still stopped once two consecutive rungs
# agreed; the stopping rule may move those fields and nothing else.
GOLDEN_SHA256_WITHOUT_LADDER = (
    "def7345f23050ac963a9997ca04c33c84584fecbc21b00bf92df4ff6fe19178a"
)


def test_golden_output_without_ladder_fields(tmp_path):
    src = _write(tmp_path, TWO_QUADRICS)
    out = tmp_path / "rep.json"
    assert run([src, "--seed", "42", "--out", str(out)]) == 0
    doc = json.loads(out.read_bytes())
    doc["certificate"].pop("precision_exponent")
    doc["certificate"].pop("reconstruction_exponents")
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_SHA256_WITHOUT_LADDER


# Modular documents of an n = 3 (fiber degrees 2, 4, 8) and an n = 4
# (2, 4, 8, 16) system at seed 1.  Unlike TWO_QUADRICS, each lifts several
# curves to t-adic precision above 1, so these pin the products over
# F_p[t]/(t^k)[T]/(Q) of the curve lift.
THREE_QUADRICS = (
    "vars x, y, z;\nx^2 + 2*y*z - 3*x + 1;\ny^2 - x*z + 5*y - 2;\n"
    "z^2 + 3*x*y - z + 4;\n"
)
FOUR_QUADRICS = (
    "vars x, y, z, w;\nx^2 + y*w - 2*z + 1;\ny^2 - x*z + 3*w - 2;\n"
    "z^2 + 2*x*y - w + 3;\nw^2 - y*z + x - 5;\n"
)
GOLDEN_SHA256_MOD_P_ONLY = {
    THREE_QUADRICS: "c0c8b2ea91f0688cd4fee09f6456de5e1936934fa9503c76fbdfc75573bf8e4d",
    FOUR_QUADRICS: "9cfeb734589a11c0b3024d932cb2b283134e123ed69e9bbe1022365e84fca367",
}


@pytest.mark.parametrize("text", list(GOLDEN_SHA256_MOD_P_ONLY), ids=["n3", "n4"])
def test_golden_mod_p_only_bytes(tmp_path, text):
    src = _write(tmp_path, text)
    out = tmp_path / "rep.json"
    assert run([src, "--mod-p-only", "--seed", "1", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256_MOD_P_ONLY[text]


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


@pytest.mark.parametrize("mod_p_only", [[], ["--mod-p-only"]])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_out_exits_3(tmp_path, capsys, target, mod_p_only):
    src = _write(tmp_path, TWO_QUADRICS)
    out = tmp_path if target == "directory" else tmp_path / "no" / "rep.json"
    assert run([src, "--seed", "1", "--out", str(out), *mod_p_only]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("mod_p_only", [[], ["--mod-p-only"]])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_out_is_refused_before_solving(
    tmp_path, capsys, monkeypatch, target, mod_p_only
):
    def refuse(*args, **kwargs):
        raise AssertionError("solved although --out cannot be written")

    monkeypatch.setattr(cli, "solve_modular", refuse)
    monkeypatch.setattr(cli, "solve_over_rationals", refuse)
    monkeypatch.setattr(cli, "parse_system", refuse)
    src = _write(tmp_path, TWO_QUADRICS)
    out = tmp_path if target == "directory" else tmp_path / "no" / "rep.json"
    assert run([src, "--seed", "1", "--out", str(out), *mod_p_only]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1


def test_mod_p_only_emits_the_univariate_form(tmp_path):
    # Q'·V_j ≡ W_j mod (p, Q) for each emitted V_j, and the bytes repeat.
    src = _write(tmp_path, THREE_QUADRICS)
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        flags = ["--mod-p-only", "--emit-univariate", "--seed", "1"]
        assert run([src, *flags, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    doc = json.loads(outs[0].read_bytes())
    rep = load_representation(doc)
    A = PolyQuotient(rep.ring, rep.min_poly)
    q_prime = poly_deriv(rep.min_poly, rep.ring)
    univariate = doc["representation"]["univariate"]
    assert sorted(univariate) == sorted(str(j) for j in rep.params) != []
    for j, w in rep.params.items():
        v = tuple(int(c) for c in univariate[str(j)])
        assert A.mul(q_prime, v) == w


def test_mod_p_only_inverts_q_prime_once(tmp_path, monkeypatch):
    # The check's univariate fiber is the one emitted: Q' is inverted mod
    # (p, Q) once per run, by the check, not again for the output.
    inverted = []
    inv = PolyQuotient.inv

    def counting_inv(self, a):
        inverted.append((self.modulus, a))
        return inv(self, a)

    monkeypatch.setattr(PolyQuotient, "inv", counting_inv)
    src = _write(tmp_path, THREE_QUADRICS)
    out = tmp_path / "rep.json"
    flags = ["--mod-p-only", "--emit-univariate", "--seed", "1"]
    assert run([src, *flags, "--out", str(out)]) == 0
    rep = load_representation(json.loads(out.read_bytes()))
    q_prime = poly_deriv(rep.min_poly, rep.ring)
    assert inverted.count((rep.min_poly, q_prime)) == 1


@pytest.mark.parametrize(
    "text, code",
    [(TWO_QUADRICS, 0), ("vars x, y;\nx^2;\nx;\n", 2), ("vars x; x + ;", 3)],
    ids=["solved", "exhausted", "malformed"],
)
def test_console_script_exits_with_the_code_of_run(
    tmp_path, monkeypatch, text, code
):
    src = _write(tmp_path, text)
    argv = ["kronecker-solve", src, "--seed", "0", "--retries", "2"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == code
