from pathlib import Path

import pytest

from ghcrypt.cli import run_cli

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    rc = run_cli(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.fixture
def z3_keys(tmp_path, capsys):
    d = tmp_path / "z3"
    rc, _, _ = run(capsys, "keygen", "--group", "z3", "--bits", "16",
                   "--seed", "7", "--out", str(d))
    assert rc == 0
    return d


@pytest.fixture
def sym3_dir(tmp_path, capsys):
    d = tmp_path / "s3"
    rc, _, _ = run(capsys, "keygen", "--group", "sym3", "--bits", "12",
                   "--seed", "19", "--out", str(d))
    assert rc == 0
    return d


class TestKeygen:
    def test_writes_files(self, z3_keys):
        pk = (z3_keys / "pk.txt").read_text()
        sk = (z3_keys / "sk.txt").read_text()
        assert pk.startswith("GHC-CYCLIC-PK v1\n")
        assert sk.startswith("GHC-CYCLIC-SK v1\n")

    def test_general_key_files(self, sym3_dir):
        pk = (sym3_dir / "pk.txt").read_text()
        assert pk.startswith("GHC-GENERAL-PK v1\n")
        assert "TRANSVERSAL" in pk

    def test_seed_determinism(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            rc, _, _ = run(capsys, "keygen", "--group", "z5", "--bits", "16",
                           "--seed", "abc", "--out", str(d))
            assert rc == 0
        assert (d1 / "pk.txt").read_bytes() == (d2 / "pk.txt").read_bytes()
        assert (d1 / "sk.txt").read_bytes() == (d2 / "sk.txt").read_bytes()

    def test_table_file_group(self, tmp_path, capsys):
        table = tmp_path / "z4.grp"
        table.write_text("GROUP v1 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n")
        rc, _, _ = run(capsys, "keygen", "--group", str(table), "--bits", "10",
                       "--seed", "5", "--out", str(tmp_path / "k"))
        assert rc == 0
        # a cyclic table group still produces a general (embedded-table) key
        assert (tmp_path / "k" / "pk.txt").read_text().startswith("GHC-GENERAL-PK")


class TestCyclicRoundtrip:
    def test_encrypt_decrypt(self, z3_keys, tmp_path, capsys):
        c = tmp_path / "c.txt"
        rc, _, _ = run(capsys, "encrypt", "--pk", str(z3_keys / "pk.txt"),
                       "--plain", "2", "--seed", "3", "--out", str(c))
        assert rc == 0
        rc, out, _ = run(capsys, "decrypt", "--sk", str(z3_keys / "sk.txt"),
                         "--pk", str(z3_keys / "pk.txt"), "--cipher", str(c))
        assert rc == 0 and out.strip() == "2"

    def test_encrypt_determinism(self, z3_keys, tmp_path, capsys):
        outs = []
        for name in ("c1", "c2"):
            c = tmp_path / name
            rc, _, _ = run(capsys, "encrypt", "--pk", str(z3_keys / "pk.txt"),
                           "--plain", "1", "--seed", "fixed", "--out", str(c))
            assert rc == 0
            outs.append(c.read_bytes())
        assert outs[0] == outs[1]

    def test_hommul(self, z3_keys, tmp_path, capsys):
        c1, c2 = tmp_path / "c1", tmp_path / "c2"
        for path, plain, seed in ((c1, "1", "s1"), (c2, "2", "s2")):
            run(capsys, "encrypt", "--pk", str(z3_keys / "pk.txt"),
                "--plain", plain, "--seed", seed, "--out", str(path))
        prod = tmp_path / "prod"
        rc, _, _ = run(capsys, "hommul", "--pk", str(z3_keys / "pk.txt"),
                       str(c1), str(c2), "--out", str(prod))
        assert rc == 0
        rc, out, _ = run(capsys, "decrypt", "--sk", str(z3_keys / "sk.txt"),
                         "--pk", str(z3_keys / "pk.txt"), "--cipher", str(prod))
        assert rc == 0 and out.strip() == "0"  # 1 + 2 = 0 (mod 3)

    def test_plaintext_range(self, z3_keys, capsys):
        rc, _, err = run(capsys, "encrypt", "--pk", str(z3_keys / "pk.txt"),
                         "--plain", "9", "--seed", "1")
        assert rc == 1 and "error" in err

    def test_cli_matches_library_bytes(self, z3_keys, tmp_path, capsys):
        import random as _random
        from ghcrypt.cyclic import encrypt_cyclic, parse_cyclic_pk
        c = tmp_path / "c.txt"
        rc, _, _ = run(capsys, "encrypt", "--pk", str(z3_keys / "pk.txt"),
                       "--plain", "2", "--seed", "lib", "--out", str(c))
        assert rc == 0
        pk = parse_cyclic_pk((z3_keys / "pk.txt").read_text())
        want = encrypt_cyclic(pk, 2, _random.Random("lib"))
        assert c.read_text() == f"{want.value}\n"


class TestGeneralRoundtrip:
    def test_label_roundtrip(self, sym3_dir, tmp_path, capsys):
        c = tmp_path / "c.txt"
        rc, _, _ = run(capsys, "encrypt", "--pk", str(sym3_dir / "pk.txt"),
                       "--plain", "(1 2 3)", "--seed", "2", "--out", str(c))
        assert rc == 0
        rc, out, _ = run(capsys, "decrypt", "--sk", str(sym3_dir / "sk.txt"),
                         "--pk", str(sym3_dir / "pk.txt"), "--cipher", str(c))
        assert rc == 0 and out.strip() == "(1 2 3)"

    def test_hommul_general(self, sym3_dir, tmp_path, capsys):
        c1, c2 = tmp_path / "c1", tmp_path / "c2"
        run(capsys, "encrypt", "--pk", str(sym3_dir / "pk.txt"),
            "--plain", "(1 2)", "--seed", "a", "--out", str(c1))
        run(capsys, "encrypt", "--pk", str(sym3_dir / "pk.txt"),
            "--plain", "(1 3)", "--seed", "b", "--out", str(c2))
        prod = tmp_path / "p"
        rc, _, _ = run(capsys, "hommul", "--pk", str(sym3_dir / "pk.txt"),
                       str(c1), str(c2), "--out", str(prod))
        assert rc == 0
        rc, out, _ = run(capsys, "decrypt", "--sk", str(sym3_dir / "sk.txt"),
                         "--pk", str(sym3_dir / "pk.txt"), "--cipher", str(prod))
        assert rc == 0 and out.strip() == "(1 2 3)"


    def test_key_with_leading_comment(self, sym3_dir, tmp_path, capsys):
        plain = sym3_dir / "pk.txt"
        commented = tmp_path / "pk.txt"
        commented.write_text("# comment\n" + plain.read_text())
        outs = [run(capsys, "encrypt", "--pk", str(pk), "--plain", "(1 2)",
                    "--seed", "4") for pk in (plain, commented)]
        assert outs[0][0] == 0 and outs[1] == outs[0]


class TestCompileSimulate:
    def test_compile_and_simulate(self, tmp_path, capsys):
        prog = tmp_path / "maj3.gprog"
        rc, _, _ = run(capsys, "compile", "--circuit", str(DATA / "maj3.bc"),
                       "--group", "sym5", "--out", str(prog))
        assert rc == 0
        assert prog.read_text().startswith("GPROG v1 sym5 3 ")
        for bits, want in (("110", "1"), ("100", "0"), ("011", "1")):
            rc, out, _ = run(capsys, "simulate", "--program", str(prog),
                             "--input", bits)
            assert rc == 0 and out.strip() == want

    def test_output_neither_identity_nor_target(self, tmp_path, capsys):
        # on input 1 the product is element 2 of sym3; the target is 1
        prog = tmp_path / "stray.gprog"
        prog.write_text("GPROG v1 sym3 1 1\n2 0\n")
        rc, out, _ = run(capsys, "simulate", "--program", str(prog), "--input", "0")
        assert rc == 0 and out.strip() == "0"
        rc, out, err = run(capsys, "simulate", "--program", str(prog), "--input", "1")
        assert rc == 1 and err.startswith("error:"), err
        assert "neither the identity nor the target" in err
        assert "Traceback" not in err and out == ""

    def test_compile_to_stdout(self, capsys):
        rc, out, _ = run(capsys, "compile", "--circuit", str(DATA / "identity.bc"),
                         "--group", "sym5")
        assert rc == 0 and out.startswith("GPROG v1 sym5 1 ")

    def test_solvable_group_is_domain_error(self, capsys):
        rc, _, err = run(capsys, "compile", "--circuit", str(DATA / "and2.bc"),
                         "--group", "sym3")
        assert rc == 1 and "error" in err

    def test_compile_build_cap(self, tmp_path, capsys):
        # a depth-12 AND/OR tree whose two halves share one gate per level:
        # a domain error before building
        circuit = tmp_path / "tree12.bc"
        circuit.write_text("INPUTS x\ng0 = AND x x\n" + "".join(
            f"g{k} = {'OR' if k % 2 else 'AND'} g{k - 1} g{k - 1}\n"
            for k in range(1, 12)) + "OUTPUT g11\n")
        rc, out, err = run(capsys, "compile", "--circuit", str(circuit),
                           "--group", "sym5")
        assert rc == 1 and out == ""
        assert err.startswith("error: circuit builds"), err


class TestProtocols:
    def test_protocol_circuit(self, tmp_path, capsys):
        d = tmp_path / "k5"
        rc, _, _ = run(capsys, "keygen", "--group", "sym5", "--bits", "8",
                       "--seed", "p", "--out", str(d))
        assert rc == 0
        tr = tmp_path / "t.txt"
        args = ["protocol", "circuit", "--pk", str(d / "pk.txt"),
                "--sk", str(d / "sk.txt"), "--circuit", str(DATA / "and2.bc"),
                "--input", "11", "--seed", "z", "--phi-steps", "3",
                "--psi-length", "2", "--transcript", str(tr)]
        rc, out, _ = run(capsys, *args)
        assert rc == 0 and out.strip() == "1"
        first = tr.read_bytes()
        rc, out, _ = run(capsys, *args)
        assert rc == 0
        assert tr.read_bytes() == first  # same seed, same transcript bytes

    def test_protocol_input(self, sym3_dir, tmp_path, capsys):
        gc = tmp_path / "mul.gcirc"
        gc.write_text("GCIRC v1\nINPUTS y1 y2\nw = MUL y1 y2\nOUTPUT w\n")
        rc, out, _ = run(capsys, "protocol", "input",
                         "--pk", str(sym3_dir / "pk.txt"),
                         "--sk", str(sym3_dir / "sk.txt"),
                         "--gcircuit", str(gc), "--inputs", "(1 2),(1 3)",
                         "--seed", "q", "--phi-steps", "2", "--psi-length", "1")
        assert rc == 0 and out.strip() == "(1 2 3)"

    @pytest.mark.parametrize("flag, value", [("--phi-steps", "-1"), ("--psi-length", "-2")])
    def test_negative_randomization_sizes(self, sym3_dir, tmp_path, capsys, flag, value):
        gc = tmp_path / "mul.gcirc"
        gc.write_text("GCIRC v1\nINPUTS y1 y2\nw = MUL y1 y2\nOUTPUT w\n")
        d = tmp_path / "k5"
        rc, _, _ = run(capsys, "keygen", "--group", "sym5", "--bits", "8",
                       "--seed", "p", "--out", str(d))
        assert rc == 0
        for argv in (["protocol", "circuit", "--pk", str(d / "pk.txt"),
                      "--sk", str(d / "sk.txt"), "--circuit", str(DATA / "and2.bc"),
                      "--input", "11"],
                     ["protocol", "input", "--pk", str(sym3_dir / "pk.txt"),
                      "--sk", str(sym3_dir / "sk.txt"), "--gcircuit", str(gc),
                      "--inputs", "(1 2),(1 3)"]):
            rc, out, err = run(capsys, *argv, "--seed", "n", flag, value)
            assert rc == 1 and err.startswith("error:"), err
            assert "Traceback" not in err and out == ""

    def test_protocol_input_word_cap(self, sym3_dir, tmp_path, capsys):
        # 64 squarings: a domain error at the word cap, not a hang
        gc = tmp_path / "squarings.gcirc"
        gc.write_text("GCIRC v1\nINPUTS w0\n" + "".join(
            f"w{k + 1} = MUL w{k} w{k}\n" for k in range(64)) + "OUTPUT w64\n")
        rc, out, err = run(capsys, "protocol", "input",
                           "--pk", str(sym3_dir / "pk.txt"),
                           "--sk", str(sym3_dir / "sk.txt"),
                           "--gcircuit", str(gc), "--inputs", "(1 2)", "--seed", "q")
        assert rc == 1 and out == ""
        assert err.startswith("error: group circuit word passes"), err

    def test_missing_args(self, sym3_dir, capsys):
        rc, _, err = run(capsys, "protocol", "circuit",
                         "--pk", str(sym3_dir / "pk.txt"),
                         "--sk", str(sym3_dir / "sk.txt"), "--seed", "x")
        assert rc == 1 and "needs" in err


class TestAttack:
    def test_factor_recovery(self, z3_keys, capsys):
        sk_text = (z3_keys / "sk.txt").read_text().splitlines()
        p = int(sk_text[1].split(":")[1])
        q = int(sk_text[2].split(":")[1])
        rc, out, _ = run(capsys, "attack", "factor", "--pk", str(z3_keys / "pk.txt"),
                         "--sk", str(z3_keys / "sk.txt"), "--seed", "w")
        assert rc == 0
        got = sorted(int(x) for x in out.split())
        assert got == sorted((p, q))

    def test_rejects_general_key(self, sym3_dir, capsys):
        rc, _, err = run(capsys, "attack", "factor",
                         "--pk", str(sym3_dir / "pk.txt"),
                         "--sk", str(sym3_dir / "sk.txt"), "--seed", "w")
        assert rc == 1


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run(capsys, "--bogus")[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "decrypt", "--sk", "/nope", "--pk", "/nope",
                         "--cipher", "/nope")
        assert rc == 1 and "error" in err

    @pytest.mark.parametrize("bits", ["0", "-5", "100000"])
    def test_keygen_bits_out_of_range(self, tmp_path, capsys, bits):
        rc, _, err = run(capsys, "keygen", "--group", "z4", "--bits", bits,
                         "--seed", "1", "--out", str(tmp_path / "k"))
        assert rc == 1 and err.startswith("error:"), err
        assert "Traceback" not in err

    def test_bad_key_file(self, tmp_path, capsys):
        bad = tmp_path / "pk.txt"
        bad.write_text("HELLO\n")
        rc, _, err = run(capsys, "encrypt", "--pk", str(bad), "--plain", "1",
                         "--seed", "1")
        assert rc == 1

    def test_all_element_key_rejected(self, capsys):
        # a Sym(3) key of the former shape, one factor per nonidentity element
        rc, out, err = run(capsys, "encrypt", "--pk",
                           str(DATA / "sym3_all_elements_pk.txt"),
                           "--plain", "(1 2)", "--seed", "1")
        assert rc == 1 and err.startswith("error:"), err
        assert "expected 2 factors, found 5" in err
        assert "Traceback" not in err and out == ""

    def test_out_of_range_factor_in_word(self, sym3_dir, tmp_path, capsys):
        c = tmp_path / "c.txt"
        c.write_text("9:5\n")
        rc, _, err = run(capsys, "decrypt", "--sk", str(sym3_dir / "sk.txt"),
                         "--pk", str(sym3_dir / "pk.txt"), "--cipher", str(c))
        assert rc == 1 and err.startswith("error:")
        assert "Traceback" not in err

    def test_general_key_entry_outside_group(self, sym3_dir, tmp_path, capsys):
        # R[0] of an order-2 factor with Jacobi symbol -1
        from dataclasses import replace
        from math import gcd

        from ghcrypt.freeprod import FactorFamily
        from ghcrypt.general import (GeneralPublicKey, format_general_pk,
                                     parse_general_pk)
        from ghcrypt.numtheory import jacobi

        pk = parse_general_pk((sym3_dir / "pk.txt").read_text())
        factors = list(pk.family.factors)
        i = next(i for i, f in enumerate(factors) if f.m == 2)
        n = factors[i].n
        r0 = next(v for v in range(2, n) if gcd(v, n) == 1 and jacobi(v, n) == -1)
        factors[i] = replace(factors[i], transversal=(r0,) + factors[i].transversal[1:])
        bad = tmp_path / "pk.txt"
        bad.write_text(format_general_pk(
            GeneralPublicKey(pk.group, pk.generators, FactorFamily(tuple(factors)))))
        c = tmp_path / "c.txt"
        c.write_text("e\n")
        rc, _, err = run(capsys, "decrypt", "--sk", str(sym3_dir / "sk.txt"),
                         "--pk", str(bad), "--cipher", str(c))
        assert rc == 1 and err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("p,q", [
        (None, 7),  # gcd(3, 7-1) = 3 violates gcd(m, q-1) = gcd(m, 2)
        (7, 5),     # a valid pair for m = 3 whose product is not n
        (1, "n"),   # p * q = n, but 1 is no prime
        (-1, "-n"),
    ], ids=["q_violates_order", "product_is_not_n", "one_times_n", "minus_one_times_minus_n"])
    def test_bad_cyclic_secret_key(self, z3_keys, tmp_path, capsys, p, q):
        good = z3_keys / "sk.txt"
        p = p or int(good.read_text().split("p:")[1].split()[0])
        n = int((z3_keys / "pk.txt").read_text().split("n:")[1].split()[0])
        q = {"n": n, "-n": -n}.get(q, q)
        sk = tmp_path / "sk.txt"
        sk.write_text(f"GHC-CYCLIC-SK v1\np: {p}\nq: {q}\n")
        c = tmp_path / "c.txt"
        run(capsys, "encrypt", "--pk", str(z3_keys / "pk.txt"), "--plain", "1",
            "--seed", "1", "--out", str(c))
        for argv in (("decrypt", "--sk", str(sk), "--pk", str(z3_keys / "pk.txt"),
                      "--cipher", str(c)),
                     ("attack", "factor", "--pk", str(z3_keys / "pk.txt"),
                      "--sk", str(sk), "--seed", "1")):
            rc, out, err = run(capsys, *argv)
            assert rc == 1 and err.startswith("error:"), (argv[0], err)
            assert "Traceback" not in err and out == ""

    def test_bad_cyclic_hommul_operands(self, z3_keys, tmp_path, capsys):
        pk = z3_keys / "pk.txt"
        n = int(pk.read_text().split("n:")[1].split()[0])
        p = int((z3_keys / "sk.txt").read_text().split("p:")[1].split()[0])
        good = tmp_path / "good"
        run(capsys, "encrypt", "--pk", str(pk), "--plain", "1", "--seed", "g",
            "--out", str(good))
        for text in ("abc", "0", str(n), str(n + 1), str(p)):
            bad = tmp_path / "bad"
            bad.write_text(text + "\n")
            out = tmp_path / "out"
            rc, _, err = run(capsys, "hommul", "--pk", str(pk), str(good),
                             str(bad), "--out", str(out))
            assert rc == 1 and err.startswith("error:"), text
            assert "Traceback" not in err
            assert not out.exists()

    def test_cyclic_cipher_outside_group(self, tmp_path, capsys):
        # z4 has even order: a unit of Jacobi symbol -1 is not in G(n, m)
        from ghcrypt.numtheory import jacobi

        keys = tmp_path / "z4"
        assert run(capsys, "keygen", "--group", "z4", "--bits", "16",
                   "--seed", "1", "--out", str(keys))[0] == 0
        n = int((keys / "pk.txt").read_text().split("n:")[1].split()[0])
        assert jacobi(3, n) == -1
        bad = tmp_path / "bad"
        bad.write_text("3\n")
        out = tmp_path / "out"
        for argv in (("hommul", "--pk", str(keys / "pk.txt"), str(bad), str(bad),
                      "--out", str(out)),
                     ("decrypt", "--sk", str(keys / "sk.txt"),
                      "--pk", str(keys / "pk.txt"), "--cipher", str(bad))):
            rc, stdout, err = run(capsys, *argv)
            assert rc == 1 and err.startswith("error:"), (argv[0], err)
            assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    def test_cyclic_decrypt_rejects_as_hommul_does(self, tmp_path, capsys):
        # decrypt and hommul hold a cyclic ciphertext to the same rule and
        # reject a non-member with the same message
        from ghcrypt.numtheory import jacobi

        keys = tmp_path / "z4"
        assert run(capsys, "keygen", "--group", "z4", "--bits", "16",
                   "--seed", "1", "--out", str(keys))[0] == 0
        pk, sk = str(keys / "pk.txt"), str(keys / "sk.txt")
        n = int((keys / "pk.txt").read_text().split("n:")[1].split()[0])
        p = int((keys / "sk.txt").read_text().split("p:")[1].split()[0])
        good = tmp_path / "good"
        assert run(capsys, "encrypt", "--pk", pk, "--plain", "3", "--seed", "g",
                   "--out", str(good))[0] == 0
        g = int(good.read_text())
        assert jacobi(3, n) == -1
        for value in (0, n, n + g, -g, p, n // p, 3, 3 * g % n):
            bad = tmp_path / "bad"
            bad.write_text(f"{value}\n")
            want = f"error: ciphertext {value} is not in G(n, m) within 1..n-1\n"
            for argv in (("decrypt", "--sk", sk, "--pk", pk, "--cipher", str(bad)),
                         ("hommul", "--pk", pk, str(good), str(bad))):
                assert run(capsys, *argv) == (1, "", want), (argv[0], value)
        assert run(capsys, "decrypt", "--sk", sk, "--pk", pk,
                   "--cipher", str(good)) == (0, "3\n", "")

    @pytest.mark.parametrize("case", [
        "cipher_is_dir", "pk_is_dir", "cipher_not_utf8", "group_not_utf8",
        "out_in_missing_dir", "transcript_in_missing_dir", "keygen_out_is_file"])
    def test_file_faults(self, z3_keys, sym3_dir, tmp_path, capsys, case):
        pk, sk = str(z3_keys / "pk.txt"), str(z3_keys / "sk.txt")
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b"GROUP v1 2\n0 1\n1 0\nLABELS\n\xe9\nb\n")
        a_file = tmp_path / "file"
        a_file.write_text("x\n")
        missing = str(tmp_path / "nosuch" / "out.txt")
        gcirc = tmp_path / "mul.gcirc"
        gcirc.write_text("GCIRC v1\nINPUTS y1 y2\nw = MUL y1 y2\nOUTPUT w\n")
        argv, path = {
            "cipher_is_dir": (("decrypt", "--sk", sk, "--pk", pk,
                               "--cipher", str(tmp_path)), str(tmp_path)),
            "pk_is_dir": (("encrypt", "--pk", str(tmp_path), "--plain", "1",
                           "--seed", "1"), str(tmp_path)),
            "cipher_not_utf8": (("decrypt", "--sk", sk, "--pk", pk,
                                 "--cipher", str(latin1)), str(latin1)),
            "group_not_utf8": (("keygen", "--group", str(latin1), "--bits", "8",
                                "--seed", "1", "--out", str(tmp_path / "k")),
                               str(latin1)),
            "out_in_missing_dir": (("encrypt", "--pk", pk, "--plain", "1",
                                    "--seed", "1", "--out", missing), missing),
            "transcript_in_missing_dir": (
                ("protocol", "input", "--pk", str(sym3_dir / "pk.txt"),
                 "--sk", str(sym3_dir / "sk.txt"), "--gcircuit", str(gcirc),
                 "--inputs", "(1 2),(1 3)", "--seed", "q", "--transcript", missing),
                missing),
            "keygen_out_is_file": (("keygen", "--group", "z3", "--bits", "8",
                                    "--seed", "1", "--out", str(a_file)), str(a_file)),
        }[case]
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and err.startswith("error:") and path in err, err
        assert "Traceback" not in err and out == ""
        assert not (tmp_path / "k").exists()

    def test_keygen_unknown_group_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "k"
        rc, _, err = run(capsys, "keygen", "--group", "nosuch", "--bits", "8",
                         "--seed", "1", "--out", str(out))
        assert rc == 1 and err.startswith("error:"), err
        assert not out.exists()

    def test_keygen_group_beyond_table_guard(self, tmp_path, capsys):
        rc, _, err = run(capsys, "keygen", "--group", "z20000", "--bits", "16",
                         "--seed", "1", "--out", str(tmp_path / "k"))
        assert rc == 1 and err.startswith("error:"), err
        assert "Traceback" not in err


def test_module_entry_point(tmp_path):
    """``python -m ghcrypt.cli`` runs the command, as ``ghcrypt`` does."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "k"
    proc = subprocess.run(
        [sys.executable, "-m", "ghcrypt.cli", "keygen", "--group", "z3",
         "--bits", "8", "--seed", "1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (out / "pk.txt").read_text().startswith("GHC-CYCLIC-PK v1\n")
    proc = subprocess.run([sys.executable, "-m", "ghcrypt.cli", "--bogus"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
