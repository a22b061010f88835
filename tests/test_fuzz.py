"""Mutated artifacts fail only with domain errors.

Alice and Bob exchange key files, programs and words, so every artifact
parser reads text from a party it need not trust.  Each property starts
from a valid artifact, applies a few random edits, and requires that the
parser either succeeds or raises :class:`Error`, and that ``run_cli``
exits 0, 1 or 2, never with another exception.  The examples are
derandomized, so a failure reproduces on every run.
"""

import contextlib
import io
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcrypt.barrington import compile_barrington, format_program, parse_program
from ghcrypt.circuit import parse_circuit
from ghcrypt.cli import _parse_cyclic_cipher, run_cli
from ghcrypt.cyclic import (
    encrypt_cyclic,
    format_cyclic_pk,
    format_cyclic_sk,
    keygen_cyclic,
    parse_cyclic_pk,
    parse_cyclic_sk,
)
from ghcrypt.encsim import (CircuitAlice, CircuitBob, parse_encrypted_program,
                            parse_group_circuit)
from ghcrypt.errors import Error
from ghcrypt.freeprod import format_gword, parse_gword
from ghcrypt.general import (
    decrypt_general_text,
    encrypt_general,
    format_general_pk,
    format_general_sk,
    keygen_general,
    parse_general_pk,
    parse_general_sk,
)
from ghcrypt.groupcore import format_group, parse_group, sym

DATA = Path(__file__).parent / "data"

# bounded so that the whole file adds about three seconds to the suite
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# pieces an edit inserts: format punctuation, digits, signs, keywords
PIECES = ["#", " ", "\n", "-", "0", "1", "9", ":", "e", "x", "# c\n", "LABELS",
          "FACTOR", "INPUTS", "v2", "R:"]

EDITS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1 << 20),
                           st.sampled_from(PIECES)), min_size=1, max_size=4)


def mutate(text: str, edits) -> str:
    """Apply (kind, position, piece) edits: delete, insert or replace a
    character, delete or duplicate a line, or truncate."""
    for kind, pos, piece in edits:
        i = pos % (len(text) + 1)
        lines = text.split("\n")
        j = pos % len(lines)
        if kind == 0:
            text = text[:i] + text[i + 1:]
        elif kind == 1:
            text = text[:i] + piece + text[i:]
        elif kind == 2:
            text = text[:i] + piece + text[i + 1:]
        elif kind == 3:
            text = "\n".join(lines[:j] + lines[j + 1:])
        elif kind == 4:
            text = "\n".join(lines[:j + 1] + lines[j:])
        else:
            text = text[:i]
    return text


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    rng = random.Random(5)
    S3 = sym(3)
    cpk, csk = keygen_cyclic(3, 16, random.Random(7))
    gpk, gsk = keygen_general(S3, 12, random.Random(19))
    words = [format_gword(encrypt_general(gpk, S3.element(k), rng, phi_steps=1,
                                          psi_length=1).word) for k in range(4)]
    and2 = parse_circuit((DATA / "and2.bc").read_text())
    program = compile_barrington(and2, sym(5))
    # a key owner waiting for Bob's result word
    pk5, sk5 = keygen_general(sym(5), 12, random.Random(23))
    alice = CircuitAlice(sk5, pk5, and2, random.Random(29), phi_steps=1, psi_length=1)
    result = CircuitBob(pk5, (1, 1)).evaluation_message(alice.program_message())
    texts = {
        "group": format_group(S3),
        "program": format_program(program),
        "eprog": "EPROG v1 2 1\n" + "".join(f"{k % 3} {w}\n" for k, w in enumerate(words)),
        "gcirc": ("GCIRC v1\nINPUTS y1 y2\nc = CONST (1 2)\nw1 = MUL y1 c\n"
                  "w2 = INV w1\nd = CONST 3\nw3 = MUL w2 d\nOUTPUT w3\n"),
        "circuit": (DATA / "maj3.bc").read_text(),
        "cpk": format_cyclic_pk(cpk), "csk": format_cyclic_sk(csk),
        "gpk": format_general_pk(gpk), "gsk": format_general_sk(gsk),
        "cc": f"{encrypt_cyclic(cpk, 2, rng).value}\n", "gc": words[1] + "\n",
        "owner": words[1] + "\n", "result": result,
    }
    parsers = {
        "group": parse_group,
        "program": parse_program,
        "eprog": lambda t: parse_encrypted_program(t, gpk),
        "gcirc": lambda t: parse_group_circuit(t, S3),
        "circuit": parse_circuit,
        "cpk": parse_cyclic_pk,
        "csk": lambda t: parse_cyclic_sk(t, cpk),
        "gpk": parse_general_pk,
        "gsk": lambda t: parse_general_sk(t, gpk),
        "cc": lambda t: _parse_cyclic_cipher(t, cpk),
        "gc": lambda t: parse_gword(t, gpk.family),
        # the key owner's readers of a received word
        "owner": lambda t: decrypt_general_text(gsk, gpk, t),
        "result": alice.result_message,
    }
    return texts, parsers, tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", ["group", "program", "eprog", "gcirc", "circuit",
                                  "cpk", "csk", "gpk", "gsk", "owner", "result"])
@FUZZ
@given(edits=EDITS)
def test_parser_raises_only_domain_errors(artifacts, name, edits):
    texts, parsers, _ = artifacts
    try:
        parsers[name](mutate(texts[name], edits))
    except Error:
        pass


# a comparable form of the parsed objects that have no value equality
SAME = {"group": format_group, "gpk": format_general_pk}


@pytest.mark.parametrize("name", ["group", "program", "eprog", "gcirc", "circuit",
                                  "cpk", "csk", "gpk", "gsk", "cc", "gc", "owner",
                                  "result"])
def test_comments_and_blank_lines(artifacts, name):
    # the README rule: every artifact text takes '#' comments and blank lines
    texts, parsers, _ = artifacts
    lines = [line + "  # c" for line in texts[name].splitlines()]
    lines.insert(len(lines) // 2, "")
    same = SAME.get(name, lambda x: x)
    parse = parsers[name]
    assert same(parse("\n".join(lines) + "\n")) == same(parse(texts[name]))


COMMANDS = {
    "decrypt-cyclic": ["decrypt", "--sk", "csk", "--pk", "cpk", "--cipher", "cc"],
    "decrypt-general": ["decrypt", "--sk", "gsk", "--pk", "gpk", "--cipher", "gc"],
    "hommul-cyclic": ["hommul", "--pk", "cpk", "cc", "cc"],
    "hommul-general": ["hommul", "--pk", "gpk", "gc", "gc"],
    "simulate": ["simulate", "--program", "program", "--input", "10"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(FUZZ, max_examples=30)
@given(data=st.data(), edits=EDITS)
def test_cli_exits_with_a_code(artifacts, command, data, edits):
    texts, _, tmp = artifacts
    argv = COMMANDS[command]
    files = sorted({a for a in argv if a in texts})
    target = data.draw(st.sampled_from(files))
    for f in files:
        (tmp / f).write_text(mutate(texts[f], edits) if f == target else texts[f])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = run_cli([str(tmp / a) if a in texts else a for a in argv])
    assert rc in (0, 1, 2)


@pytest.mark.parametrize("kind", ["c", "g"], ids=["cyclic", "general"])
@settings(FUZZ, max_examples=30)
@given(edits=EDITS)
def test_cli_decrypts_mutated_word(artifacts, kind, edits):
    # CLI decrypt: valid keys, a mutated ciphertext
    texts, _, tmp = artifacts
    files = {f: tmp / f"owner-{f}" for f in (kind + "pk", kind + "sk", kind + "c")}
    for f, path in files.items():
        path.write_text(mutate(texts[f], edits) if f == kind + "c" else texts[f])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = run_cli(["decrypt", "--sk", str(files[kind + "sk"]),
                      "--pk", str(files[kind + "pk"]), "--cipher", str(files[kind + "c"])])
    assert rc in (0, 1)
