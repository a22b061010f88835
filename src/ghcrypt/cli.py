"""Command-line interface.

Subcommands: keygen, encrypt, decrypt, hommul, compile, simulate,
protocol (circuit|input), attack factor.  Randomized commands require an
explicit --seed so repeated runs produce byte-identical artifacts.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .errors import Error, FormatError, ints, records
from . import groupcore
from . import cyclic
from . import general
from . import circuit as circuit_mod
from . import barrington
from . import encsim
from .freeprod import format_gword, parse_gword
from .general import GeneralCiphertext

__all__ = ["main", "run_cli"]


def _read(path: str) -> str:
    """The UTF-8 text of a file, or Error naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise Error(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise Error(f"cannot read {path}: not UTF-8 text") from None


def _write(path: str | Path, text: str) -> None:
    """Write a file as UTF-8, or Error naming the path."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise Error(f"cannot write {path}: {exc.strerror}") from None


def _load_group(spec: str) -> groupcore.FiniteGroup:
    G = groupcore.builtin_group(spec)
    if G is not None:
        return G
    if not Path(spec).exists():
        raise Error(f"unknown group spec {spec!r} (not builtin, not a file)")
    return groupcore.parse_group(_read(spec), name="custom")


def _sniff_pk(path: str):
    """Load a public key file of either kind."""
    text = _read(path)
    lines = records(text)
    head = " ".join(lines[0].split()) if lines else ""
    if head == "GHC-CYCLIC-PK v1":
        return "cyclic", cyclic.parse_cyclic_pk(text)
    if head == "GHC-GENERAL-PK v1":
        return "general", general.parse_general_pk(text)
    raise FormatError(f"unrecognized key header {head!r}")


def _load_sk(path: str, kind: str, pk):
    text = _read(path)
    if kind == "cyclic":
        return cyclic.parse_cyclic_sk(text, pk)
    return general.parse_general_sk(text, pk)


def _parse_plain(kind: str, pk, label: str):
    if kind == "cyclic":
        try:
            value = int(label)
        except ValueError:
            raise Error(f"cyclic plaintexts are integers 0..{pk.m - 1}") from None
        if not 0 <= value < pk.m:
            raise Error(f"plaintext {value} not in 0..{pk.m - 1}")
        return value
    group = pk.group
    try:
        return group.element_by_label(label)
    except ValueError:
        pass
    try:
        return group.element(int(label))
    except (ValueError, IndexError):
        raise Error(f"unknown element {label!r} of {group.name}") from None


def _cmd_keygen(args) -> int:
    if not 1 <= args.bits <= 512:
        raise Error(f"--bits must be in 1..512, got {args.bits}")
    rng = random.Random(args.seed)
    group_spec = args.group
    G = _load_group(group_spec)
    cyclic_spec = groupcore.builtin_group(group_spec) is not None and group_spec.startswith("z")
    if cyclic_spec:
        pk, sk = cyclic.keygen_cyclic(G.order, args.bits, rng)
        pk_text, sk_text = cyclic.format_cyclic_pk(pk), cyclic.format_cyclic_sk(sk)
    else:
        pk, sk = general.keygen_general(G, args.bits, rng)
        pk_text, sk_text = general.format_general_pk(pk), general.format_general_sk(sk)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise Error(f"cannot create directory {out}: {exc.strerror}") from None
    _write(out / "pk.txt", pk_text)
    _write(out / "sk.txt", sk_text)
    if args.verbose:
        print(f"wrote {out / 'pk.txt'} and {out / 'sk.txt'}", file=sys.stderr)
    return 0


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _cmd_encrypt(args) -> int:
    rng = random.Random(args.seed)
    kind, pk = _sniff_pk(args.pk)
    plain = _parse_plain(kind, pk, args.plain)
    if kind == "cyclic":
        c = cyclic.encrypt_cyclic(pk, plain, rng)
        _write_or_print(f"{c.value}\n", args.out)
    else:
        c = general.encrypt_general(pk, plain, rng)
        _write_or_print(format_gword(c.word) + "\n", args.out)
    return 0


def _parse_cyclic_cipher(text: str, pk) -> cyclic.CyclicCiphertext:
    """One decimal line holding an element of G(n, m) in 1..n-1."""
    tokens = " ".join(records(text)).split()
    if len(tokens) != 1:
        raise FormatError("cyclic ciphertext files hold one decimal line")
    (value,) = ints(tokens, "cyclic ciphertext")
    if not cyclic.in_group_G(pk, value):
        raise FormatError(f"ciphertext {value} is not in G(n, m) within 1..n-1")
    return cyclic.CyclicCiphertext(value)


def _cmd_decrypt(args) -> int:
    kind, pk = _sniff_pk(args.pk)
    sk = _load_sk(args.sk, kind, pk)
    text = _read(args.cipher)
    if kind == "cyclic":
        print(cyclic.decrypt_cyclic(sk, pk, _parse_cyclic_cipher(text, pk)))
    else:
        print(general.decrypt_general_text(sk, pk, text).label)
    return 0


def _cmd_hommul(args) -> int:
    kind, pk = _sniff_pk(args.pk)
    t1, t2 = _read(args.cipher1), _read(args.cipher2)
    if kind == "cyclic":
        c = cyclic.mult_ciphertexts(pk, _parse_cyclic_cipher(t1, pk),
                                    _parse_cyclic_cipher(t2, pk))
        _write_or_print(f"{c.value}\n", args.out)
    else:
        product = general.mult_ciphertexts_general(
            pk, GeneralCiphertext(parse_gword(t1, pk.family)),
            GeneralCiphertext(parse_gword(t2, pk.family)))
        _write_or_print(format_gword(product.word) + "\n", args.out)
    return 0


def _cmd_compile(args) -> int:
    C = circuit_mod.parse_circuit(_read(args.circuit))
    G = _load_group(args.group)
    program = barrington.compile_barrington(C, G)
    _write_or_print(barrington.format_program(program), args.out)
    return 0


def _parse_bits(text: str, expected: int) -> tuple[int, ...]:
    bits = tuple(int(ch) for ch in text if ch in "01")
    if len(bits) != len(text.replace(",", "").replace(" ", "")) or len(bits) != expected:
        raise Error(f"input must be {expected} bits of 0/1, got {text!r}")
    return bits


def _cmd_simulate(args) -> int:
    program = barrington.parse_program(_read(args.program))
    bits = _parse_bits(args.input, program.input_count)
    result = barrington.eval_program(program, bits)
    print(encsim._output_bit(result, program.group.element(program.target)))
    return 0


def _cmd_protocol(args) -> int:
    kind, pk = _sniff_pk(args.pk)
    if kind != "general":
        raise Error("protocols need a general (group) key")
    sk = _load_sk(args.sk, kind, pk)
    if args.mode == "circuit":
        if not args.circuit or args.input is None:
            raise Error("protocol circuit needs --circuit and --input")
        C = circuit_mod.parse_circuit(_read(args.circuit))
        bits = _parse_bits(args.input, C.input_count)
        alice = encsim.CircuitAlice(sk, pk, C, random.Random(f"{args.seed}:alice"),
                                    phi_steps=args.phi_steps,
                                    psi_length=args.psi_length)
        bob = encsim.CircuitBob(pk, bits)
        bit, transcript = encsim.protocol_encrypted_circuit(alice, bob)
        if args.transcript:
            _write(args.transcript, encsim.format_transcript(transcript))
        print(bit)
        return 0
    if not args.gcircuit or args.inputs is None:
        raise Error("protocol input needs --gcircuit and --inputs")
    circ = encsim.parse_group_circuit(_read(args.gcircuit), pk.group)
    labels = [t.strip() for t in args.inputs.split(",")] if args.inputs else []
    if len(labels) != circ.input_count:
        raise Error(f"circuit needs {circ.input_count} inputs, got {len(labels)}")
    elements = [_parse_plain("general", pk, lab) for lab in labels]
    alice = encsim.InputAlice(sk, pk, elements, random.Random(f"{args.seed}:alice"),
                              phi_steps=args.phi_steps, psi_length=args.psi_length)
    bob = encsim.InputBob(pk, circ, random.Random(f"{args.seed}:bob"),
                          phi_steps=args.phi_steps, psi_length=args.psi_length)
    element, transcript = encsim.protocol_encrypted_input(alice, bob)
    if args.transcript:
        _write(args.transcript, encsim.format_transcript(transcript))
    print(element.label)
    return 0


def _cmd_attack(args) -> int:
    if args.target != "factor":
        raise Error(f"unknown attack {args.target!r}")
    kind, pk = _sniff_pk(args.pk)
    if kind != "cyclic":
        raise Error("the factoring attack runs on cyclic keys")
    sk = _load_sk(args.sk, kind, pk)
    rng = random.Random(args.seed)
    oracle_rng = random.Random(f"{args.seed}:oracle")

    # the secret key is used only to answer inversion-oracle queries
    def oracle(value: int) -> int | None:
        return cyclic.inverse_P_cyclic(sk, pk, value, oracle_rng)

    p, q = cyclic.factor_via_inverse_oracle(pk, oracle, rng)
    lo, hi = sorted((p, q))
    print(f"{lo} {hi}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghcrypt",
        description="Homomorphic cryptosystems over finite groups")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key pair")
    kg.add_argument("--group", required=True,
                    help="builtin z<m>/sym<k> or a group table file")
    kg.add_argument("--bits", type=int, required=True, help="prime size N")
    kg.add_argument("--seed", required=True)
    kg.add_argument("--out", required=True, help="output directory")
    kg.set_defaults(func=_cmd_keygen)

    enc = sub.add_parser("encrypt", help="encrypt one plaintext element")
    enc.add_argument("--pk", required=True)
    enc.add_argument("--plain", required=True)
    enc.add_argument("--seed", required=True)
    enc.add_argument("--out")
    enc.set_defaults(func=_cmd_encrypt)

    dec = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    dec.add_argument("--sk", required=True)
    dec.add_argument("--pk", required=True)
    dec.add_argument("--cipher", required=True)
    dec.set_defaults(func=_cmd_decrypt)

    hm = sub.add_parser("hommul", help="multiply two ciphertexts")
    hm.add_argument("--pk", required=True)
    hm.add_argument("cipher1")
    hm.add_argument("cipher2")
    hm.add_argument("--out")
    hm.set_defaults(func=_cmd_hommul)

    cp = sub.add_parser("compile", help="compile a boolean circuit to a group program")
    cp.add_argument("--circuit", required=True)
    cp.add_argument("--group", default="sym5")
    cp.add_argument("--out")
    cp.set_defaults(func=_cmd_compile)

    sim = sub.add_parser("simulate", help="evaluate a group program on bits")
    sim.add_argument("--program", required=True)
    sim.add_argument("--input", required=True)
    sim.set_defaults(func=_cmd_simulate)

    prot = sub.add_parser("protocol", help="run a two-party protocol in-process")
    prot.add_argument("mode", choices=["circuit", "input"])
    prot.add_argument("--pk", required=True)
    prot.add_argument("--sk", required=True)
    prot.add_argument("--seed", required=True)
    prot.add_argument("--circuit", help="boolean circuit file (mode=circuit)")
    prot.add_argument("--input", help="assignment bits (mode=circuit)")
    prot.add_argument("--gcircuit", help="group circuit file (mode=input)")
    prot.add_argument("--inputs", help="comma-separated element labels (mode=input)")
    prot.add_argument("--transcript", help="write the transcript here")
    prot.add_argument("--phi-steps", type=int, default=None)
    prot.add_argument("--psi-length", type=int, default=None)
    prot.set_defaults(func=_cmd_protocol)

    atk = sub.add_parser("attack", help="run the factoring reduction demo")
    atk.add_argument("target", choices=["factor"])
    atk.add_argument("--pk", required=True)
    atk.add_argument("--sk", required=True,
                     help="used only to answer the inversion-oracle queries")
    atk.add_argument("--seed", required=True)
    atk.set_defaults(func=_cmd_attack)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
