"""Per-layer tracing of ghcrypt from outside the package.

``Tracer.install`` wraps public functions of the ghcrypt modules.  Because
the modules import each other by name (``from .freeprod import normalize``),
every ``ghcrypt.*`` module attribute that *is* a wrapped function object is
replaced, so calls between modules go through the wrapper too.
``Tracer.uninstall`` puts every original back.  No file of the package
changes.

A *span* wrapper counts calls and records self time: the call's duration
minus the durations of the wrapped calls made inside it.  A *count* wrapper
only counts calls; its cost stays in the self time of the enclosing span.
Hot helpers that are too cheap to time (``FactorFamily.public``,
``is_mth_power``, ``mod_inverse``) are counted only, and
``FiniteGroup.mul`` is not wrapped at all.  Some spans also count letters:
the word length a call consumed, and for ``g_multiply`` the seam merges
(letters in minus letters out).

Statistics go into ``Tracer.table`` (name -> [calls, self_s, letters,
merges]); the caller swaps in a fresh table per phase or per run.  Spans
that start with no traced caller are root spans; they are kept in memory
with the current request id and written out by the caller at the end.
"""

from __future__ import annotations

import sys
import time

SPAN, COUNT = "span", "count"


def _word_pair(args, result):
    letters_in = len(args[0]) + len(args[1])
    return letters_in, letters_in - len(result)


# (module, attribute, kind, letter measure).  A dotted attribute names a
# method; a measure maps (args, result) to (letters, merges).
TARGETS = (
    ("numtheory", "is_probable_prime", COUNT, None),
    ("numtheory", "random_prime_congruent", COUNT, None),
    ("numtheory", "factorize", COUNT, None),
    ("numtheory", "mod_inverse", COUNT, None),
    ("numtheory", "jacobi", SPAN, None),
    ("numtheory", "mth_root_mod_prime", SPAN, None),
    ("numtheory", "mth_roots_of_unity", SPAN, None),
    ("groupcore", "is_solvable", SPAN, None),
    ("groupcore", "parse_group", SPAN, None),
    ("cyclic", "is_mth_power", COUNT, None),
    ("cyclic", "decrypt_cyclic", SPAN, None),
    ("cyclic", "inverse_P_cyclic", SPAN, None),
    ("cyclic", "keygen_cyclic", SPAN, None),
    ("freeprod", "FactorFamily.public", COUNT, None),
    ("freeprod", "g_multiply", SPAN, _word_pair),
    ("freeprod", "normalize", SPAN, lambda a, r: (len(a[1]), 0)),
    ("freeprod", "phi_map", SPAN, lambda a, r: (len(a[0]), 0)),
    ("freeprod", "psi_map", SPAN, lambda a, r: (len(a[0]), 0)),
    ("freeprod", "parse_gword", SPAN, lambda a, r: (len(r), 0)),
    ("freeprod", "format_gword", SPAN, None),
    ("freeprod", "combined_P", SPAN, None),
    ("freeprod", "random_phi_witness", SPAN, None),
    ("general", "keygen_general", SPAN, None),
    ("general", "encrypt_general", SPAN, None),
    ("general", "decrypt_general", SPAN, lambda a, r: (len(a[2]), 0)),
    ("general", "inverse_P_general", SPAN, None),
    ("general", "parse_general_pk", SPAN, None),
    ("general", "parse_general_sk", SPAN, None),
    ("circuit", "parse_circuit", SPAN, None),
    ("barrington", "compile_barrington", SPAN, lambda a, r: (len(r), 0)),
    ("encsim", "encrypt_program", SPAN, None),
    ("encsim", "parse_encrypted_program", SPAN, None),
    ("encsim", "eval_encrypted", SPAN, None),
    ("encsim", "decrypt_output", SPAN, None),
    ("encsim", "CircuitAlice.program_message", SPAN, None),
    ("encsim", "CircuitBob.evaluation_message", SPAN, None),
    ("encsim", "CircuitAlice.result_message", SPAN, None),
)

LAYERS = ("numtheory", "groupcore", "cyclic", "freeprod", "general",
          "circuit", "barrington", "encsim")


def new_table() -> dict[str, list]:
    return {f"{mod}.{attr}": [0, 0.0, 0, 0] for mod, attr, _, _ in TARGETS}


class Tracer:
    def __init__(self):
        self.table = new_table()
        self.request_id = 0
        self.roots: list[tuple[int, str, float, float, float]] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _find_patches(self) -> None:
        """(owner, attribute, original, wrapper) for every place to patch."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ghcrypt" or name.startswith("ghcrypt."))]
        for mod_name, attr, kind, measure in TARGETS:
            name = f"{mod_name}.{attr}"
            module = sys.modules[f"ghcrypt.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original,
                                      self._wrap(original, name, kind, measure)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, kind, measure)
            for m in modules:
                for key, value in vars(m).items():
                    if value is original:
                        self._patches.append((m, key, original, wrapper))

    def install(self) -> None:
        if not self._patches:
            self._find_patches()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def _wrap(self, fn, name: str, kind: str, measure):
        if kind == COUNT:
            def counted(*args, **kwargs):
                self.table[name][0] += 1
                return fn(*args, **kwargs)
            return counted

        stack, clock, roots = self._stack, time.perf_counter, self.roots

        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                entry = self.table[name]
                entry[0] += 1
                entry[1] += own
                if stack:
                    stack[-1][0] += duration
                else:
                    roots.append((self.request_id, name, start, end, own))
            if measure is not None:
                letters, merges = measure(args, result)
                entry[2] += letters
                entry[3] += merges
            return result
        return timed


def merge(total: dict[str, list], table: dict[str, list]) -> None:
    for name, entry in table.items():
        acc = total[name]
        for k in range(4):
            acc[k] += entry[k]


def self_time(table: dict[str, list]) -> float:
    return sum(entry[1] for entry in table.values())


def counts(table: dict[str, list]) -> list:
    """The deterministic part of a table: calls, letters and merges."""
    return [(name, e[0], e[2], e[3]) for name, e in sorted(table.items())]


# Per-layer metrics.  Functions called only while keys are generated are
# reported per set-up, all others per run.  The comment before each group
# names the end-to-end metric it should move, and on which workload.
SETUP_ONLY = ("numtheory.is_probable_prime", "numtheory.random_prime_congruent",
              "cyclic.keygen_cyclic", "general.keygen_general")
_STAT = {"calls": 0, "self_s": 1, "letters": 2, "letters_in": 2,
         "instructions": 2, "merges": 3}
_ROLES = ("CircuitAlice.program_message", "CircuitBob.evaluation_message",
          "CircuitAlice.result_message")
FUNCTION_METRICS = (
    # setup_s
    "numtheory.is_probable_prime.calls", "numtheory.random_prime_congruent.calls",
    "cyclic.keygen_cyclic.self_s", "general.keygen_general.self_s",
    # bob_eval_s and alice_recv_s: letter validation when words are parsed
    "numtheory.jacobi.calls", "numtheory.jacobi.self_s",
    # root_s (cyclic-wide)
    "numtheory.mth_root_mod_prime.self_s", "numtheory.mth_roots_of_unity.calls",
    "numtheory.mth_roots_of_unity.self_s", "numtheory.factorize.calls",
    "cyclic.inverse_P_cyclic.self_s", "general.inverse_P_general.self_s",
    # decrypt_s (cyclic-wide), alice_recv_s (circuit-deep)
    "numtheory.mod_inverse.calls", "cyclic.decrypt_cyclic.calls",
    "cyclic.decrypt_cyclic.self_s", "cyclic.is_mth_power.calls",
    "general.decrypt_general.calls", "general.decrypt_general.self_s",
    "general.decrypt_general.letters",
    "freeprod.phi_map.self_s", "freeprod.phi_map.letters",
    "freeprod.psi_map.self_s", "freeprod.psi_map.letters",
    # alice_send_s (circuit-deep) and encrypt_s
    "groupcore.is_solvable.self_s",
    "barrington.compile_barrington.calls", "barrington.compile_barrington.self_s",
    "barrington.compile_barrington.instructions",
    "general.encrypt_general.calls", "general.encrypt_general.self_s",
    "freeprod.combined_P.self_s", "freeprod.random_phi_witness.self_s",
    # bob_eval_s (circuit-deep)
    "freeprod.g_multiply.calls", "freeprod.g_multiply.self_s",
    "freeprod.g_multiply.letters_in", "freeprod.g_multiply.merges",
    "freeprod.normalize.calls", "freeprod.normalize.self_s",
    "freeprod.normalize.letters_in", "freeprod.FactorFamily.public.calls",
    "freeprod.parse_gword.self_s", "freeprod.parse_gword.letters",
    "freeprod.format_gword.self_s",
    # run_s of circuit-deep (key and circuit load)
    "groupcore.parse_group.self_s", "general.parse_general_pk.self_s",
    "general.parse_general_sk.self_s", "circuit.parse_circuit.self_s",
    # the role metric of the party that calls each
    "encsim.encrypt_program.self_s", "encsim.parse_encrypted_program.self_s",
    "encsim.eval_encrypted.self_s", "encsim.decrypt_output.self_s",
) + tuple(f"encsim.{role}.self_s" for role in _ROLES)
RATIO_METRICS = ("numtheory.candidates_per_prime", "cyclic.cosets_per_decrypt")
SHARE_METRICS = tuple(f"{layer}.share" for layer in LAYERS)
TRACE_METRICS = ("trace.overhead", "trace.unattributed_share", "trace.runs")


def per_layer_spec() -> list[dict]:
    """Name, unit and direction of every per-layer metric."""
    spec = []
    for name in FUNCTION_METRICS:
        unit = "s" if name.endswith(".self_s") else "count"
        spec.append({"name": name, "unit": unit, "better": "lower"})
    for name in RATIO_METRICS + SHARE_METRICS + TRACE_METRICS[:2]:
        spec.append({"name": name, "unit": "ratio", "better": "lower"})
    spec.append({"name": "trace.runs", "unit": "count", "better": "higher"})
    return spec


def layer_values(setup: dict, setups: int, loop: dict, runs: int) -> dict[str, float]:
    """Function and ratio metrics; shares are of the loop's traced self time."""
    values = {}
    for name in FUNCTION_METRICS:
        function, stat = name.rsplit(".", 1)
        table, n = (setup, setups) if function in SETUP_ONLY else (loop, runs)
        values[name] = table[function][_STAT[stat]] / n
    draws = setup["numtheory.is_probable_prime"][0]
    primes = setup["numtheory.random_prime_congruent"][0]
    values["numtheory.candidates_per_prime"] = draws / primes if primes else 0.0
    scans = loop["cyclic.is_mth_power"][0]
    decrypts = loop["cyclic.decrypt_cyclic"][0]
    values["cyclic.cosets_per_decrypt"] = scans / decrypts if decrypts else 0.0
    total = self_time(loop) or 1.0
    for layer in LAYERS:
        own = sum(e[1] for name, e in loop.items() if name.split(".")[0] == layer)
        values[f"{layer}.share"] = own / total
    return values
