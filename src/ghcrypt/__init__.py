"""Homomorphic public-key cryptosystems over finite groups.

Cyclic plaintext groups use a power-residue system modulo n = p*q; general
plaintext groups use normal-form words over a free product of such residue
groups.  On top of the cryptosystems sit a boolean-circuit compiler into
group programs over an unsolvable group (Barrington's construction) and
two runnable two-party protocols for evaluating encrypted computations.
"""

from .errors import Error, FormatError
from .groupcore import (
    FiniteGroup,
    GroupElement,
    builtin_group,
    cyclic_group,
    sym,
)
from .cyclic import (
    CyclicCiphertext,
    CyclicPublicKey,
    CyclicSecretKey,
    decrypt_cyclic,
    encrypt_cyclic,
    factor_via_inverse_oracle,
    inverse_P_cyclic,
    keygen_cyclic,
    mult_ciphertexts,
)
from .general import (
    GeneralCiphertext,
    GeneralPublicKey,
    GeneralSecretKey,
    decrypt_general,
    decrypt_general_text,
    encrypt_general,
    inverse_P_general,
    keygen_general,
    mult_ciphertexts_general,
)
from .circuit import Circuit, eval_circuit, parse_circuit
from .barrington import GroupProgram, compile_barrington, eval_program
from .encsim import (
    EncryptedProgram,
    encrypt_program,
    eval_encrypted,
    protocol_encrypted_circuit,
    protocol_encrypted_input,
)

__version__ = "0.1.0"

__all__ = [
    "Error",
    "FormatError",
    "FiniteGroup",
    "GroupElement",
    "builtin_group",
    "cyclic_group",
    "sym",
    "CyclicCiphertext",
    "CyclicPublicKey",
    "CyclicSecretKey",
    "keygen_cyclic",
    "encrypt_cyclic",
    "decrypt_cyclic",
    "mult_ciphertexts",
    "inverse_P_cyclic",
    "factor_via_inverse_oracle",
    "GeneralCiphertext",
    "GeneralPublicKey",
    "GeneralSecretKey",
    "keygen_general",
    "encrypt_general",
    "decrypt_general",
    "decrypt_general_text",
    "mult_ciphertexts_general",
    "inverse_P_general",
    "Circuit",
    "parse_circuit",
    "eval_circuit",
    "GroupProgram",
    "compile_barrington",
    "eval_program",
    "EncryptedProgram",
    "encrypt_program",
    "eval_encrypted",
    "protocol_encrypted_circuit",
    "protocol_encrypted_input",
    "__version__",
]
