"""Simulated Intel SGX substrate: traced memory, enclave runtime,
remote attestation, authenticated encryption, cycle cost model, and the
side-channel adversary view."""

from .attestation import (
    AttestationError,
    AttestationService,
    DiffieHellman,
    Quote,
    client_attest,
    measure,
)
from .cost import (
    CostModel,
    CostParameters,
    CostReport,
    EpcPager,
    ReplayStats,
)
from .crypto import (
    AuthenticationError,
    Ciphertext,
    decode_sparse_gradient,
    encode_sparse_gradient,
    generate_key,
    open_sealed,
    seal,
)
from .enclave import (
    Enclave,
    EnclaveSecurityError,
    KeyStore,
    provision_enclave_with_clients,
)
from .memory import (
    CACHELINE_BYTES,
    RegionLayout,
    Trace,
    TracedArray,
)
from .observer import CACHELINE, WORD, coarsen

__all__ = [
    "AttestationError",
    "AttestationService",
    "AuthenticationError",
    "CACHELINE",
    "CACHELINE_BYTES",
    "Ciphertext",
    "CostModel",
    "CostParameters",
    "CostReport",
    "DiffieHellman",
    "Enclave",
    "EnclaveSecurityError",
    "EpcPager",
    "KeyStore",
    "Quote",
    "RegionLayout",
    "ReplayStats",
    "Trace",
    "TracedArray",
    "WORD",
    "client_attest",
    "coarsen",
    "decode_sparse_gradient",
    "encode_sparse_gradient",
    "generate_key",
    "measure",
    "open_sealed",
    "provision_enclave_with_clients",
    "seal",
]
