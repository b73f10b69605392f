"""Simulated SGX remote attestation (RA).

Reproduces the protocol-level behaviour of Section 2.2: an enclave
exposes a *measurement* (hash of its initial code/data identity), a
trusted attestation service signs a *quote* over that measurement, and a
client verifies the quote against the expected measurement before
exchanging a shared key.  A failed verification aborts the client's
participation, exactly as Algorithm 1 prescribes.

Key exchange is classic finite-field Diffie-Hellman over a fixed
2048-bit MODP group (RFC 3526 group 14), authenticated on the enclave
side by inclusion of the enclave's public share in the signed quote.
DH secrets lie in ``[1, 2**256)``.  A batch that raises one base to many
secrets (the generator, or the one share every client reads from the
same quote) does so through a :class:`FixedBase` comb table instead of
a full modexp each.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import secrets
from dataclasses import dataclass

# RFC 3526, 2048-bit MODP group 14.
_DH_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
_DH_GENERATOR = 2
#: DH secrets are drawn from ``[1, 2**SECRET_BITS)``; the comb tables
#: cover exactly these exponents.
SECRET_BITS = 256
#: Widest comb window: a window-``w`` table holds ``ceil(256 / w) *
#: (2**w - 1)`` group elements (~7.6 MB at 10).  A wider one would save
#: a client at most ~20 of its ~310 modular multiplies, since the
#: enclave's full modexp per client stays.
_MAX_WINDOW = 10


class AttestationError(Exception):
    """Quote verification failed: wrong measurement or bad signature."""


def measure(code_identity: bytes) -> bytes:
    """Enclave measurement: hash of initial code/data (MRENCLAVE)."""
    return hashlib.sha256(b"mrenclave:" + code_identity).digest()


@dataclass(frozen=True)
class Quote:
    """Signed attestation report binding a measurement to a DH share."""

    measurement: bytes
    dh_public: int
    signature: bytes


class AttestationService:
    """Stand-in for the Intel Attestation Service (trusted third party).

    Holds a signing key; enclaves request quote signatures, clients
    verify them.  HMAC plays the role of the EPID group signature: the
    relevant property (unforgeability relative to the trusted service)
    is preserved.
    """

    def __init__(
        self,
        signing_key: bytes | None = None,
        platform_secret: bytes | None = None,
    ) -> None:
        self._signing_key = signing_key or os.urandom(32)
        # Stand-in for the per-platform root sealing secret the SGX
        # hardware derives sealing keys from: enclaves with the same
        # measurement on the same platform obtain the same sealing key,
        # which is exactly what lets a restarted (or failed-over)
        # enclave unseal a crashed sibling's checkpoint.
        self._platform_secret = platform_secret or os.urandom(32)

    def sealing_key(self, measurement: bytes) -> bytes:
        """MRENCLAVE-policy sealing key for ``measurement``.

        Bound to (platform, measurement) as the SGX ``EGETKEY``
        sealing-key derivation is: a different enclave binary (or a
        different platform) derives a different key and cannot unseal
        state checkpoints.
        """
        return hmac.new(
            self._platform_secret, b"seal:" + measurement, hashlib.sha256
        ).digest()

    def sign_quote(self, measurement: bytes, dh_public: int) -> Quote:
        """Sign an attestation report for an enclave."""
        payload = measurement + dh_public.to_bytes(256, "big")
        sig = hmac.new(self._signing_key, payload, hashlib.sha256).digest()
        return Quote(measurement=measurement, dh_public=dh_public, signature=sig)

    def verify_quote(self, quote: Quote) -> bool:
        """Check a quote's signature against this service's key."""
        payload = quote.measurement + quote.dh_public.to_bytes(256, "big")
        expected = hmac.new(self._signing_key, payload, hashlib.sha256).digest()
        return hmac.compare_digest(expected, quote.signature)


def _check_secret(secret: int) -> None:
    if not 1 <= secret < 1 << SECRET_BITS:
        raise ValueError(
            f"DH secret must lie in [1, 2**{SECRET_BITS}), got {secret!r}")


def comb_window(batch: int) -> int | None:
    """Comb window for ``batch`` powers of one base, or ``None`` for none.

    A window-``w`` table costs ``ceil(256 / w) * (2**w - 1)`` modular
    multiplies to build and ``ceil(256 / w)`` per power, so a table of
    window ``w`` costs ``ceil(256 / w) * (2**w + batch)`` over the batch:
    least at 3 for 12 clients and 7 for 600.  A builtin ``pow`` costs
    about one squaring per exponent bit, so ``batch * 256`` without a
    table; that is cheaper below 4 powers, where ``None`` is returned.
    """
    costs = {w: -(-SECRET_BITS // w) * (2**w + batch)
             for w in range(1, _MAX_WINDOW + 1)}
    costs[None] = batch * SECRET_BITS
    return min(costs, key=costs.__getitem__)


class FixedBase:
    """Fixed-base comb table: powers of one base modulo the group prime.

    Row ``i`` holds ``base**(d * 2**(window * i)) mod p`` for the digits
    ``d = 1 .. 2**window - 1``.  A power is then one multiply per
    non-zero base-``2**window`` digit of the exponent -- at most
    ``ceil(256 / window)`` -- where the builtin ``pow`` spends ~256
    squarings.  Results equal ``pow(base, e, p)`` bit for bit.
    """

    def __init__(self, base: int, window: int) -> None:
        self.base = base
        self.window = window
        self._rows: list[list[int]] = []
        step = base % _DH_PRIME
        for _ in range(-(-SECRET_BITS // window)):
            row = [step]
            for _ in range(2**window - 2):
                row.append(row[-1] * step % _DH_PRIME)
            self._rows.append(row)
            step = row[-1] * step % _DH_PRIME

    def pow(self, exponent: int) -> int:
        """``base**exponent mod p`` for an exponent in ``[1, 2**256)``."""
        _check_secret(exponent)
        mask = (1 << self.window) - 1
        acc = 1
        for row in self._rows:
            digit = exponent & mask
            if digit:
                acc = acc * row[digit - 1] % _DH_PRIME
            exponent >>= self.window
        return acc


def _power(base: int | FixedBase, exponent: int) -> int:
    if isinstance(base, FixedBase):
        return base.pow(exponent)
    return pow(base, exponent, _DH_PRIME)


class DiffieHellman:
    """One party's ephemeral DH state over the fixed MODP group.

    ``secret`` must lie in ``[1, 2**256)``; ``None`` draws one from the
    OS.  ``generator``, a comb table over the group generator, computes
    the public share from the table.
    """

    def __init__(self, secret: int | None = None,
                 generator: FixedBase | None = None) -> None:
        if secret is None:
            secret = 1 + secrets.randbelow((1 << SECRET_BITS) - 1)
        _check_secret(secret)
        if generator is not None and generator.base != _DH_GENERATOR:
            raise ValueError("generator table is not over the group generator")
        self._secret = secret
        self.public = _power(generator or _DH_GENERATOR, secret)

    def shared_key(self, peer_public: int | FixedBase) -> bytes:
        """Derive the session key from the peer's public share.

        ``peer_public`` may be a comb table over the share; the range
        check runs on its base either way.
        """
        peer = (peer_public.base if isinstance(peer_public, FixedBase)
                else peer_public)
        if not 1 < peer < _DH_PRIME - 1:
            raise AttestationError("invalid DH public share")
        shared = _power(peer_public, self._secret)
        return hashlib.sha256(b"ra-kdf:" + shared.to_bytes(256, "big")).digest()


def client_attest(
    service: AttestationService,
    quote: Quote,
    expected_measurement: bytes,
    client_dh: DiffieHellman,
    quote_share: FixedBase | None = None,
) -> bytes:
    """Client side of RA: verify the quote, then derive the session key.

    Raises :class:`AttestationError` when the quote is forged or the
    enclave identity differs from what the client expects -- the client
    must refuse to join FL in that case (Section 3.2).  ``quote_share``,
    a comb table over the quote's DH share, derives the key from the
    table.
    """
    if not service.verify_quote(quote):
        raise AttestationError("quote signature invalid")
    if not hmac.compare_digest(quote.measurement, expected_measurement):
        raise AttestationError("enclave measurement mismatch")
    if quote_share is None:
        return client_dh.shared_key(quote.dh_public)
    if quote_share.base != quote.dh_public:
        raise ValueError("comb table is not over the quote's DH share")
    return client_dh.shared_key(quote_share)
