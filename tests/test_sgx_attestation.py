"""Tests for simulated remote attestation (repro.sgx.attestation)."""

import functools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sgx.attestation import (
    _DH_GENERATOR,
    _DH_PRIME,
    _MAX_WINDOW,
    SECRET_BITS,
    AttestationError,
    AttestationService,
    DiffieHellman,
    FixedBase,
    Quote,
    client_attest,
    comb_window,
    measure,
)

#: Every window the batch-size rule can pick.
WINDOWS = range(1, _MAX_WINDOW + 1)
#: A second fixed base besides the generator: an enclave's DH share.
SHARE = pow(_DH_GENERATOR, 999888777, _DH_PRIME)


@functools.lru_cache(maxsize=None)
def _table(base, window):
    return FixedBase(base, window)


class TestMeasurement:
    def test_deterministic(self):
        assert measure(b"code") == measure(b"code")

    def test_distinguishes_code(self):
        assert measure(b"code-v1") != measure(b"code-v2")

    def test_length(self):
        assert len(measure(b"anything")) == 32


class TestQuotes:
    def test_sign_and_verify(self):
        service = AttestationService(signing_key=b"k" * 32)
        quote = service.sign_quote(measure(b"enclave"), dh_public=12345)
        assert service.verify_quote(quote)

    def test_forged_signature_rejected(self):
        service = AttestationService(signing_key=b"k" * 32)
        quote = service.sign_quote(measure(b"enclave"), dh_public=12345)
        forged = Quote(quote.measurement, quote.dh_public, b"\x00" * 32)
        assert not service.verify_quote(forged)

    def test_altered_measurement_rejected(self):
        service = AttestationService(signing_key=b"k" * 32)
        quote = service.sign_quote(measure(b"enclave"), dh_public=12345)
        forged = Quote(measure(b"evil"), quote.dh_public, quote.signature)
        assert not service.verify_quote(forged)

    def test_altered_dh_share_rejected(self):
        service = AttestationService(signing_key=b"k" * 32)
        quote = service.sign_quote(measure(b"enclave"), dh_public=12345)
        forged = Quote(quote.measurement, 54321, quote.signature)
        assert not service.verify_quote(forged)

    def test_different_services_do_not_cross_verify(self):
        s1 = AttestationService(signing_key=b"a" * 32)
        s2 = AttestationService(signing_key=b"b" * 32)
        quote = s1.sign_quote(measure(b"enclave"), dh_public=1)
        assert not s2.verify_quote(quote)


class TestDiffieHellman:
    def test_key_agreement(self):
        alice = DiffieHellman(secret=1234567)
        bob = DiffieHellman(secret=7654321)
        assert alice.shared_key(bob.public) == bob.shared_key(alice.public)

    def test_different_peers_different_keys(self):
        alice = DiffieHellman(secret=1234567)
        bob = DiffieHellman(secret=7654321)
        carol = DiffieHellman(secret=1111111)
        assert alice.shared_key(bob.public) != alice.shared_key(carol.public)

    def test_invalid_public_share_rejected(self):
        alice = DiffieHellman(secret=1234567)
        with pytest.raises(AttestationError):
            alice.shared_key(0)
        with pytest.raises(AttestationError):
            alice.shared_key(1)

    def test_shared_key_length(self):
        alice = DiffieHellman(secret=1234567)
        bob = DiffieHellman(secret=7654321)
        assert len(alice.shared_key(bob.public)) == 32

    @pytest.mark.parametrize("secret", [0, 2**SECRET_BITS, -1])
    def test_out_of_range_secret_rejected(self, secret):
        # 0 used to be swapped silently for OS randomness, which made a
        # seeded party non-replayable.
        with pytest.raises(ValueError, match="DH secret"):
            DiffieHellman(secret=secret)

    @pytest.mark.parametrize("secret", [1, 2**SECRET_BITS - 1])
    def test_edge_secrets_accepted(self, secret):
        dh = DiffieHellman(secret=secret)
        assert dh.public == pow(_DH_GENERATOR, secret, _DH_PRIME)

    def test_default_secret_is_fresh(self):
        assert DiffieHellman().public != DiffieHellman().public


class TestFixedBase:
    @settings(max_examples=60, deadline=None)
    @given(window=st.sampled_from(WINDOWS),
           base=st.sampled_from([_DH_GENERATOR, SHARE]),
           exponent=st.integers(1, 2**SECRET_BITS - 1))
    @example(window=1, base=_DH_GENERATOR, exponent=1)
    @example(window=_MAX_WINDOW, base=SHARE, exponent=2**SECRET_BITS - 1)
    @example(window=7, base=SHARE, exponent=1)
    @example(window=3, base=_DH_GENERATOR, exponent=2**SECRET_BITS - 1)
    def test_power_equals_builtin_pow(self, window, base, exponent):
        assert (_table(base, window).pow(exponent)
                == pow(base, exponent, _DH_PRIME))

    @pytest.mark.parametrize("window", WINDOWS)
    def test_every_window_at_both_ends(self, window):
        table = _table(SHARE, window)
        for exponent in (1, 2**SECRET_BITS - 1):
            assert table.pow(exponent) == pow(SHARE, exponent, _DH_PRIME)

    @pytest.mark.parametrize("exponent", [0, 2**SECRET_BITS])
    def test_exponent_outside_table_rejected(self, exponent):
        with pytest.raises(ValueError, match="DH secret"):
            _table(_DH_GENERATOR, 4).pow(exponent)

    def test_window_rule(self):
        # The window minimises ceil(256 / w) * (2**w + n) table and
        # power multiplies over the batch, against ~256 per builtin pow
        # without a table (None).
        def cost(w, n):
            if w is None:
                return n * SECRET_BITS
            return math.ceil(SECRET_BITS / w) * (2**w + n)

        assert comb_window(12) == 3
        assert comb_window(600) == 7
        assert [comb_window(n) for n in range(5)] == [None] * 4 + [2]
        for n in (0, 1, 2, 3, 4, 12, 80, 200, 600, 2000):
            w = comb_window(n)
            assert all(cost(w, n) <= cost(v, n) for v in [*WINDOWS, None])

    def test_rule_picks_only_tested_windows(self):
        chosen = {comb_window(n) for n in range(0, 200_001, 97)}
        assert chosen <= {*WINDOWS, None}
        assert comb_window(10**9) == _MAX_WINDOW

    def test_tabled_key_agreement_matches_builtin(self):
        alice = DiffieHellman(secret=1234567,
                              generator=_table(_DH_GENERATOR, 5))
        bob = DiffieHellman(secret=7654321)
        assert alice.public == DiffieHellman(secret=1234567).public
        assert (alice.shared_key(_table(bob.public, 2))
                == alice.shared_key(bob.public)
                == bob.shared_key(alice.public))

    def test_table_over_wrong_base_rejected(self):
        with pytest.raises(ValueError, match="generator"):
            DiffieHellman(secret=5, generator=_table(SHARE, 2))

    @pytest.mark.parametrize("share", [0, 1, _DH_PRIME - 1])
    def test_tabled_share_is_range_checked(self, share):
        alice = DiffieHellman(secret=1234567)
        with pytest.raises(AttestationError, match="invalid DH public"):
            alice.shared_key(FixedBase(share, 1))


class TestClientAttest:
    def _setup(self):
        service = AttestationService()
        enclave_dh = DiffieHellman(secret=999888777)
        m = measure(b"olive-enclave")
        quote = service.sign_quote(m, enclave_dh.public)
        return service, enclave_dh, m, quote

    def test_happy_path_agrees_with_enclave(self):
        service, enclave_dh, m, quote = self._setup()
        client_dh = DiffieHellman(secret=123123)
        key = client_attest(service, quote, m, client_dh)
        assert key == enclave_dh.shared_key(client_dh.public)

    def test_wrong_measurement_aborts(self):
        service, _, _, quote = self._setup()
        with pytest.raises(AttestationError):
            client_attest(service, quote, measure(b"other"), DiffieHellman())

    def test_forged_quote_aborts(self):
        service, _, m, quote = self._setup()
        forged = Quote(quote.measurement, quote.dh_public, b"\x11" * 32)
        with pytest.raises(AttestationError):
            client_attest(service, forged, m, DiffieHellman())

    def test_quote_table_must_match_the_quote(self):
        service, _, m, quote = self._setup()
        with pytest.raises(ValueError, match="quote's DH share"):
            client_attest(service, quote, m, DiffieHellman(secret=3),
                          _table(SHARE + 1, 2))

    def test_tabled_attest_equals_builtin(self):
        service, enclave_dh, m, quote = self._setup()
        client_dh = DiffieHellman(secret=123123)
        tabled = client_attest(service, quote, m, client_dh,
                               _table(quote.dh_public, 3))
        assert tabled == client_attest(service, quote, m, client_dh)
        assert tabled == enclave_dh.shared_key(client_dh.public)
