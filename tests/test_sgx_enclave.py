"""Tests for the enclave runtime (repro.sgx.enclave)."""

import numpy as np
import pytest

from repro.sgx import crypto
from repro.sgx.attestation import (
    _DH_PRIME,
    AttestationError,
    DiffieHellman,
    Quote,
    client_attest,
    measure,
)
from repro.sgx.enclave import (
    Enclave,
    EnclaveSecurityError,
    KeyStore,
    provision_enclave_with_clients,
)
from tests import oracles


class TestKeyStore:
    def test_put_get(self):
        ks = KeyStore()
        ks.put(1, b"k" * 32)
        assert ks.get(1) == b"k" * 32
        assert 1 in ks
        assert len(ks) == 1

    def test_missing_key_raises(self):
        with pytest.raises(EnclaveSecurityError):
            KeyStore().get(7)


class TestProvisioning:
    def test_ra_establishes_matching_keys(self):
        enclave = Enclave(seed=0)
        keys = provision_enclave_with_clients(enclave, [0, 1, 2])
        assert set(keys) == {0, 1, 2}
        for cid, key in keys.items():
            assert enclave.keystore.get(cid) == key

    def test_manual_ra_flow(self):
        enclave = Enclave(seed=1)
        client_dh = DiffieHellman(secret=424242)
        key = client_attest(
            enclave.attestation_service, enclave.quote(),
            enclave.measurement, client_dh,
        )
        enclave.complete_ra(9, client_dh.public)
        assert enclave.keystore.get(9) == key

    def test_dh_secret_comes_from_the_seed(self):
        # A seeded enclave's DH share is a function of its seed (stream
        # STREAM_DH); an unseeded one draws fresh OS entropy.
        assert Enclave(seed=3)._dh.public == Enclave(seed=3)._dh.public
        assert Enclave(seed=3)._dh.public != Enclave(seed=4)._dh.public
        assert Enclave()._dh.public != Enclave()._dh.public

    def test_measurement_reflects_code_identity(self):
        a = Enclave(code_identity=b"v1", seed=0)
        b = Enclave(code_identity=b"v2", seed=0)
        assert a.measurement != b.measurement


class TestProvisioningAgainstOracle:
    """The comb-table path against the per-client ``pow`` loop."""

    @pytest.mark.parametrize("n", [0, 1, 4, 12, 80])
    def test_keys_bit_identical_to_pow_loop(self, n):
        # 0 and 1 clients take the no-table path, 4 the smallest table.
        ids = [3 * i + 1 for i in range(n)]
        fast, slow = Enclave(seed=5), Enclave(seed=5)
        with oracles.seeded_dh_secrets(n):
            keys = provision_enclave_with_clients(fast, ids)
        with oracles.seeded_dh_secrets(n):
            want = oracles.provision_enclave_with_clients(slow, ids)
        assert keys == want
        assert list(keys) == ids
        assert len(fast.keystore) == len(slow.keystore) == n
        for cid in ids:
            assert fast.keystore.get(cid) == slow.keystore.get(cid)
            assert fast.keystore.get(cid) == keys[cid]

    def _quote_over(self, enclave, measurement, dh_public, signed=True):
        service = enclave.attestation_service
        quote = service.sign_quote(measurement, dh_public)
        if not signed:
            quote = Quote(quote.measurement, quote.dh_public, b"\x11" * 32)
        enclave.quote = lambda: quote

    @pytest.mark.parametrize("n", [1, 12])
    def test_forged_quote_aborts(self, n):
        enclave = Enclave(seed=0)
        self._quote_over(enclave, enclave.measurement, enclave._dh.public,
                         signed=False)
        with pytest.raises(AttestationError, match="signature"):
            provision_enclave_with_clients(enclave, range(n))
        assert len(enclave.keystore) == 0

    @pytest.mark.parametrize("n", [1, 12])
    def test_wrong_measurement_aborts(self, n):
        enclave = Enclave(seed=0)
        self._quote_over(enclave, measure(b"evil"), enclave._dh.public)
        with pytest.raises(AttestationError, match="measurement"):
            provision_enclave_with_clients(enclave, range(n))
        assert len(enclave.keystore) == 0

    @pytest.mark.parametrize("n", [1, 12])
    @pytest.mark.parametrize("share", [1, _DH_PRIME - 1])
    def test_out_of_range_enclave_share_aborts(self, share, n):
        enclave = Enclave(seed=0)
        self._quote_over(enclave, enclave.measurement, share)
        with pytest.raises(AttestationError, match="invalid DH public"):
            provision_enclave_with_clients(enclave, range(n))
        assert len(enclave.keystore) == 0

    @pytest.mark.parametrize("share", [0, 1, _DH_PRIME - 1])
    def test_enclave_range_checks_client_share(self, share):
        enclave = Enclave(seed=0)
        with pytest.raises(AttestationError, match="invalid DH public"):
            enclave.complete_ra(4, share)
        assert 4 not in enclave.keystore

    def test_every_client_runs_every_check(self, monkeypatch):
        # One quote verification, measurement comparison and range
        # check per client, on both sides: tables replace modexps only.
        from repro.sgx import attestation

        calls = {"verify": 0, "compare": 0, "range": 0}
        enclave = Enclave(seed=0)
        service = enclave.attestation_service
        verify = service.verify_quote
        compare = attestation.hmac.compare_digest
        shared_key = DiffieHellman.shared_key

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(service, "verify_quote", counted("verify", verify))
        monkeypatch.setattr(attestation.hmac, "compare_digest",
                            counted("compare", compare))
        monkeypatch.setattr(DiffieHellman, "shared_key",
                            counted("range", shared_key))
        provision_enclave_with_clients(enclave, range(12))
        assert calls == {"verify": 12, "compare": 24, "range": 24}


class TestAllocation:
    def test_alloc_returns_traced_region(self):
        enclave = Enclave(seed=0)
        arr = enclave.alloc(10, itemsize=8)
        arr.read(3)
        assert enclave.trace.offsets_array(arr.name).tolist() == [3]

    def test_alloc_names_unique(self):
        enclave = Enclave(seed=0)
        a = enclave.alloc(4)
        b = enclave.alloc(4)
        assert a.name != b.name

    def test_epc_oversubscription_flag(self):
        enclave = Enclave(seed=0, epc_bytes=1024)
        enclave.alloc(100, itemsize=8)
        assert not enclave.oversubscribed
        enclave.alloc(100, itemsize=8)
        assert enclave.oversubscribed

    def test_reset_trace_clears_state(self):
        enclave = Enclave(seed=0)
        arr = enclave.alloc(4)
        arr.read(0)
        enclave.reset_trace()
        assert len(enclave.trace) == 0
        assert enclave.allocated_bytes == 0


class TestSecureSampling:
    def test_sampling_rate_respected(self):
        enclave = Enclave(seed=0)
        population = list(range(2000))
        sampled = enclave.sample_clients(population, 0.1, 0)
        assert 120 <= len(sampled) <= 280
        assert set(sampled) <= set(population)

    def test_empty_draw_samples_nobody(self):
        # A Poisson draw may be empty; the round then samples nobody
        # (and releases noise only) rather than forcing a participant.
        enclave = Enclave(seed=3)
        draws = [enclave.sample_clients([1, 2], 0.01, r) for r in range(50)]
        assert [] in draws
        assert enclave.sample_clients([], 0.5, 0) == []
        assert enclave.sampled_clients == set()

    @pytest.mark.parametrize("n,rate", [
        (1, 0.05), (2, 0.05), (3, 0.05), (3, 0.5), (12, 0.05), (12, 0.3),
    ])
    def test_inclusion_frequency_matches_rate(self, n, rate):
        # Chi-square over the per-client inclusion counts of T draws:
        # each count is Binomial(T, rate) exactly when every client is
        # included independently with probability ``rate``.
        from scipy.stats import chi2

        draws = 4000
        enclave = Enclave(seed=n * 100 + int(rate * 100))
        counts = np.zeros(n)
        for t in range(draws):
            for cid in enclave.sample_clients(list(range(n)), rate, t):
                counts[cid] += 1
        mean, var = draws * rate, draws * rate * (1 - rate)
        statistic = float(((counts - mean) ** 2 / var).sum())
        assert chi2.sf(statistic, df=n) > 1e-4, counts / draws

    def test_invalid_rate_raises(self):
        enclave = Enclave(seed=0)
        with pytest.raises(ValueError):
            enclave.sample_clients([1], 0.0, 0)
        with pytest.raises(ValueError):
            enclave.sample_clients([1], 1.5, 0)

    def test_deterministic_with_seed(self):
        # Round r's cohort depends on (seed, r) alone: drawing it again
        # (a retry after an abort) repeats it, whatever ran in between.
        population = list(range(100))
        enclave = Enclave(seed=7)
        first = enclave.sample_clients(population, 0.3, 2)
        enclave.sample_clients(population, 0.3, 3)
        enclave.gauss_vector(1.0, 10, 2)
        assert enclave.sample_clients(population, 0.3, 2) == first
        assert Enclave(seed=7).sample_clients(population, 0.3, 2) == first
        assert enclave.sample_clients(population, 0.3, 3) != first
        assert Enclave(seed=8).sample_clients(population, 0.3, 2) != first


class TestGradientLoading:
    def _provisioned(self):
        enclave = Enclave(seed=0)
        keys = provision_enclave_with_clients(enclave, [0, 1, 2])
        enclave.sample_clients([0, 1, 2], 1.0, 0)
        return enclave, keys

    def test_valid_gradient_accepted(self):
        enclave, keys = self._provisioned()
        ct = crypto.seal(keys[1], crypto.encode_sparse_gradient([2, 5], [1.0, -1.0]))
        idx, val = oracles.load_upload(enclave, 1, ct, 8)
        assert idx.dtype == np.int64 and val.dtype == np.float64
        assert idx.tolist() == [2, 5]
        assert val.tolist() == [1.0, -1.0]

    def test_unsampled_client_rejected(self):
        enclave = Enclave(seed=0)
        keys = provision_enclave_with_clients(enclave, [0, 1])
        enclave._sampled = {0}
        ct = crypto.seal(keys[1], crypto.encode_sparse_gradient([1], [1.0]))
        with pytest.raises(EnclaveSecurityError, match="not securely sampled"):
            oracles.load_upload(enclave, 1, ct, 8)

    def test_wrong_key_rejected(self):
        enclave, keys = self._provisioned()
        attacker_key = crypto.generate_key(b"attacker")
        ct = crypto.seal(attacker_key, crypto.encode_sparse_gradient([1], [1.0]))
        with pytest.raises(EnclaveSecurityError, match="authentication"):
            oracles.load_upload(enclave, 1, ct, 8)

    def test_replay_under_other_client_id_rejected(self):
        # Ciphertext from client 1 replayed as client 2's contribution.
        enclave, keys = self._provisioned()
        ct = crypto.seal(keys[1], crypto.encode_sparse_gradient([1], [1.0]))
        with pytest.raises(EnclaveSecurityError):
            oracles.load_upload(enclave, 2, ct, 8)

    def test_tampered_ciphertext_rejected(self):
        enclave, keys = self._provisioned()
        ct = crypto.seal(keys[0], crypto.encode_sparse_gradient([1], [1.0]))
        forged = crypto.Ciphertext(
            ct.nonce, bytes([ct.body[0] ^ 0xFF]) + ct.body[1:], ct.tag
        )
        with pytest.raises(EnclaveSecurityError):
            oracles.load_upload(enclave, 0, forged, 8)

    @pytest.mark.parametrize("quantize_bits", [None, 8])
    def test_malformed_payload_rejected_before_acceptance(
            self, quantize_bits):
        enclave, keys = self._provisioned()

        def encode(idx):
            if quantize_bits is None:
                return crypto.encode_sparse_gradient(idx, [1.0] * len(idx))
            return crypto.encode_quantized_gradient(idx, [1] * len(idx), 0.5)

        for raw in (encode([1, 2])[:-1], encode([1, 8]), b"\x00"):
            with pytest.raises(EnclaveSecurityError,
                               match="malformed") as e:
                oracles.load_upload(enclave, 0, crypto.seal(keys[0], raw), 8,
                                      quantize_bits)
            assert e.value.reason == "malformed"
        # None of them was recorded: the client may still contribute.
        idx, _ = oracles.load_upload(enclave, 
            0, crypto.seal(keys[0], encode([1, 7])), 8, quantize_bits)
        assert idx.tolist() == [1, 7]


class TestEnclaveNoise:
    def test_gauss_vector_statistics(self):
        enclave = Enclave(seed=0)
        samples = enclave.gauss_vector(2.0, 4000, 0)
        assert samples.shape == (4000,) and samples.dtype == np.float64
        assert abs(samples.mean()) < 0.2
        assert abs(samples.std() - 2.0) < 0.2

    def test_gauss_deterministic_with_seed(self):
        from repro.runtime import STREAM_NOISE, derive_rng

        a = Enclave(seed=5).gauss_vector(2.5, 32, 9)
        b = Enclave(seed=5).gauss_vector(2.5, 32, 9)
        want = derive_rng(5, STREAM_NOISE, 9).standard_normal(32) * 2.5
        assert a.tobytes() == b.tobytes() == want.tobytes()

    def test_distinct_rounds_draw_distinct_noise(self):
        enclave = Enclave(seed=5)
        draws = {enclave.gauss_vector(1.0, 64, r).tobytes()
                 for r in range(20)}
        assert len(draws) == 20
        # Re-drawing a round (an aborted round run again) repeats it.
        assert enclave.gauss_vector(1.0, 64, 7).tobytes() in draws
        assert (Enclave(seed=6).gauss_vector(1.0, 64, 7).tobytes()
                not in draws)

