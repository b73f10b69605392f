"""Remote-attestation set-up: comb-table provisioning vs the pow loop.

Times Algorithm 1's set-up -- RA and a DH key exchange with every
client -- two ways on the same client secrets:

* **production** -- ``repro.sgx.enclave.provision_enclave_with_clients``:
  one fixed-base comb table for the generator and one for the quote's DH
  share, so a client's public share and session key are one table
  multiply per window digit; the enclave's ``pow(share_i, b, p)`` stays
  a full modexp per client;
* **oracle** -- the per-client loop it replaced, kept in
  ``tests/oracles.py``: three builtin ``pow`` modexps per client.

Before any number is reported the two are asserted identical: every
client key and every sealed enclave key, bit for bit.

Set ``ATTEST_BENCH_QUICK=1`` for the CI run (200 clients, with the
speedup floor also enforced by the regression gate); the full run adds
the round benchmark's 600-client ``xdevice`` population, the 80-client
``oram`` one, the 12-client ``wide`` one and two batches on either side
of the smallest that gets tables (4 clients).
"""

import os
import time

from repro.sgx.attestation import comb_window
from repro.sgx.enclave import Enclave, provision_enclave_with_clients
from tests import oracles

from .common import print_table, save_results

QUICK = bool(os.environ.get("ATTEST_BENCH_QUICK"))

#: Client counts: the CI point first, then (full mode) the round
#: benchmark's populations.
POPULATIONS = (200,) if QUICK else (200, 600, 80, 12, 4, 1)
REPS = 2
SEED = 0
MIN_RA_SPEEDUP = 1.5


def _provision(fn, n):
    """One provisioning call on a fresh enclave: (seconds, keys, enclave).

    Client secrets come from the seeded source, so both paths give their
    clients the same secrets.
    """
    enclave = Enclave(seed=SEED)
    with oracles.seeded_dh_secrets(SEED):
        t0 = time.perf_counter()
        keys = fn(enclave, range(n))
        seconds = time.perf_counter() - t0
    return seconds, keys, enclave


def test_ra_provisioning_speedup():
    series = []
    for n in POPULATIONS:
        prod_s = oracle_s = float("inf")
        for _ in range(REPS):
            t, keys, enclave = _provision(provision_enclave_with_clients, n)
            prod_s = min(prod_s, t)
            t, want, ref = _provision(oracles.provision_enclave_with_clients,
                                      n)
            oracle_s = min(oracle_s, t)
            assert keys == want, "client keys diverged from the pow loop"
            assert all(enclave.keystore.get(c) == ref.keystore.get(c)
                       for c in range(n)), "enclave keys diverged"
        series.append({
            "clients": n, "window": comb_window(n),
            "seconds": prod_s, "oracle_seconds": oracle_s,
            "ms_per_client": 1e3 * prod_s / n,
            "oracle_ms_per_client": 1e3 * oracle_s / n,
            "speedup": oracle_s / prod_s,
        })

    print_table(
        f"RA provisioning: comb tables vs per-client pow (best of {REPS})",
        ["clients", "window", "pow loop s", "comb s", "pow ms/client",
         "comb ms/client", "speedup"],
        [[r["clients"], r["window"] or "-", f"{r['oracle_seconds']:.3f}",
          f"{r['seconds']:.3f}", f"{r['oracle_ms_per_client']:.2f}",
          f"{r['ms_per_client']:.2f}", f"{r['speedup']:.2f}x"]
         for r in series],
    )

    head = series[0]
    save_results("attestation", {
        "workload": {"quick": QUICK, "seed": SEED,
                     "speedup_baseline": "per-client pow loop "
                                         "(tests/oracles.py)"},
        "series": series,
        "ra_speedup": head["speedup"],
    })

    # The floor is also enforced by the CI regression gate on the
    # saved payload (min_ra_speedup).
    assert head["speedup"] >= MIN_RA_SPEEDUP
