"""repro -- OLIVE: Oblivious and Differentially Private Federated
Learning on a (simulated) Trusted Execution Environment.

Reproduction of Kato, Cao & Yoshikawa (VLDB 2023).  Subpackages:

* :mod:`repro.sgx` -- TEE simulator: traced memory, enclave runtime,
  remote attestation, authenticated encryption, cycle cost model, and
  the side-channel adversary.
* :mod:`repro.oblivious` -- oblivious primitives (o_mov / o_swap),
  Batcher's bitonic sorting network, oblivious shuffle.
* :mod:`repro.oram` -- Path ORAM comparator.
* :mod:`repro.fl` -- FL substrate: numpy models, synthetic datasets,
  clients and sparsification.
* :mod:`repro.dp` -- noise settings, RDP accountant, LDP/shuffle
  baselines.
* :mod:`repro.core` -- the paper's contribution: the Linear / Baseline
  / Advanced / PathORAM aggregators, grouping optimization, DO
  alternative, obliviousness verifier, and the OLIVE system.
* :mod:`repro.attack` -- the sensitive-label inference attack.
* :mod:`repro.obs` -- telemetry: spans, counters, gauges, sinks.

Quickstart::

    from repro.core import OliveConfig, OliveSystem
    from repro.fl import SPECS, SyntheticClassData, build_model, partition_clients

    gen = SyntheticClassData(SPECS["mnist"], seed=0)
    clients = partition_clients(gen, n_clients=40, samples_per_client=40,
                                labels_per_client=2)
    system = OliveSystem(build_model("mnist_mlp"), clients,
                         OliveConfig(aggregator="advanced"))
    system.run(rounds=3)
"""

from . import analysis, attack, core, dp, fl, oblivious, obs, oram, sgx

__version__ = "1.0.0"

__all__ = ["analysis", "attack", "core", "dp", "fl", "oblivious", "obs",
           "oram", "sgx", "__version__"]
