"""Federated optimization algorithms.

Baselines: FedAvg, FedProx, SCAFFOLD, q-FedAvg (the paper's comparison
set).  Contributions: rFedAvg (Alg. 1), rFedAvg+ (Alg. 2), plus the
exact-regularizer reference variant used in the ablation.
"""

from repro.algorithms.base import FederatedAlgorithm, RoundStats
from repro.algorithms.fedavg import FedAvg
from repro.algorithms.fedprox import FedProx
from repro.algorithms.moon import Moon
from repro.algorithms.scaffold import Scaffold
from repro.algorithms.qfedavg import QFedAvg
from repro.algorithms.rfedavg import RFedAvg
from repro.algorithms.rfedavg_plus import RFedAvgPlus
from repro.algorithms.rfedavg_exact import RFedAvgExact
from repro.algorithms.personalized import PersonalizationResult, personalize

ALGORITHMS = {
    "fedavg": FedAvg,
    "fedprox": FedProx,
    "moon": Moon,
    "scaffold": Scaffold,
    "qfedavg": QFedAvg,
    "rfedavg": RFedAvg,
    "rfedavg+": RFedAvgPlus,
    "rfedavg_exact": RFedAvgExact,
}


def make_algorithm(name: str, **kwargs) -> FederatedAlgorithm:
    """Instantiate an algorithm by registry name."""
    key = name.lower()
    if key not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}")
    return ALGORITHMS[key](**kwargs)


__all__ = [
    "FederatedAlgorithm",
    "RoundStats",
    "FedAvg",
    "FedProx",
    "Moon",
    "Scaffold",
    "QFedAvg",
    "RFedAvg",
    "RFedAvgPlus",
    "RFedAvgExact",
    "PersonalizationResult",
    "personalize",
    "ALGORITHMS",
    "make_algorithm",
]
