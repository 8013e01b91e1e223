"""Federated-learning simulation runtime.

The runtime separates the *protocol loop* (:mod:`repro.fl.trainer`) from
the *algorithm* (:mod:`repro.algorithms`): the trainer owns client
sampling, the round structure, evaluation and bookkeeping; an algorithm
plugs in its local-update and aggregation rules plus any extra
synchronization phases (rFedAvg+ uses one).

Beyond the synchronous loop the package provides the surrounding
systems a deployment needs: byte-exact communication accounting
(:mod:`repro.fl.comm`), a packed flat-buffer wire format
(:mod:`repro.fl.wire`), parallel client execution with
serial-equivalence guarantees (:mod:`repro.fl.parallel`), upload
compression (:mod:`repro.fl.compression`), failure injection
(:mod:`repro.fl.faults`), adaptive client selection (:mod:`repro.fl.selection`), event-driven
asynchronous execution with buffered staleness-aware aggregation
(:mod:`repro.fl.async_engine` behind ``FLConfig(execution="async")``,
with per-client latency models in :mod:`repro.fl.runtime`),
region-parallel hierarchical aggregation (:mod:`repro.fl.hierarchy`
behind ``FLConfig(topology="hier:R:P")``), and multi-process serving
over real sockets (:mod:`repro.serve` behind
``FLConfig(execution="serve")``).
"""

from repro.fl.config import (
    EXECUTION_MODES,
    EXECUTOR_MODES,
    FLConfig,
    OPTIMIZERS,
    RUNTIME_KINDS,
    validate_choice,
)
from repro.fl.comm import CommLedger, vector_bytes
from repro.fl.parallel import (
    ClientExecutor,
    ClientUpdate,
    SerialExecutor,
    make_executor,
)
from repro.fl.wire import (
    FrameAssembler,
    frame,
    pack,
    pack_client_update,
    pack_state,
    unpack,
    unpack_state,
)
from repro.fl.metrics import RoundRecord, History
from repro.fl.sampling import sample_clients
from repro.fl.client import evaluate_model, local_sgd_steps
from repro.fl.server import weighted_average
from repro.fl.trainer import run_federated
from repro.fl.compression import CompressionPipeline, WireSize, compressor_from_spec
from repro.fl.faults import FaultModel
from repro.fl.async_engine import AsyncHistory, AsyncUpdateRecord
from repro.fl.runtime import (
    ClientRuntime,
    GaussianRuntime,
    InstantRuntime,
    TraceRuntime,
    make_runtime,
)
from repro.fl.hierarchy import RegionSet
from repro.fl.selection import (
    ClientSelector,
    SelectionContext,
    UniformSelector,
    PowerOfChoiceSelector,
)


__all__ = [
    "FLConfig",
    "CommLedger",
    "vector_bytes",
    "ClientExecutor",
    "ClientUpdate",
    "SerialExecutor",
    "make_executor",
    "pack",
    "unpack",
    "frame",
    "FrameAssembler",
    "pack_state",
    "unpack_state",
    "pack_client_update",
    "RoundRecord",
    "History",
    "sample_clients",
    "evaluate_model",
    "local_sgd_steps",
    "weighted_average",
    "run_federated",
    "CompressionPipeline",
    "WireSize",
    "compressor_from_spec",
    "FaultModel",
    "ClientSelector",
    "SelectionContext",
    "UniformSelector",
    "PowerOfChoiceSelector",
    "EXECUTION_MODES",
    "EXECUTOR_MODES",
    "OPTIMIZERS",
    "RUNTIME_KINDS",
    "validate_choice",
    "ClientRuntime",
    "InstantRuntime",
    "GaussianRuntime",
    "TraceRuntime",
    "make_runtime",
    "AsyncHistory",
    "AsyncUpdateRecord",
    "RegionSet",
]
