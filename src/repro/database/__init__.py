"""The OODB substrate: database states, query evaluation, materialized views."""

from .cacheserver import DecisionCacheServer, RemoteDecisionCache, cache_namespace
from .commit import CommitScheduler, CommitTicket, DurabilityError
from .failover import (
    FailoverCoordinator,
    FencedOut,
    FencingToken,
    Promotion,
)
from .faults import (
    CircuitBreaker,
    DegradedServing,
    FaultPolicy,
    StalenessError,
    network_fault_policy,
)
from .lattice import LatticeMatchStats, LatticeNode, ViewLattice
from .maintenance import (
    AsyncMaintainer,
    DurableMaintainer,
    MaintenanceQueue,
    MaintenanceStatistics,
    RecoveryReport,
    RelevanceIndex,
)
from .query_eval import EvaluationStatistics, QueryEvaluator
from .replica import (
    ReplicaConnectionError,
    ReplicaProtocolError,
    ReplicaServer,
    SnapshotReplica,
)
from .store import (
    AttributeRemoved,
    AttributeSet,
    DatabaseState,
    Delta,
    EpochRecord,
    IntegrityViolation,
    MembershipAsserted,
    MembershipRetracted,
    ObjectAdded,
    ObjectRemoved,
    StateSnapshot,
)
from .views import MaterializedView, ViewCatalog
from .wal import WalError, WriteAheadLog

__all__ = [
    "DatabaseState",
    "StateSnapshot",
    "IntegrityViolation",
    "QueryEvaluator",
    "EvaluationStatistics",
    "MaterializedView",
    "ViewCatalog",
    "ViewLattice",
    "LatticeNode",
    "LatticeMatchStats",
    "MaintenanceQueue",
    "AsyncMaintainer",
    "DurableMaintainer",
    "MaintenanceStatistics",
    "RecoveryReport",
    "RelevanceIndex",
    "CommitScheduler",
    "CommitTicket",
    "DurabilityError",
    "FaultPolicy",
    "CircuitBreaker",
    "DegradedServing",
    "StalenessError",
    "network_fault_policy",
    "FailoverCoordinator",
    "FencingToken",
    "FencedOut",
    "Promotion",
    "WriteAheadLog",
    "WalError",
    "EpochRecord",
    "Delta",
    "ObjectAdded",
    "ObjectRemoved",
    "MembershipAsserted",
    "MembershipRetracted",
    "AttributeSet",
    "AttributeRemoved",
    "DecisionCacheServer",
    "RemoteDecisionCache",
    "cache_namespace",
    "ReplicaServer",
    "SnapshotReplica",
    "ReplicaProtocolError",
    "ReplicaConnectionError",
]
