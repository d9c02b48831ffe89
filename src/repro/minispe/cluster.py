"""Simulated cluster: nodes, slots, and a deployment-cost model.

The paper runs 4- and 8-node clusters (16-core Xeon E5620, 48 GB each).
We cannot reproduce the hardware, so the cluster is simulated along the
two axes the experiments depend on:

* **Capacity** — a node offers one task slot per core.  Deploying a
  topology occupies one slot per operator instance; a query-at-a-time
  engine that deploys a fresh pipeline per query exhausts slots, which is
  one of the two failure modes the paper observes for Flink under ad-hoc
  workloads ("throws an exception", §4.4).
* **Deployment latency** — physically deploying operators to cluster
  nodes is time-consuming (§4.5, Figure 10): the *first* deployment pays a
  large cold-start cost, and every topology restart pays a stop + start
  cost that scales with the number of instances.  These costs are charged
  in *virtual* time by the driver, which is what produces the unbounded
  queueing delay of the baseline in Figure 10a.

Multi-node *throughput* is not modelled here: the harness runner scales
measured single-process rates by √(nodes/4) itself (see
:func:`repro.harness.runner.run_scenario`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a cluster (defaults match the paper's nodes)."""

    nodes: int = 4
    cores_per_node: int = 16
    memory_gb_per_node: int = 48

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ValueError(f"cluster needs at least one node, got {self.nodes}")
        if self.cores_per_node <= 0:
            raise ValueError(
                f"nodes need at least one core, got {self.cores_per_node}"
            )

    @property
    def slots(self) -> int:
        """Task slots available across the cluster (one per core)."""
        return self.nodes * self.cores_per_node


@dataclass
class DeploymentCostModel:
    """Virtual-time costs (ms) for topology deployment operations.

    Calibrated against Figure 10: the first AStream deployment takes about
    7 s (cold start — operators physically placed on nodes); baseline
    topology restarts take a few seconds each, so at one query per second
    the request queue grows without bound.
    """

    cold_start_ms: int = 5_000
    job_submit_ms: int = 1_500
    job_stop_ms: int = 1_000
    per_instance_ms: int = 25
    changelog_apply_ms: int = 5
    recovery_restart_ms: int = 2_000
    """Fixed cost of a supervised recovery: failure detection fencing,
    checkpoint fetch, and topology restart (Flink's full-restart
    strategy, which the paper's substrate uses)."""
    state_restore_per_instance_ms: int = 10
    """Per-instance cost of re-loading snapshotted state on recovery."""

    def cold_deploy_ms(self, instances: int, nodes: int) -> int:
        """First deployment of a topology with ``instances`` instances."""
        return (
            self.cold_start_ms
            + self.job_submit_ms
            + self._placement_ms(instances, nodes)
        )

    def redeploy_ms(self, instances: int, nodes: int) -> int:
        """Stop the running topology and start a new one (baseline path)."""
        return (
            self.job_stop_ms
            + self.job_submit_ms
            + self._placement_ms(instances, nodes)
        )

    def recovery_ms(self, instances: int, nodes: int) -> int:
        """Supervised recovery of a failed topology on ``nodes`` survivors.

        Covers restart + re-placement on the remaining healthy nodes and
        per-instance state restoration from the latest checkpoint.  This
        is the deployment portion of MTTR; replay of the source-log
        suffix is charged separately by the supervisor.
        """
        return (
            self.recovery_restart_ms
            + self._placement_ms(instances, nodes)
            + self.state_restore_per_instance_ms
            * -(-instances // max(1, nodes))
        )

    def changelog_ms(self, query_changes: int) -> int:
        """Apply a changelog with ``query_changes`` creations/deletions.

        AStream creates and deletes queries on-the-fly without touching
        the running topology (§4.5), so the cost is per-change metadata
        propagation, not deployment.
        """
        return self.changelog_apply_ms * max(1, query_changes)

    def _placement_ms(self, instances: int, nodes: int) -> int:
        # Nodes place instances in parallel; round up.
        per_node = -(-instances // max(1, nodes))
        return self.per_instance_ms * per_node


class SimulatedCluster:
    """Slot accounting plus the deployment-cost model for one cluster."""

    def __init__(
        self,
        spec: ClusterSpec = ClusterSpec(),
        cost_model: Optional[DeploymentCostModel] = None,
    ) -> None:
        self.spec = spec
        self.cost_model = cost_model or DeploymentCostModel()
        self._allocations: Dict[str, int] = {}
        self._failed_nodes: set = set()

    # -- node health (fault injection) -------------------------------------

    @property
    def healthy_nodes(self) -> int:
        """Nodes currently alive."""
        return self.spec.nodes - len(self._failed_nodes)

    @property
    def failed_nodes(self) -> FrozenSet[int]:
        """Indices of nodes currently down."""
        return frozenset(self._failed_nodes)

    def fail_node(self, node: int) -> bool:
        """Take one node down, reclaiming its task slots from capacity.

        Deployed topologies keep their allocations (their instances are
        re-placed on the survivors during supervised recovery), so
        ``free_slots`` can go negative while the cluster is degraded.
        Returns False when the node was already down.
        """
        self._check_node_index(node)
        if node in self._failed_nodes:
            return False
        self._failed_nodes.add(node)
        return True

    def restore_node(self, node: int) -> bool:
        """Bring a failed node back; its slots rejoin the capacity pool.

        Returns False when the node was not down.
        """
        self._check_node_index(node)
        if node not in self._failed_nodes:
            return False
        self._failed_nodes.discard(node)
        return True

    def recovery_cost_ms(self, instances: int) -> int:
        """Deployment cost of recovering ``instances`` on the survivors."""
        return self.cost_model.recovery_ms(instances, max(1, self.healthy_nodes))

    def _check_node_index(self, node: int) -> None:
        if not 0 <= node < self.spec.nodes:
            raise ValueError(
                f"node index {node} out of range for a "
                f"{self.spec.nodes}-node cluster"
            )

    # -- capacity ----------------------------------------------------------

    @property
    def total_slots(self) -> int:
        """Slots offered by the currently healthy nodes."""
        return self.healthy_nodes * self.spec.cores_per_node

    @property
    def used_slots(self) -> int:
        """Slots currently occupied by deployed topologies."""
        return sum(self._allocations.values())

    @property
    def free_slots(self) -> int:
        """Slots still available (negative while degraded by failures)."""
        return self.total_slots - self.used_slots

    def allocate(self, job_name: str, instances: int) -> None:
        """Occupy ``instances`` slots for ``job_name``.

        Raises :class:`ClusterCapacityError` when the cluster is full —
        the failure mode the query-at-a-time baseline hits under ad-hoc
        workloads.
        """
        if job_name in self._allocations:
            raise ValueError(f"job {job_name!r} is already deployed")
        if instances > self.free_slots:
            raise ClusterCapacityError(
                f"job {job_name!r} needs {instances} slots but only "
                f"{self.free_slots} of {self.total_slots} are free"
            )
        self._allocations[job_name] = instances

    def release(self, job_name: str) -> None:
        """Free the slots held by ``job_name`` (no-op if unknown)."""
        self._allocations.pop(job_name, None)

    def deployed_jobs(self) -> Dict[str, int]:
        """Job name → slot count for everything currently deployed."""
        return dict(self._allocations)

    # -- scheduling --------------------------------------------------------

    def parallelism_for(self, max_parallelism: Optional[int] = None) -> int:
        """Operator parallelism the scheduler would pick on this cluster.

        One instance per node keeps the in-process simulation cheap while
        preserving hash-partitioned multi-instance semantics; callers can
        cap it.
        """
        parallelism = self.spec.nodes
        if max_parallelism is not None:
            parallelism = min(parallelism, max_parallelism)
        return max(1, parallelism)


class ClusterCapacityError(RuntimeError):
    """Raised when a topology cannot be placed (no free slots)."""
