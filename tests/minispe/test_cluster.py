"""Tests for the simulated cluster and deployment cost models."""

import pytest

from repro.minispe.cluster import (
    ClusterCapacityError,
    ClusterSpec,
    DeploymentCostModel,
    SimulatedCluster,
)


class TestClusterSpec:
    def test_paper_defaults(self):
        spec = ClusterSpec()
        assert spec.nodes == 4
        assert spec.cores_per_node == 16
        assert spec.slots == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(cores_per_node=0)


class TestSlotAccounting:
    def test_allocate_release(self):
        cluster = SimulatedCluster(ClusterSpec(nodes=1, cores_per_node=4))
        cluster.allocate("job1", 3)
        assert cluster.used_slots == 3
        assert cluster.free_slots == 1
        cluster.release("job1")
        assert cluster.free_slots == 4

    def test_capacity_error(self):
        cluster = SimulatedCluster(ClusterSpec(nodes=1, cores_per_node=4))
        with pytest.raises(ClusterCapacityError):
            cluster.allocate("big", 5)

    def test_duplicate_allocation_rejected(self):
        cluster = SimulatedCluster(ClusterSpec(nodes=1, cores_per_node=4))
        cluster.allocate("job", 1)
        with pytest.raises(ValueError):
            cluster.allocate("job", 1)

    def test_release_unknown_is_noop(self):
        SimulatedCluster().release("ghost")

    def test_deployed_jobs(self):
        cluster = SimulatedCluster()
        cluster.allocate("a", 2)
        assert cluster.deployed_jobs() == {"a": 2}


class TestPerformanceModel:
    def test_parallelism_for(self):
        cluster = SimulatedCluster(ClusterSpec(nodes=8))
        assert cluster.parallelism_for() == 8
        assert cluster.parallelism_for(max_parallelism=4) == 4


class TestClusterModes:
    def test_process_mode_keeps_slot_accounting(self):
        # The process backend's coordinator books its instances on a
        # plain cluster too: capacity and release behave the same.
        cluster = SimulatedCluster(ClusterSpec(nodes=1, cores_per_node=4))
        cluster.allocate("job", 3)
        assert cluster.free_slots == 1
        with pytest.raises(ClusterCapacityError):
            cluster.allocate("big", 2)
        cluster.release("job")
        assert cluster.free_slots == 4


class TestDeploymentCostModel:
    def test_cold_deploy_exceeds_redeploy(self):
        model = DeploymentCostModel()
        assert model.cold_deploy_ms(16, 4) > model.redeploy_ms(16, 4)

    def test_placement_parallel_across_nodes(self):
        model = DeploymentCostModel(per_instance_ms=10)
        one_node = model.redeploy_ms(8, 1)
        four_nodes = model.redeploy_ms(8, 4)
        assert one_node > four_nodes

    def test_changelog_cost_scales_with_changes(self):
        model = DeploymentCostModel(changelog_apply_ms=5)
        assert model.changelog_ms(1) == 5
        assert model.changelog_ms(10) == 50
        assert model.changelog_ms(0) == 5  # floor: applying is never free


class TestNodeFaults:
    def test_fail_and_restore_adjust_capacity(self):
        cluster = SimulatedCluster(ClusterSpec(nodes=4))
        assert cluster.fail_node(2)
        assert cluster.healthy_nodes == 3
        assert cluster.failed_nodes == frozenset({2})
        assert cluster.total_slots == 3 * cluster.spec.cores_per_node
        assert cluster.restore_node(2)
        assert cluster.healthy_nodes == 4
        assert cluster.failed_nodes == frozenset()

    def test_repeat_fail_and_restore_are_noops(self):
        cluster = SimulatedCluster(ClusterSpec(nodes=2))
        assert cluster.fail_node(0)
        assert not cluster.fail_node(0)  # already down
        assert cluster.restore_node(0)
        assert not cluster.restore_node(0)  # already up

    def test_node_index_validated(self):
        cluster = SimulatedCluster(ClusterSpec(nodes=2))
        with pytest.raises(ValueError, match="out of range"):
            cluster.fail_node(2)
        with pytest.raises(ValueError, match="out of range"):
            cluster.restore_node(-1)

    def test_allocations_survive_failures_free_slots_go_negative(self):
        cluster = SimulatedCluster(ClusterSpec(nodes=2, cores_per_node=4))
        cluster.allocate("job", 6)
        assert cluster.free_slots == 2
        cluster.fail_node(1)
        # Deployed instances keep their slots while degraded.
        assert cluster.used_slots == 6
        assert cluster.free_slots == -2
        cluster.restore_node(1)
        assert cluster.free_slots == 2

    def test_recovery_cost_grows_as_survivors_shrink(self):
        cluster = SimulatedCluster(ClusterSpec(nodes=4))
        full = cluster.recovery_cost_ms(8)
        cluster.fail_node(0)
        cluster.fail_node(1)
        degraded = cluster.recovery_cost_ms(8)
        assert degraded >= full  # fewer nodes to parallelise placement
        assert full > 0
