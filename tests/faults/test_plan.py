"""Unit tests for the FaultPlan DSL: building, ordering, validation, describe()."""

import json

import pytest

from repro.errors import ConfigError
from repro.faults import (
    FaultPlan,
    GatewayDown,
    LinkPartition,
    GilbertElliottChannel,
    NodeCrash,
    describe_event,
)


def sample_plan() -> FaultPlan:
    return (
        FaultPlan()
        .crash(20.0, 2)
        .restart(35.0, 2)
        .partition(10.0, [0, 1], [3, 4], name="split")
        .heal(15.0, "split")
        .gateway_down(50.0, 4, graceful=False)
        .gateway_up(60.0, 4)
    )


class TestBuilder:
    def test_chaining_collects_all_events(self):
        assert len(sample_plan()) == 6

    def test_events_fire_in_time_order(self):
        times = [event.at for event in sample_plan().events]
        assert times == sorted(times)

    def test_ties_break_by_insertion_order(self):
        plan = FaultPlan().crash(5.0, 1).restart(5.0, 1).crash(5.0, 2)
        kinds = [(event.kind, getattr(event, "node", None)) for event in plan.events]
        assert kinds == [("node_crash", 1), ("node_restart", 1), ("node_crash", 2)]

    def test_partition_gets_auto_name(self):
        plan = FaultPlan().partition(1.0, [0], [1])
        (event,) = plan.events
        assert isinstance(event, LinkPartition) and event.name

    def test_with_channel_rides_along(self):
        channel = GilbertElliottChannel(p_gb=0.02, p_bg=0.5)
        plan = FaultPlan().with_channel(channel)
        assert plan.channel is channel


class TestValidate:
    def test_accepts_well_formed_plan(self):
        sample_plan().validate(n_nodes=5)

    def test_rejects_negative_time(self):
        with pytest.raises(ConfigError):
            FaultPlan().crash(-1.0, 0).validate(n_nodes=3)

    @pytest.mark.parametrize("index", [-1, 3])
    def test_rejects_node_out_of_range(self, index):
        with pytest.raises(ConfigError, match="node"):
            FaultPlan().crash(1.0, index).validate(n_nodes=3)

    def test_rejects_partition_group_member_out_of_range(self):
        with pytest.raises(ConfigError):
            FaultPlan().partition(1.0, [0], [7]).validate(n_nodes=3)

    def test_rejects_overlapping_partition_groups(self):
        with pytest.raises(ConfigError, match="overlap"):
            FaultPlan().partition(1.0, [0, 1], [1, 2]).validate(n_nodes=3)

    def test_rejects_heal_of_unknown_partition(self):
        with pytest.raises(ConfigError, match="unknown partition"):
            FaultPlan().heal(2.0, "nope").validate(n_nodes=3)

    def test_heal_must_not_precede_its_partition(self):
        # events are validated in firing order, so a heal scheduled before
        # the partition it names is an unknown reference at that point.
        plan = FaultPlan().partition(10.0, [0], [1], name="p").heal(5.0, "p")
        with pytest.raises(ConfigError, match="unknown partition"):
            plan.validate(n_nodes=2)


class TestDescribe:
    def test_jsonl_is_stable_and_sorted(self):
        first = sample_plan().describe()
        second = sample_plan().describe()
        assert first == second
        for line in first.splitlines():
            pairs = json.loads(line, object_pairs_hook=list)
            keys = [key for key, _ in pairs]
            assert keys == sorted(keys)

    def test_describe_event_canonical_fields(self):
        event = describe_event(NodeCrash(at=3.0, node=1))
        assert event == {"kind": "node_crash", "at": 3.0, "node": 1}
        partition = describe_event(
            LinkPartition(at=1.0, group_a=(0,), group_b=(1,), name="p")
        )
        assert partition["group_a"] == [0] and partition["group_b"] == [1]

    def test_graceful_flag_round_trips(self):
        event = describe_event(GatewayDown(at=1.0, node=0, graceful=True))
        assert event["graceful"] is True
