"""Ablation benchmarks for Spider's design choices (beyond the paper's
figures): global flow control ``z``, the IRMC implementation used for the
full system, and the execution checkpoint interval ``k_e``.

These quantify Spider's own design knobs rather than reproducing a
specific paper figure.
"""

from repro.core import SpiderConfig
from repro.deploy import build
from repro.experiments.common import RunScale, fresh_env, spider_spec
from repro.experiments.figures import measure_latency


def _spider(sim, network, config: SpiderConfig):
    """The paper's deployment under ``config``, as its one shard."""
    return build(sim, spider_spec(config=config), network=network).system


def _spider_latency(config: SpiderConfig, partition_region=None, seed=1):
    sim, network = fresh_env(seed=seed)
    system = _spider(sim, network, config)
    if partition_region is not None:
        sim.schedule(0.0, network.partition, {partition_region})
    summaries = measure_latency(
        sim, system.make_client, ["virginia"], RunScale.quick(), kinds=["write"]
    )
    return summaries["virginia"]


class TestGlobalFlowControlZ:
    """Section 3.5: with z=1 a dead execution group cannot stall writes."""

    def test_z1_tolerates_unreachable_group(self):
        summary = _spider_latency(SpiderConfig(z=1), partition_region="tokyo")
        print(f"\nz=1 with Tokyo partitioned: {summary}")
        assert summary.count > 3
        assert summary.p50 < 30.0  # Virginia writes unaffected

    def test_z0_stalls_once_commit_window_fills(self):
        # Demonstrates the stall that z exists to avoid: with z=0 the
        # agreement group waits for all groups, so a partitioned group
        # eventually blocks everyone.
        sim, network = fresh_env(seed=2)
        config = SpiderConfig(z=0, commit_capacity=16, ke=8, ka=8, ag_window=16)
        system = _spider(sim, network, config)
        sim.schedule(0.0, network.partition, {"tokyo"})
        client = system.make_client("c", "virginia", group_id="virginia")
        completed = []

        def issue(index=0):
            if index >= 40:
                return
            client.write(("put", f"k{index}", index)).add_callback(
                lambda _: (completed.append(index), issue(index + 1))
            )

        issue()
        sim.run(until=120_000.0)
        print(f"\nz=0 with Tokyo partitioned: {len(completed)}/40 writes completed")
        assert len(completed) < 40


class TestSystemLevelIrmcChoice:
    """RC vs SC as the system's channel: latency is nearly identical (the
    extra LAN share round is cheap); WAN volume differs substantially."""

    def test_rc_vs_sc_full_system(self):
        outcome = {}
        for kind in ("rc", "sc"):
            sim, network = fresh_env(seed=3)
            system = _spider(sim, network, SpiderConfig(irmc_kind=kind))
            summaries = measure_latency(
                sim,
                system.make_client,
                ["virginia", "tokyo"],
                RunScale.quick(),
                kinds=["write"],
            )
            outcome[kind] = {
                "latency": summaries["tokyo"].p50,
                "wan_bytes": network.wan.bytes,
            }
        print(f"\nrc vs sc: {outcome}")
        assert abs(outcome["rc"]["latency"] - outcome["sc"]["latency"]) < 40.0
        assert outcome["sc"]["wan_bytes"] < outcome["rc"]["wan_bytes"]


class TestCheckpointIntervalKe:
    """Smaller k_e means more frequent checkpoints: more overhead messages
    but a shorter commit-channel window requirement."""

    def test_ke_sweep(self):
        outcome = {}
        for ke in (4, 32):
            sim, network = fresh_env(seed=4)
            config = SpiderConfig(ke=ke, ka=max(4, ke), ag_window=64)
            system = _spider(sim, network, config)
            summaries = measure_latency(
                sim,
                system.make_client,
                ["virginia"],
                RunScale.quick(),
                kinds=["write"],
            )
            checkpoints = sum(
                replica.cp.stable_count
                for group in system.groups.values()
                for replica in group.replicas
            )
            outcome[ke] = {
                "p50": summaries["virginia"].p50,
                "stable_checkpoints": checkpoints,
            }
        print(f"\nke sweep: {outcome}")
        # Checkpointing more often produces more stable checkpoints without
        # hurting client latency (it is off the critical path).
        assert outcome[4]["stable_checkpoints"] > outcome[32]["stable_checkpoints"]
        assert abs(outcome[4]["p50"] - outcome[32]["p50"]) < 15.0
