//! Golden-output pin for the sparse RFH epoch engine.
//!
//! One fixed-seed run at 10⁴ partitions under the CI chaos plan (seeded
//! churn, a datacenter outage and recovery, a WAN partition and heal)
//! plus an early server join into datacenter 5, whose id lands above
//! every server of datacenters 6–9 and which ends up holding replicas of
//! about a hundred partitions. Every per-epoch snapshot and the final
//! replica placement are folded into one FNV-1a hash and compared to a
//! recorded constant.
//!
//! The differential harnesses (`parallel_equiv.rs`, the CI `cmp`
//! smokes) compare engines against each other, so a change that moves
//! every engine the same way passes them. This pin catches that: the
//! constant is the output of the code as it stood when it was recorded.
//! Update [`GOLDEN`] only when a change alters simulation behaviour on
//! purpose, and say so in the change description.

use rfh_core::PolicyKind;
use rfh_faults::FaultPlan;
use rfh_sim::{EpochSnapshot, SimParams, Simulation};
use rfh_types::{DatacenterId, PartitionId, RackId, RoomId, SimConfig};
use rfh_workload::{ClusterEvent, EventSchedule, Scenario};

/// The hash recorded for this run. Change only on an intended
/// behaviour change.
const GOLDEN: u64 = 0xaba5_980b_d75c_d45c;

/// The fault plan of the CI "Chaos smoke" step.
const CHAOS_TOML: &str = "\
seed = 7

[churn]
mtbf = 400
mttr = 20

[[at]]
epoch = 20
fail_dc = 3

[[at]]
epoch = 40
recover_dc = 3

[[at]]
epoch = 25
partition = [7, 8]

[[at]]
epoch = 45
heal_partition = true
";

/// 64-bit FNV-1a, written out so the pin does not depend on the
/// standard library's unspecified `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn snapshot(&mut self, s: &EpochSnapshot) {
        for v in [
            s.utilization,
            s.replication_cost,
            s.migration_cost,
            s.load_imbalance,
            s.path_length,
            s.served,
            s.unserved,
            s.latency_ms,
            s.sla_fraction,
        ] {
            self.f64(v);
        }
        for n in [
            s.replicas_total,
            s.replications,
            s.migrations,
            s.suicides,
            s.alive_servers,
            s.data_loss,
            s.repairs,
            s.dead_letters,
            s.invariant_violations,
        ] {
            self.u64(n as u64);
        }
    }
}

#[test]
fn sparse_rfh_run_matches_the_recorded_golden_hash() {
    let mut events = EventSchedule::new();
    events.add(
        10,
        ClusterEvent::JoinServer {
            datacenter: DatacenterId::new(5),
            room: RoomId::new(0),
            rack: RackId::new(0),
        },
    );
    let params = SimParams {
        config: SimConfig { partitions: 10_000, ..SimConfig::default() },
        scenario: Scenario::RandomEven,
        policy: PolicyKind::Rfh,
        epochs: 60,
        seed: 5,
        events,
        faults: FaultPlan::from_toml_str(CHAOS_TOML).expect("the CI chaos plan parses"),
        threads: 1,
    };
    let partitions = params.config.partitions;
    let epochs = params.epochs;
    let mut sim = Simulation::new(params).expect("params are valid");
    let mut h = Fnv::new();
    while sim.epoch() < epochs {
        let snap = sim.step().expect("epoch steps");
        h.snapshot(&snap);
    }
    let servers = sim.topology().server_count();
    assert!(servers > 100, "the join must have added a server");
    for p in 0..partitions {
        let replicas = sim.manager().replicas(PartitionId::new(p));
        h.u64(replicas.len() as u64);
        for s in replicas {
            h.u64(u64::from(s.0));
        }
    }
    assert_eq!(h.0, GOLDEN, "golden hash moved: got {:#018x}", h.0);
}
