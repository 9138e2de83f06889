//! Regression tests for measurement defects the benchmark must not
//! inherit, and for the claim each workload's description makes.

mod common;

use kvcsd_perfbench::cost::{Costs, Gauges, ShardGauges};
use kvcsd_perfbench::meter::{Meter, Metric};
use kvcsd_perfbench::mixed::cluster_config;
use kvcsd_perfbench::run::{run_round, Workload};
use kvcsd_perfbench::stack::Stack;
use kvcsd_perfbench::trace::Layer;
use kvcsd_sim::IoLedger;

fn device_gauges(l: &IoLedger) -> Gauges {
    Gauges {
        host: l.snapshot(),
        shared_ledger: true,
        shards: vec![ShardGauges {
            ledger: l.snapshot(),
            ..ShardGauges::default()
        }],
        ..Gauges::default()
    }
}

fn value(ms: &[Metric], name: &str) -> f64 {
    ms.iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

/// A delta of the busiest channel's cumulative time would charge this op
/// nothing: its page read lands on a channel that is not the busiest.
#[test]
fn op_on_a_quiet_channel_pays_its_nand_time() {
    let l = IoLedger::new(4, 4096);
    l.nand_program(0, 100, 1_000_000);
    let before = device_gauges(&l);
    l.nand_read(3, 1, 25_000);
    let w = device_gauges(&l).since(&before);
    assert_eq!(w.max_channel_busy_ns(), 25_000);
    assert!(Costs::default().lone_op_ns(&w) >= 25_000);
}

/// A GET routed to one shard never passes the router's fan-out clock;
/// it must still be charged that shard's device time.
#[test]
fn routed_single_shard_get_pays_its_shard_time() {
    let stack = Stack::cluster(cluster_config(), false, None);
    let ks = stack.client.create_keyspace("g").expect("create");
    for i in 0..64u32 {
        ks.put(format!("key{i:04}").as_bytes(), &[i as u8; 40])
            .expect("put");
    }
    let job = ks.compact().expect("compact");
    stack.run_jobs();
    assert!(job.poll().expect("poll").is_terminal());

    let mut meter = Meter::new(&stack);
    let before = stack.gauges();
    let (got, cost) = meter.lone("get", || ks.get(b"key0007"));
    assert_eq!(got.expect("get"), vec![7u8; 40]);
    let w = stack.gauges().since(&before);
    let touched: Vec<&ShardGauges> = w
        .shards
        .iter()
        .filter(|s| s.ledger.soc_cpu_ns > 0)
        .collect();
    assert_eq!(touched.len(), 1, "a point GET touches one shard");
    let shard = &touched[0].ledger;
    assert!(shard.nand_read_pages > 0);
    let device = shard.soc_cpu_ns + shard.max_channel_busy_ns();
    assert!(
        cost >= stack.costs.pcie_ns(&w) + device,
        "GET charged {cost} ns, its shard alone took {device} ns"
    );
}

/// Accelerated ingest is one streaming phase per timestep: reported as
/// pairs per virtual second, never as per-bulk latency samples.
#[test]
fn accelerated_ingest_is_reported_as_throughput() {
    let p = common::tiny();
    let r = run_round(Workload::VpicDump, &p, 5, false, None).expect("round");
    assert_eq!(r.failed, 0);
    assert_eq!(r.requests.len(), p.dump.timesteps as usize);
    assert!(r.classes.get("put").is_some_and(|c| c.lat_ns.is_empty()));
    let ms = r.virtual_layer_metrics();
    let want = r.ingest_pairs as f64 * 1e6 / r.ingest_ns as f64;
    assert_eq!(value(&ms, "client.ingest_kpairs_per_vs"), want);
    assert_eq!(value(&ms, "client.put_samples"), 0.0);
    assert!(r.ingest_ns < r.timeline_ns);
}

#[test]
fn query_phase_programs_and_erases_nothing() {
    let r = run_round(Workload::VpicQuery, &common::tiny(), 3, true, None).expect("round");
    assert_eq!(r.failed, 0);
    let ms = r.virtual_layer_metrics();
    assert_eq!(value(&ms, "nand.program_pages"), 0.0);
    assert_eq!(value(&ms, "nand.erase_blocks"), 0.0);
    assert!(value(&ms, "nand.read_pages") > 0.0);
}

#[test]
fn dump_issues_no_query_commands() {
    let r = run_round(Workload::VpicDump, &common::tiny(), 3, true, None).expect("round");
    let spans = r.spans.expect("traced round keeps spans");
    assert!(spans.iter().any(|s| s.layer == Layer::Jobs));
    assert!(spans.iter().any(|s| s.name == "bulk_put"));
    assert!(!spans
        .iter()
        .any(|s| s.layer == Layer::Handle && ["get", "range", "sidx"].contains(&s.name)));
}

#[test]
fn mixed_crosses_the_bus_and_the_wal() {
    let r = run_round(Workload::MixedReplicated, &common::tiny(), 3, true, None).expect("round");
    assert_eq!(r.failed, 0);
    let ms = r.virtual_layer_metrics();
    assert!(value(&ms, "bus.msgs") > 0.0);
    assert!(value(&ms, "wal.program_pages_per_flush") > 0.0);
    let spans = r.spans.expect("spans");
    let handles = spans.iter().filter(|s| s.layer == Layer::Handle).count();
    assert!(handles > 0);
    // Every handle span sits under a client span.
    let clients: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.layer == Layer::Client)
        .map(|s| s.id)
        .collect();
    assert!(spans
        .iter()
        .filter(|s| s.layer == Layer::Handle)
        .all(|s| clients.contains(&s.parent)));
}
