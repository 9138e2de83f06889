//! An injected wrong result must fail the run.

mod common;

use std::sync::Arc;

use kvcsd_perfbench::run::{run_round, summarise, RoundSummary, Workload};
use kvcsd_proto::{DeviceHandler, KvCommand, KvResponse};
use kvcsd_sim::sync::Shared;

/// Corrupts the `nth` GET value or RANGE result passing through.
struct Corrupt {
    inner: Arc<dyn DeviceHandler>,
    seen: Shared<u64>,
    nth: u64,
}

impl DeviceHandler for Corrupt {
    fn handle(&self, cmd: KvCommand) -> KvResponse {
        let read = matches!(cmd, KvCommand::Get { .. } | KvCommand::Range { .. });
        let resp = self.inner.handle(cmd);
        if !read {
            return resp;
        }
        self.seen.update(|n| *n += 1);
        if self.seen.get() != self.nth {
            return resp;
        }
        match resp {
            KvResponse::Value(mut v) => {
                v[0] ^= 0x40;
                KvResponse::Value(v)
            }
            KvResponse::Entries(mut es) => {
                es.pop();
                KvResponse::Entries(es)
            }
            other => other,
        }
    }
}

fn corrupting(nth: u64) -> impl Fn(Arc<dyn DeviceHandler>) -> Arc<dyn DeviceHandler> {
    move |inner| {
        Arc::new(Corrupt {
            inner,
            seen: Shared::new(0),
            nth,
        })
    }
}

#[test]
fn wrong_result_fails_the_run() {
    let p = common::tiny();
    for w in [Workload::VpicQuery, Workload::MixedReplicated] {
        let clean = run_round(w, &p, 9, false, None).expect("round");
        assert_eq!(clean.failed, 0);
        let ok = summarise(&clean, &[RoundSummary::of(&clean, 1.0)], false).expect("summary");
        assert!(ok.correct);

        // Past the mixed workload's warm-up reads, inside every measured phase.
        let wrap = corrupting(60);
        let bad = run_round(w, &p, 9, false, Some(&wrap)).expect("round");
        assert_eq!(bad.failed, 1, "{}", w.name());
        let out = summarise(&bad, &[RoundSummary::of(&bad, 1.0)], false).expect("summary");
        assert!(!out.correct, "{}", w.name());
        assert_eq!(out.failed, 1);
    }
}
