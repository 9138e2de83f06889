//! The same seed reproduces every virtual metric and count, traced or
//! not; another seed changes the op stream but not the op counts.

mod common;

use kvcsd_perfbench::run::{run_round, Workload};

#[test]
fn same_seed_same_numbers_traced_or_not() {
    let p = common::tiny();
    for w in Workload::ALL {
        let a = run_round(w, &p, 17, false, None).expect("round");
        let b = run_round(w, &p, 17, false, None).expect("round");
        let t = run_round(w, &p, 17, true, None).expect("round");
        assert_eq!(a.failed, 0, "{}", w.name());
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
        assert_eq!(a.fingerprint(), t.fingerprint(), "{} traced", w.name());
        assert!(t.spans.is_some() && a.spans.is_none());
    }
}

#[test]
fn other_seed_other_stream_same_counts() {
    let p = common::tiny();
    for w in Workload::ALL {
        let a = run_round(w, &p, 17, false, None).expect("round");
        let b = run_round(w, &p, 18, false, None).expect("round");
        assert_eq!(a.op_counts(), b.op_counts(), "{}", w.name());
        assert_eq!(a.user_ops, b.user_ops, "{}", w.name());
        assert_ne!(a.requests, b.requests, "{}", w.name());
    }
}
