//! The always-on service in miniature: admission control against the
//! eq.-(12) MBS budget, session churn on the slot clock, a live
//! metrics scrape, and exact accounting at drain.
//!
//! ```text
//! cargo run --release --example serve_quickstart
//! ```

use fcr::prelude::*;
use std::sync::Arc;

fn main() {
    // Tiny per-session simulations so the demo runs in milliseconds.
    let cfg = SimConfig {
        gops: 2,
        deadline: 2,
        num_channels: 2,
        ..SimConfig::default()
    };
    let scenario = Arc::new(Scenario::single_fbs(&cfg));
    let spec = |seed: u64| SessionSpec::new(Arc::clone(&scenario), cfg).seed(seed);

    // Budget for exactly three concurrent sessions: the admission
    // controller estimates each candidate's MBS unit time-share with
    // one waterfilling solve and refuses what does not fit.
    let demand = Service::estimate_demand(&spec(1));
    let service = Arc::new(Service::on_shared_pool(ServeConfig {
        mbs_budget: demand * 3.0,
        ..ServeConfig::default()
    }));
    println!("per-session MBS demand (eq. 12): {demand:.3}");

    let mut admitted = Vec::new();
    for seed in 1..=4 {
        match service.admit(spec(seed)) {
            AdmitOutcome::Admitted(id) => {
                println!("session seed {seed}: admitted as {id:?}");
                admitted.push(id);
            }
            AdmitOutcome::Rejected(reason) => println!("session seed {seed}: rejected — {reason}"),
        }
    }
    assert_eq!(admitted.len(), 3, "budget fits exactly three sessions");

    // A live metrics endpoint (std-only TCP) serves the same body as
    // `Service::metrics_text` to every connection.
    let server = MetricsServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind endpoint");
    println!("metrics endpoint: http://{}/metrics", server.local_addr());

    // Churn: retire one session mid-flight; its budget frees
    // immediately and the previously rejected stream fits.
    service.step();
    assert!(service.retire(admitted[0]));
    match service.admit(spec(4)) {
        AdmitOutcome::Admitted(id) => println!("after retirement, seed 4 admitted as {id:?}"),
        AdmitOutcome::Rejected(reason) => panic!("re-admission failed: {reason}"),
    }

    // Drive the slot clock until every session resolves, then check
    // the books: admitted == completed + retired + shed, exactly.
    service.quiesce();
    let done = service.take_completed();
    let snap = service.snapshot();
    println!(
        "drained: {} admitted = {} completed + {} retired + {} shed (pending {})",
        snap.admitted, snap.completed, snap.retired, snap.shed, snap.pending
    );
    assert!(snap.accounting_holds());
    assert_eq!(snap.pending, 0);
    assert_eq!(done.len() as u64, snap.completed);
    for session in &done {
        assert!(!session.degraded);
        assert!(session.outputs.iter().all(Option::is_some));
    }
    println!("serve quickstart OK: {} sessions served", done.len());
    server.shutdown();
}
