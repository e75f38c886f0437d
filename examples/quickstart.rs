//! Quickstart: stream three MGS videos through a single femtocell for
//! one experiment and print the per-user quality under all three
//! schemes.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use fcr::prelude::*;

fn main() {
    // The paper's baseline: M = 8 licensed channels, P01/P10 = 0.4/0.3,
    // γ = 0.2, ε = δ = 0.3, B0 = B1 = 0.3 Mbps, GOP deadline T = 10.
    let cfg = SimConfig {
        gops: 10,
        ..SimConfig::default()
    };

    // One FBS, three CR users streaming Bus / Mobile / Harbor (CIF).
    // Each run is sharded into GOP-aligned slot windows on the shared
    // pool — bit-identical to a serial loop.
    let scenario = Scenario::single_fbs(&cfg);
    let session = SimSession::new(scenario).config(cfg).runs(5).seed(42);

    println!("Scheme             mean Y-PSNR     collisions   Jain");
    for scheme in Scheme::PAPER_TRIO {
        let summary = session.run(scheme).summary();
        println!(
            "{:<18} {:>6.2} ± {:<5.2}  {:>8.4}    {:.4}",
            scheme.name(),
            summary.overall.mean(),
            summary.overall.half_width(),
            summary.collision.mean(),
            summary.jain,
        );
    }
    println!();
    println!(
        "The proposed scheme should lead in mean quality while keeping the\n\
         collision rate under γ = {}.",
        session.config_ref().gamma
    );
}
