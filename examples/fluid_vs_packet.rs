//! Validate the fluid rate–PSNR abstraction (the paper's eq. (9)
//! formulation) against NAL-unit-granular delivery: same sensing,
//! access, fading, and allocation pipeline, two transmission models —
//! both executed as sharded [`SimSession`]s on the shared pool.
//!
//! ```text
//! cargo run --release --example fluid_vs_packet
//! ```

use fcr::prelude::*;
use fcr::sim::packet_engine::PacketRunResult;

fn main() {
    let cfg = SimConfig {
        gops: 15,
        ..SimConfig::default()
    };
    let scenario = Scenario::single_fbs(&cfg);
    let runs = 5;
    let session = SimSession::new(scenario).config(cfg).runs(runs).seed(42);

    let mut detail: Option<PacketRunResult> = None;
    println!("Scheme             fluid Y-PSNR   packet Y-PSNR   gap");
    for scheme in Scheme::PAPER_TRIO {
        let fluid = session
            .run(scheme)
            .results()
            .iter()
            .map(RunResult::mean_psnr)
            .sum::<f64>()
            / runs as f64;
        let packets = session.run_packet(scheme).results();
        let packet = packets.iter().map(PacketRunResult::mean_psnr).sum::<f64>() / runs as f64;
        if scheme == Scheme::Proposed {
            detail = packets.into_iter().next();
        }
        println!(
            "{:<18} {:>12.2} {:>15.2} {:>5.2}",
            scheme.name(),
            fluid,
            packet,
            fluid - packet
        );
    }

    println!();
    let detail = detail.expect("proposed scheme ran");
    println!(
        "Packet-level detail (proposed, run 0): {} units delivered, {} expired at deadlines,\n\
         {} retransmissions, {} GOP base-layer outages.",
        detail.delivered_units,
        detail.expired_units,
        detail.retransmissions,
        detail.base_layer_losses
    );
    println!();
    println!(
        "The gap between the columns is what eq. (9)'s fluid model abstracts\n\
         away: unit-boundary quantization, retransmission overhead, and the\n\
         risk of losing a GOP's base layer outright."
    );
}
