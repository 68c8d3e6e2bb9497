//! Multi-user piconet scaling demo: how aggregate goodput grows (and
//! per-link quality degrades) as 2 → 32 simultaneously operating piconets
//! share the 14-channel band plan.
//!
//! Three channel-allocation policies are compared at each network size:
//!
//! * **packed**  — everyone on channel 3 (the co-channel worst case)
//! * **spread**  — round-robin over all 14 channels (the band plan doing
//!   its job; beyond 14 users channels start to be reused)
//! * **aware**   — greedy measured-interference assignment: each link
//!   probes the candidates against the already-placed transmitters' real
//!   waveforms and takes the quietest channel
//!
//! Run with: `cargo run --release --example piconet`

use uwb::net::{run_network, ChannelPolicy, NetScenario};
use uwb::phy::bandplan::Channel;
use uwb::platform::Table;

fn main() {
    let seed = 0x2005_0314;
    let ebn0_db = 8.0;
    let rounds = 8;

    let mut table = Table::new(vec![
        "users",
        "policy",
        "channels",
        "worst BER",
        "mean PER",
        "aggregate Mbit/s",
    ]);

    for n in [2usize, 4, 8, 16, 32] {
        let policies: [(&str, ChannelPolicy); 3] = [
            (
                "packed",
                ChannelPolicy::Static(vec![Channel::new(3).unwrap()]),
            ),
            ("spread", ChannelPolicy::round_robin_all()),
            (
                "aware",
                ChannelPolicy::InterferenceAware(Channel::all().collect()),
            ),
        ];
        for (name, policy) in policies {
            let mut sc = NetScenario::ring(n, ebn0_db, seed ^ n as u64);
            sc.rounds = rounds;
            sc.policy = policy;
            let report = run_network(&sc);

            let mut used: Vec<usize> = report.links.iter().map(|l| l.channel.index()).collect();
            used.sort_unstable();
            used.dedup();
            let worst_ber = report.links.iter().map(|l| l.ber()).fold(0.0f64, f64::max);
            let mean_per = report.links.iter().map(|l| l.per()).sum::<f64>() / n as f64;

            table.row(vec![
                n.to_string(),
                name.to_string(),
                used.len().to_string(),
                format!("{worst_ber:.2e}"),
                format!("{mean_per:.3}"),
                format!("{:.0}", report.aggregate_throughput_bps / 1e6),
            ]);
        }
    }

    println!("piconet scaling, Eb/N0 = {ebn0_db} dB, {rounds} rounds per point\n");
    print!("{table}");
    println!(
        "\npacked shares one 528 MHz channel; spread uses the full band plan;\n\
         aware probes real waveforms and dodges the loudest interferers."
    );
}
