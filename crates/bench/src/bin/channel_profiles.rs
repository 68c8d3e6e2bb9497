//! A3 — channel-model validation: the Saleh–Valenzuela substrate against
//! its published statistics and the paper's "rms delay spread on the order
//! of 20 ns" claim.

use uwb_bench::{banner, EXPERIMENT_SEED};
use uwb_platform::report::Table;
use uwb_sim::sv_channel::{ChannelModel, ChannelRealization};
use uwb_sim::Rand;

fn main() {
    println!(
        "{}",
        banner(
            "A3",
            "802.15.3a channel statistics",
            "§1 multipath assumptions"
        )
    );

    let ensemble = 200;
    let mut table = Table::new(vec![
        "model",
        "nominal rms (ns)",
        "measured rms (ns)",
        "mean excess (ns)",
        "paths (mean)",
        "E capture, 8 fingers",
    ]);
    for model in [
        ChannelModel::Cm1,
        ChannelModel::Cm2,
        ChannelModel::Cm3,
        ChannelModel::Cm4,
    ] {
        let mut rng = Rand::new(EXPERIMENT_SEED);
        let mut rms = 0.0;
        let mut excess = 0.0;
        let mut paths = 0.0;
        let mut capture = 0.0;
        for _ in 0..ensemble {
            let ch = ChannelRealization::generate(model, &mut rng);
            rms += ch.rms_delay_spread_ns();
            excess += ch.mean_excess_delay_ns();
            paths += ch.len() as f64;
            capture += ch.energy_capture(8);
        }
        let k = ensemble as f64;
        table.row(vec![
            format!("{model}"),
            format!("{:.1}", model.nominal_rms_ns()),
            format!("{:.1}", rms / k),
            format!("{:.1}", excess / k),
            format!("{:.0}", paths / k),
            format!("{:.0} %", 100.0 * capture / k),
        ]);
    }
    println!("\nensemble of {ensemble} realizations per model:\n{table}");
    println!(
        "paper context: \"rms delay spread of the channel on the order of\n\
         20 ns\" — CM3/CM4 bracket that regime; the receiver's design budget\n\
         (64 ns estimation window, programmable fingers) is sized from these\n\
         profiles."
    );
}
