//! Metric-guided locking design (§4.4): watch `M_g_sec` and `M_r_sec`
//! evolve as ERA, HRA and Greedy traverse the search space of the paper's
//! working example (`|ODT[(+,-)]| = 25`, `|ODT[(<<,>>)]| = 10`) — the
//! narrative of Fig. 5 as a terminal plot.
//!
//! Run with: `cargo run --release --example metric_guided_design`

use mlrl::locking::odt::Odt;
use mlrl::locking::pairs::PairTable;
use mlrl::locking::{lock, LockScheme};
use mlrl::rtl::bench_designs::DesignSpec;
use mlrl::rtl::op::BinaryOp;

fn spec() -> DesignSpec {
    DesignSpec {
        name: "FIG5",
        op_mix: vec![(BinaryOp::Add, 25), (BinaryOp::Shl, 10)],
        control: false,
        description: "working example of §4.4",
    }
}

fn ascii_plot(name: &str, trace: &[(usize, f64)], width: usize) {
    println!("\n{name}: M_g_sec over key bits");
    let max_bits = trace.last().map(|(n, _)| *n).unwrap_or(1).max(1);
    for row in (0..=4).rev() {
        let level = row as f64 * 25.0;
        let mut line = String::new();
        for col in 0..width {
            let bits = col * max_bits / width.max(1);
            let m = trace
                .iter()
                .take_while(|(n, _)| *n <= bits.max(1))
                .last()
                .map(|(_, m)| *m)
                .unwrap_or(0.0);
            line.push(if m >= level { '#' } else { ' ' });
        }
        println!("{level:>5.0} |{line}");
    }
    println!("      +{}", "-".repeat(width));
    println!(
        "       0{:>width$}",
        format!("{max_bits} bits"),
        width = width - 1
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec();
    let module = mlrl::rtl::bench_designs::generate(&spec, 1);
    let odt = Odt::load(&module, PairTable::fixed());
    println!(
        "initial ODT: |(+,-)| = {}, |(<<,>>)| = {}",
        odt.get(BinaryOp::Add),
        odt.get(BinaryOp::Shl)
    );
    println!(
        "total imbalance = {} => minimum {} balancing bits",
        odt.total_imbalance(),
        odt.total_imbalance()
    );

    // ERA jumps along the edges and may exceed its budget; Greedy takes
    // the steepest path, fewest bits to 100, but is reversible; HRA's
    // random detours thwart reversibility at extra key-bit cost.
    let runs = [
        ("ERA", LockScheme::Era, 35),
        ("Greedy", LockScheme::HraGreedy, 160),
        ("HRA", LockScheme::Hra, 160),
    ];
    let mut to_100 = Vec::new();
    for (label, scheme, budget) in runs {
        let mut m = mlrl::rtl::bench_designs::generate(&spec, 1);
        let trace = lock(&mut m, scheme, budget, 5)?.trace;
        let metric: Vec<(usize, f64)> = trace.iter().map(|(n, g, _)| (*n, *g)).collect();
        ascii_plot(label, &metric, 60);
        let bits = metric.iter().find(|(_, g)| *g >= 100.0 - 1e-9);
        let bits = bits.map_or_else(|| "not reached".into(), |(n, _)| n.to_string());
        to_100.push((label, bits));
    }

    println!("\nkey bits to M_g_sec = 100:");
    for (label, bits) in to_100 {
        println!("  {label:<6} {bits}");
    }
    println!("\npaper (Fig. 5b): greedy is most bit-efficient but reversible; HRA");
    println!("pays extra bits for an unpredictable trajectory; ERA forces each");
    println!("selected pair to zero immediately.");
    Ok(())
}
