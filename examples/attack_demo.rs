//! Head-to-head: SnapShot-RTL against ASSURE, HRA and ERA on one
//! benchmark — a single column of Fig. 6a, with the full attack pipeline
//! visible (relock counts, training-set size, auto-ml leaderboard winner).
//!
//! Run with: `cargo run --release --example attack_demo [benchmark]`

use mlrl::attack::relock::{build_training_set, RelockConfig};
use mlrl::attack::snapshot::snapshot_attack;
use mlrl::locking::{key_budget, lock, LockScheme};
use mlrl::ml::AutoMlConfig;
use mlrl::rtl::bench_designs::{benchmark_by_name, generate};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "SHA256".to_owned());
    let spec = benchmark_by_name(&name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}` — see Fig. 6a for names"));
    println!("benchmark {} — {}", spec.name, spec.description);
    println!("operation mix: {:?}", spec.op_mix);

    println!();
    println!(
        "{:<8} {:>8} {:>10} {:>12} {:>8}  winner",
        "scheme", "bits", "train", "attacked", "KPA"
    );
    let schemes = [
        ("ASSURE", LockScheme::Assure),
        ("HRA", LockScheme::Hra),
        ("ERA", LockScheme::Era),
    ];
    for (label, scheme) in schemes {
        let mut module = generate(&spec, 2022);
        let bits = key_budget(&module, 0.75).expect("lockable");
        let key = lock(&mut module, scheme, bits, 11)?.key;
        let relock = RelockConfig {
            rounds: 50,
            budget_fraction: 0.75,
            seed: 77,
        };
        let training = build_training_set(&module, &relock);
        let report = snapshot_attack(&module, &key, &training, &AutoMlConfig::default())
            .expect("localities exist");
        println!(
            "{label:<8} {:>8} {:>10} {:>12} {:>7.1}%  {}",
            key.len(),
            report.training_samples,
            report.attacked_bits,
            report.kpa,
            report.model_name
        );
    }
    println!();
    println!("expected shape (paper Fig. 6): ASSURE and HRA leak well above the");
    println!("50% random-guess line; ERA pins the attack to ~50%.");
    Ok(())
}
