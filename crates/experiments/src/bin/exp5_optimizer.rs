//! Exp. 5 runner: Fig. 10a–b optimizer comparison (greedy, Dhalion).
//!
//! Usage: `cargo run --release --bin exp5_optimizer -- [--scale smoke|standard|full] [--workers N] [--resume[=DIR]] [--strict] [--telemetry[=PATH]]`

use zt_experiments::{exp5, report, Scale};

fn main() {
    zt_experiments::apply_datagen_cli();
    let scale = Scale::from_args();
    eprintln!(
        "exp5 (parallelism tuning vs greedy/Dhalion), scale = {}",
        scale.name
    );
    let result = exp5::run(&scale);
    exp5::print(&result);
    if let Ok(path) = report::save_json("exp5_optimizer", &result) {
        eprintln!("saved {}", path.display());
    }
    zt_experiments::finish_telemetry("exp5_optimizer");
}
