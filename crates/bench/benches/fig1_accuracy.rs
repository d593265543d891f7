//! Bench + regeneration target for Fig. 1 (accuracy vs. frozen layers).
//!
//! The measured quantity is the curve-generation itself (trivially cheap);
//! the important side effect is that running this bench prints the Fig. 1
//! table, which EXPERIMENTS.md records.

use trimcaching_bench::measure;
use trimcaching_sim::experiments::fig1;

fn main() {
    // Print the regenerated figure once.
    let table = fig1::accuracy_vs_frozen_layers();
    eprintln!("{}", table.to_markdown());

    measure("fig1/accuracy_curve", 10, fig1::accuracy_vs_frozen_layers);
}
