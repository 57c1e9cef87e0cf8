//! Align the OAEI-style person benchmark and inspect the result in depth.
//!
//! Mirrors the paper's §6.2 evaluation workflow: generate the benchmark
//! pair (500 matched people, disjoint vocabularies on the two sides), run
//! PARIS to convergence, then score instances / classes / relations
//! against the gold standard and print the per-iteration progress.
//!
//! Run: `cargo run --release --example benchmark_alignment`

use paris_repro::datagen::persons::{generate, PersonsConfig};
use paris_repro::eval::{evaluate_classes_1to2, evaluate_instances, evaluate_relations};
use paris_repro::paris::{Aligner, IterationStats, Observe, ParisConfig};

fn main() {
    let pair = generate(&PersonsConfig::default());
    println!(
        "generated: {} / {}",
        paris_repro::kb::KbStats::of(&pair.kb1),
        paris_repro::kb::KbStats::of(&pair.kb2)
    );

    let aligner = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default());
    let mut print = |stats: &IterationStats| {
        println!(
            "iteration {}: {} instances assigned, {:.1}% changed, {:.2}s",
            stats.iteration,
            stats.assigned_instances,
            stats.changed_fraction * 100.0,
            stats.instance_seconds + stats.subrelation_seconds,
        );
    };
    let result = aligner.run_with(&mut Observe {
        progress: Some(&mut print),
        ..Observe::default()
    });

    println!(
        "\ninstances: {}",
        evaluate_instances(&result, &pair.gold).summary()
    );
    println!(
        "classes:   {}",
        evaluate_classes_1to2(&result, &pair.gold, 0.4).summary()
    );
    let (rel_12, rel_21) = evaluate_relations(&result, &pair.gold);
    println!(
        "relations: {} (→) / {} (←)",
        rel_12.counts.summary(),
        rel_21.counts.summary()
    );

    println!("\ntop relation alignments:");
    for (sub, sup, p) in result.relation_alignments_1to2(0.5).into_iter().take(8) {
        println!("  {sub:<14} ⊆ {sup:<22} {p:.2}");
    }

    // Spot-check one person end to end.
    let aligned = result
        .instance_alignment_by_iri("http://person1.test/p0")
        .expect("p0 must align");
    println!("\np0 aligned to {aligned}");
    assert_eq!(aligned.as_str(), "http://person2.test/q0");
}
