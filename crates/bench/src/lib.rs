//! Shared harness for the table/figure reproduction binaries.
//!
//! Most binaries in `src/bin/` regenerate one table or figure of the paper,
//! named in their module docs. This library holds the common piece:
//! running PARIS for 1..k iterations and evaluating the instance alignment
//! after each, which is how the per-iteration rows of Tables 3 and 5 are
//! produced. (Runs are deterministic, so re-running with a smaller
//! iteration cap reproduces the prefix of a longer run exactly.)

#![forbid(unsafe_code)]

pub mod timing;

use paris_core::{Aligner, AlignmentResult, ParisConfig};
use paris_datagen::DatasetPair;
use paris_eval::{evaluate_instances, IterationRow};

/// Runs the aligner `max_iters` times with increasing iteration caps and
/// evaluates instances after each — one [`IterationRow`] per iteration —
/// returning the rows together with the final run's full result.
pub fn per_iteration_rows<'a>(
    pair: &'a DatasetPair,
    base: &ParisConfig,
    max_iters: usize,
) -> (Vec<IterationRow>, AlignmentResult<'a>) {
    let mut rows = Vec::new();
    let mut last: Option<AlignmentResult<'a>> = None;
    for k in 1..=max_iters {
        let config = ParisConfig {
            max_iterations: k,
            convergence_change: 0.0, // never stop early: we want exactly k
            ..base.clone()
        };
        let result = Aligner::new(&pair.kb1, &pair.kb2, config).run();
        let stats = result
            .iterations
            .last()
            .expect("at least one iteration ran");
        rows.push(IterationRow {
            iteration: k,
            change: stats.changed_fraction,
            seconds: stats.instance_seconds + stats.subrelation_seconds,
            instances: evaluate_instances(&result, &pair.gold),
        });
        last = Some(result);
    }
    (rows, last.expect("max_iters >= 1"))
}

/// Formats a percentage with one decimal, as the paper's tables print.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Prints a section header for bench output.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_datagen::persons::{generate, PersonsConfig};

    #[test]
    fn per_iteration_rows_produces_one_row_per_iteration() {
        let pair = generate(&PersonsConfig {
            num_persons: 20,
            ..Default::default()
        });
        let (rows, result) = per_iteration_rows(&pair, &ParisConfig::default(), 3);
        assert_eq!(rows.len(), 3);
        assert_eq!(result.iterations.len(), 3);
        // Precision should already be perfect on the clean data.
        assert_eq!(rows[2].instances.precision(), 1.0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.905), "90.5%");
    }
}
