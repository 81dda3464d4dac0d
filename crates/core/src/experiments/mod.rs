//! The experiment harness: one module per table/figure of the paper.
//!
//! Every experiment produces a serializable result struct with a `Display`
//! rendering shaped like the paper's table/figure data, so the `rbnn-bench`
//! binaries can print the human-readable form and archive the JSON form.
//! The README's "Paper experiments" section maps each module to its bench
//! binary.

pub mod cv;
pub mod ext_ber;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod table3;
pub mod table4;
pub mod tables12;

pub use cv::{cross_validate, CvOutcome, CvRunConfig};
