#![warn(missing_docs)]

//! Synthetic benchmark generation (§5.2).
//!
//! The paper evaluates the scheduler on 16,000 randomly generated basic
//! blocks: "a C program was developed to randomly generate basic blocks...
//! This program requires as input the number of statements, variables, and
//! constants desired in the generated code. It then generates a random
//! sequence of assignment statements satisfying the desired conditions",
//! with statement-type frequencies "loosely corresponding to the
//! instruction frequency distributions found in \[AlW75\]" (Table 6).
//!
//! The scanned TR truncates Table 6; the default frequencies here are a
//! documented reconstruction (DESIGN.md §5). Everything is seeded and
//! reproducible: the same [`GeneratorConfig`] always yields the same block.

pub mod corpus;
pub mod freq;
pub mod generator;

pub use corpus::{CorpusSpec, CorpusStats};
pub use freq::FrequencyTable;
pub use generator::{generate_block, generate_program, GeneratorConfig};
