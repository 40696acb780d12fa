//! Generalization trees, generalization languages, and pattern algebra.
//!
//! This crate implements the pattern machinery of *Auto-Detect: Data-Driven
//! Error Detection in Tables* (Huang & He, SIGMOD 2018):
//!
//! * [`tree`] — generalization trees over an alphabet (Definition 1),
//!   including the paper's Figure 3 tree;
//! * [`language`] — generalization languages, i.e. mappings from characters
//!   to tree nodes (Definition 2), in the restricted per-class form the
//!   paper enumerates (144 candidates);
//! * [`pattern`] — the result of applying a language to a value (Equation 3):
//!   run-length token sequences such as `\D[4]\S\D[2]`;
//! * [`classify`] — the ASCII byte→class table;
//! * [`multi`] — the branch-free token-table kernel that hashes a value's
//!   pattern under one or many languages without building the pattern;
//! * [`enumeration`] — enumeration of the restricted candidate language
//!   spaces used for language selection;
//! * [`crude`] — the fixed crude generalization `G()` used by
//!   distant-supervision training-data generation (Appendix F);
//! * [`distance`] — alignment-style distances between patterns, used by the
//!   SVDD/DBOD/LOF baselines.
//!
//! # Example
//!
//! ```
//! use adt_patterns::{Language, Pattern};
//!
//! // L2 from the paper's Example 2: letters -> \L, digits -> \D, symbols -> \S
//! let l2 = Language::paper_l2();
//! let p1 = Pattern::generalize("2014-01", &l2);
//! let p2 = Pattern::generalize("July-01", &l2);
//! assert_eq!(p1.to_string(), r"\D[4]\S\D[2]");
//! assert_eq!(p2.to_string(), r"\L[4]\S\D[2]");
//! assert_ne!(p1.hash64(), p2.hash64());
//! ```

pub mod classify;
pub mod crude;
pub mod distance;
pub mod enumeration;
pub mod language;
pub mod multi;
pub mod pattern;
pub mod tree;

pub use crude::crude_generalize;
pub use distance::{normalized_pattern_distance, pattern_distance};
pub use enumeration::{enumerate_coarse_languages, enumerate_restricted_languages};
pub use language::{CharKind, Language, Level};
pub use multi::MultiHasher;
pub use pattern::{Pattern, PatternHash, Token};
pub use tree::{GeneralizationTree, NodeId};
