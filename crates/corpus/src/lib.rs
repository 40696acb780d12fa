//! Table-column corpus substrate for Auto-Detect.
//!
//! The paper trains on 350M web-table columns from Bing's index and 1.4M
//! public spreadsheet columns — assets we do not have. This crate builds the
//! closest synthetic equivalent (see DESIGN.md §1): a corpus generator whose
//! columns reproduce the *co-occurrence structure* the method exploits:
//!
//! * value domains that legitimately mix inside real columns (plain
//!   integers with `1,000`-style separated numbers and floats; scores with
//!   `—` placeholders) are sampled into the same columns, and
//! * incompatible formats (`2011-01-01` vs `2011/01/01`, `(425) 555-0123`
//!   vs `425-555-0123`) are kept in separate columns,
//!
//! which is exactly the statistical signal NPMI-over-patterns consumes.
//!
//! Modules:
//! * [`mod@column`] / [`mod@corpus`] — the data model plus plain-text persistence;
//! * [`domains`] — ~45 value-domain generators grouped by family;
//! * [`mixgroup`] — which domains co-occur within columns, with weights;
//! * [`profile`] — corpus profiles standing in for WEB / WIKI / Pub-XLS /
//!   Ent-XLS / CSV (Table 3);
//! * [`generator`] — deterministic seeded corpus generation;
//! * [`errors`] — error injection reproducing the paper's error classes
//!   (Figures 1–2, Table 4) with exact ground-truth labels;
//! * [`csv`] — loading real delimited files into columns.

pub mod column;
pub mod corpus;
pub mod csv;
pub mod domains;
pub mod errors;
pub mod generator;
pub mod mixgroup;
pub mod profile;
pub mod table;

pub use column::{Column, LabeledColumn, SourceTag};
pub use corpus::Corpus;
pub use csv::{load_csv, CsvRecords};
pub use domains::{DomainKind, Family};
pub use errors::{corrupt_value, inject_error, ErrorKind};
pub use generator::{generate_corpus, generate_labeled_columns, CorpusGenerator};
pub use mixgroup::{MixGroup, MixGroupId};
pub use profile::CorpusProfile;
pub use table::Table;
