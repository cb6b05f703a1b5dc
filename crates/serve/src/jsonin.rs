//! The strict JSON parser, re-exported from [`lockbind_obs::json`]. The
//! `perfbench` package still imports it by this path.

pub use lockbind_obs::json::{parse, ParseError};
