//! Stand-in for `serde`: `topk-rankings` derives `Serialize`/`Deserialize`
//! on its data types but nothing in the workspace serializes through serde,
//! so the derives expand to nothing.

pub use serde_derive::{Deserialize, Serialize};
