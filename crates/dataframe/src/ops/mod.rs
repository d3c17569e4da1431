//! Frame operations: comparisons, aggregation functions, group-by, joins
//! and the exact-hash key kernel ([`key`]) behind grouping and joins.

mod agg;
mod filter;
mod groupby;
mod join;
pub mod key;

pub use agg::AggFunc;
pub use filter::CmpOp;
pub use groupby::GroupBy;
pub use join::{inner_join, left_join};
