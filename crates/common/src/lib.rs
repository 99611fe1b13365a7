//! Common data-model types shared by every crate of the reproduction.
//!
//! The paper's substrate (AsterixDB) stores semi-structured ADM records; for the
//! reproduction we use a flat relational model — every dataset is a relation with
//! a [`Schema`] and rows of [`Value`]s — which is sufficient for the join-centric
//! workloads evaluated in the paper (TPC-H Q8/Q9, TPC-DS Q17/Q50).

pub mod batch;
pub mod env;
pub mod error;
pub mod log;
pub mod lru;
pub mod schema;
pub mod tuple;
pub mod value;

pub use batch::{
    batch_size, Batch, BatchAssembler, BatchBuilder, Column, NullBitmap, BATCH_SIZE_ENV,
    DEFAULT_BATCH_SIZE,
};
pub use error::{RdoError, Result};
pub use lru::Lru;
pub use schema::{Field, FieldRef, Schema};
pub use tuple::{Relation, Tuple};
pub use value::{DataType, Value};
