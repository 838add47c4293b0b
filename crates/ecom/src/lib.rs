//! # tsuru-ecom — the e-commerce business process
//!
//! The paper's motivating application (§I, §II): a transactional order
//! workload spanning a *stock* database and a *sales* database on separate
//! volume sets, with app-level ordering (stock commit strictly before sales
//! commit).
//!
//! - [`EcomState`] + [`driver`] — closed-loop clients running on the
//!   discrete-event kernel; every commit and every primary read waits on
//!   its database's one log flusher, which pushes one flush at a time
//!   through the simulated array.
//! - [`WorkloadGen`] — deterministic Zipf-skewed order generation.
//! - [`check_cross_db`] — the business-level collapse detector: an order
//!   present in a recovered sales database without its stock decrement is
//!   exactly the "collapsed backup" of the paper.
//! - [`order_rpo`] — business-level recovery-point metrics.
//! - [`EcomState::install`] / [`EcomState::open_image`] — the one place the
//!   shop is put on its four volumes, and the one place it is opened from
//!   an image of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
pub mod append;
pub mod bank;
mod checker;
pub mod driver;
pub mod event;
mod image;
mod model;
pub mod scan;
mod workload;

pub use app::{DbInstance, EcomMetrics, EcomState, HasEcom};
pub use append::AppendState;
pub use bank::BankState;
pub use checker::{check_cross_db, order_rpo, InvariantReport, OrderRpo, Oversold};
pub use event::{EcomEvents, EcomOp};
pub use image::{ImageFollower, Recovered, RecoveryOutcome, StepObserver};
pub use model::{
    decode_list, encode_list, OrderRow, StockRow, LISTS_TABLE, ORDERS_TABLE, STOCK_TABLE,
};
pub use workload::{OrderSpec, WorkloadConfig, WorkloadGen, WorkloadKind};
