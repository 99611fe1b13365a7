//! Page-batch wire framing: rows encoded into length-prefixed frames over
//! the `rdo-spill` page codecs ([`frame`]).
//!
//! Exchanges run in-process (see `rdo_exec::exchange`); nothing in the
//! engine crosses a socket through this crate. It is kept only because
//! rdo-perf's `net.page_batch_write_mb_s` / `net.page_batch_read_mb_s` probe
//! imports [`frame::write_page_batch`], [`frame::read_page_batch`] and
//! [`frame::Tag`]. The crate goes once ROADMAP item 6's benchmark change
//! retires that probe.

#![warn(missing_docs)]

pub mod frame;
