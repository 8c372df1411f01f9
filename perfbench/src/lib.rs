//! The front-door benchmark: generated SQL/PGQ statements served by an
//! in-process `pgq_server::Server` over loopback, every answer checked
//! against an oracle computed from the generator's rows.

pub mod gen;
pub mod oracle;
pub mod run;
pub mod speed;
pub mod stats;
pub mod trace;
