//! One module per table/figure of the paper's evaluation (§8).
//!
//! Each module's `run()` prints the measured numbers side by side with the
//! paper's expected shape and writes CSV series under `results/` (override
//! with `LIBRA_RESULTS_DIR`). The `exp` binary runs one by name, or `all`;
//! [`scale`] is its simulator scale run, not a figure of the paper.

pub mod ablations;
pub mod chaos;
pub mod fig01;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09_10_11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod keepalive;
pub mod overheads;
pub mod scale;
pub mod table1;
pub mod table2;
