//! The benchmark's workloads: data sets, statements, pinned engine
//! options, and the open-loop submission schedule, all derived from the
//! `--seed` argument and nothing else.
//!
//! Every [`PhysicalOptions`] field is written out here. The engine's own
//! default reads `QPROG_THREADS` and `QPROG_BATCH_ROWS` from the
//! environment; these options never consult it, so a CI matrix cannot
//! change what the benchmark measures.

use std::time::Duration;

use qprog::core::EstimationMode;
use qprog::datagen::{TpchConfig, TpchGenerator};
use qprog::plan::physical::PhysicalOptions;
use qprog::plan::{LogicalPlan, PlanBuilder};
use qprog::storage::Catalog;
use qprog::types::QResult;

/// A TPC-H-lite data set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataSpec {
    /// Scale factor (1.0 = 6M lineitem rows).
    pub scale: f64,
    /// Zipf skew of the foreign-key columns.
    pub skew: f64,
}

impl DataSpec {
    /// Generate the data set for `seed`.
    pub fn generate(&self, seed: u64) -> QResult<Catalog> {
        TpchGenerator::new(TpchConfig {
            scale: self.scale,
            skew: self.skew,
            seed,
        })
        .catalog()
    }
}

/// A statement a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Statement {
    /// TPC-H Q8-lite, built programmatically (`workloads::q8_plan`).
    Q8,
    /// A SQL statement, planned with `qprog_sql::plan_sql`.
    Sql(&'static str),
}

impl Statement {
    /// Build the statement's logical plan.
    pub fn plan(&self, builder: &PlanBuilder) -> QResult<LogicalPlan> {
        match self {
            Statement::Q8 => qprog::workloads::q8_plan(builder),
            Statement::Sql(sql) => qprog::sql::plan_sql(builder, sql),
        }
    }
}

/// `agg_groups`' statement: one group per order.
pub const AGG_SQL: &str = "SELECT orderkey, sum(quantity) FROM lineitem GROUP BY orderkey";
/// `svc_open`'s light statement (90% of submissions).
pub const SVC_JOIN_SQL: &str =
    "SELECT count(*) FROM customer JOIN nation ON customer.nationkey = nation.nationkey";
/// `svc_open`'s heavy statement (10% of submissions).
pub const SVC_GROUP_SQL: &str = "SELECT partkey, count(*) FROM lineitem GROUP BY partkey";

/// Data set of `q8_skew`.
pub const Q8_DATA: DataSpec = DataSpec {
    scale: 0.02,
    skew: 2.0,
};
/// Data set of `agg_groups`.
pub const AGG_DATA: DataSpec = DataSpec {
    scale: 0.05,
    skew: 2.0,
};
/// Data set of `svc_open`.
pub const SVC_DATA: DataSpec = DataSpec {
    scale: 0.01,
    skew: 1.0,
};

/// Seed of `svc_open`'s tables and block samples. The workload's `--seed`
/// drives its submission stream; the tables stay fixed, as a service's
/// data does while its clients vary, so that the progress error of its
/// two statements (about 1e-4, estimator noise on a 60k-row table) is
/// not redrawn with every seed.
pub const SVC_STATE_SEED: u64 = 1;

/// `svc_open` offered load, submissions per second.
pub const SVC_RATE: f64 = 300.0;
/// `svc_open` dispatcher workers.
pub const SVC_WORKERS: usize = 2;

/// The pinned engine options of every workload: the paper's `once`
/// framework with 10% block samples, serial, 1024-row batches, in memory.
/// `mode` and `batch_rows` vary only in the reference and layer runs.
pub fn options(seed: u64, mode: EstimationMode, batch_rows: usize) -> PhysicalOptions {
    PhysicalOptions {
        mode,
        sample_fraction: 0.10,
        seed,
        partitions: 16,
        block_io_us: 0,
        sort_aggregate: false,
        max_rows: None,
        max_hist_bytes: None,
        threads: 1,
        batch_rows,
    }
}

/// Batch capacity of the measured runs.
pub const BATCH_ROWS: usize = 1024;

/// One scheduled `svc_open` submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Due time, from the start of the run.
    pub due: Duration,
    /// Whether this is the heavy (group-by) statement.
    pub heavy: bool,
    /// Tenant `a` or `b`, alternating.
    pub tenant: &'static str,
    /// Whether a `GET /progress/{id}` follows the submission.
    pub poll: bool,
}

impl Submission {
    /// The statement this submission sends.
    pub fn sql(&self) -> &'static str {
        if self.heavy {
            SVC_GROUP_SQL
        } else {
            SVC_JOIN_SQL
        }
    }
}

/// The open-loop schedule: `count` submissions evenly spaced at `rate`
/// per second. Each block of ten holds exactly one heavy submission at a
/// seed-chosen position, so the mix is 90/10 in every run; every tenth
/// submission is followed by a progress poll.
pub fn schedule(seed: u64, rate: f64, count: usize) -> Vec<Submission> {
    let mut rng = SplitMix(seed ^ 0x5c4e_d01e_5eed_0f5c);
    let mut heavy_at = 0;
    (0..count)
        .map(|i| {
            if i % 10 == 0 {
                heavy_at = (rng.next() % 10) as usize;
            }
            Submission {
                due: Duration::from_secs_f64(i as f64 / rate),
                heavy: i % 10 == heavy_at,
                tenant: if i % 2 == 0 { "a" } else { "b" },
                poll: i % 10 == 9,
            }
        })
        .collect()
}

/// SplitMix64: a small, fixed pseudo-random sequence, so the schedule
/// does not depend on any library's generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A fingerprint of every row of every table, for determinism checks.
#[cfg(test)]
pub fn fingerprint(catalog: &Catalog) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for name in catalog.table_names() {
        name.hash(&mut h);
        let table = catalog.table(name).expect("listed table exists");
        for row in table.iter() {
            format!("{row:?}").hash(&mut h);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_data_and_schedule() {
        let a = fingerprint(&SVC_DATA.generate(5).unwrap());
        assert_eq!(a, fingerprint(&SVC_DATA.generate(5).unwrap()));
        assert_ne!(a, fingerprint(&SVC_DATA.generate(6).unwrap()));
        assert_eq!(schedule(5, SVC_RATE, 3000), schedule(5, SVC_RATE, 3000));
        assert_ne!(schedule(5, SVC_RATE, 3000), schedule(6, SVC_RATE, 3000));
    }

    #[test]
    fn inputs_and_options_ignore_the_engine_environment() {
        let data = || fingerprint(&SVC_DATA.generate(3).unwrap());
        let before = (
            format!("{:?}", options(3, EstimationMode::Once, BATCH_ROWS)),
            data(),
        );
        std::env::set_var("QPROG_THREADS", "4");
        std::env::set_var("QPROG_BATCH_ROWS", "7");
        // The variables are live: the engine's own default picks them up.
        let default = PhysicalOptions::default();
        let after = (
            format!("{:?}", options(3, EstimationMode::Once, BATCH_ROWS)),
            data(),
        );
        std::env::remove_var("QPROG_THREADS");
        std::env::remove_var("QPROG_BATCH_ROWS");
        assert_eq!((default.threads, default.batch_rows), (4, 7));
        assert_eq!(before, after);
    }

    #[test]
    fn schedule_is_ninety_ten_in_every_block() {
        let s = schedule(7, SVC_RATE, 1000);
        for block in s.chunks(10) {
            assert_eq!(block.iter().filter(|x| x.heavy).count(), 1);
            assert_eq!(block.iter().filter(|x| x.poll).count(), 1);
        }
        assert_eq!(s[1].due, Duration::from_secs_f64(1.0 / SVC_RATE));
        assert_eq!(s[0].tenant, "a");
        assert_eq!(s[1].tenant, "b");
    }
}
