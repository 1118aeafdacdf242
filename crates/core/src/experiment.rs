//! The experiment abstraction: every table and figure of the paper is
//! an independent, individually-addressable [`Experiment`] running over
//! a shared [`StudyContext`].
//!
//! The context owns the expensive shared substrate — the three lowered
//! benchmark circuits and their characterizations — behind
//! [`std::sync::OnceLock`], so any number of experiments (including all
//! of them at once, on parallel threads) materialize the benchmarks
//! exactly once per context. The materialization itself goes through
//! the `qods-compile` staged pipeline: artifacts are content-addressed
//! in a shared two-tier [`qods_compile::ArtifactStore`] (in-process +
//! optional disk), so a second context for the same configuration — or
//! a second *process* over a warm disk store — reuses the compiled
//! circuits instead of lowering again. Concrete experiments live in
//! [`crate::experiments`]; the [`crate::registry::Registry`] lists,
//! resolves, and runs them.

use crate::output::{
    CascadeOut, Fig15Out, Fig4Out, LatencyOut, NonTransversalOut, PipelinedFactoryOut, Series,
    SeriesOut, SimpleFactoryOut, Table2Out, Table3Out, Table9Out, WidthSweepOut,
};
use crate::study::StudyConfig;
use qods_circuit::characterize::CircuitReport;
use qods_circuit::circuit::Circuit;
use qods_compile::{paper_specs, ArtifactStore, Compiler, SynthBudget};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Shared, memoized substrate for a study run.
///
/// Cheap to create; the benchmark circuits are compiled lazily on
/// first use and at most once per context, no matter how many
/// experiments run over it or from how many threads — and at most
/// once per *store* across contexts, since compilation is memoized in
/// the content-addressed artifact store underneath.
#[derive(Debug)]
pub struct StudyContext {
    config: StudyConfig,
    compiler: Compiler,
    benchmarks: OnceLock<Vec<Circuit>>,
    reports: OnceLock<Vec<CircuitReport>>,
    lowering_runs: AtomicUsize,
}

impl StudyContext {
    /// A context over the process-wide shared artifact store (see
    /// [`ArtifactStore::process`]): contexts for the same
    /// configuration — in this process or, with a disk store
    /// configured, in an earlier one — share compiled artifacts.
    pub fn new(config: StudyConfig) -> Self {
        StudyContext::with_store(config, ArtifactStore::process())
    }

    /// A context compiling into an explicit artifact store (tests and
    /// special-purpose pools use this to control cache scope).
    pub fn with_store(config: StudyConfig, store: Arc<ArtifactStore>) -> Self {
        let synth = SynthBudget {
            max_t: config.synth_max_t,
            target_distance: config.synth_target,
        };
        StudyContext {
            compiler: Compiler::new(store, synth),
            config,
            benchmarks: OnceLock::new(),
            reports: OnceLock::new(),
            lowering_runs: AtomicUsize::new(0),
        }
    }

    /// The configuration this context runs under.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The staged kernel compiler (and through it the artifact store)
    /// this context materializes circuits with.
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// The three lowered benchmark circuits (QRCA, QCLA, QFT),
    /// compiled through the pipeline on first call and memoized for
    /// every caller after that.
    ///
    /// # Panics
    ///
    /// Panics when `n_bits` is outside the kernel width bound
    /// (`1..=`[`qods_kernels::MAX_WIDTH`]); the service layer rejects
    /// such configurations with a typed error before a context is
    /// built.
    pub fn benchmarks(&self) -> &[Circuit] {
        self.benchmarks.get_or_init(|| {
            self.lowering_runs.fetch_add(1, Ordering::Relaxed);
            let specs = paper_specs(self.config.n_bits);
            let scheduled =
                qods_pool::run_indexed(specs.len(), qods_pool::pool_threads(specs.len()), |i| {
                    // qods-lint: allow(P1) -- documented caller contract: the service layer rejects bad n_bits before a context exists
                    self.compiler.scheduled(specs[i]).expect("valid n_bits")
                });
            scheduled.iter().map(|s| s.circuit.clone()).collect()
        })
    }

    /// Characterization reports for [`Self::benchmarks`], memoized the
    /// same way (Tables 2, 3, 9 and §3.3 all consume these).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds `n_bits` (see [`Self::benchmarks`]).
    pub fn characterizations(&self) -> &[CircuitReport] {
        self.reports.get_or_init(|| {
            // Materialize the benchmarks first: characterization
            // consumes the scheduled artifacts anyway (the store
            // shares them), and `lowering_runs` keeps its historical
            // meaning — any path that needed the benchmark substrate
            // counts as one materialization.
            let _ = self.benchmarks();
            let specs = paper_specs(self.config.n_bits);
            let chars = self
                .compiler
                .characterize_many(&specs, qods_pool::pool_threads(specs.len()))
                // qods-lint: allow(P1) -- documented caller contract: the service layer rejects bad n_bits before a context exists
                .expect("valid n_bits");
            chars.iter().map(|c| c.report.clone()).collect()
        })
    }

    /// How many times this context materialized its benchmark set
    /// (0 or 1); lets tests assert the memoization contract. Whether
    /// the materialization *recompiled* anything or was served from
    /// the artifact store is visible separately through
    /// `self.compiler().store().stats().computed`.
    pub fn lowering_runs(&self) -> usize {
        self.lowering_runs.load(Ordering::Relaxed)
    }
}

/// One independently runnable paper artifact.
///
/// Implementations are stateless values: everything expensive lives in
/// the shared [`StudyContext`], which is why a whole registry of
/// experiments can run in parallel over one context.
pub trait Experiment: Send + Sync {
    /// Stable identifier (`"table9"`, `"fig15"`, …) used on the command
    /// line and in result files.
    fn id(&self) -> &'static str;

    /// Human-readable one-line title.
    fn title(&self) -> &'static str;

    /// Alternate identifiers that resolve to this experiment (the paper
    /// sometimes splits one computation across two tables).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// The shared substrate [`Experiment::run`] reads from the
    /// context, which a job materializes before anything waits on it
    /// (see [`crate::registry::run_planned`]).
    fn substrate(&self) -> Substrate {
        Substrate::None
    }

    /// Runs the experiment over the shared context.
    fn run(&self, ctx: &StudyContext) -> ExperimentOutput;
}

/// The shared, memoized part of a [`StudyContext`] an experiment
/// reads. Ordered by inclusion: the characterizations are built from
/// the benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Substrate {
    /// Nothing shared.
    None,
    /// The lowered benchmark circuits ([`StudyContext::benchmarks`]).
    Benchmarks,
    /// Their characterization reports
    /// ([`StudyContext::characterizations`]).
    Characterizations,
}

impl Substrate {
    /// Materializes this substrate in `ctx` (a no-op once it is).
    pub(crate) fn materialize(self, ctx: &StudyContext) {
        match self {
            Substrate::None => {}
            Substrate::Benchmarks => {
                ctx.benchmarks();
            }
            Substrate::Characterizations => {
                ctx.characterizations();
            }
        }
    }
}

/// The typed result of one experiment run.
///
/// Externally tagged in JSON (`{"Table9": {...}}`), so archived results
/// are self-describing and round-trip through serde.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExperimentOutput {
    /// Tables 1 and 4.
    Latency(LatencyOut),
    /// Fig 4.
    Fig4(Fig4Out),
    /// Table 2.
    Table2(Table2Out),
    /// Table 3.
    Table3(Table3Out),
    /// §3.3.
    NonTransversal(NonTransversalOut),
    /// Fig 11 / §4.3.
    SimpleFactory(SimpleFactoryOut),
    /// Tables 5–6.
    ZeroFactory(PipelinedFactoryOut),
    /// Tables 7–8.
    Pi8Factory(PipelinedFactoryOut),
    /// Table 9.
    Table9(Table9Out),
    /// Fig 7.
    Fig7(SeriesOut),
    /// Fig 8.
    Fig8(SeriesOut),
    /// Fig 15.
    Fig15(Fig15Out),
    /// Fig 6 / §4.4.2.
    Cascade(CascadeOut),
    /// The kernel width sweep (extension; `widthsweep`).
    WidthSweep(WidthSweepOut),
}

impl ExperimentOutput {
    /// The figure series this output exports as CSV, if any, as
    /// `(file stem, series)` pairs. Generic consumers (the `repro`
    /// binary) call this instead of matching on variants.
    pub fn csv_series(&self, id: &str) -> Vec<(String, Vec<Series>)> {
        match self {
            ExperimentOutput::Fig7(s) | ExperimentOutput::Fig8(s) => {
                vec![(id.to_string(), s.series.clone())]
            }
            ExperimentOutput::Fig15(f) => f
                .panels
                .iter()
                .map(|p| {
                    let safe = crate::output::csv_safe_stem(&p.name);
                    (format!("{id}_{safe}"), p.curves.clone())
                })
                .collect(),
            ExperimentOutput::WidthSweep(s) => vec![
                (format!("{id}_speed_of_data"), s.speed_of_data_series()),
                (format!("{id}_zero_bandwidth"), s.zero_bandwidth_series()),
            ],
            _ => Vec::new(),
        }
    }
}

/// The result of running one registered experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// The experiment's primary id.
    pub id: String,
    /// The experiment's title.
    pub title: String,
    /// Wall-clock seconds this experiment took.
    pub seconds: f64,
    /// The typed output.
    pub output: ExperimentOutput,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_lowers_benchmarks_exactly_once() {
        let ctx = StudyContext::new(StudyConfig::smoke());
        assert_eq!(ctx.lowering_runs(), 0);
        let a = ctx.benchmarks().len();
        let b = ctx.benchmarks().len();
        let reports = ctx.characterizations().len();
        assert_eq!((a, b, reports), (3, 3, 3));
        assert_eq!(ctx.lowering_runs(), 1);
    }

    #[test]
    fn context_is_shareable_across_threads() {
        let ctx = StudyContext::new(StudyConfig::smoke());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| ctx.benchmarks().len());
            }
        });
        assert_eq!(ctx.lowering_runs(), 1);
    }
}
