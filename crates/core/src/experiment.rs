//! The experiment abstraction: every table and figure of the paper is
//! an independent, individually-addressable [`Experiment`] running over
//! a shared [`StudyContext`].
//!
//! The context gives experiments the expensive shared substrate — the
//! three lowered benchmark circuits and their characterizations —
//! straight from the `qods-compile` staged pipeline. Its artifacts are
//! content-addressed in a shared two-tier [`qods_compile::ArtifactStore`]
//! (in-process + optional disk) that computes each key exactly once,
//! even when any number of experiments ask for it at once on parallel
//! threads; a second context for the same configuration — or a second
//! *process* over a warm disk store — reuses the compiled circuits
//! instead of lowering again. Concrete experiments live in
//! [`crate::experiments`]; the [`crate::registry::Registry`] lists,
//! resolves, and runs them.

use crate::output::{
    CascadeOut, Fig15Out, Fig4Out, LatencyOut, NonTransversalOut, PipelinedFactoryOut, Series,
    SeriesOut, SimpleFactoryOut, Table2Out, Table3Out, Table9Out, WidthSweepOut,
};
use crate::study::StudyConfig;
use qods_compile::{
    paper_specs, ArtifactStore, Characterization, Compiler, HeapBytes, ScheduledCircuit,
    SynthBudget,
};
use qods_kernels::KernelSpec;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The shared substrate for a study run.
///
/// Cheap to create and holds no artifact itself: the benchmark
/// circuits are compiled on first use and at most once per *store*,
/// across any number of contexts and threads, because the
/// content-addressed artifact store underneath is the one
/// compute-once memo.
#[derive(Debug)]
pub struct StudyContext {
    config: StudyConfig,
    compiler: Compiler,
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

    /// The three lowered benchmark circuits (QRCA, QCLA, QFT), looked
    /// up one after another in the artifact store (compiled on the
    /// first lookup of each, shared by every lookup after that).
    /// A planned job ([`crate::registry::run_planned`]) compiles them
    /// in parallel up front.
    ///
    /// # Panics
    ///
    /// Panics when `n_bits` is outside the kernel width bound
    /// (`1..=`[`qods_kernels::MAX_WIDTH`]); the service layer rejects
    /// such configurations with a typed error before a context is
    /// built.
    pub fn benchmarks(&self) -> Vec<Arc<ScheduledCircuit>> {
        paper_specs(self.config.n_bits)
            .into_iter()
            // Documented caller contract: the service layer rejects bad n_bits before a context exists.
            .map(|spec| self.compiler.scheduled(spec).expect("valid n_bits"))
            .collect()
    }

    /// Characterizations of [`Self::benchmarks`], looked up the same
    /// way (Tables 2, 3, 9 and §3.3 all consume these). Each kernel's
    /// lowered circuit is looked up first, so the report is made from
    /// the stored circuit and the circuit stays in the store for the
    /// experiments that read it (a lone characterization would lower
    /// transiently and keep only the report).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds `n_bits` (see [`Self::benchmarks`]).
    pub fn characterizations(&self) -> Vec<Arc<Characterization>> {
        paper_specs(self.config.n_bits)
            .into_iter()
            .map(|spec| {
                // Documented caller contract: the service layer rejects bad n_bits before a context exists.
                self.compiler.scheduled(spec).expect("valid n_bits");
                self.compiler.characterization(spec).expect("valid n_bits")
            })
            .collect()
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

/// The shared, store-memoized part of a [`StudyContext`] an
/// experiment reads. Ordered by inclusion: materializing the
/// characterizations also materializes the benchmarks, asking for the
/// lowered circuit before its report, so the report is made from the
/// stored circuit and both artifacts are kept.
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
    /// The kernels whose artifacts this substrate holds: none, or the
    /// three of [`paper_specs`].
    pub(crate) fn kernels(self, ctx: &StudyContext) -> Vec<KernelSpec> {
        match self {
            Substrate::None => Vec::new(),
            Substrate::Benchmarks | Substrate::Characterizations => paper_specs(ctx.config.n_bits),
        }
    }

    /// Materializes this substrate's artifacts of one of its
    /// [`Substrate::kernels`] in `ctx`'s artifact store (a no-op once
    /// they are). Each kernel is its own task of the job's plan
    /// ([`crate::registry::run_planned`]), so this never fans out.
    pub(crate) fn materialize(self, ctx: &StudyContext, spec: KernelSpec) {
        // Documented caller contract: the service layer rejects bad
        // n_bits before a context exists.
        match self {
            Substrate::None => {}
            Substrate::Benchmarks => {
                ctx.compiler.scheduled(spec).expect("valid n_bits");
            }
            Substrate::Characterizations => {
                ctx.compiler.scheduled(spec).expect("valid n_bits");
                ctx.compiler.characterization(spec).expect("valid n_bits");
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

impl HeapBytes for ExperimentOutput {
    fn heap_bytes(&self) -> usize {
        match self {
            ExperimentOutput::Latency(_) | ExperimentOutput::SimpleFactory(_) => 0,
            ExperimentOutput::Fig4(o) => o.heap_bytes(),
            ExperimentOutput::Table2(o) => o.heap_bytes(),
            ExperimentOutput::Table3(o) => o.heap_bytes(),
            ExperimentOutput::NonTransversal(o) => o.heap_bytes(),
            ExperimentOutput::ZeroFactory(o) | ExperimentOutput::Pi8Factory(o) => o.heap_bytes(),
            ExperimentOutput::Table9(o) => o.heap_bytes(),
            ExperimentOutput::Fig7(o) | ExperimentOutput::Fig8(o) => o.heap_bytes(),
            ExperimentOutput::Fig15(o) => o.heap_bytes(),
            ExperimentOutput::Cascade(o) => o.heap_bytes(),
            ExperimentOutput::WidthSweep(o) => o.heap_bytes(),
        }
    }
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

    fn private_context() -> StudyContext {
        StudyContext::with_store(StudyConfig::smoke(), Arc::new(ArtifactStore::in_memory()))
    }

    #[test]
    fn context_lowers_benchmarks_exactly_once() {
        let ctx = private_context();
        let store = ctx.compiler().store();
        assert_eq!(store.stats().computed, 0);
        // Reports first: they keep the circuits the benchmarks read.
        let reports = ctx.characterizations().len();
        assert_eq!(store.stats().computed, 9);
        let a = ctx.benchmarks();
        let b = ctx.benchmarks();
        assert_eq!((a.len(), b.len(), reports), (3, 3, 3));
        assert!(a.iter().zip(&b).all(|(x, y)| Arc::ptr_eq(x, y)));
        // ir + sched + char for each of the three kernels.
        assert_eq!(store.stats().computed, 9);
    }

    #[test]
    fn context_is_shareable_across_threads() {
        let ctx = private_context();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| ctx.benchmarks().len());
            }
        });
        // ir + sched for each kernel, however the threads interleaved.
        assert_eq!(ctx.compiler().store().stats().computed, 6);
    }
}
