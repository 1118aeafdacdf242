//! The experiment registry: list, resolve, and run paper artifacts —
//! sequentially or in parallel over one shared [`StudyContext`] — and
//! [`run_planned`], the one job plan parallel runs go through.

use crate::experiment::{Experiment, ExperimentRecord, StudyContext, Substrate};
use crate::experiments::{
    CascadeExperiment, Fig15Experiment, Fig4Experiment, Fig7Experiment, Fig8Experiment,
    LatencyExperiment, NonTransversalExperiment, Pi8FactoryExperiment, SimpleFactoryExperiment,
    Table2Experiment, Table3Experiment, Table9Experiment, WidthSweepExperiment,
    ZeroFactoryExperiment,
};
use std::time::Instant;

/// A row of `Registry::list()`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentInfo {
    /// Primary id.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Alternate ids resolving to the same experiment.
    pub aliases: &'static [&'static str],
}

/// A selection of experiment ids that the registry rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// An id that no registered experiment (or alias) matches.
    Unknown {
        /// The id that failed to resolve.
        id: String,
    },
    /// The same experiment was requested more than once (directly or
    /// through an alias) — running it twice is never what the caller
    /// meant, so the selection is rejected instead of silently
    /// duplicating work.
    Duplicate {
        /// The id as the caller wrote it the second time.
        id: String,
        /// The primary id both requests resolve to.
        canonical: String,
    },
}

impl RegistryError {
    /// The offending id, whichever way the selection failed.
    pub fn id(&self) -> &str {
        match self {
            RegistryError::Unknown { id } | RegistryError::Duplicate { id, .. } => id,
        }
    }
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Unknown { id } => {
                write!(f, "unknown experiment id `{id}` (try `repro --list`)")
            }
            RegistryError::Duplicate { id, canonical } => write!(
                f,
                "duplicate experiment id `{id}` (experiment `{canonical}` already selected)"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// An ordered collection of registered experiments.
///
/// [`Registry::paper`] registers every artifact of the paper in
/// presentation order; custom registries can be assembled with
/// [`Registry::register`].
pub struct Registry {
    entries: Vec<Box<dyn Experiment>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::paper()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            entries: Vec::new(),
        }
    }

    /// The full paper: every table and figure, in the paper's order.
    pub fn paper() -> Self {
        let mut r = Registry::new();
        r.register(Box::new(LatencyExperiment));
        r.register(Box::new(Fig4Experiment));
        r.register(Box::new(Table2Experiment));
        r.register(Box::new(Table3Experiment));
        r.register(Box::new(NonTransversalExperiment));
        r.register(Box::new(SimpleFactoryExperiment));
        r.register(Box::new(ZeroFactoryExperiment));
        r.register(Box::new(Pi8FactoryExperiment));
        r.register(Box::new(Table9Experiment));
        r.register(Box::new(Fig7Experiment));
        r.register(Box::new(Fig8Experiment));
        r.register(Box::new(Fig15Experiment));
        r.register(Box::new(CascadeExperiment));
        r.register(Box::new(WidthSweepExperiment));
        r
    }

    /// Adds an experiment at the end of the run order.
    ///
    /// # Panics
    ///
    /// Panics when the experiment's id or an alias collides with an
    /// already-registered id — ids are the public addressing scheme,
    /// so a collision is a programming error.
    pub fn register(&mut self, exp: Box<dyn Experiment>) {
        for id in std::iter::once(exp.id()).chain(exp.aliases().iter().copied()) {
            assert!(
                self.get(id).is_none(),
                "duplicate experiment id `{id}` registered"
            );
        }
        self.entries.push(exp);
    }

    /// How many experiments are registered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registered experiments, in run order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Experiment> {
        self.entries.iter().map(AsRef::as_ref)
    }

    /// Id, title, and aliases of every registered experiment.
    pub fn list(&self) -> Vec<ExperimentInfo> {
        self.entries
            .iter()
            .map(|e| ExperimentInfo {
                id: e.id(),
                title: e.title(),
                aliases: e.aliases(),
            })
            .collect()
    }

    /// Resolves an id or alias to its experiment.
    pub fn get(&self, id: &str) -> Option<&dyn Experiment> {
        self.entries
            .iter()
            .find(|e| e.id() == id || e.aliases().contains(&id))
            .map(AsRef::as_ref)
    }

    /// Resolves a selection of ids (or aliases) to experiments,
    /// rejecting unknown ids and duplicates — including a primary id
    /// and one of its aliases naming the same experiment twice.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Unknown`] for an id that does not resolve,
    /// [`RegistryError::Duplicate`] when two ids resolve to the same
    /// experiment.
    pub fn resolve(&self, ids: &[&str]) -> Result<Vec<&dyn Experiment>, RegistryError> {
        let mut selected: Vec<&dyn Experiment> = Vec::with_capacity(ids.len());
        for id in ids {
            let exp = self.get(id).ok_or_else(|| RegistryError::Unknown {
                id: (*id).to_string(),
            })?;
            if selected.iter().any(|s| s.id() == exp.id()) {
                return Err(RegistryError::Duplicate {
                    id: (*id).to_string(),
                    canonical: exp.id().to_string(),
                });
            }
            selected.push(exp);
        }
        Ok(selected)
    }

    /// Runs one experiment by id over the shared context.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Unknown`] when the id does not resolve.
    pub fn run_one(&self, id: &str, ctx: &StudyContext) -> Result<ExperimentRecord, RegistryError> {
        let exp = self
            .get(id)
            .ok_or_else(|| RegistryError::Unknown { id: id.to_string() })?;
        Ok(record(exp, ctx))
    }

    /// Runs a selection of experiments (ids or aliases) sequentially,
    /// in the order given.
    ///
    /// # Errors
    ///
    /// Returns the first [`RegistryError`] in the selection — an
    /// unknown id or a duplicate (see [`Registry::resolve`]); nothing
    /// runs in that case.
    pub fn run_selected(
        &self,
        ids: &[&str],
        ctx: &StudyContext,
    ) -> Result<Vec<ExperimentRecord>, RegistryError> {
        Ok(self
            .resolve(ids)?
            .into_iter()
            .map(|e| record(e, ctx))
            .collect())
    }

    /// Runs every registered experiment in parallel over `ctx` and
    /// returns the records in registration order.
    ///
    /// The run is one [`run_planned`] job on the process-wide pool
    /// (`qods_pool`), capped at `min(experiments, host threads)`
    /// participants: the shared substrate is materialized first while
    /// the substrate-free experiments (Fig 4's Monte Carlo, the
    /// factories, the width sweep) fill the other workers, and a
    /// single-core host degrades to the sequential path with no
    /// oversubscription. A process-wide `--threads` pin applies here
    /// like everywhere else. The artifact store underneath computes
    /// each kernel artifact once, so the substrate is built exactly
    /// once.
    pub fn run_all(&self, ctx: &StudyContext) -> Vec<ExperimentRecord> {
        let all: Vec<&dyn Experiment> = self.iter().collect();
        run_planned(&all, ctx, qods_pool::pool_threads(all.len()), |_, exp| {
            record(exp, ctx)
        })
    }
}

/// Runs `selection` over `ctx` on at most `threads` pool participants
/// and returns `run(k, selection[k])` for every `k`, in selection
/// order.
///
/// The job is planned so that no experiment waits idle on the shared
/// substrate. The first task materializes the largest
/// [`Substrate`] any selected experiment declares, the substrate-free
/// experiments come next, and the experiments that read the substrate
/// come last, each group in selection order. Participants claim tasks
/// in that order, so the substrate starts at once while the
/// substrate-free work fills the other workers. Results are assembled
/// by index, so they are identical at any `threads`.
pub fn run_planned<T, F>(
    selection: &[&dyn Experiment],
    ctx: &StudyContext,
    threads: usize,
    run: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &dyn Experiment) -> T + Sync,
{
    let substrate = selection
        .iter()
        .map(|e| e.substrate())
        .max()
        .unwrap_or(Substrate::None);
    let lead = usize::from(substrate != Substrate::None);
    let (free, dependent): (Vec<usize>, Vec<usize>) =
        (0..selection.len()).partition(|&k| selection[k].substrate() == Substrate::None);
    let order: Vec<usize> = free.into_iter().chain(dependent).collect();
    let mut done: Vec<(usize, T)> = qods_pool::run_indexed(lead + order.len(), threads, |j| {
        if j < lead {
            // The substrate task is an experiment boundary too.
            qods_pool::check_deadline();
            substrate.materialize(ctx);
            return None;
        }
        let k = order[j - lead];
        Some((k, run(k, selection[k])))
    })
    .into_iter()
    .flatten()
    .collect();
    done.sort_unstable_by_key(|&(k, _)| k);
    done.into_iter().map(|(_, t)| t).collect()
}

fn record(exp: &dyn Experiment, ctx: &StudyContext) -> ExperimentRecord {
    // qods-lint: allow(D1) -- wall-time metadata only; never hashed or
    // serialized into result lines
    let t0 = Instant::now();
    let output = exp.run(ctx);
    ExperimentRecord {
        id: exp.id().to_string(),
        title: exp.title().to_string(),
        seconds: t0.elapsed().as_secs_f64(),
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;
    use qods_compile::ArtifactStore;
    use std::sync::Arc;

    /// A smoke context over its own store, so its compile counts are
    /// this test's alone.
    fn private_context() -> StudyContext {
        StudyContext::with_store(StudyConfig::smoke(), Arc::new(ArtifactStore::in_memory()))
    }

    #[test]
    fn registry_lists_and_resolves_all_ids() {
        let r = Registry::paper();
        assert_eq!(r.len(), 14);
        for info in r.list() {
            assert_eq!(r.get(info.id).map(|e| e.id()), Some(info.id));
            for alias in info.aliases {
                assert_eq!(r.get(alias).map(|e| e.id()), Some(info.id), "alias {alias}");
            }
        }
        assert!(r.get("fig99").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate experiment id")]
    fn duplicate_registration_panics() {
        let mut r = Registry::paper();
        r.register(Box::new(crate::experiments::Table9Experiment));
    }

    #[test]
    fn a_plan_materializes_the_substrate_first_then_free_then_dependent() {
        let r = Registry::paper();
        let selection = r
            .resolve(&["fig15", "table1", "table2", "fig6"])
            .expect("known ids");
        let ctx = private_context();
        let calls = std::sync::Mutex::new(Vec::new());
        // One participant: the claim order is the run order.
        let ids = run_planned(&selection, &ctx, 1, |k, exp| {
            let computed = ctx.compiler().store().stats().computed;
            calls.lock().unwrap().push((exp.id(), computed));
            (k, exp.id())
        });
        assert_eq!(
            ids,
            vec![(0, "fig15"), (1, "table1"), (2, "table2"), (3, "fig6")],
            "results come back in selection order"
        );
        // The substrate (ir, sched and char of three kernels) is
        // compiled before the first experiment runs, and only then.
        assert_eq!(
            calls.into_inner().unwrap(),
            vec![("table1", 9), ("fig6", 9), ("fig15", 9), ("table2", 9)],
            "substrate first, then free, then dependent, each in selection order"
        );
        assert_eq!(ctx.compiler().store().stats().computed, 9);
    }

    #[test]
    fn parallel_and_sequential_agree_and_lower_once() {
        let r = Registry::paper();
        let par_ctx = private_context();
        let par = r.run_all(&par_ctx);
        let seq_ctx = private_context();
        let ids: Vec<&str> = r.iter().map(|e| e.id()).collect();
        let seq = r.run_selected(&ids, &seq_ctx).expect("every registered id");
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.id, s.id);
            assert_eq!(p.output, s.output, "{} outputs differ", p.id);
        }
        // Concurrent lookups of one kernel joined one computation: the
        // parallel run compiled exactly the artifacts a sequential one
        // does.
        assert_eq!(
            par_ctx.compiler().store().stats().computed,
            seq_ctx.compiler().store().stats().computed,
        );
    }

    #[test]
    fn unknown_id_is_a_clean_error() {
        let r = Registry::paper();
        let ctx = StudyContext::new(StudyConfig::smoke());
        let err = r.run_selected(&["table9", "nope"], &ctx).unwrap_err();
        assert_eq!(
            err,
            RegistryError::Unknown {
                id: "nope".to_string()
            }
        );
        assert_eq!(err.id(), "nope");
        assert!(err.to_string().contains("unknown experiment id `nope`"));
    }

    #[test]
    fn duplicate_selection_is_rejected_without_running() {
        let r = Registry::paper();
        let ctx = private_context();
        let err = r
            .run_selected(&["fig6", "table9", "table9"], &ctx)
            .unwrap_err();
        assert_eq!(
            err,
            RegistryError::Duplicate {
                id: "table9".to_string(),
                canonical: "table9".to_string(),
            }
        );
        assert!(err.to_string().contains("duplicate experiment id"));
        // Nothing ran: the context was never asked to lower.
        assert_eq!(ctx.compiler().store().stats(), Default::default());
    }

    #[test]
    fn alias_duplicating_its_primary_id_is_rejected() {
        let r = Registry::paper();
        let ctx = StudyContext::new(StudyConfig::smoke());
        // `table6` is an alias of `table5`: selecting both names one
        // experiment twice.
        let err = r.run_selected(&["table5", "table6"], &ctx).unwrap_err();
        assert_eq!(
            err,
            RegistryError::Duplicate {
                id: "table6".to_string(),
                canonical: "table5".to_string(),
            }
        );
    }

    #[test]
    fn resolve_keeps_request_order() {
        let r = Registry::paper();
        let ids: Vec<&str> = r
            .resolve(&["fig15", "table2", "fig4"])
            .expect("distinct ids")
            .iter()
            .map(|e| e.id())
            .collect();
        assert_eq!(ids, vec!["fig15", "table2", "fig4"]);
    }
}
