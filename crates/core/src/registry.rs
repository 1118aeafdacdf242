//! The experiment registry: list and resolve paper artifacts by id —
//! and [`run_planned`], the one job plan every run goes through (the
//! service scheduler's, and the unit tests' here).

use crate::experiment::{Experiment, StudyContext, Substrate};
use crate::experiments::{
    CascadeExperiment, Fig15Experiment, Fig4Experiment, Fig7Experiment, Fig8Experiment,
    LatencyExperiment, NonTransversalExperiment, Pi8FactoryExperiment, SimpleFactoryExperiment,
    Table2Experiment, Table3Experiment, Table9Experiment, WidthSweepExperiment,
    ZeroFactoryExperiment,
};

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
}

/// Runs `selection` over `ctx` on at most `threads` pool participants
/// and returns `run(k, selection[k])` for every `k`, in selection
/// order.
///
/// The job is planned so that no experiment waits idle on the shared
/// substrate. The first tasks materialize the largest [`Substrate`]
/// any selected experiment declares, one task per kernel; the
/// substrate-free experiments come next, and the experiments that
/// read the substrate come last, each group in selection order.
/// Participants claim tasks in that order from this one fan-out, so
/// the kernels start at once and substrate-free work fills whichever
/// participant has no kernel left to claim. Results are assembled by
/// index, so they are identical at any `threads`.
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
    let kernels = substrate.kernels(ctx);
    let lead = kernels.len();
    let (free, dependent): (Vec<usize>, Vec<usize>) =
        (0..selection.len()).partition(|&k| selection[k].substrate() == Substrate::None);
    let order: Vec<usize> = free.into_iter().chain(dependent).collect();
    let mut done: Vec<(usize, T)> = qods_pool::run_indexed(lead + order.len(), threads, |j| {
        if j < lead {
            // A substrate task is an experiment boundary too.
            qods_pool::check_deadline();
            substrate.materialize(ctx, kernels[j]);
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::experiment::ExperimentRecord;
    use crate::study::StudyConfig;
    use qods_compile::ArtifactStore;
    use std::sync::Arc;

    /// A smoke context over its own store, so its compile counts are
    /// this test's alone.
    fn private_context() -> StudyContext {
        StudyContext::with_store(StudyConfig::smoke(), Arc::new(ArtifactStore::in_memory()))
    }

    /// Every registered experiment's record over `ctx`, run as one
    /// plan — what the crate's report and study tests assemble from.
    pub(crate) fn paper_records(ctx: &StudyContext) -> Vec<ExperimentRecord> {
        let r = Registry::paper();
        let all: Vec<&dyn Experiment> = r.iter().collect();
        run_planned(&all, ctx, 2, |_, exp| ExperimentRecord {
            id: exp.id().to_string(),
            title: exp.title().to_string(),
            seconds: 0.0,
            output: exp.run(ctx),
        })
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
    fn a_plan_agrees_at_one_and_many_threads_and_lowers_once() {
        let r = Registry::paper();
        let all: Vec<&dyn Experiment> = r.iter().collect();
        let run = |threads| {
            let ctx = private_context();
            let outputs = run_planned(&all, &ctx, threads, |_, exp| exp.run(&ctx));
            (outputs, ctx.compiler().store().stats().computed)
        };
        let (seq, seq_computed) = run(1);
        let (par, par_computed) = run(qods_pool::pool_threads(all.len()));
        assert_eq!(seq.len(), all.len());
        for ((p, s), exp) in par.iter().zip(&seq).zip(&all) {
            assert_eq!(p, s, "{} outputs differ", exp.id());
        }
        // Concurrent lookups of one kernel joined one computation: the
        // parallel run compiled exactly the artifacts a sequential one
        // does.
        assert_eq!(par_computed, seq_computed);
    }

    #[test]
    fn unknown_id_is_a_clean_error() {
        let r = Registry::paper();
        let err = r.resolve(&["table9", "nope"]).err().expect("unknown id");
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
    fn duplicate_selection_is_rejected() {
        let r = Registry::paper();
        let err = r
            .resolve(&["fig6", "table9", "table9"])
            .err()
            .expect("duplicate id");
        assert_eq!(
            err,
            RegistryError::Duplicate {
                id: "table9".to_string(),
                canonical: "table9".to_string(),
            }
        );
        assert!(err.to_string().contains("duplicate experiment id"));
    }

    #[test]
    fn alias_duplicating_its_primary_id_is_rejected() {
        let r = Registry::paper();
        // `table6` is an alias of `table5`: selecting both names one
        // experiment twice.
        let err = r
            .resolve(&["table5", "table6"])
            .err()
            .expect("alias duplicate");
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
