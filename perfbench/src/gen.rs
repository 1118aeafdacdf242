//! Seeded request streams. The benchmark seed decides every request a
//! workload sends; the program under test only sees the rendered
//! lines. Every stream is a pure function of `(seed, connection,
//! index)`, so a run can be replayed request by request.

use qods_core::registry::Registry;
use qods_net::protocol::render;
use qods_service::{Overrides, RunRequest};

/// SplitMix64: small, fast, and reproducible on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent sequence for each `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut mix = Rng(seed ^ 0x6a09_e667_f3bc_c909);
        let base = mix.next_u64();
        Rng(base ^ Rng(stream).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct items of `pool` in draw order (partial
    /// Fisher-Yates).
    pub fn pick(&mut self, pool: &[&str], k: usize) -> Vec<String> {
        let mut items = pool.to_vec();
        for i in 0..k.min(items.len()) {
            let j = i + self.below(items.len() - i);
            items.swap(i, j);
        }
        items.truncate(k);
        items.into_iter().map(str::to_string).collect()
    }
}

/// Every registered experiment id, in registry order.
pub fn experiment_ids() -> Vec<&'static str> {
    Registry::paper().iter().map(|e| e.id()).collect()
}

/// Stream numbers: one purpose per high byte, then connection and
/// request index, so no two purposes or connections share a sequence.
fn stream(purpose: u64, conn: u64, index: u64) -> u64 {
    (purpose << 56) ^ (conn << 48) ^ index
}

/// Operand widths the serving workloads' configurations draw from.
const SERVE_WIDTHS: [usize; 4] = [6, 8, 10, 12];

/// The `paper` job: every experiment, in registry order, at the paper
/// configuration. The seed only names it: the order of a job's
/// experiments decides how they pack onto the workers, so a seeded
/// order would make the seed move the latency.
pub fn paper_line(seed: u64) -> String {
    render(&RunRequest {
        id: Some(format!("paper-{seed}")),
        experiments: experiment_ids().into_iter().map(str::to_string).collect(),
        ..RunRequest::default()
    })
}

/// Distinct configurations the `serve-hit` pairs spread over.
pub const HIT_CONFIGS: usize = 4;
/// (configuration, selection) pairs `serve-hit` warms and then hits.
pub const HIT_PAIRS: usize = 32;
/// Largest selection in one `serve-hit` pair.
const HIT_MAX_SELECTION: usize = 4;

/// The warmed `(configuration, selection)` pairs of `serve-hit`, as
/// request lines. Selections draw from every experiment, so response
/// sizes run from one small table to several large series.
pub fn hit_pairs(seed: u64) -> Vec<String> {
    let ids = experiment_ids();
    let mut rng = Rng::new(seed, stream(2, 0, 0));
    let configs: Vec<Overrides> = (0..HIT_CONFIGS)
        .map(|_| Overrides {
            n_bits: Some(SERVE_WIDTHS[rng.below(SERVE_WIDTHS.len())]),
            seed: Some(rng.next_u64()),
            ..Overrides::default()
        })
        .collect();
    (0..HIT_PAIRS)
        .map(|p| {
            let k = 1 + rng.below(HIT_MAX_SELECTION);
            render(&RunRequest {
                id: Some(format!("hit-{p}")),
                experiments: rng.pick(&ids, k),
                overrides: configs[p % HIT_CONFIGS].clone(),
                deadline_ms: None,
            })
        })
        .collect()
}

/// Which warmed pair connection `conn` sends as its `i`-th request.
pub fn hit_choice(seed: u64, conn: u64, i: u64) -> usize {
    Rng::new(seed, stream(3, conn, i)).below(HIT_PAIRS)
}

/// Experiments besides `table2` in one `serve-fill` selection.
const FILL_EXTRA: usize = 3;

/// The `k`-th never-before-seen configuration of stream `owner`, as a
/// request. Each one misses the context cache and recompiles the QFT
/// (its synthesis target is unique within a run); `table2` in every
/// selection makes sure the benchmark circuits are built.
pub fn fill_new(seed: u64, owner: u64, k: u64) -> RunRequest {
    let ids = experiment_ids();
    let others: Vec<&str> = ids.iter().copied().filter(|&id| id != "table2").collect();
    let mut rng = Rng::new(seed, stream(4, owner, k));
    let unique = (k * 4 + owner + 1) % 1_000_000;
    let mut experiments = vec!["table2".to_string()];
    experiments.extend(rng.pick(&others, FILL_EXTRA));
    RunRequest {
        id: None,
        experiments,
        overrides: Overrides {
            n_bits: Some(SERVE_WIDTHS[rng.below(SERVE_WIDTHS.len())]),
            seed: Some(rng.next_u64()),
            synth_target: Some(1e-2 * (1.0 + unique as f64 * 1e-7)),
            ..Overrides::default()
        },
        deadline_ms: None,
    }
}

/// Identifies a `serve-fill` configuration: its owner stream and
/// index.
pub type FillKey = (u64, u64);

/// The configuration connection `conn` (0 or 1) names at step `i` of
/// `serve-fill`. Even steps name a new configuration of the
/// connection's own; odd steps repeat the one the other connection
/// named at the step before, so they coalesce in flight or hit the
/// cache.
pub fn fill_key(conn: u64, i: u64) -> FillKey {
    if i.is_multiple_of(2) {
        (conn, i / 2)
    } else {
        (1 - conn, i / 2)
    }
}

/// Connection `conn`'s `i`-th `serve-fill` request line.
pub fn fill_line(seed: u64, conn: u64, i: u64) -> String {
    let (owner, k) = fill_key(conn, i);
    let mut request = fill_new(seed, owner, k);
    request.id = Some(format!("fill-{conn}-{i}"));
    render(&request)
}

/// Owner stream for configurations the per-layer probes use as
/// first-seen misses; no connection sends them.
pub const PROBE_OWNER: u64 = 2;
/// Owner stream of the `serve-fill` warm-up requests.
const WARM_OWNER: u64 = 3;

/// `serve-fill` set-up traffic: one full job per serving width, so
/// the adders every later miss shares are compiled before timing.
pub fn fill_warmup(seed: u64) -> Vec<String> {
    SERVE_WIDTHS
        .iter()
        .enumerate()
        .map(|(k, &width)| {
            let mut request = fill_new(seed, WARM_OWNER, k as u64);
            request.id = Some(format!("warm-{k}"));
            request.experiments.clear();
            request.overrides.n_bits = Some(width);
            render(&request)
        })
        .collect()
}

/// First-seen paper-scale jobs for the miss probe: the paper job under
/// another Monte-Carlo seed.
pub fn paper_fresh(seed: u64, k: u64) -> String {
    let mut rng = Rng::new(seed, stream(5, 0, k));
    render(&RunRequest {
        id: Some(format!("paper-fresh-{k}")),
        overrides: Overrides {
            seed: Some(rng.next_u64()),
            ..Overrides::default()
        },
        ..RunRequest::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_streams() {
        assert_eq!(paper_line(7), paper_line(7));
        assert_eq!(hit_pairs(7), hit_pairs(7));
        assert_eq!(fill_warmup(7), fill_warmup(7));
        assert_eq!(paper_fresh(7, 1), paper_fresh(7, 1));
        for i in 0..50 {
            assert_eq!(hit_choice(7, 1, i), hit_choice(7, 1, i));
            assert_eq!(fill_line(7, 0, i), fill_line(7, 0, i));
        }
    }

    #[test]
    fn other_seeds_and_connections_give_other_streams() {
        assert_ne!(hit_pairs(1), hit_pairs(2));
        let a: Vec<usize> = (0..64).map(|i| hit_choice(1, 0, i)).collect();
        let b: Vec<usize> = (0..64).map(|i| hit_choice(1, 1, i)).collect();
        let c: Vec<usize> = (0..64).map(|i| hit_choice(2, 0, i)).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(fill_line(1, 0, 0), fill_line(2, 0, 0));
        assert_ne!(paper_fresh(1, 0), paper_fresh(1, 1));
    }

    #[test]
    fn paper_jobs_select_every_experiment_once() {
        let line = paper_line(3);
        let mut ids = experiment_ids();
        ids.sort_unstable();
        let request = match qods_net::protocol::parse_line(&line) {
            Ok(qods_net::Request::Job(job)) => job,
            other => panic!("paper line must parse as a job: {other:?}"),
        };
        let mut got: Vec<&str> = request.experiments.iter().map(String::as_str).collect();
        got.sort_unstable();
        assert_eq!(got, ids);
        assert!(request.overrides.is_empty());
    }

    #[test]
    fn fill_steps_alternate_new_and_repeated_configurations() {
        // Step 2k is connection c's own k-th configuration; step 2k+1
        // repeats the other connection's k-th.
        assert_eq!(fill_key(0, 4), (0, 2));
        assert_eq!(fill_key(1, 5), (0, 2));
        assert_eq!(fill_key(0, 5), (1, 2));
        let own = fill_new(5, 0, 2);
        let repeated = match qods_net::protocol::parse_line(&fill_line(5, 1, 5)) {
            Ok(qods_net::Request::Job(job)) => job,
            other => panic!("fill line must parse as a job: {other:?}"),
        };
        assert_eq!(repeated.overrides, own.overrides);
        assert_eq!(repeated.experiments, own.experiments);
        // New configurations never repeat within a run.
        let mut targets: Vec<u64> = (0..200)
            .flat_map(|k| (0..3).map(move |o| (o, k)))
            .map(|(o, k)| fill_new(5, o, k).overrides.synth_target.map(f64::to_bits))
            .map(|t| t.expect("fill configurations set a synthesis target"))
            .collect();
        let n = targets.len();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), n);
    }

    #[test]
    fn hit_pairs_span_every_configuration() {
        let pairs = hit_pairs(11);
        assert_eq!(pairs.len(), HIT_PAIRS);
        for (p, line) in pairs.iter().enumerate() {
            let request = match qods_net::protocol::parse_line(line) {
                Ok(qods_net::Request::Job(job)) => job,
                other => panic!("pair {p} must parse as a job: {other:?}"),
            };
            assert!((1..=HIT_MAX_SELECTION).contains(&request.experiments.len()));
        }
    }
}
