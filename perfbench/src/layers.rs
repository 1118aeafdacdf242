//! Per-layer probes. Each layer is timed from outside, through its
//! public functions, on the workload's own requests and
//! configuration. Every breakdown ends in a named residual, so the
//! layers add up to the end-to-end number they explain.

use crate::serve::{pinned, request, WORKERS};
use crate::stats::{mean, median, ratio, residual};
use crate::Metric;
use qods_compile::{paper_specs, ArtifactStore, Compiler, SynthBudget};
use qods_core::experiment::StudyContext;
use qods_core::registry::Registry;
use qods_core::steane::prep::PrepStrategy;
use qods_core::study::StudyConfig;
use qods_net::protocol::{parse_line, render, result_line};
use qods_service::{CacheStats, Scheduler, SchedulerStats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Inputs of the net and service probes.
pub struct NetProbe<'a> {
    pub base: &'a StudyConfig,
    /// Lines the workload's caching server had already served before
    /// the replayed ones.
    pub warm: &'a [String],
    /// Requests sent over TCP, replayed in-process in the same cache
    /// state.
    pub replay: &'a [String],
    /// Client-observed round-trip p50 of those requests, us.
    pub roundtrip_us: f64,
    /// Lines that name configurations the probe scheduler has never
    /// seen.
    pub fresh: &'a [String],
}

/// Parse, service, and render time of the replayed requests, the
/// transport residual they leave of the round trip, and the service
/// layer's job-key, hit, and miss costs.
pub fn net_and_service(p: &NetProbe) -> Result<Vec<Metric>, String> {
    let run = |sched: &Scheduler, line: &str| {
        sched
            .run_coalesced(&request(line)?)
            .map(|(r, _)| r)
            .map_err(|e| format!("probe job failed: {e}"))
    };

    let replayer = Scheduler::with_options(p.base.clone(), WORKERS, true);
    for line in p.warm {
        run(&replayer, line)?;
    }
    let (mut parse, mut service, mut rendering, mut bytes) = (vec![], vec![], vec![], vec![]);
    for line in p.replay {
        let t = Instant::now();
        let parsed = black_box(parse_line(line));
        parse.push(us(t));
        let job = match parsed {
            Ok(qods_net::Request::Job(job)) => job,
            _ => return Err(format!("replayed line is not a job: {line}")),
        };
        let t = Instant::now();
        let (result, _) = replayer
            .run_coalesced(&job)
            .map_err(|e| format!("replayed job failed: {e}"))?;
        service.push(us(t));
        let t = Instant::now();
        let wire = render(&result_line(job.id.clone(), &result));
        rendering.push(us(t));
        bytes.push(wire.len() as f64);
    }
    let (parse_us, service_us, render_us) = (median(&parse), median(&service), median(&rendering));

    // Hits and misses on a caching scheduler that has served every
    // replayed line once.
    let hot = Scheduler::with_options(p.base.clone(), WORKERS, true);
    let mut requests = Vec::new();
    for line in p.replay {
        requests.push(request(line)?);
        run(&hot, line)?;
    }
    let mut key = Vec::new();
    let mut hit = Vec::new();
    for _ in 0..4 {
        for r in &requests {
            let t = Instant::now();
            black_box(hot.job_key(r).map_err(|e| format!("job key failed: {e}"))?);
            key.push(us(t));
            let t = Instant::now();
            black_box(
                hot.run_coalesced(r)
                    .map_err(|e| format!("hit failed: {e}"))?,
            );
            hit.push(us(t));
        }
    }
    let mut miss = Vec::new();
    for line in p.fresh {
        let t = Instant::now();
        black_box(run(&hot, line)?);
        miss.push(ms(t));
    }

    Ok(vec![
        Metric::new("net.roundtrip_us", p.roundtrip_us, "us"),
        Metric::new("net.parse_us", parse_us, "us"),
        Metric::new("svc.replay_us", service_us, "us"),
        Metric::new("net.render_us", render_us, "us"),
        Metric::new(
            "net.residual_us",
            residual(p.roundtrip_us, &[parse_us, service_us, render_us]),
            "us",
        ),
        Metric::new("net.response_bytes", mean(&bytes), "B"),
        Metric::new("svc.job_key_us", median(&key), "us"),
        Metric::new("svc.hit_us", median(&hit), "us"),
        Metric::new("svc.miss_ms", median(&miss), "ms"),
    ])
}

/// Cache and scheduler counters, for deltas over a phase.
#[derive(Clone, Copy)]
pub struct Traffic {
    cache: CacheStats,
    sched: SchedulerStats,
}

impl Traffic {
    pub fn of(sched: &Scheduler) -> Self {
        Traffic {
            cache: sched.pool().stats(),
            sched: sched.stats(),
        }
    }

    /// Hit and coalescing ratios of what `sched` did since `self`.
    pub fn since(&self, sched: &Scheduler) -> Vec<Metric> {
        let now = Traffic::of(sched);
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        let output_hits = d(now.cache.output_hits, self.cache.output_hits);
        let output_misses = d(now.cache.output_misses, self.cache.output_misses);
        let context_hits = d(now.cache.context_hits, self.cache.context_hits);
        let context_misses = d(now.cache.context_misses, self.cache.context_misses);
        let led = d(now.sched.jobs_led, self.sched.jobs_led);
        let coalesced = d(now.sched.jobs_coalesced, self.sched.jobs_coalesced);
        vec![
            Metric::new(
                "cache.output_hit_ratio",
                ratio(output_hits, output_hits + output_misses),
                "ratio",
            ),
            Metric::new(
                "cache.context_hit_ratio",
                ratio(context_hits, context_hits + context_misses),
                "ratio",
            ),
            Metric::new(
                "svc.coalesced_ratio",
                ratio(coalesced, led + coalesced),
                "ratio",
            ),
        ]
    }
}

/// The three compile stages of the config's benchmark kernels, each
/// on a fresh in-memory store so a call times only its own stage
/// (the next stage then finds its input stored).
pub fn compile_stages(cfg: &StudyConfig, reps: usize) -> Vec<Metric> {
    let budget = SynthBudget {
        max_t: cfg.synth_max_t,
        target_distance: cfg.synth_target,
    };
    let (mut ir, mut sched, mut chr) = (vec![], vec![], vec![]);
    for _ in 0..reps {
        let compiler = Compiler::new(Arc::new(ArtifactStore::in_memory()), budget);
        let (mut a, mut b, mut c) = (0.0, 0.0, 0.0);
        for spec in paper_specs(cfg.n_bits) {
            let t = Instant::now();
            let _ = black_box(compiler.ir(spec));
            a += ms(t);
            let t = Instant::now();
            let _ = black_box(compiler.scheduled(spec));
            b += ms(t);
            let t = Instant::now();
            let _ = black_box(compiler.characterization(spec));
            c += ms(t);
        }
        ir.push(a);
        sched.push(b);
        chr.push(c);
    }
    vec![
        Metric::new("compile.ir_ms", median(&ir), "ms"),
        Metric::new("compile.sched_ms", median(&sched), "ms"),
        Metric::new("compile.char_ms", median(&chr), "ms"),
    ]
}

/// Experiments timed one by one as engines; the rest are summed.
const ENGINES: [(&str, &str); 5] = [
    ("fig4", "phys.fig4_ms"),
    ("fig15", "arch.fig15_ms"),
    ("fig8", "circuit.fig8_ms"),
    ("fig7", "circuit.fig7_ms"),
    ("widthsweep", "compile.widthsweep_ms"),
];

/// Engine time of every experiment on an already-materialized context
/// at one worker; the one-worker job it should add up to; and the
/// pool's speedup from one worker to two. `job_2w_ms` is the
/// workload's own two-worker job p50 when it has one.
pub fn engines_and_pool(
    cfg: &StudyConfig,
    job_line: &str,
    job_2w_ms: Option<f64>,
    compile_ms: f64,
    reps: usize,
) -> Result<Vec<Metric>, String> {
    let job = request(job_line)?;
    let registry = Registry::paper();
    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut other = Vec::new();
    let mut computed = 0;
    let mut job_1w = Vec::new();
    pinned(1, || -> Result<(), String> {
        let one = StudyConfig {
            threads: 1,
            ..cfg.clone()
        };
        for _ in 0..reps {
            let ctx = StudyContext::with_store(one.clone(), Arc::new(ArtifactStore::in_memory()));
            black_box(ctx.characterizations());
            let mut rest = 0.0;
            for exp in registry.iter() {
                let t = Instant::now();
                black_box(exp.run(&ctx));
                let took = ms(t);
                if ENGINES.iter().any(|(id, _)| *id == exp.id()) {
                    times.entry(exp.id()).or_default().push(took);
                } else {
                    rest += took;
                }
            }
            other.push(rest);
            computed = ctx.compiler().store().stats().computed;

            let sched = Scheduler::with_options(cfg.clone(), 1, false);
            let t = Instant::now();
            black_box(
                sched
                    .run(&job)
                    .map_err(|e| format!("1-worker job failed: {e}"))?,
            );
            job_1w.push(ms(t));
        }
        Ok(())
    })?;
    let job_2w_ms = match job_2w_ms {
        Some(v) => v,
        None => {
            let sched = Scheduler::with_options(cfg.clone(), WORKERS, false);
            let mut runs = Vec::new();
            for _ in 0..reps {
                let t = Instant::now();
                black_box(
                    sched
                        .run(&job)
                        .map_err(|e| format!("2-worker job failed: {e}"))?,
                );
                runs.push(ms(t));
            }
            median(&runs)
        }
    };

    let engine = |id: &str| times.get(id).map_or(0.0, |v| median(v));
    let job_1w_ms = median(&job_1w);
    let other_ms = median(&other);
    let mut parts = vec![compile_ms, other_ms];
    let mut out = Vec::new();
    for (id, name) in ENGINES {
        parts.push(engine(id));
        out.push(Metric::new(name, engine(id), "ms"));
    }
    // Fig 4 runs `mc_trials` per preparation strategy.
    let trials = (PrepStrategy::ALL.len() as u64 * cfg.mc_trials) as f64;
    let points = (paper_specs(cfg.n_bits).len() * cfg.arch_panel.len() * cfg.sweep_points) as f64;
    out.extend([
        Metric::new("phys.trials_per_s", trials / (engine("fig4") / 1e3), "1/s"),
        Metric::new("arch.points_per_s", points / (engine("fig15") / 1e3), "1/s"),
        Metric::new("core.other_ms", other_ms, "ms"),
        Metric::new("core.job_1w_ms", job_1w_ms, "ms"),
        Metric::new("core.residual_ms", residual(job_1w_ms, &parts), "ms"),
        Metric::new("store.computed", computed as f64, "count"),
        Metric::new("pool.speedup", job_1w_ms / job_2w_ms, "x"),
    ]);
    Ok(out)
}
