//! S1 fixture: instrumentation-site string drift.

pub fn typoed_handles(metrics: &qods_obs::Registry) {
    let _ = metrics.counter("net.requsts"); // finding: typo-ed site
    let _ = metrics.counter("net.requests"); // canonical — fine
    let _ = metrics.gauge("net.connections"); // canonical — fine
    let _ = metrics.histogram("net.latecy"); // finding: typo-ed site
    let _ = metrics.counter(qods_obs::sites::NET_ERRORS); // constant — fine
}

pub fn typoed_spans() {
    let _span = qods_obs::span!("svc.schedle"); // finding: typo-ed site
    let _also = qods_obs::span!("svc.schedule"); // canonical — fine
    qods_obs::trace::instant("fault.fired", "detail"); // canonical — fine
    instant("not.a.site"); // bare call, no path prefix — out of scope
}

fn instant(_what: &str) {}

pub fn retired(metrics: &qods_obs::Registry) {
    // qods-lint: allow(S1) -- fixture: documenting a retired metric name
    let _ = metrics.counter("old.metric");
}
