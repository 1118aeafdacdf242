use qods_obs::instant;

pub fn serve_line(line: &str) -> usize {
    instant(line.len());
    record(line.len())
}

fn record(n: usize) -> usize {
    n + 1
}
