pub fn tally(n: usize) -> usize {
    record(n)
}

fn record(n: usize) -> usize {
    if n == 0 {
        panic!("nothing to record");
    }
    n
}
