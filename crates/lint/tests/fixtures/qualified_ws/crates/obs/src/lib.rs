pub fn instant(n: usize) -> usize {
    n
}
