pub fn serve_line(line: &str) -> usize {
    let mut parts = Vec::new();
    parts.push(line.len());
    let request: Request = Deserialize::from_value(line);
    qods_obs::instant(Tally::new(parts.len()).0 + request.0)
}

pub fn decode<T: Deserialize>(line: &str) -> T {
    T::from_value(line)
}

pub struct Tally(usize);

impl Tally {
    fn new(n: usize) -> Tally {
        Tally(n)
    }
}

pub struct Request(usize);

impl Deserialize for Request {
    fn from_value(line: &str) -> Request {
        Request(line.parse().unwrap())
    }
}
