pub struct Registry;

impl Registry {
    pub fn new() -> Registry {
        panic!("not on the serving path");
    }
}
