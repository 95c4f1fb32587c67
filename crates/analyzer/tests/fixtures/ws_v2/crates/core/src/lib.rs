//! Seeded fixture: a panic two hops below the router entry point, plus
//! sans-io bait on a non-exempt path.

pub struct Forwarding;

impl Forwarding {
    pub fn process(&mut self) {
        self.helper();
    }

    fn helper(&mut self) {
        deep_util(&[1, 2, 3]);
    }
}

fn deep_util(v: &[u32]) -> u32 {
    v[0]
}

pub fn impure_bait() {
    let _ = std::net::TcpListener::bind("127.0.0.1:0");
}
