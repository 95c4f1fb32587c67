use crate::helpers::first;

pub struct Forwarding;

impl Forwarding {
    pub fn process(&mut self, v: Option<u32>) -> u32 {
        first(v)
    }
}

#[cfg(test)]
mod tests;
