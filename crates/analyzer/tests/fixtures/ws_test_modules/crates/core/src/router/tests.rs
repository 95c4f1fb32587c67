pub fn first(v: Option<u32>) -> u32 {
    v.unwrap()
}
