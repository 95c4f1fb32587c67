// Fixture: PURE002 must stay quiet — `Instant` and `SystemTime` here name
// enum variants, not wall clocks.

pub enum Mode {
    Instant,
    Later,
}

pub enum Clock {
    SystemTime,
    Simulated,
}

pub fn delay_ms(mode: Mode, clock: Clock) -> u64 {
    let base = match clock {
        Clock::SystemTime => 1,
        Clock::Simulated => 0,
    };
    match mode {
        Mode::Instant => base,
        Mode::Later => base + 10,
    }
}
