//! Fixture: a test module kept in a file of its own. The file that
//! `#[cfg(test)] mod tests;` pulls in is test code and must stay silent;
//! the same body under a plain `mod helpers;` is production code and must
//! fire SAFE001 and PANIC001.

mod helpers;
mod router;
