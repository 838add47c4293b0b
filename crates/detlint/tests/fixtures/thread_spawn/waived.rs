//! Fixture: a spawn behind a reasoned `#[allow]`.
pub fn watchdog() {
    #[allow(
        clippy::disallowed_methods,
        reason = "watchdog thread, never touches trial state"
    )]
    std::thread::spawn(|| loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
    });
}
