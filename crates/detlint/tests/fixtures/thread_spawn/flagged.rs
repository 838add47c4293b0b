//! Fixture: threads outside the trial harness, by each entry point.
pub fn fire_and_forget() {
    std::thread::spawn(|| {
        let _ = 1 + 1;
    });
}

pub fn scoped() {
    std::thread::scope(|s| {
        s.spawn(|| 1 + 1);
    });
}

pub fn built() -> std::io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new().spawn(|| ())
}
