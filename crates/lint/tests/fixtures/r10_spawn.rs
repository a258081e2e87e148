// R10 fixture: threads started, in a crate that reaches a failpoint,
// without sharing their spawner's fault scope.
pub fn bare() {
    std::thread::spawn(|| work()); // line 4
}

pub fn scoped() {
    std::thread::scope(|s| {
        s.spawn(move || work()); // line 9
        s.spawn(lightdb_storage::faults::inherit(|| work()));
    });
}

pub fn wrapped(dir: &Path) -> std::io::Result<()> {
    std::thread::spawn(faults::inherit(move || work()));
    // A child process and the worker constructor are not threads.
    std::process::Command::new("true").spawn()?;
    let _ = worker::spawn(dir);
    Ok(())
}

#[cfg(test)]
mod tests {
    // Tests start their threads as they please.
    fn t() {
        std::thread::spawn(|| ());
    }
}
