//! Ratchet-demo fixture: exactly one unjustified lock site — a guard bound
//! to `_`, which drops immediately and makes the critical section a no-op.
//! Recorded at `locks 1` in this fixture's audit-baseline.txt.
//!
//! The fixture tree is not a workspace member and is never compiled;
//! `collect_sources` skips `fixtures` directories, so the workspace tier-1
//! gates never scan it.

pub struct Counter {
    hits: std::sync::Mutex<u64>,
}

impl Counter {
    /// The recorded debt: the guard is discarded the instant it is taken,
    /// so nothing is actually protected here.
    pub fn touch(&self) {
        let _ = self.hits.lock().expect("fixture mutex poisoned");
    }

    /// A clean named guard for contrast: inventoried, never a violation.
    pub fn bump(&self) {
        let mut hits = self.hits.lock().expect("fixture mutex poisoned");
        *hits += 1;
    }
}
