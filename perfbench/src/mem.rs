//! Process memory readings from `/proc/self`: resident set size, its
//! high-water mark (`VmHWM`), and the `clear_refs` reset that lets one
//! process report a separate peak per phase.

use std::fs;

const MIB: f64 = 1024.0 * 1024.0;

/// Reads a `kB` field of `/proc/self/status` as bytes (0 when unavailable).
fn status_bytes(field: &str) -> u64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set size since start or the last [`reset_peak`], in bytes.
pub fn peak_bytes() -> u64 {
    status_bytes("VmHWM:")
}

/// Current resident set size, in bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS:")
}

/// Bytes to MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / MIB
}

/// Resets `VmHWM` to the current RSS (writing `5` to `clear_refs`), so the
/// next [`peak_bytes`] reports the peak of the phase that follows.
pub fn reset_peak() {
    // Without the reset every phase reports the process-wide peak, which
    // is still an upper bound; the run goes on.
    if let Err(e) = fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset VmHWM ({e}); phase peaks are process peaks");
    }
}

/// The high-water mark across phases separated by [`reset_peak`] calls:
/// folds the current `VmHWM` in before each reset.
#[derive(Debug, Default)]
pub struct PeakTracker {
    max: u64,
}

impl PeakTracker {
    /// Folds in the current peak, then resets it.
    pub fn fold_and_reset(&mut self) {
        self.max = self.max.max(peak_bytes());
        reset_peak();
    }

    /// The largest peak seen, including the current one.
    pub fn peak_bytes(&self) -> u64 {
        self.max.max(peak_bytes())
    }
}
