//! Host-side process measurements read from `/proc` (Linux only).

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (Linux
/// fixes `USER_HZ` at 100 for this interface).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time this process has used so far, in seconds,
/// summed over all of its threads (including joined ones).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3 of the man page, utime 14, stime 15.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Reset this process's peak resident set size to its current one, so the
/// next [`peak_rss_mb`] covers only what runs in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process since it started or since the
/// last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed integer kernel (hashing, sorting and a hash map) run on
/// `threads` threads at once for `rounds` rounds, `chunks` times in a
/// row; the probe's time is the fastest chunk's, so a burst of load on
/// the shared host during one chunk does not count. The kernel shares no
/// code with the program under test, so its time tracks only how fast
/// the host runs at the moment. Run right before and after a
/// measurement, it scales the measurement to the reference host speed
/// ([`Probe::scale`]). The shared host's speed drifts by tens of percent
/// within minutes: over ten runs per workload, the raw session medians'
/// quartile spread reached 0.23 of their median while the scaled ones
/// stayed under 0.1.
pub struct Probe {
    /// Threads the kernel runs on, the calling one among them: as many
    /// as the measured code uses. On the reference host one thread's
    /// speed changes by up to 1.6x in spells of a few seconds that a
    /// two-thread probe does not see.
    threads: usize,
    rounds: u64,
    chunks: usize,
    /// The probe's median time on the reference host, 2 vCPUs of a
    /// shared x86-64 cloud machine.
    ref_s: f64,
}

/// The probe around each session run (2 worker threads); its reference
/// time is the median over 30 benchmark runs.
pub const SESSION_PROBE: Probe = Probe {
    threads: 2,
    rounds: 40,
    chunks: 4,
    ref_s: 0.04,
};

/// The probe around each batch of session builds (one thread, short
/// enough to run between batches); its reference time is the median of
/// 240 probes over three benchmark runs.
pub const SETUP_PROBE: Probe = Probe {
    threads: 1,
    rounds: 5,
    chunks: 2,
    ref_s: 0.004,
};

impl Probe {
    /// Wall seconds the fastest chunk takes now.
    pub fn run(&self) -> f64 {
        (0..self.chunks)
            .map(|_| {
                let t = std::time::Instant::now();
                std::thread::scope(|s| {
                    for k in 1..self.threads {
                        s.spawn(move || std::hint::black_box(kernel(k as u64, self.rounds)));
                    }
                    std::hint::black_box(kernel(0, self.rounds));
                });
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Factor that scales a time measured while the probe took
    /// `probe_s` to the reference host speed.
    pub fn scale(&self, probe_s: f64) -> f64 {
        self.ref_s / probe_s
    }
}

fn kernel(seed: u64, rounds: u64) -> u64 {
    let mix = |mut z: u64| {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut v: Vec<u64> = (0..1u64 << 15).map(|i| mix(i ^ seed)).collect();
    let mut acc = 0u64;
    for round in 0..rounds {
        for x in &mut v {
            *x = mix(*x ^ round);
        }
        v.sort_unstable();
        let mut m = std::collections::HashMap::with_capacity(4096);
        for x in v.iter().step_by(4) {
            *m.entry(x & 4095).or_insert(0u32) += 1;
        }
        acc = acc.wrapping_add(m.len() as u64 ^ v[v.len() / 2]);
    }
    acc
}
