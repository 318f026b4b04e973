//! Host CPU steal, from `/proc/stat`: time the hypervisor gave this
//! machine's CPUs to someone else.

/// `(steal, total)` jiffies over all CPUs, or `None` where unreadable.
pub fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen since `from` (0 where unreadable).
pub fn steal_since(from: Option<(u64, u64)>) -> f64 {
    match (from, cpu_times()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}
