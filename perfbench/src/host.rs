//! Process CPU time and peak resident memory, read from `/proc`.

/// `/proc/<pid>/stat` reports times in clock ticks of `USER_HZ`, which
/// the Linux ABI fixes at 100.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads included
/// (threads that have exited stay counted).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated, utime and stime being
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i]
            .parse::<u64>()
            .expect("numeric CPU tick field in /proc/self/stat") as f64
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}
