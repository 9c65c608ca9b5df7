//! What the benchmark reads from the host: provenance for every result, and
//! the `/proc` counters behind the memory and CPU metrics.

use std::process::Command;

/// Where a result came from. Numbers from different hosts are never compared
/// blind: `compare` refuses two results whose `nproc` differ.
#[derive(Clone, Debug)]
pub struct Provenance {
    pub nproc: usize,
    pub cpu_model: String,
    pub git_commit: String,
    pub rustc: String,
}

impl Provenance {
    pub fn collect() -> Self {
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            // The driver's checkout is not a git repository: "unknown" there.
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's stdout, or "unknown". `output()` waits for the
/// child, so nothing is left running.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, if it still exists.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The fields of `/proc/<pid>/stat` after the parenthesised command name
/// (which may itself contain spaces): index 0 is the state, 1 the ppid.
fn stat_fields(pid: &str) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` is 100 on every
/// Linux this runs on; without libc there is no portable way to ask.
const CLK_TCK: f64 = 100.0;

/// CPU time (user + system) of process `pid` so far, in ms. With
/// `with_children`, adds the time of its waited-for children.
pub fn cpu_ms(pid: &str, with_children: bool) -> Option<f64> {
    let fields = stat_fields(pid)?;
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    // utime, stime, cutime, cstime are fields 14..17 of stat(5): 11..14 here.
    let mut ticks = tick(11)? + tick(12)?;
    if with_children {
        ticks += tick(13)? + tick(14)?;
    }
    Some(ticks * 1e3 / CLK_TCK)
}

/// Pids of the live children of this process (the proc workers).
pub fn child_pids() -> Vec<String> {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.bytes().all(|b| b.is_ascii_digit()))
        .filter(|pid| stat_fields(pid).is_some_and(|f| f.get(1) == Some(&me)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_counters_are_readable() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        assert!(cpu_ms("self", true).unwrap() >= 0.0);
        assert_eq!(peak_rss_mb("0"), None);
        let p = Provenance::collect();
        assert!(p.nproc >= 1);
    }

    #[test]
    fn children_are_found_by_parent_pid() {
        let mut child = Command::new("sleep").arg("5").spawn().unwrap();
        let found = child_pids().contains(&child.id().to_string());
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(found);
    }
}
