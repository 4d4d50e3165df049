//! What the benchmark reads from the operating system: process CPU time,
//! per-thread CPU and run-queue wait from `schedstat`, and the stamp that
//! says on what machine and code a result was taken.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, fixed at 100 per
/// second by the kernel ABI.
const USER_HZ: u64 = 100;
/// Nanoseconds in one USER_HZ tick.
pub const NS_PER_TICK: u64 = 1_000_000_000 / USER_HZ;

/// User plus system CPU time of the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space separated. utime and stime are fields
    // 14 and 15, so the 12th and 13th after the parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks * NS_PER_TICK
}

/// CPU time and run-queue wait, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sched {
    pub cpu_ns: u64,
    pub wait_ns: u64,
}

/// The thread group a thread's name puts it in: the name up to its first
/// dash (`replica-3` is in `replica`, `reactor-0` in `reactor`).
fn group_of(name: &str) -> String {
    name.split('-').next().unwrap_or(name).to_string()
}

/// Per-thread `schedstat` of every live thread, keyed by thread id, with
/// the thread's group.
pub fn thread_sched() -> BTreeMap<u64, (String, Sched)> {
    let mut out = BTreeMap::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Ok(tid) = task.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let path = task.path();
        let (Ok(comm), Ok(schedstat)) = (
            fs::read_to_string(path.join("comm")),
            fs::read_to_string(path.join("schedstat")),
        ) else {
            continue;
        };
        let mut fields = schedstat
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let sched = Sched {
            cpu_ns: fields.next().unwrap_or(0),
            wait_ns: fields.next().unwrap_or(0),
        };
        out.insert(tid, (group_of(comm.trim()), sched));
    }
    out
}

/// CPU and wait accrued between two [`thread_sched`] snapshots, summed per
/// group over the threads alive at both.
pub fn group_delta(
    before: &BTreeMap<u64, (String, Sched)>,
    after: &BTreeMap<u64, (String, Sched)>,
) -> BTreeMap<String, Sched> {
    let mut groups: BTreeMap<String, Sched> = BTreeMap::new();
    for (tid, (group, end)) in after {
        let Some((_, start)) = before.get(tid) else {
            continue;
        };
        let entry = groups.entry(group.clone()).or_default();
        entry.cpu_ns += end.cpu_ns.saturating_sub(start.cpu_ns);
        entry.wait_ns += end.wait_ns.saturating_sub(start.wait_ns);
    }
    groups
}

/// CPU time the hypervisor took from `cpu` for other guests, and that
/// CPU's total time, so far, in ticks (its `cpuN` line of `/proc/stat`);
/// `(0, 0)` when unreadable. Steal is what a run on an oversubscribed host
/// loses without any of its own threads waiting.
pub fn cpu_steal_ticks(cpu: usize) -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let label = format!("cpu{cpu}");
    // user nice system idle iowait irq softirq steal; the guest fields
    // after them are already counted in user and nice.
    let fields: Vec<u64> = stat
        .lines()
        .find(|line| line.split_whitespace().next() == Some(label.as_str()))
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Bits of the CPU set passed to `sched_{get,set}affinity`.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread and process it starts
/// afterwards, to the lowest-numbered CPU it may run on, and returns that
/// CPU. Called before the benchmark starts any thread, this puts the whole
/// cluster on one CPU: every hand-off between replica, reactor and client
/// threads is then a switch on the same CPU, instead of a wake-up of another
/// virtual CPU that the hypervisor may have descheduled, which on a shared
/// host multiplied a few percent of stolen time into a several-fold drop in
/// throughput.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } < 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .find(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .ok_or("the affinity mask is empty")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } < 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-minute load average, or -1 when unreadable.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(-1.0)
}

/// Single-thread SHA-256 speed of this machine right now, in MB/s: the
/// median of several passes over 1 MiB. Printed with every result so a run
/// on a slowed or contended host shows as such.
pub fn host_sha256_mbps() -> f64 {
    let data = vec![0x5au8; 1 << 20];
    let rates: Vec<f64> = (0..7)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(seemore_crypto::Digest::of_bytes(std::hint::black_box(
                &data,
            )));
            data.len() as f64 / start.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    crate::stats::median(&rates).unwrap_or(0.0)
}

/// Cost of first touching a fresh page of memory on this machine right now,
/// in nanoseconds: the median of several passes over a new block. A
/// fresh-process set-up spends about half its time in such page faults, and
/// on a virtual machine their cost drifts with the host by up to twice over
/// minutes, so it is printed with every result to explain a moved
/// `setup_s`.
pub fn host_page_fault_ns() -> f64 {
    // Above the allocator's largest mmap threshold, so every block is new
    // memory from the kernel rather than reused heap.
    const LEN: usize = 40 << 20;
    const PAGE: usize = 4096;
    let costs: Vec<f64> = (0..5)
        .map(|_| {
            let mut block: Vec<u8> = Vec::with_capacity(LEN);
            let start = std::time::Instant::now();
            for page in block.spare_capacity_mut().chunks_mut(PAGE) {
                page[0].write(1);
            }
            let elapsed = start.elapsed();
            std::hint::black_box(&block);
            elapsed.as_nanos() as f64 / (LEN / PAGE) as f64
        })
        .collect();
    crate::stats::median(&costs).unwrap_or(0.0)
}

/// Latency of a small durable write on the disk under `dir` right now, in
/// microseconds: the median of several 4 KiB appends, each followed by
/// `fsync`. The durable workload's replicas sync their logs every few
/// records, so it is printed with every result to explain a moved run.
pub fn host_fsync_us(dir: &Path) -> f64 {
    use std::io::Write;
    let path = dir.join(format!("fsync-probe-{}", std::process::id()));
    let open = fs::create_dir_all(dir).and_then(|_| fs::File::create(&path));
    let Ok(mut file) = open else {
        return -1.0;
    };
    let block = [0u8; 4096];
    let costs: Vec<f64> = (0..16)
        .filter_map(|_| {
            let start = std::time::Instant::now();
            file.write_all(&block).and_then(|_| file.sync_data()).ok()?;
            Some(start.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    drop(file);
    let _ = fs::remove_file(&path);
    crate::stats::median(&costs).unwrap_or(-1.0)
}

/// Identifies the code measured: the git commit of `repo_root`, or
/// `unknown` when it is not a git checkout.
pub fn source_rev(repo_root: &Path) -> String {
    if !repo_root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_are_name_prefixes() {
        assert_eq!(group_of("replica-3"), "replica");
        assert_eq!(group_of("reactor-0"), "reactor");
        assert_eq!(group_of("perfbench"), "perfbench");
    }

    #[test]
    fn own_thread_is_visible_and_cpu_advances() {
        let before = thread_sched();
        let cpu_before = process_cpu_ns();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = thread_sched();
        assert!(!after.is_empty());
        let total: u64 = group_delta(&before, &after)
            .values()
            .map(|s| s.cpu_ns)
            .sum();
        assert!(total > 10_000_000, "schedstat cpu {total}");
        assert!(process_cpu_ns() >= cpu_before);
    }
}
