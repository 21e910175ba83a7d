//! Open-loop pacing, CPU placement and answer checking shared by the
//! HTTP workloads.

use crate::http::Response;
use crate::mix::{expect, Expect, Target};
use crate::reference::Reference;
use osn_core::query::SnapshotQuery;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Words of a CPU mask (`cpu_set_t`, 1024 CPUs).
const MASK_WORDS: usize = 16;

type CpuMask = [u64; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU mask.
fn affinity() -> Option<CpuMask> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the kernel writes at most `size` bytes into `mask`.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Restrict the calling thread (and the threads it spawns from now on)
/// to `mask`.
fn set_affinity(mask: &CpuMask) {
    // SAFETY: the kernel reads `size` bytes from `mask`. A failure leaves
    // the thread where it was, which only costs steadiness.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
}

/// The generator on one CPU and the daemon on the others, as `taskset`
/// would place them. Left to the scheduler, the daemon's threads
/// sometimes share the generator's CPU and sometimes not, and the
/// daemon's cost per request differs by half between the two, so runs
/// would fall into two groups. Restores the thread's CPUs on drop.
#[derive(Debug)]
pub struct CpuSplit {
    original: CpuMask,
    generator: CpuMask,
    daemon: CpuMask,
}

impl CpuSplit {
    /// The first allowed CPU for the generator, the rest for the
    /// daemon; `None` with fewer than two CPUs.
    pub fn new() -> Option<CpuSplit> {
        let original = affinity()?;
        let word = original.iter().position(|&w| w != 0)?;
        let mut generator = [0u64; MASK_WORDS];
        generator[word] = original[word] & original[word].wrapping_neg();
        let mut daemon = original;
        daemon[word] &= !generator[word];
        daemon.iter().any(|&w| w != 0).then_some(CpuSplit {
            original,
            generator,
            daemon,
        })
    }

    /// Move the calling thread onto the daemon's CPUs: threads it starts
    /// from now on, such as the daemon's, stay there.
    pub fn daemon_side(&self) {
        set_affinity(&self.daemon);
    }

    /// Move the calling thread onto the generator's CPU.
    pub fn generator_side(&self) {
        set_affinity(&self.generator);
    }

    /// What [`CpuSplit::generator_side`] does, for a thread that is yet
    /// to be spawned.
    pub fn generator_pin(&self) -> impl Fn() + Send + 'static {
        let mask = self.generator;
        move || set_affinity(&mask)
    }
}

/// The [`Reference`] time to scale a page or tick of HTTP work by: run
/// once on the generator's CPU and once on the daemon's, averaged, since
/// both did the work. The calling thread, a generator, ends on its own
/// CPU. Without a split, one run where the thread is.
pub fn reference_ms(cpus: Option<&CpuSplit>, reference: &mut Reference) -> f64 {
    let Some(cpus) = cpus else {
        return reference.time_ms();
    };
    cpus.generator_side();
    let generator = reference.time_ms();
    cpus.daemon_side();
    let daemon = reference.time_ms();
    cpus.generator_side();
    (generator + daemon) / 2.0
}

impl Drop for CpuSplit {
    fn drop(&mut self) {
        set_affinity(&self.original);
    }
}

/// Lower the calling thread to the lowest CPU priority, nice 19: a
/// runnable thread of normal priority on its CPU gets nearly all of it.
pub fn lowest_priority() {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: a plain system call. On Linux, `who = 0` names the calling
    // thread only. A failure leaves the priority as it was, which only
    // costs steadiness.
    unsafe { setpriority(PRIO_PROCESS, 0, 19) };
}

/// On-CPU time, user and system, of the daemon's threads in this
/// process, in nanoseconds: every thread whose name starts with `osn-`
/// (acceptor, triage, workers, parker), from
/// `/proc/self/task/*/schedstat`. Threads that have exited are not
/// counted, so take differences while the daemon runs.
pub fn daemon_cpu_ns() -> std::io::Result<u64> {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task")? {
        let dir = task?.path();
        let read = |file: &str| match std::fs::read_to_string(dir.join(file)) {
            // Exited since the directory was listed.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(String::new()),
            other => other,
        };
        if !read("comm")?.starts_with("osn-") {
            continue;
        }
        let stat = read("schedstat")?;
        total += stat
            .split_whitespace()
            .next()
            .map_or(Ok(0), |v| v.parse::<u64>())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    }
    Ok(total)
}

/// Block until `due`: sleep while it is more than `spin` away, then
/// spin, so the generator sends within a few microseconds of schedule.
/// A timer wake-up can be late by tens of microseconds, or by a
/// scheduler tick (4 ms) when another thread holds the CPU, and lateness
/// counts as latency. The spin does not yield: a thread sharing the
/// generator's CPU would take the rest of its time slice.
pub fn wait_until(due: Instant, spin: Duration) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > spin {
            std::thread::sleep(left - spin);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The oracle for a fixed snapshot: the expected answer for every
/// target the mix can ask for, computed once.
#[derive(Debug)]
pub struct Oracle {
    answers: HashMap<Target, Expect>,
    /// `gzip_compress` of every exact answer. The daemon compresses
    /// with the same deterministic encoder, so a gzip body equal to this
    /// decodes to the expected answer and needs no decoding; any other
    /// gzip body is decoded and compared.
    gzipped: HashMap<Target, Vec<u8>>,
}

impl Oracle {
    pub fn new(query: &SnapshotQuery, follow: bool) -> Oracle {
        let mut targets = vec![Target::Days, Target::Head, Target::Meta, Target::Health];
        targets.extend(query.metric_days().into_iter().map(Target::Metrics));
        targets.extend(query.community_days().into_iter().map(Target::Communities));
        let answers: HashMap<Target, Expect> = targets
            .into_iter()
            .filter_map(|t| expect(query, t, follow).map(|e| (t, e)))
            .collect();
        let gzipped = answers
            .iter()
            .filter_map(|(&t, e)| match e {
                Expect::Exact(body) => Some((t, osn_graph::gzip::gzip_compress(body))),
                Expect::JsonPrefix(_) => None,
            })
            .collect();
        Oracle { answers, gzipped }
    }

    /// `Ok` when the response is a 200 whose decoded body is the
    /// expected answer.
    pub fn judge(&self, target: Target, resp: &Response) -> Result<(), String> {
        if resp.status == 200 && resp.gzip && self.gzipped.get(&target) == Some(&resp.body) {
            return Ok(());
        }
        judge(self.answers.get(&target), target, resp)
    }
}

/// Judge one response against an expectation (`None`: the oracle has
/// no answer for the target, which is itself a failure).
pub fn judge(want: Option<&Expect>, target: Target, resp: &Response) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("{}: status {}", target.path(), resp.status));
    }
    let body = resp.decoded_body()?;
    match want {
        Some(e) if e.accepts(&body) => Ok(()),
        Some(_) => Err(format!(
            "{}: body differs from the snapshot's answer: {:?}",
            target.path(),
            String::from_utf8_lossy(&body[..body.len().min(120)])
        )),
        None => Err(format!("{}: no such answer in the snapshot", target.path())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_split_is_a_partition_and_is_undone_on_drop() {
        // On its own thread, so the test harness's CPUs stay untouched.
        std::thread::spawn(|| {
            let Some(split) = CpuSplit::new() else {
                return; // a single CPU: nothing to split
            };
            let ones = |m: &CpuMask| m.iter().map(|w| w.count_ones()).sum::<u32>();
            assert_eq!(ones(&split.generator), 1);
            for ((g, d), o) in split
                .generator
                .iter()
                .zip(&split.daemon)
                .zip(&split.original)
            {
                assert_eq!((g & d, g | d), (0, *o));
            }
            split.daemon_side();
            assert_eq!(affinity(), Some(split.daemon));
            split.generator_side();
            assert_eq!(affinity(), Some(split.generator));
            let original = split.original;
            drop(split);
            assert_eq!(affinity(), Some(original));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn daemon_cpu_counts_only_daemon_threads() {
        let spin = |d: Duration| {
            let t = Instant::now();
            while t.elapsed() < d {
                std::hint::spin_loop();
            }
        };
        let before = daemon_cpu_ns().unwrap();
        spin(Duration::from_millis(50));
        std::thread::Builder::new()
            .name("osn-test-busy".to_string())
            .spawn(move || spin(Duration::from_millis(50)))
            .unwrap()
            .join()
            .unwrap();
        // The named thread has exited, so only a live one shows; measure
        // one that is still running.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let busy = std::thread::Builder::new()
            .name("osn-test-busy".to_string())
            .spawn(move || {
                spin(Duration::from_millis(50));
                let _ = rx.recv();
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(80));
        let after = daemon_cpu_ns().unwrap();
        tx.send(()).unwrap();
        busy.join().unwrap();
        let ms = (after - before) as f64 / 1e6;
        // ≈50 ms: the live busy thread, not the caller's nor the exited one's.
        assert!((30.0..90.0).contains(&ms), "{ms} ms");
    }

    #[test]
    fn wait_until_is_not_early() {
        let due = Instant::now() + Duration::from_millis(3);
        wait_until(due, Duration::from_millis(1));
        assert!(Instant::now() >= due);
    }

    #[test]
    fn judge_checks_status_and_body() {
        let want = Expect::Exact(b"ok\n".to_vec());
        let ok = Response {
            status: 200,
            gzip: false,
            close: false,
            body: b"ok\n".to_vec(),
        };
        assert!(judge(Some(&want), Target::Health, &ok).is_ok());
        let shed = Response {
            status: 503,
            ..ok.clone()
        };
        assert!(judge(Some(&want), Target::Health, &shed).is_err());
        let gz = Response {
            gzip: true,
            body: osn_graph::gzip::gzip_compress(b"ok\n"),
            ..ok.clone()
        };
        assert!(judge(Some(&want), Target::Health, &gz).is_ok());
        assert!(judge(None, Target::Health, &ok).is_err());
    }
}
