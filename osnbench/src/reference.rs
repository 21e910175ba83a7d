//! The host's speed, measured beside the workload.
//!
//! The reference box is a guest that shares the host's cores and caches
//! with other tenants. While their load is high the same code runs up to
//! 1.4× longer, and that load changes from one second to the next and
//! from one hour to the next, so raw times from runs minutes apart differ
//! by more than a change worth claiming.
//!
//! [`Reference`] is a fixed piece of the benchmark's own work that slows
//! down with the host: sorting a table of random keys, parsing digits
//! out of event-like text, and chasing pointers through a table half the
//! size of a core's L2 cache. Each timed sample (a pass, a
//! page, a tick, a set-up) is followed by one run of it on the CPUs that
//! did the sample's work, and the benchmark reports the sample scaled to
//! a fixed host speed: `sample × REFERENCE_MS / reference time`. The
//! program's own code never runs in the reference, so a change to the
//! program moves the scaled times as much as the raw ones. `BENCHMARK.md`
//! has the measurements behind this.

use std::time::Instant;

/// The median time of one reference run on the reference box (2-vCPU
/// Xeon guest), run on its own back to back. A scaled time is the time
/// the sample would have taken had the host run the reference in exactly
/// this long.
pub const REFERENCE_MS: f64 = 2.0;

/// Keys sorted per run: 128 KiB.
const KEYS: usize = 1 << 15;

/// Bytes of event-like text parsed per run.
const TEXT_BYTES: usize = 1 << 18;

/// Slots of the pointer-chasing table: 1 MiB, half a core's L2 cache.
const TABLE: usize = 1 << 18;

/// Pointer hops per run.
const HOPS: usize = 1 << 15;

/// Bytes read before each run to push the reference's data out of the
/// core's own caches: twice the reference box's 2 MiB L2.
const EVICT_BYTES: usize = 4 << 20;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 33
}

/// The reference work and its data, built once per process.
#[derive(Debug)]
pub struct Reference {
    keys: Vec<u32>,
    scratch: Vec<u32>,
    text: Vec<u8>,
    /// One cycle through every slot (Sattolo's shuffle), so a chase never
    /// settles into a short loop.
    table: Vec<u32>,
    evict: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0x05e1_f5ee_d000_0001;
        let keys: Vec<u32> = (0..KEYS).map(|_| lcg(&mut x) as u32).collect();
        let mut text = Vec::with_capacity(TEXT_BYTES + 64);
        while text.len() < TEXT_BYTES {
            let (t, u, v) = (
                lcg(&mut x) % 70_000_000,
                lcg(&mut x) % 50_000,
                lcg(&mut x) % 50_000,
            );
            text.extend_from_slice(format!("E {t} {u} {v}\n").as_bytes());
        }
        let mut table: Vec<u32> = (0..TABLE as u32).collect();
        for i in (1..TABLE).rev() {
            let j = lcg(&mut x) as usize % i;
            table.swap(i, j);
        }
        Reference {
            scratch: keys.clone(),
            keys,
            text,
            table,
            evict: (0..EVICT_BYTES as u64 / 8).collect(),
        }
    }

    /// Run the reference work once and return its time in milliseconds.
    ///
    /// It always starts from the same cache state, whatever the sample
    /// before it left: its data in the shared L3 cache, not in the core's
    /// L2. Data resident in L2 would make the pointer chase swing with the
    /// share of L2 that the host's other tenants take, several times more
    /// than the program's own times swing (`BENCHMARK.md`).
    pub fn time_ms(&mut self) -> f64 {
        std::hint::black_box(self.evict_l2());
        let t0 = Instant::now();
        std::hint::black_box(self.work());
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// `sample` (any time or cost just measured) at the reference box's
    /// quiet speed, given the reference time measured after it.
    pub fn scale(sample: f64, reference_ms: f64) -> f64 {
        sample * REFERENCE_MS / reference_ms
    }

    /// One read per 64-byte cache line of [`EVICT_BYTES`].
    fn evict_l2(&self) -> u64 {
        self.evict.iter().step_by(8).sum()
    }

    /// Sort, parse, chase; returns a checksum so none of it is optimised
    /// away.
    fn work(&mut self) -> u64 {
        self.scratch.copy_from_slice(&self.keys);
        self.scratch.sort_unstable();
        let mut sum = self.scratch[KEYS / 2] as u64;
        for field in self.text.split(|&b| b == b' ' || b == b'\n') {
            let mut v = 0u64;
            for &c in field {
                if c.is_ascii_digit() {
                    v = v * 10 + (c - b'0') as u64;
                }
            }
            sum = sum.wrapping_add(v);
        }
        let mut i = 0u32;
        for _ in 0..HOPS {
            i = self.table[i as usize];
        }
        sum.wrapping_add(i as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed_and_timed() {
        let mut a = Reference::new();
        let mut b = Reference::new();
        assert_eq!(a.work(), b.work(), "same data, same work");
        assert_eq!(a.work(), a.work(), "a run leaves its data as it was");
        let ms = a.time_ms();
        assert!(ms > 0.0 && ms < 1_000.0, "{ms} ms");
    }

    #[test]
    fn the_table_is_one_cycle() {
        let r = Reference::new();
        let mut i = 0u32;
        for step in 1..=TABLE {
            i = r.table[i as usize];
            assert_eq!(i == 0, step == TABLE, "back at 0 after {step} hops");
        }
    }

    #[test]
    fn scaling_is_relative_to_the_quiet_box() {
        assert_eq!(Reference::scale(10.0, REFERENCE_MS), 10.0);
        // The host ran the reference 1.5× slower: the sample was too.
        assert_eq!(Reference::scale(15.0, REFERENCE_MS * 1.5), 10.0);
    }
}
