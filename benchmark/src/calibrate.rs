//! Host-speed calibration. The sandbox this runs in is a small VM on shared
//! hardware, and it has two speeds: for minutes at a time everything — the
//! program under test and any other code — runs about 1.5x slower (a busy
//! sibling thread or a shrunken cache share; not the program's doing). Raw
//! medians of identical code then differ by 30-45 % between two sets of
//! runs, which no bound can absorb.
//!
//! So the measured phase interleaves a fixed reference kernel owned by the
//! benchmark (a sort and a hash-map fill over benchmark-generated keys, about
//! 2 ms, at most ten times a second, between ops and off their clocks), and
//! host times are divided by how much slower than nominal the kernel ran in
//! the same second. The kernel was chosen by experiment: of the candidates
//! tried (dependent integer chain, DRAM-sized random reads, small and large
//! sorts, small and large hash maps, allocation churn) the mix below slows
//! down by the same factor as the sweep pipeline does (1.5x vs 1.48-1.51x)
//! and tracks it window by window (correlation 0.95+). It shares no code with
//! the program, so a change to the program cannot move it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

use crate::stats::median;

/// What the kernel takes on the build host (Xeon @ 2.10 GHz) at full speed.
/// Normalised times read as "ms on a host where the kernel takes this long".
pub const NOMINAL_KERNEL_MS: f64 = 1.75;

/// Least time between two samples in a loop.
const MIN_GAP_S: f64 = 0.1;

const SORT_KEYS: usize = 1 << 16;
const HASH_KEYS: usize = 1 << 15;

/// Deterministic SipHash (zero keys): the map's layout, and so the kernel's
/// work, is the same in every process.
type FixedState = BuildHasherDefault<DefaultHasher>;

pub struct Calibrator {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    map: HashMap<u64, u64, FixedState>,
    epoch: Instant,
    /// (seconds since `epoch`, kernel wall in ms), in time order.
    samples: Vec<(f64, f64)>,
}

impl Calibrator {
    /// A calibrator whose sample times count from `epoch`. Runs the kernel a
    /// few times unrecorded so its buffers are faulted in.
    pub fn new(epoch: Instant) -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let keys = (0..SORT_KEYS)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                state >> 20
            })
            .collect();
        let mut calibrator = Calibrator {
            keys,
            scratch: Vec::with_capacity(SORT_KEYS),
            map: HashMap::with_capacity_and_hasher(HASH_KEYS, FixedState::default()),
            epoch,
            samples: Vec::new(),
        };
        for _ in 0..3 {
            calibrator.kernel_ms();
        }
        calibrator
    }

    /// One run of the reference kernel: sort 64 Ki keys (ALU and branches,
    /// half a megabyte), then count 32 Ki of them into 16 Ki hash-map
    /// entries (random access over about a megabyte). No allocation.
    fn kernel_ms(&mut self) -> f64 {
        let started = Instant::now();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.keys);
        self.scratch.sort_unstable();
        self.map.clear();
        for (i, &key) in self.keys[..HASH_KEYS].iter().enumerate() {
            *self.map.entry(key & 0x3fff).or_insert(0) += i as u64;
        }
        std::hint::black_box((self.scratch[SORT_KEYS / 2], self.map.len()));
        started.elapsed().as_secs_f64() * 1e3
    }

    /// Takes a sample now and returns how much slower than nominal the
    /// kernel ran (1.0 = nominal speed).
    pub fn sample(&mut self) -> f64 {
        let at = self.epoch.elapsed().as_secs_f64();
        let ms = self.kernel_ms();
        self.samples.push((at, ms));
        ms / NOMINAL_KERNEL_MS
    }

    /// Takes a sample unless one was taken in the last 100 ms.
    pub fn sample_if_due(&mut self) {
        let now = self.epoch.elapsed().as_secs_f64();
        if self
            .samples
            .last()
            .is_none_or(|&(at, _)| now - at >= MIN_GAP_S)
        {
            self.sample();
        }
    }

    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }
}

/// How much slower than nominal the host ran in each of `buckets`
/// one-second buckets: the median of the samples that fell into the bucket,
/// or of the nearest bucket that has any (1.0 without samples at all).
pub fn slowdown_per_bucket(samples: &[(f64, f64)], buckets: usize) -> Vec<f64> {
    let mut per_bucket: Vec<Vec<f64>> = vec![Vec::new(); buckets];
    for &(at, ms) in samples {
        let bucket = (at.max(0.0) as usize).min(buckets.saturating_sub(1));
        if let Some(slot) = per_bucket.get_mut(bucket) {
            slot.push(ms / NOMINAL_KERNEL_MS);
        }
    }
    let known: Vec<Option<f64>> = per_bucket
        .iter()
        .map(|s| (!s.is_empty()).then(|| median(s)))
        .collect();
    (0..buckets)
        .map(|b| {
            (0..buckets)
                .filter_map(|other| known[other].map(|v| (other.abs_diff(b), v)))
                .min_by_key(|&(distance, _)| distance)
                .map_or(1.0, |(_, v)| v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_take_their_own_median_or_the_nearest_neighbours() {
        let n = NOMINAL_KERNEL_MS;
        let samples = [
            (0.1, 1.0 * n),
            (0.5, 3.0 * n),
            (0.9, 2.0 * n), // bucket 0: median 2.0
            (3.2, 1.5 * n), // bucket 3
        ];
        let slow = slowdown_per_bucket(&samples, 5);
        // Bucket 1 is nearer to 0, bucket 2 to 3 (ties go to the earlier).
        assert_eq!(slow, vec![2.0, 2.0, 1.5, 1.5, 1.5]);
        assert_eq!(slowdown_per_bucket(&[], 2), vec![1.0, 1.0]);
        // A sample after the last bucket counts for the last bucket.
        assert_eq!(slowdown_per_bucket(&[(7.0, 2.0 * n)], 2), vec![2.0, 2.0]);
    }

    #[test]
    fn the_kernel_does_the_same_work_every_time_and_sampling_respects_the_gap() {
        let mut cal = Calibrator::new(Instant::now());
        cal.kernel_ms();
        let (middle, entries) = (cal.scratch[SORT_KEYS / 2], cal.map.len());
        cal.kernel_ms();
        assert_eq!(
            (cal.scratch[SORT_KEYS / 2], cal.map.len()),
            (middle, entries)
        );
        assert!(cal.scratch.windows(2).all(|w| w[0] <= w[1]));
        assert!(entries > 12_000 && entries <= 1 << 14, "{entries} entries");
        cal.sample_if_due();
        cal.sample_if_due(); // within 100 ms of the first: skipped
        assert_eq!(cal.samples().len(), 1);
        assert!(cal.sample() > 0.0);
        assert_eq!(cal.samples().len(), 2);
    }
}
