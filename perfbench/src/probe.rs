//! A host-speed probe, and timings scaled by it.
//!
//! The benchmark's host shares its cores and caches with other machines'
//! work, and that contention drifts over tens of seconds: one sweep of the
//! same 49 cells took from 2.3 s to 4.7 s within five minutes. The probe
//! is a fixed piece of work of the benchmark's own, run right before each
//! timed part: four independent streams of random read-modify-writes over
//! a 2 MiB buffer that stays in the core's own caches, so it slows when a
//! neighbour competes for the core's caches and execution units. A
//! part's scaled time is its wall time divided by the probe's, times
//! [`REF_PROBE_S`]: seconds at the host speed at which the probe takes
//! [`REF_PROBE_S`]. The program never runs inside the probe, so a faster
//! program gives a smaller scaled time while a slower host does not.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time at the reference host speed; the unit of every
/// scaled time.
pub const REF_PROBE_S: f64 = 0.0025;

/// The probe's buffer. Resident for the whole run, so the peak memory
/// figure subtracts it.
pub const PROBE_BYTES: usize = 2 << 20;

const STEPS: usize = 150_000;

pub struct Probe {
    buf: Vec<u64>,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            buf: (0..(PROBE_BYTES / 8) as u64).collect(),
        }
    }

    /// Runs the probe once and returns its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        run(&mut self.buf)
    }
}

/// One probe run over `v`; returns its wall time in seconds.
fn run(v: &mut [u64]) -> f64 {
    let start = Instant::now();
    let mask = v.len() - 1;
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for _ in 0..STEPS {
        a ^= a << 13;
        a ^= a >> 7;
        a ^= a << 17;
        b ^= b << 13;
        b ^= b >> 7;
        b ^= b << 17;
        c = c.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        d = d.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(3);
        let (i, j) = (a as usize & mask, b as usize & mask);
        let (k, l) = ((c >> 20) as usize & mask, (d >> 20) as usize & mask);
        v[i] = v[i].wrapping_add(v[j]);
        v[k] ^= v[l] >> 1;
        if v[i] & 3 == 0 {
            a = a.rotate_left(3);
        }
    }
    black_box(&v[0]);
    start.elapsed().as_secs_f64()
}

/// One timed part with the probe time taken right before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    pub wall_s: f64,
    pub probe_s: f64,
}

/// Probe readings on each side of a part that its scale takes the
/// median over. One probe can read slow for reasons of its own (an
/// interrupt, a page fault); contention lasts seconds.
const SMOOTH: usize = 3;

/// A repeated job's scaled time from its parts: `reps[r][p]` is part `p`
/// of repetition `r`, in the order they ran. Each part is scaled by the
/// median of the probe readings within [`SMOOTH`] readings of its own
/// (parts that share one reading count it once), and counts with its
/// median scaled time across repetitions.
pub fn job_s(reps: &[Vec<Timed>]) -> f64 {
    let parts = reps.first().map_or(0, Vec::len);
    assert!(
        reps.iter().all(|r| r.len() == parts),
        "every repetition has the same parts"
    );
    // Distinct readings in run order, and the reading of each part.
    let mut readings: Vec<f64> = Vec::new();
    let mut index = Vec::with_capacity(reps.len() * parts);
    for t in reps.iter().flatten() {
        if readings.last() != Some(&t.probe_s) {
            readings.push(t.probe_s);
        }
        index.push(readings.len() - 1);
    }
    let smooth: Vec<f64> = (0..readings.len())
        .map(|i| {
            let lo = i.saturating_sub(SMOOTH);
            let hi = (i + SMOOTH + 1).min(readings.len());
            median(&readings[lo..hi]).expect("non-empty window")
        })
        .collect();
    (0..parts)
        .map(|p| {
            let scaled: Vec<f64> = (0..reps.len())
                .map(|r| reps[r][p].wall_s / smooth[index[r * parts + p]] * REF_PROBE_S)
                .collect();
            median(&scaled).expect("at least one repetition")
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(wall_s: f64, probe_s: f64) -> Timed {
        Timed { wall_s, probe_s }
    }

    #[test]
    fn scaling_cancels_a_uniform_slowdown() {
        assert_eq!(job_s(&[vec![t(1.0, REF_PROBE_S)]]), 1.0);
        assert_eq!(job_s(&[vec![t(2.0, 2.0 * REF_PROBE_S)]]), 1.0);
    }

    #[test]
    fn each_part_counts_its_median_repetition() {
        let p = REF_PROBE_S;
        let reps = vec![
            vec![t(1.0, p), t(3.0, p)],
            vec![t(2.0, p), t(2.0, p)],
            vec![t(4.0, 2.0 * p), t(9.0, p)],
        ];
        assert_eq!(job_s(&reps), 2.0 + 3.0);
        assert_eq!(job_s(&[]), 0.0);
    }

    #[test]
    fn one_slow_probe_reading_is_smoothed_away() {
        let p = REF_PROBE_S;
        // Five repetitions of one part; the third probe read 10x slow.
        let probes = [p, p, 10.0 * p, p, p];
        let reps: Vec<Vec<Timed>> = probes.iter().map(|&q| vec![t(1.0, q)]).collect();
        assert_eq!(job_s(&reps), 1.0);
    }

    #[test]
    fn parts_sharing_a_reading_count_it_once() {
        let p = REF_PROBE_S;
        // Two passes of two segments, one reading per pass: the window
        // covers both readings, so each part is scaled by their median.
        let reps = vec![
            vec![t(1.0, p), t(1.0, p)],
            vec![t(3.0, 3.0 * p), t(3.0, 3.0 * p)],
        ];
        assert_eq!(job_s(&reps), 2.0 * ((1.0 / 2.0 + 3.0 / 2.0) / 2.0));
    }

    #[test]
    fn the_probe_runs() {
        assert!(Probe::new().time() > 0.0);
    }
}
