//! Seeded input generation.  Every workload's inputs — library sizes,
//! target programs and their planted bugs, per-case random seeds, the job
//! schedule — come from here and from `--seed` alone; the program under
//! test receives only what these generators produce.

use std::time::Duration;

use lfi::corpus::SYSCALL_TABLE;
use lfi::scenario::FaultCell;

/// SplitMix64: a small, fast, seedable generator whose stream is fixed
/// forever (the benchmark's inputs must not change with a dependency).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(self's seed, label)`.
    pub fn derive(seed: u64, label: u64) -> Self {
        let mut rng = Self(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One `hunt` target: a libc variant and a small program over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuntShape {
    /// Exports of the libc variant the hunt profiles.
    pub exports: usize,
    /// The libc functions the program calls, in call order (repeats are
    /// later call ordinals of the same function).
    pub calls: Vec<&'static str>,
    /// Seed of the explorer's frontier shuffle.
    pub explorer_seed: u64,
}

impl HuntShape {
    /// How often the program calls `function`.
    pub fn calls_to(&self, function: &str) -> u64 {
        self.calls.iter().filter(|&&name| name == function).count() as u64
    }
}

/// Smallest libc variant a hunt profiles.  With libc-120..239 variants a
/// hunt took ~3 ms and its p90 swung by ±20% between runs with the journal
/// fsync's spikes; four times the code keeps the profiler's steady work the
/// larger share.
pub const HUNT_MIN_EXPORTS: usize = 480;
/// Export counts are spread over `HUNT_MIN_EXPORTS .. + HUNT_EXPORT_SPAN`.
pub const HUNT_EXPORT_SPAN: usize = 480;

/// The `hunt` targets for `seed`.  Export counts are stratified over the
/// span (target `i` draws from the `i`-th of `count` equal slices), so every
/// seed profiles the same mix of library sizes and the per-seed medians are
/// comparable; which functions are called, how often, and in what order is
/// drawn freely.
pub fn hunt_shapes(seed: u64, count: usize) -> Vec<HuntShape> {
    let mut rng = Rng::derive(seed, 1);
    let slice = HUNT_EXPORT_SPAN / count.max(1);
    (0..count)
        .map(|index| {
            let exports = HUNT_MIN_EXPORTS + index * slice + rng.below(slice.max(1) as u64) as usize;
            let mut pool: Vec<&'static str> = SYSCALL_TABLE.iter().map(|syscall| syscall.name).collect();
            let functions = 3 + rng.below(3) as usize;
            let mut chosen = Vec::with_capacity(functions);
            for _ in 0..functions {
                chosen.push(pool.swap_remove(rng.below(pool.len() as u64) as usize));
            }
            let mut calls = Vec::new();
            for function in chosen {
                for _ in 0..1 + rng.below(4) {
                    calls.push(function);
                }
            }
            // Interleave: a seeded shuffle keeps per-function ordinals intact
            // (they count calls, whatever their positions).
            for i in (1..calls.len()).rev() {
                calls.swap(i, rng.below(i as u64 + 1) as usize);
            }
            HuntShape { exports, calls, explorer_seed: rng.next_u64() }
        })
        .collect()
}

/// Plants the target's one bug: a cell of the explored universe on a
/// function the program calls, at an ordinal it reaches, carrying an errno.
/// Failing that call with that errno crashes the program; every other
/// injected failure is handled.  `None` when no universe cell qualifies.
pub fn plant(seed: u64, index: usize, shape: &HuntShape, universe: &[FaultCell]) -> Option<FaultCell> {
    let mut candidates: Vec<FaultCell> = universe
        .iter()
        .filter(|cell| cell.errno.is_some() && cell.call_ordinal <= shape.calls_to(cell.function.as_str()))
        .copied()
        .collect();
    candidates.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    candidates.dedup();
    if candidates.is_empty() {
        return None;
    }
    let mut rng = Rng::derive(seed, 2 + index as u64);
    Some(candidates[rng.below(candidates.len() as u64) as usize])
}

/// Seed of the `Random` plan of `sweep` case `case` of session `session`.
pub fn sweep_case_seed(seed: u64, session: u64, case: u64) -> u64 {
    Rng::derive(seed, 0x5EED_0000 ^ (session << 20) ^ case).next_u64()
}

/// One `fabric` job on the open-loop schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// When the job is due, from the start of the timed run.
    pub due: Duration,
    /// The registry workload the job drives.
    pub app: &'static str,
}

/// The `fabric` schedule for `seed`: jobs due every `interval` with a
/// seeded jitter of up to half an interval, over `span`.  Apps are dealt
/// from `deck` in rounds — each round a seeded shuffle of the whole deck —
/// so every seed offers the same mix of work.
pub fn fabric_schedule(seed: u64, span: Duration, interval: Duration, deck: &[&'static str]) -> Vec<Arrival> {
    let mut rng = Rng::derive(seed, 3);
    let jobs = (span.as_nanos() / interval.as_nanos().max(1)) as u32;
    let jitter = (interval.as_nanos() / 2).max(1) as u64;
    let mut round: Vec<&'static str> = Vec::new();
    (0..jobs)
        .map(|index| {
            if round.is_empty() {
                round = deck.to_vec();
                for i in (1..round.len()).rev() {
                    round.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            Arrival {
                due: interval * index + Duration::from_nanos(rng.below(jitter)),
                app: round.pop().expect("refilled"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi::corpus::{build_kernel, build_libc_scaled};
    use lfi::isa::Platform;
    use lfi::profiler::ProfilerOptions;
    use lfi::scenario::Exhaustive;
    use lfi::Lfi;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for seed in [0, 1, 7, 2009] {
            assert_eq!(hunt_shapes(seed, 16), hunt_shapes(seed, 16));
            assert_eq!(sweep_case_seed(seed, 3, 9), sweep_case_seed(seed, 3, 9));
            let span = Duration::from_secs(10);
            let interval = Duration::from_millis(100);
            let apps = ["pidgin-login", "mysql-suite"];
            assert_eq!(fabric_schedule(seed, span, interval, &apps), fabric_schedule(seed, span, interval, &apps));
        }
        assert_ne!(hunt_shapes(1, 16), hunt_shapes(2, 16));
        assert_ne!(sweep_case_seed(1, 0, 0), sweep_case_seed(1, 0, 1));
        assert_ne!(sweep_case_seed(1, 0, 0), sweep_case_seed(2, 0, 0));
    }

    #[test]
    fn hunt_shapes_stratify_library_sizes() {
        for seed in 0..20 {
            let shapes = hunt_shapes(seed, 8);
            for (index, shape) in shapes.iter().enumerate() {
                let slice = HUNT_EXPORT_SPAN / 8;
                let low = HUNT_MIN_EXPORTS + index * slice;
                assert!((low..low + slice).contains(&shape.exports), "seed {seed}: {shape:?}");
                assert!((3..=20).contains(&shape.calls.len()));
            }
        }
    }

    #[test]
    fn the_fabric_schedule_is_ordered_and_deals_the_deck() {
        let deck = ["a", "a", "a", "b"];
        let schedule = fabric_schedule(5, Duration::from_secs(4), Duration::from_millis(200), &deck);
        assert_eq!(schedule.len(), 20);
        assert!(schedule.windows(2).all(|pair| pair[0].due < pair[1].due));
        assert!(schedule.iter().all(|arrival| arrival.due < Duration::from_secs(4)));
        for round in schedule.chunks(4) {
            assert_eq!(round.iter().filter(|arrival| arrival.app == "b").count(), 1);
        }
        let apps: Vec<_> = schedule.iter().map(|arrival| arrival.app).collect();
        let other: Vec<_> = fabric_schedule(6, Duration::from_secs(4), Duration::from_millis(200), &deck)
            .iter()
            .map(|arrival| arrival.app)
            .collect();
        assert_ne!(apps, other, "the order is seeded");
    }

    #[test]
    fn the_planted_bug_always_lies_inside_the_explored_universe() {
        let kernel = build_kernel(Platform::LinuxX86);
        for seed in 0..3 {
            for (index, shape) in hunt_shapes(seed, 4).iter().enumerate() {
                let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
                lfi.add_library(build_libc_scaled(Platform::LinuxX86, shape.exports).compiled.object);
                lfi.set_kernel(kernel.clone());
                let universe = lfi.scenario(&Exhaustive, &["libc.so.6"]).unwrap().compile().cells();
                let cell = plant(seed, index, shape, &universe).expect("every called syscall has a first-ordinal cell");
                assert!(universe.contains(&cell), "seed {seed} target {index}: {cell:?}");
                assert!(cell.errno.is_some());
                assert!(shape.calls.contains(&cell.function.as_str()));
                assert!(cell.call_ordinal >= 1 && cell.call_ordinal <= shape.calls_to(cell.function.as_str()));
                assert_eq!(plant(seed, index, shape, &universe), Some(cell), "planting is deterministic");
            }
        }
    }
}
