//! Seeded input generation: every byte a workload sends derives from
//! `--seed`, so the same seed replays the same op schedule.

/// SplitMix64: a tiny, well-mixed generator (no external crates).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The fill pattern every payload carries: `len` seeded bytes, distinct
/// per (seed, stream) so a payload from another series cannot verify.
pub fn pattern(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Number of entries in every generated schedule; workloads cycle it.
pub const SCHEDULE_LEN: usize = 4096;

/// Ping payload sizes for `dual-pingpong`: each of the two series draws
/// from {0 B, 1 KiB, 10 KiB}.
pub const PING_SIZES: [usize; 3] = [0, 1024, 10 * 1024];

/// Bulk transfer sizes: {64 KiB, 1 MiB, 4 MiB}.
pub const BULK_SIZES: [usize; 3] = [64 * 1024, 1024 * 1024, 4 * 1024 * 1024];

/// The three bulk issue paths, in schedule encoding order.
pub const BULK_KINDS: [&str; 3] = ["eager", "pull", "stripe"];

/// Per-series ping sizes for `dual-pingpong` (series 0 = MPL, 1 = TCP).
pub fn ping_schedule(seed: u64, series: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ (0x5049_4e47 + series));
    (0..SCHEDULE_LEN)
        .map(|_| PING_SIZES[rng.below(PING_SIZES.len() as u64) as usize])
        .collect()
}

/// Message sizes for `stream`: uniform in 16..=256 bytes.
pub fn stream_schedule(seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5354_5245_414d);
    (0..SCHEDULE_LEN)
        .map(|_| 16 + rng.below(241) as usize)
        .collect()
}

/// Bulk transfers as (kind index, size index). Each round of nine is a
/// seeded permutation of every (kind, size) pair, so the byte mix per
/// round is the same for every seed and only the order varies.
pub fn bulk_schedule(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed ^ 0x4255_4c4b);
    let mut out = Vec::with_capacity(SCHEDULE_LEN);
    while out.len() < SCHEDULE_LEN {
        let mut round: Vec<(usize, usize)> = (0..BULK_KINDS.len())
            .flat_map(|k| (0..BULK_SIZES.len()).map(move |s| (k, s)))
            .collect();
        rng.shuffle(&mut round);
        out.extend(round);
    }
    out.truncate(SCHEDULE_LEN);
    out
}

/// Serializes every schedule a seed generates (the op schedule of all
/// workloads), for the replay test.
#[cfg(test)]
fn schedule_bytes(seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for series in 0..2 {
        for s in ping_schedule(seed, series) {
            out.extend_from_slice(&(s as u32).to_le_bytes());
        }
    }
    for s in stream_schedule(seed) {
        out.extend_from_slice(&(s as u32).to_le_bytes());
    }
    for (k, s) in bulk_schedule(seed) {
        out.push(k as u8);
        out.push(s as u8);
    }
    for (i, len) in PING_SIZES.iter().chain(BULK_SIZES.iter()).enumerate() {
        out.extend_from_slice(&pattern(seed, i as u64, (*len).min(4096)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_schedule() {
        assert_eq!(schedule_bytes(7), schedule_bytes(7));
        assert_ne!(schedule_bytes(7), schedule_bytes(8));
    }

    #[test]
    fn schedules_stay_in_their_declared_ranges() {
        assert!(ping_schedule(3, 0).iter().all(|s| PING_SIZES.contains(s)));
        assert!(stream_schedule(3).iter().all(|&s| (16..=256).contains(&s)));
        let bulk = bulk_schedule(3);
        for round in bulk.chunks_exact(9) {
            let mut r = round.to_vec();
            r.sort_unstable();
            let all: Vec<_> = (0..3).flat_map(|k| (0..3).map(move |s| (k, s))).collect();
            assert_eq!(r, all, "every round holds each (kind, size) once");
        }
    }

    #[test]
    fn patterns_differ_by_stream_and_have_the_asked_length() {
        assert_eq!(pattern(1, 0, 13).len(), 13);
        assert_ne!(pattern(1, 0, 64), pattern(1, 1, 64));
        assert_eq!(pattern(1, 0, 64)[..13], pattern(1, 0, 13)[..]);
    }
}
