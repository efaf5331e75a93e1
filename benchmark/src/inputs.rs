//! What set-up shares across workloads: the harness's own seeded RNG
//! (so a change to `vendor/rand` cannot change a request mix), the
//! order-independent arc hash, input fingerprints, the per-run scratch
//! directory, and the process's peak resident set.

use snap::graph::Graph;
use snap::obs::json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below what
    /// any workload here could observe.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string (answer and payload hashes).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Order-independent hash of a graph's arcs: the wrapping sum of a mixed
/// `(u, v)` word per arc, so any backend or file round trip that keeps
/// the arc set keeps the hash.
pub fn arc_hash<G: Graph>(g: &G) -> u64 {
    g.vertices().fold(0u64, |acc, u| {
        g.neighbors(u).fold(acc, |acc, v| {
            acc.wrapping_add(mix64((u64::from(u) << 32) | u64::from(v)))
        })
    })
}

/// Identity of one generated input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub n: usize,
    pub m: usize,
    pub arc_hash: u64,
    /// Sizes of the files set-up wrote, by format name.
    pub file_bytes: Vec<(&'static str, u64)>,
}

impl Fingerprint {
    pub fn of<G: Graph>(g: &G) -> Fingerprint {
        Fingerprint {
            n: g.num_vertices(),
            m: g.num_edges(),
            arc_hash: arc_hash(g),
            file_bytes: Vec::new(),
        }
    }

    /// The form `fingerprints.json` stores (the hash as a hex string: a
    /// JSON number cannot hold 64 bits).
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("n".to_string(), Json::Num(self.n as f64)),
            ("m".to_string(), Json::Num(self.m as f64)),
            (
                "arc_hash".to_string(),
                Json::Str(format!("{:#018x}", self.arc_hash)),
            ),
        ];
        for (format, bytes) in &self.file_bytes {
            members.push((format!("{format}_bytes"), Json::Num(*bytes as f64)));
        }
        Json::Obj(members)
    }
}

/// `benchmark/`, from the `SNAP_BENCH_DIR` that `run.sh` exports (the
/// manifest directory when the binary is started by hand).
pub fn bench_dir() -> PathBuf {
    std::env::var_os("SNAP_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// A scratch directory for one set-up's input files, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(workload: &str, seed: u64) -> ScratchDir {
        // A late set-up runs while the first one's files are still there.
        static CREATED: AtomicU64 = AtomicU64::new(0);
        let nth = CREATED.fetch_add(1, Ordering::Relaxed);
        let dir = bench_dir()
            .join("out")
            .join(format!("{workload}-{seed}-{}-{nth}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("creating the run's scratch directory");
        ScratchDir(dir)
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).expect("stat input file").len()
}

/// Peak resident set (VmHWM) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap::graph::builder::from_edges;

    #[test]
    fn arc_hash_ignores_order_and_sees_arcs() {
        let a = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = from_edges(4, &[(2, 3), (0, 1), (2, 1)]);
        let c = from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        assert_eq!(arc_hash(&a), arc_hash(&b));
        assert_ne!(arc_hash(&a), arc_hash(&c));
    }

    #[test]
    fn rng_repeats_per_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn fingerprint_round_trips_through_its_json() {
        let mut fp = Fingerprint::of(&from_edges(3, &[(0, 1), (1, 2)]));
        fp.file_bytes.push(("edgelist", 12));
        let stored = Json::parse(&fp.to_json().to_string_compact()).unwrap();
        assert_eq!(stored, fp.to_json());
        fp.m += 1;
        assert_ne!(stored, fp.to_json());
    }
}
