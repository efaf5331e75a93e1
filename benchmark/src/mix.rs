//! The `serve_churn` request mix: a pure function from (seed, request
//! index) to one wire line, so client threads can draw requests in any
//! order and the stream still repeats exactly.
//!
//! Per 100 consecutive requests: 60 `bfs` from a 16-source hot set
//! (cache hits once warm), 25 `bfs` from sources never used before
//! (always cold), 8 `coreness` (cold once per epoch), 4 `centrality`
//! with a distinct seed each (always cold, the slowest class) and 3
//! `epoch`/`stats` probes (never cached).

use crate::inputs::{mix64, Rng};

pub const CYCLE: u64 = 100;
pub const HOT_SOURCES: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    HotBfs,
    ColdBfs,
    Coreness,
    Centrality,
    Meta,
}

impl Class {
    /// Requests of this class in every cycle of [`CYCLE`].
    pub fn share(self) -> usize {
        match self {
            Class::HotBfs => 60,
            Class::ColdBfs => 25,
            Class::Coreness => 8,
            Class::Centrality => 4,
            Class::Meta => 3,
        }
    }
}

const CLASSES: [Class; 5] = [
    Class::HotBfs,
    Class::ColdBfs,
    Class::Coreness,
    Class::Centrality,
    Class::Meta,
];

pub struct Mix {
    seed: u64,
    hot: Vec<u32>,
    /// Cold sources in the order they are used; request streams longer
    /// than this wrap around (and would then repeat a source).
    cold: Vec<u32>,
    /// Class of each slot of a cycle, and the slot's rank among the
    /// slots of its class.
    slots: Vec<(Class, usize)>,
    /// Sampled fraction of a `centrality` request.
    centrality_frac: f64,
}

impl Mix {
    /// `candidates` are the vertices sources may be drawn from (the giant
    /// component); the first [`HOT_SOURCES`] after a seeded shuffle are
    /// the hot set, the rest feed the cold class.
    pub fn new(seed: u64, mut candidates: Vec<u32>, centrality_frac: f64) -> Mix {
        assert!(candidates.len() > HOT_SOURCES, "too few source candidates");
        let mut rng = Rng::new(seed ^ 0x006d_6978);
        rng.shuffle(&mut candidates);
        let cold = candidates.split_off(HOT_SOURCES);
        let mut order: Vec<Class> = CLASSES
            .iter()
            .flat_map(|&c| std::iter::repeat_n(c, c.share()))
            .collect();
        rng.shuffle(&mut order);
        let mut seen = [0usize; CLASSES.len()];
        let slots = order
            .into_iter()
            .map(|c| {
                let rank = seen[c as usize];
                seen[c as usize] += 1;
                (c, rank)
            })
            .collect();
        Mix {
            seed,
            hot: candidates,
            cold,
            slots,
            centrality_frac,
        }
    }

    pub fn hot(&self) -> &[u32] {
        &self.hot
    }

    /// Request `i` of the stream: its class and wire line.
    pub fn line(&self, i: u64) -> (Class, String) {
        let (class, rank) = self.slots[(i % CYCLE) as usize];
        let nth = (i / CYCLE) as usize * class.share() + rank;
        let line = match class {
            Class::HotBfs => {
                let pick = mix64(self.seed ^ mix64(i)) as usize % self.hot.len();
                format!(
                    "{{\"id\":{i},\"query\":\"bfs\",\"source\":{}}}",
                    self.hot[pick]
                )
            }
            Class::ColdBfs => format!(
                "{{\"id\":{i},\"query\":\"bfs\",\"source\":{}}}",
                self.cold[nth % self.cold.len()]
            ),
            Class::Coreness => format!("{{\"id\":{i},\"query\":\"coreness\"}}"),
            Class::Centrality => format!(
                "{{\"id\":{i},\"query\":\"centrality\",\"frac\":{:?},\"seed\":{i},\"top\":10}}",
                self.centrality_frac
            ),
            Class::Meta => {
                let query = if nth.is_multiple_of(2) {
                    "epoch"
                } else {
                    "stats"
                };
                format!("{{\"id\":{i},\"query\":\"{query}\"}}")
            }
        };
        (class, line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap::serve::{Query, Request};
    use std::collections::BTreeSet;

    fn mix(seed: u64) -> Mix {
        Mix::new(seed, (0..5000).collect(), 8.0 / 5000.0)
    }

    #[test]
    fn same_seed_gives_identical_lines() {
        let (a, b) = (mix(7), mix(7));
        for i in 0..1000 {
            assert_eq!(a.line(i), b.line(i));
        }
    }

    #[test]
    fn another_seed_gives_other_sources() {
        let sources = |m: &Mix| -> Vec<String> { (0..300).map(|i| m.line(i).1).collect() };
        assert_ne!(sources(&mix(7)), sources(&mix(8)));
        assert_ne!(mix(7).hot, mix(8).hot);
    }

    #[test]
    fn class_shares_are_exact_in_every_cycle() {
        let m = mix(3);
        for cycle in 0..5 {
            let mut counts = std::collections::BTreeMap::new();
            for i in cycle * CYCLE..(cycle + 1) * CYCLE {
                *counts.entry(m.line(i).0).or_insert(0usize) += 1;
            }
            for c in CLASSES {
                assert_eq!(counts[&c], c.share(), "{c:?} in cycle {cycle}");
            }
        }
        assert_eq!(
            CLASSES.iter().map(|c| c.share()).sum::<usize>() as u64,
            CYCLE
        );
    }

    #[test]
    fn lines_parse_and_classes_behave() {
        let m = mix(11);
        let mut cold_sources = BTreeSet::new();
        let mut centrality_keys = BTreeSet::new();
        for i in 0..2000 {
            let (class, line) = m.line(i);
            let req = Request::parse(&line).expect("mix emits valid requests");
            assert_eq!(req.id, i);
            match (class, &req.query) {
                (Class::HotBfs, Query::Bfs { source }) => assert!(m.hot.contains(source)),
                (Class::ColdBfs, Query::Bfs { source }) => {
                    assert!(!m.hot.contains(source));
                    assert!(
                        cold_sources.insert(*source),
                        "cold source {source} repeated"
                    );
                }
                (Class::Centrality, Query::Centrality { .. }) => {
                    assert!(centrality_keys.insert(req.query.cache_key()));
                }
                (Class::Coreness, Query::Coreness) => {}
                (Class::Meta, Query::Epoch | Query::Stats) => {}
                other => panic!("class and query disagree: {other:?}"),
            }
        }
        assert_eq!(cold_sources.len(), 500);
    }
}
