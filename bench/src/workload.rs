//! The four workloads: what each sends to the server, and in which order.
//!
//! The server only ever sees generated SQL text. `--seed` decides the order
//! of the texts and nothing else: the data (seed 42), the set of texts and
//! every server setting are the same for every seed.

use runtime_dynamic_optimization::workloads::{Q17_SQL, Q50_SQL, Q8_SQL, Q9_SQL};

/// Short names of the four paper queries, in the order every table of this
/// benchmark lists them.
pub const PAPER_NAMES: [&str; 4] = ["q17", "q50", "q8", "q9"];
/// The paper queries' SQL, in [`PAPER_NAMES`] order.
pub const PAPER_SQL: [&str; 4] = [Q17_SQL, Q50_SQL, Q8_SQL, Q9_SQL];

/// Partitions of the loaded catalog, for every workload.
pub const PARTITIONS: usize = 4;
/// Seed of the generated data, for every workload and every `--seed`.
pub const DATA_SEED: u64 = 42;

/// How a workload drives the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One client; every round starts a fresh server (empty plan cache and
    /// learned catalog) and sends the four paper texts once.
    ColdRounds,
    /// One client, one server; every measured round is four plan-cache hits.
    WarmRounds,
    /// Concurrent clients on one server: mostly a pre-warmed hot set, with a
    /// steady trickle of never-seen texts that miss and evict.
    Mixed,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layers this workload stresses.
    pub why: &'static str,
    pub shape: Shape,
    /// `ScaleFactor::gb` of the loaded data.
    pub scale_gb: u64,
    pub clients: usize,
    /// Server-wide admission budget; `None` leaves admission off.
    pub mem_budget: Option<u64>,
    /// Per-query grant; half funds the spill budget, half the join budget.
    pub query_grant: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cold_dynamic",
        why: "never-seen queries on a fresh server: the full dynamic loop (push-down, re-opt points, Sink sketches, final job) at 300k-row fact tables",
        shape: Shape::ColdRounds,
        scale_gb: 1000,
        clients: 1,
        mem_budget: None,
        query_grant: 64 << 20,
    },
    Workload {
        name: "warm_repeat",
        why: "the same queries as plan-cache hits on one server: same kernels, but no re-opt loop, Sink sketches or compile",
        shape: Shape::WarmRounds,
        scale_gb: 1000,
        clients: 1,
        mem_budget: None,
        query_grant: 64 << 20,
    },
    Workload {
        name: "spill_cold",
        why: "cold_dynamic under a 1 MiB grant: Q8/Q9 intermediates go through spill pages, buffer pool and grace join; Q17/Q50 fit and are the control",
        shape: Shape::ColdRounds,
        scale_gb: 1000,
        clients: 1,
        mem_budget: Some(1 << 20),
        query_grant: 1 << 20,
    },
    Workload {
        name: "small_concurrent",
        why: "2 clients, 3k-row fact tables, 90% hot texts and 10% novel ones past the plan-cache cap: the fixed per-query path under contention",
        shape: Shape::Mixed,
        scale_gb: 10,
        clients: 2,
        mem_budget: Some(64 << 20),
        query_grant: 32 << 20,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: a few lines, no dependency, and the same stream on every
/// platform — the sequence a seed produces is part of the benchmark.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The order of the four paper texts in one round: a permutation drawn from
/// `(seed, round)`, so any round can be regenerated on its own.
pub fn round_order(seed: u64, round: u64) -> [usize; 4] {
    let mut order = [0, 1, 2, 3];
    SplitMix64::new(seed ^ round.wrapping_mul(0xa076_1d64_78bd_642f)).shuffle(&mut order);
    order
}

/// Size of the hot set of [`Shape::Mixed`]: the four paper texts plus four
/// fixed literal variants.
pub const HOT_TEXTS: usize = 8;
/// Novel texts per client. Two clients' pools together hold 8x the server's
/// default `plan_cache_cap` of 256, so misses and LRU evictions never stop.
pub const NOVEL_PER_CLIENT: usize = 1024;
/// One query in ten is a never-seen text.
const NOVEL_ONE_IN: usize = 10;

fn q8_variant(lo: i64, width: i64) -> String {
    Q8_SQL.replace(
        "BETWEEN 0 AND 729",
        &format!("BETWEEN {lo} AND {}", lo + width),
    )
}

fn q17_variant(moy: i64, year: i64, returned_until: i64) -> String {
    Q17_SQL
        .replace("d1.d_moy = 4", &format!("d1.d_moy = {moy}"))
        .replace("d1.d_year = 2001", &format!("d1.d_year = {year}"))
        .replace(
            "d2.d_moy BETWEEN 4 AND 10",
            &format!("d2.d_moy BETWEEN 4 AND {returned_until}"),
        )
}

fn q9_variant(year: i64, brand: i64) -> String {
    Q9_SQL
        .replace("= 1998", &format!("= {year}"))
        .replace("'#3'", &format!("'#{brand}'"))
}

/// The texts of [`Shape::Mixed`].
#[derive(Debug, Clone)]
pub struct MixedTexts {
    /// [`HOT_TEXTS`] texts; the first four are the paper texts in
    /// [`PAPER_NAMES`] order.
    pub hot: Vec<String>,
    /// One disjoint pool of [`NOVEL_PER_CLIENT`] texts per client.
    pub novel: Vec<Vec<String>>,
}

impl MixedTexts {
    pub fn new(clients: usize) -> Self {
        let mut hot: Vec<String> = PAPER_SQL.iter().map(|s| s.to_string()).collect();
        hot.push(q17_variant(5, 2000, 10));
        hot.push(Q50_SQL.replace("$moy", "9").replace("$year", "2000"));
        hot.push(q8_variant(100, 729));
        hot.push(q9_variant(1997, 2));
        assert_eq!(hot.len(), HOT_TEXTS);

        // Every literal variant the generated data gives a meaning to:
        // orders fall on days 0..1460 and are 'F' before day 730, date_dim
        // covers 1998..=2002, parts carry Brand#1..=5 and order years
        // 1995..=1998.
        let mut pool = Vec::new();
        for year in 1995..=1998 {
            for brand in 1..=5 {
                pool.push(q9_variant(year, brand));
            }
        }
        for year in 1998..=2002 {
            for moy in 1..=12 {
                for returned_until in 4..=12 {
                    pool.push(q17_variant(moy, year, returned_until));
                }
            }
        }
        for width in [729, 547, 364] {
            for lo in 1..=729 {
                pool.push(q8_variant(lo, width));
            }
        }
        pool.retain(|text| !hot.contains(text));
        // A fixed shuffle (not `--seed`) mixes the three families evenly
        // into every client's pool; the pools are the same for every seed.
        SplitMix64::new(DATA_SEED).shuffle(&mut pool);
        assert!(pool.len() >= clients * NOVEL_PER_CLIENT);
        let novel = pool
            .chunks(NOVEL_PER_CLIENT)
            .take(clients)
            .map(<[String]>::to_vec)
            .collect();
        Self { hot, novel }
    }
}

/// One query of a [`Shape::Mixed`] client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Index into [`MixedTexts::hot`]: a plan-cache hit once pre-warmed.
    Hot(usize),
    /// Index into the client's own novel pool: always a miss. A client walks
    /// its pool in a seeded order without repeats; by the time it wraps
    /// around, 1023 other novel texts have passed through a 256-entry cache.
    Novel(usize),
}

/// The endless query sequence of one client, a pure function of
/// `(seed, client)`.
#[derive(Debug, Clone)]
pub struct MixedSequence {
    rng: SplitMix64,
    novel_order: Vec<usize>,
    novel_sent: usize,
}

impl MixedSequence {
    pub fn new(seed: u64, client: usize) -> Self {
        let mut rng =
            SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(0xd6e8_feb8_6659_fd93));
        let mut novel_order: Vec<usize> = (0..NOVEL_PER_CLIENT).collect();
        rng.shuffle(&mut novel_order);
        Self {
            rng,
            novel_order,
            novel_sent: 0,
        }
    }
}

impl Iterator for MixedSequence {
    type Item = Pick;

    fn next(&mut self) -> Option<Pick> {
        if self.rng.below(NOVEL_ONE_IN) == 0 {
            let pick = self.novel_order[self.novel_sent % NOVEL_PER_CLIENT];
            self.novel_sent += 1;
            Some(Pick::Novel(pick))
        } else {
            Some(Pick::Hot(self.rng.below(HOT_TEXTS)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_gives_the_same_sequence_and_hit_pattern() {
        let draw =
            |seed, client| -> Vec<Pick> { MixedSequence::new(seed, client).take(5000).collect() };
        assert_eq!(draw(42, 0), draw(42, 0));
        assert_ne!(draw(42, 0), draw(43, 0), "the seed changes the sequence");
        assert_ne!(draw(42, 0), draw(42, 1), "clients draw their own sequences");
        let hits = |picks: &[Pick]| -> Vec<bool> {
            picks.iter().map(|p| matches!(p, Pick::Hot(_))).collect()
        };
        assert_eq!(hits(&draw(7, 1)), hits(&draw(7, 1)));
        let share = hits(&draw(42, 0)).iter().filter(|hit| **hit).count() as f64 / 5000.0;
        assert!((0.88..0.92).contains(&share), "hot share {share}");
        for round in 0..50 {
            assert_eq!(round_order(42, round), round_order(42, round));
            let mut sorted = round_order(42, round);
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3]);
        }
        assert!((0..50).any(|r| round_order(42, r) != round_order(43, r)));
    }

    #[test]
    fn novel_picks_do_not_repeat_within_a_pool_pass() {
        let novel: Vec<usize> = MixedSequence::new(3, 0)
            .filter_map(|p| match p {
                Pick::Novel(i) => Some(i),
                Pick::Hot(_) => None,
            })
            .take(NOVEL_PER_CLIENT)
            .collect();
        assert_eq!(
            novel.iter().collect::<BTreeSet<_>>().len(),
            NOVEL_PER_CLIENT
        );
    }

    #[test]
    fn texts_are_distinct_and_pools_disjoint() {
        let texts = MixedTexts::new(2);
        assert_eq!(&texts.hot[..4], &PAPER_SQL.map(str::to_string));
        let mut all: Vec<&String> = texts.hot.iter().collect();
        for pool in &texts.novel {
            assert_eq!(pool.len(), NOVEL_PER_CLIENT);
            all.extend(pool);
        }
        let distinct: BTreeSet<&String> = all.iter().copied().collect();
        assert_eq!(distinct.len(), HOT_TEXTS + 2 * NOVEL_PER_CLIENT);
        // Every family is in every pool, so the replacements took effect.
        for pool in &texts.novel {
            for marker in [
                "FROM lineitem, part, supplier, orders",
                "catalog_sales",
                "mysub",
            ] {
                assert!(
                    pool.iter().any(|t| t.contains(marker)),
                    "no {marker} variant"
                );
            }
        }
        assert_eq!(
            MixedTexts::new(2).novel,
            texts.novel,
            "pools do not depend on a seed"
        );
    }
}
