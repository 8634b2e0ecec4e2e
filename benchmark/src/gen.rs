//! Seeded input generation: the `data` table's contents and every
//! workload's operation stream are pure functions of `--seed`. The program
//! under test sees only the generated statements.

use ifdb_workloads::TpccTransaction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows in the `data` table of the two read workloads.
pub const DATA_ROWS: i64 = 20_000;
/// Distinct single-tag labels the rows are spread over (`grp` = label index).
pub const DATA_LABELS: usize = 16;
/// How many of the 16 tags a `label_scan` connection holds: groups below
/// this are readable, the others must return zero rows.
pub const CONFINED_TAGS: usize = 8;
/// Width of a `view_range` window over the `val` column (= rows returned).
pub const RANGE_WIDTH: i64 = 200;

/// SplitMix64 finalizer over a small tuple: derives independent sub-seeds
/// for (purpose, repeat, client) from the one `--seed`.
pub fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `val` of every row of `data`, indexed by `id`: a seeded permutation of
/// `0..DATA_ROWS`, so a point read has one checkable answer and every
/// `RANGE_WIDTH` window over `val` matches exactly `RANGE_WIDTH` rows.
pub fn data_vals(seed: u64) -> Vec<i64> {
    let mut vals: Vec<i64> = (0..DATA_ROWS).collect();
    shuffle(&mut vals, &mut StdRng::seed_from_u64(mix(seed, 1, 0, 0)));
    vals
}

/// One operation of a read workload, with the answer its check expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOp {
    /// `SELECT * FROM data WHERE id = id`: one row whose `val` is `val`.
    Point { id: i64, val: i64 },
    /// `SELECT * FROM AllData WHERE val >= lo AND val < lo + RANGE_WIDTH`
    /// through the declassifying view: `RANGE_WIDTH` rows.
    ViewRange { lo: i64 },
    /// `SELECT * FROM data WHERE grp = grp` under a label holding
    /// `CONFINED_TAGS` of the tags: `rows` rows — zero when `grp`'s tag is
    /// not held.
    ConfinedEq { grp: i64, rows: usize },
}

impl ReadOp {
    /// Rows the statement must return.
    pub fn expected_rows(&self) -> usize {
        match self {
            ReadOp::Point { .. } => 1,
            ReadOp::ViewRange { .. } => RANGE_WIDTH as usize,
            ReadOp::ConfinedEq { rows, .. } => *rows,
        }
    }

    fn hash_into(&self, h: &mut Fnv) {
        match self {
            ReadOp::Point { id, val } => h.words(&[1, *id, *val]),
            ReadOp::ViewRange { lo } => h.words(&[2, *lo]),
            ReadOp::ConfinedEq { grp, rows } => h.words(&[3, *grp, *rows as i64]),
        }
    }
}

/// `n` uniform point reads for one client of one repeat.
pub fn point_read_ops(seed: u64, repeat: u64, client: u64, n: usize) -> Vec<ReadOp> {
    let vals = data_vals(seed);
    let mut rng = StdRng::seed_from_u64(mix(seed, 2, repeat, client));
    (0..n)
        .map(|_| {
            let id = rng.gen_range(0..DATA_ROWS);
            ReadOp::Point {
                id,
                val: vals[id as usize],
            }
        })
        .collect()
}

/// `n` scan operations for one client of one repeat. The kinds come from a
/// shuffled deck — half `view_range`, a quarter `confined_eq` on a readable
/// group, a quarter on an unreadable one — so every run realizes the same
/// mix and throughput does not vary with binomial mix noise.
pub fn label_scan_ops(seed: u64, repeat: u64, client: u64, n: usize) -> Vec<ReadOp> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 3, repeat, client));
    let readable = CONFINED_TAGS as i64;
    let mut ops: Vec<ReadOp> = (0..n)
        .map(|i| match i % 4 {
            0 | 2 => ReadOp::ViewRange {
                lo: rng.gen_range(0..=DATA_ROWS - RANGE_WIDTH),
            },
            1 => ReadOp::ConfinedEq {
                grp: rng.gen_range(0..readable),
                rows: DATA_ROWS as usize / DATA_LABELS,
            },
            _ => ReadOp::ConfinedEq {
                grp: rng.gen_range(readable..DATA_LABELS as i64),
                rows: 0,
            },
        })
        .collect();
    shuffle(&mut ops, &mut rng);
    ops
}

/// One TPC-C transaction to run: its type and the seed of the RNG that
/// draws its parameters. A conflict retry re-runs the same card.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Card {
    /// Which of the five transaction profiles.
    pub kind: TpccTransaction,
    /// Seed for the transaction body's parameter draws.
    pub rng_seed: u64,
}

/// The standard mix in whole cards (45/43/4/4/4), as `ifdb_workloads`'
/// shared deck deals it; here each terminal owns its deck so its stream does
/// not depend on how the terminals interleave.
const DECK: [(TpccTransaction, usize); 5] = [
    (TpccTransaction::NewOrder, 45),
    (TpccTransaction::Payment, 43),
    (TpccTransaction::OrderStatus, 4),
    (TpccTransaction::Delivery, 4),
    (TpccTransaction::StockLevel, 4),
];

/// `n` cards for one terminal of one repeat, dealt from shuffled decks.
pub fn tpcc_cards(seed: u64, repeat: u64, terminal: u64, n: usize) -> Vec<Card> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 4, repeat, terminal));
    let mut cards = Vec::with_capacity(n + 100);
    while cards.len() < n {
        let mut deck: Vec<TpccTransaction> = DECK
            .iter()
            .flat_map(|(kind, count)| std::iter::repeat_n(*kind, *count))
            .collect();
        shuffle(&mut deck, &mut rng);
        cards.extend(deck.into_iter().map(|kind| Card {
            kind,
            rng_seed: rng.gen(),
        }));
    }
    cards.truncate(n);
    cards
}

/// Short name of a transaction type, used in metric names.
pub fn tx_name(kind: TpccTransaction) -> &'static str {
    match kind {
        TpccTransaction::NewOrder => "new_order",
        TpccTransaction::Payment => "payment",
        TpccTransaction::OrderStatus => "order_status",
        TpccTransaction::Delivery => "delivery",
        TpccTransaction::StockLevel => "stock_level",
    }
}

/// FNV-1a over little-endian words: the op-stream fingerprint the
/// determinism self-test compares.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn words(&mut self, words: &[i64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
}

/// Fingerprint of a read-op stream.
pub fn hash_read_ops(ops: &[ReadOp]) -> u64 {
    let mut h = Fnv::new();
    for op in ops {
        op.hash_into(&mut h);
    }
    h.0
}

/// Fingerprint of a card stream.
pub fn hash_cards(cards: &[Card]) -> u64 {
    let mut h = Fnv::new();
    for c in cards {
        let kind = DECK
            .iter()
            .position(|(k, _)| *k == c.kind)
            .expect("kind is in the deck");
        h.words(&[kind as i64, c.rng_seed as i64]);
    }
    h.0
}
