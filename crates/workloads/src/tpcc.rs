//! A scaled-down TPC-C / DBT-2 implementation.
//!
//! Section 8.3 measures IFDB with DBT-2, a TPC-C derivative, with zero think
//! time and a fixed number of warehouses, while varying the number of tags in
//! every tuple's label from 0 to 10. This module provides the nine-table
//! schema, a loader, and the five transaction profiles. The scale factors
//! (items, customers per district) are reduced so that a benchmark run takes
//! seconds, but the transaction logic follows the TPC-C profiles: the same
//! reads, writes, and index usage per transaction.
//!
//! Each profile is split in two, as DBT-2 runs TPC-C inside the DBMS. The
//! terminal draws the inputs ([`TpccInputs::draw`]): every random choice
//! the profile makes, none of which depends on a query result. The body
//! takes those inputs and issues the profile's statements, from `begin` to
//! `commit`. [`create_schema`] registers the body of each
//! profile as a stored procedure ([`create_procedures`]) that runs as its
//! caller, so [`run_transaction_at`] is one `call_procedure` — one round
//! trip over the wire — whatever the number of statements. Where one node
//! does not hold every row a transaction touches (the sharded driver), the
//! terminal runs the same body itself, statement by statement
//! ([`run_client_side`]); the same card gives the same statements either
//! way.

use std::sync::{Arc, Mutex};

use ifdb::prelude::*;
use ifdb::{IfdbResult, StoredProcedure, TableDef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rng::{last_name, nurand, random_string, NURAND_A_C_ID, NURAND_A_OL_I_ID};

/// Scale configuration.
#[derive(Debug, Clone)]
pub struct TpccConfig {
    /// Number of warehouses.
    pub warehouses: i64,
    /// Districts per warehouse (TPC-C: 10).
    pub districts_per_warehouse: i64,
    /// Customers per district (TPC-C: 3000; scaled down by default).
    pub customers_per_district: i64,
    /// Number of items (TPC-C: 100 000; scaled down by default).
    pub items: i64,
    /// Initial orders per district.
    pub initial_orders_per_district: i64,
    /// Number of tags in every tuple's label (the Figure 6 x-axis).
    pub tags_per_label: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 10,
            customers_per_district: 30,
            items: 100,
            initial_orders_per_district: 10,
            tags_per_label: 1,
            seed: 0x7ACC,
        }
    }
}

/// The five TPC-C transaction types and their standard mix weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccTransaction {
    /// New-order (45%): the throughput metric (NOTPM) counts these.
    NewOrder,
    /// Payment (43%).
    Payment,
    /// Order-status (4%).
    OrderStatus,
    /// Delivery (4%).
    Delivery,
    /// Stock-level (4%).
    StockLevel,
}

impl TpccTransaction {
    /// Draws a transaction type from the standard mix.
    pub fn draw(rng: &mut StdRng) -> Self {
        let x: f64 = rng.gen();
        if x < 0.45 {
            TpccTransaction::NewOrder
        } else if x < 0.88 {
            TpccTransaction::Payment
        } else if x < 0.92 {
            TpccTransaction::OrderStatus
        } else if x < 0.96 {
            TpccTransaction::Delivery
        } else {
            TpccTransaction::StockLevel
        }
    }

    /// The name of the stored procedure that runs this profile's body.
    fn procedure(self) -> &'static str {
        match self {
            TpccTransaction::NewOrder => "tpcc_new_order",
            TpccTransaction::Payment => "tpcc_payment",
            TpccTransaction::OrderStatus => "tpcc_order_status",
            TpccTransaction::Delivery => "tpcc_delivery",
            TpccTransaction::StockLevel => "tpcc_stock_level",
        }
    }
}

/// A shuffled card deck over the standard mix, shared by the terminals of
/// one run: 100 cards (45 new-order, 43 payment, 4 each of the rest),
/// dealt one per transaction and reshuffled when exhausted.
///
/// Dealing from a deck is how real TPC-C drivers meet the mix requirement,
/// and it matters for measurement: each full deck realizes the mix
/// *exactly*, so a run's NOTPM varies with throughput alone instead of
/// with binomial mix-sampling noise. A short run commits a few hundred
/// transactions; drawn i.i.d., the new-order count then swings by ~10%,
/// which is fatal when the ratio of two such runs is gated against a
/// scaling floor.
pub struct TpccDeck {
    inner: Mutex<(Vec<TpccTransaction>, StdRng)>,
}

impl TpccDeck {
    /// Cards per deck: the standard mix in whole cards.
    const DECK: [(TpccTransaction, usize); 5] = [
        (TpccTransaction::NewOrder, 45),
        (TpccTransaction::Payment, 43),
        (TpccTransaction::OrderStatus, 4),
        (TpccTransaction::Delivery, 4),
        (TpccTransaction::StockLevel, 4),
    ];

    /// Creates an empty deck; the first deal shuffles.
    pub fn new(seed: u64) -> Self {
        TpccDeck {
            inner: Mutex::new((Vec::new(), StdRng::seed_from_u64(seed))),
        }
    }

    /// Deals the next card, reshuffling a fresh deck when this one runs out.
    pub fn deal(&self) -> TpccTransaction {
        let mut inner = self.inner.lock().expect("deck poisoned");
        let (cards, rng) = &mut *inner;
        if cards.is_empty() {
            for (kind, count) in Self::DECK {
                cards.extend(std::iter::repeat_n(kind, count));
            }
            // Fisher-Yates.
            for i in (1..cards.len()).rev() {
                cards.swap(i, rng.gen_range(0..=i));
            }
        }
        cards.pop().expect("deck refilled above")
    }
}

/// The warehouse range a loader populates: `lo..=hi` of the global
/// warehouse id space. A sharded deployment loads each shard's database
/// with its own slice (plus the full `item` catalog, which is replicated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarehouseRange {
    /// First warehouse id (inclusive).
    pub lo: i64,
    /// Last warehouse id (inclusive).
    pub hi: i64,
}

/// A loaded TPC-C database plus the label every tuple carries.
pub struct TpccDatabase {
    /// The database.
    pub db: Database,
    /// The benchmark principal (owns the label tags and runs transactions).
    pub principal: PrincipalId,
    /// The label applied to every tuple (0–10 tags).
    pub label: Label,
    /// The configuration the database was loaded with.
    pub config: TpccConfig,
}

impl TpccDatabase {
    /// Creates the schema and loads initial data into `db`.
    pub fn load(db: Database, config: TpccConfig) -> IfdbResult<Self> {
        let range = WarehouseRange {
            lo: 1,
            hi: config.warehouses,
        };
        Self::load_warehouse_range(db, config, range)
    }

    /// Creates the schema and loads only the warehouses in `range` (the
    /// full `item` catalog is always loaded — it is replicated on every
    /// shard of a sharded deployment). `config.warehouses` stays the
    /// *global* warehouse count, so transaction profiles generated against
    /// the whole cluster stay valid.
    pub fn load_warehouse_range(
        db: Database,
        config: TpccConfig,
        range: WarehouseRange,
    ) -> IfdbResult<Self> {
        create_schema(&db)?;
        let principal = db.create_principal("tpcc", PrincipalKind::User);
        let mut tags = Vec::new();
        for i in 0..config.tags_per_label {
            tags.push(db.create_tag(principal, &format!("tpcc_tag_{i}"), &[])?);
        }
        let label = Label::from_tags(tags);
        let loaded = TpccDatabase {
            db,
            principal,
            label,
            config,
        };
        loaded.populate(range)?;
        Ok(loaded)
    }

    /// Opens a session with the benchmark label already applied.
    pub fn session(&self) -> IfdbResult<Session> {
        let mut s = self.db.session(self.principal);
        s.raise_label(&self.label)?;
        Ok(s)
    }

    fn populate(&self, range: WarehouseRange) -> IfdbResult<()> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut s = self.session()?;
        let c = &self.config;

        s.begin()?;
        for i in 1..=c.items {
            s.insert(&Insert::new(
                "item",
                vec![
                    Datum::Int(i),
                    Datum::Text(random_string(&mut rng, 14, 24)),
                    Datum::Float(rng.gen_range(1.0..100.0)),
                ],
            ))?;
        }
        self.finish_load_txn(&mut s)?;

        for w in range.lo..=range.hi {
            s.begin()?;
            s.insert(&Insert::new(
                "warehouse",
                vec![
                    Datum::Int(w),
                    Datum::Text(format!("W{w}")),
                    Datum::Float(0.1),
                    Datum::Float(300_000.0),
                ],
            ))?;
            for i in 1..=c.items {
                s.insert(&Insert::new(
                    "stock",
                    vec![
                        Datum::Int(w),
                        Datum::Int(i),
                        Datum::Int(rng.gen_range(10..100)),
                        Datum::Int(0),
                        Datum::Int(0),
                    ],
                ))?;
            }
            self.finish_load_txn(&mut s)?;

            for d in 1..=c.districts_per_warehouse {
                s.begin()?;
                s.insert(&Insert::new(
                    "district",
                    vec![
                        Datum::Int(w),
                        Datum::Int(d),
                        Datum::Text(format!("D{w}-{d}")),
                        Datum::Float(0.1),
                        Datum::Float(30_000.0),
                        Datum::Int(c.initial_orders_per_district + 1),
                    ],
                ))?;
                for cu in 1..=c.customers_per_district {
                    s.insert(&Insert::new(
                        "customer",
                        vec![
                            Datum::Int(w),
                            Datum::Int(d),
                            Datum::Int(cu),
                            Datum::Text(last_name((cu % 1000) as u64)),
                            Datum::Text(random_string(&mut rng, 8, 16)),
                            Datum::Float(-10.0),
                            Datum::Float(10.0),
                            Datum::Int(1),
                        ],
                    ))?;
                }
                // A few initial orders so order-status and delivery have work.
                for o in 1..=c.initial_orders_per_district {
                    let customer = rng.gen_range(1..=c.customers_per_district);
                    let lines = rng.gen_range(5..=15i64);
                    s.insert(&Insert::new(
                        "orders",
                        vec![
                            Datum::Int(w),
                            Datum::Int(d),
                            Datum::Int(o),
                            Datum::Int(customer),
                            Datum::Timestamp(o * 1_000_000),
                            Datum::Int(lines),
                            Datum::Null,
                        ],
                    ))?;
                    s.insert(&Insert::new(
                        "new_order",
                        vec![Datum::Int(w), Datum::Int(d), Datum::Int(o)],
                    ))?;
                    for l in 1..=lines {
                        s.insert(&Insert::new(
                            "order_line",
                            vec![
                                Datum::Int(w),
                                Datum::Int(d),
                                Datum::Int(o),
                                Datum::Int(l),
                                Datum::Int(rng.gen_range(1..=c.items)),
                                Datum::Int(5),
                                Datum::Float(rng.gen_range(1.0..100.0)),
                                Datum::Null,
                            ],
                        ))?;
                    }
                }
                self.finish_load_txn(&mut s)?;
            }
        }
        Ok(())
    }

    /// Commits a load transaction: the loader must declassify before the
    /// commit point (commit label rule), then re-raise for the next batch.
    fn finish_load_txn(&self, s: &mut Session) -> IfdbResult<()> {
        if !self.label.is_empty() {
            s.declassify_all(&self.label)?;
        }
        s.commit()?;
        if !self.label.is_empty() {
            s.raise_label(&self.label)?;
        }
        Ok(())
    }

    /// Runs one transaction of the given type as one call of its stored
    /// procedure ([`run_transaction_on`]). Returns `true` if it committed
    /// (write conflicts roll back and report `false`, as DBT-2 counts
    /// rollbacks separately). Generic over [`SessionApi`], so the same call
    /// drives an in-process session or a network connection.
    pub fn run_transaction<S: SessionApi>(
        &self,
        session: &mut S,
        rng: &mut StdRng,
        kind: TpccTransaction,
    ) -> IfdbResult<bool> {
        run_transaction_on(&self.config, session, rng, kind)
    }
}

/// Runs one TPC-C transaction against any [`SessionApi`] at a home
/// warehouse drawn from `rng` — [`run_transaction_at`] for a terminal that
/// is not pinned to a warehouse. Returns `true` if it committed; a
/// snapshot-isolation write conflict rolls back and reports `false`.
pub fn run_transaction_on<S: SessionApi>(
    config: &TpccConfig,
    session: &mut S,
    rng: &mut StdRng,
    kind: TpccTransaction,
) -> IfdbResult<bool> {
    let w = rng.gen_range(1..=config.warehouses);
    run_transaction_at(config, session, rng, kind, w)
}

/// Runs one TPC-C transaction with the home warehouse chosen by the
/// caller: the terminal draws the inputs ([`TpccInputs::draw`]) and makes
/// one call of the profile's stored procedure ([`create_procedures`]),
/// which runs the body in the server, next to the rows. TPC-C terminals are
/// pinned to a warehouse, and a driver that pins its terminals spreads load
/// evenly instead of letting the per-transaction warehouse draw bunch up.
pub fn run_transaction_at<S: SessionApi>(
    config: &TpccConfig,
    session: &mut S,
    rng: &mut StdRng,
    kind: TpccTransaction,
    w: i64,
) -> IfdbResult<bool> {
    let inputs = TpccInputs::draw(config, rng, kind, w);
    let result = session.call_procedure(kind.procedure(), &inputs.args());
    settle(session, result.map(drop))
}

/// Runs drawn inputs' body from the terminal, statement by statement (the
/// independent ones as pipelined batches) — for a connection whose
/// `call_procedure` cannot reach every row the body touches, as over a
/// sharded router, whose procedures run on shard 0 only. Returns `true` if
/// the transaction committed, `false` on a write-conflict rollback.
pub fn run_client_side<S: SessionApi>(session: &mut S, inputs: &TpccInputs) -> IfdbResult<bool> {
    let result = run_body(session, inputs);
    settle(session, result)
}

/// A transaction's outcome as the terminal counts it: a write conflict is a
/// rollback (`false`), and whatever the transaction left open is aborted.
fn settle<S: SessionApi>(session: &mut S, result: IfdbResult<()>) -> IfdbResult<bool> {
    if result.is_err() && session.in_transaction() {
        let _ = session.abort();
    }
    match result {
        Ok(()) => Ok(true),
        Err(IfdbError::Storage(ifdb::StorageError::WriteConflict { .. })) => Ok(false),
        Err(e) => Err(e),
    }
}

/// What a terminal draws for one transaction before it starts: every random
/// choice the profile's body makes, in the order the statement-at-a-time
/// terminal drew them. None of them depends on a query result, so a card
/// and its seed give the same inputs, and the same statements, wherever the
/// body runs.
#[derive(Debug, Clone, PartialEq)]
pub enum TpccInputs {
    /// New-order: the customer, then `(item, quantity)` per order line.
    NewOrder {
        /// Home warehouse.
        w: i64,
        /// District.
        d: i64,
        /// Warehouse whose stock supplies the lines (`w` but for the
        /// remote-supplier shape).
        supply_w: i64,
        /// Ordering customer.
        customer: i64,
        /// `(item, quantity)` of each line, 5 to 15 of them.
        lines: Vec<(i64, i64)>,
    },
    /// Payment.
    Payment {
        /// Home warehouse.
        w: i64,
        /// District.
        d: i64,
        /// Paying customer.
        customer: i64,
        /// Amount paid.
        amount: f64,
    },
    /// Order-status.
    OrderStatus {
        /// Home warehouse.
        w: i64,
        /// District.
        d: i64,
        /// Customer whose last order is read.
        customer: i64,
    },
    /// Delivery, of the oldest pending order of every district.
    Delivery {
        /// Home warehouse.
        w: i64,
        /// Districts `1..=districts` are delivered: the scale, not a draw.
        districts: i64,
        /// Carrier.
        carrier: i64,
    },
    /// Stock-level.
    StockLevel {
        /// Home warehouse.
        w: i64,
        /// District.
        d: i64,
        /// Quantity below which a stock row counts as low.
        threshold: i64,
    },
}

impl TpccInputs {
    /// Draws the inputs of one `kind` transaction at home warehouse `w`.
    pub fn draw(config: &TpccConfig, rng: &mut StdRng, kind: TpccTransaction, w: i64) -> Self {
        match kind {
            TpccTransaction::NewOrder => {
                let d = pick_d(config, rng);
                Self::new_order(config, rng, w, d, w)
            }
            TpccTransaction::Payment => TpccInputs::Payment {
                w,
                d: pick_d(config, rng),
                customer: pick_customer(config, rng),
                amount: rng.gen_range(1.0..5000.0),
            },
            TpccTransaction::OrderStatus => TpccInputs::OrderStatus {
                w,
                d: pick_d(config, rng),
                customer: pick_customer(config, rng),
            },
            TpccTransaction::Delivery => TpccInputs::Delivery {
                w,
                districts: config.districts_per_warehouse,
                carrier: rng.gen_range(1..=10i64),
            },
            TpccTransaction::StockLevel => TpccInputs::StockLevel {
                w,
                d: pick_d(config, rng),
                threshold: rng.gen_range(10..=20i64),
            },
        }
    }

    /// Draws a new-order's inputs for district `(w, d)` whose stock is
    /// supplied by warehouse `supply_w`. With `supply_w != w` (the TPC-C
    /// remote-supplier shape) the stock reads and updates land on the
    /// supplying warehouse and the order on the home one, so over a sharded
    /// topology the transaction is cross-shard whenever the two live on
    /// different shards; a terminal runs it with [`run_client_side`].
    pub fn new_order(config: &TpccConfig, rng: &mut StdRng, w: i64, d: i64, supply_w: i64) -> Self {
        let customer = pick_customer(config, rng);
        let line_count = rng.gen_range(5..=15i64);
        let lines = (0..line_count)
            .map(|_| {
                let item = nurand(rng, NURAND_A_OL_I_ID, 1, config.items as u64) as i64;
                (item, rng.gen_range(1..=10i64))
            })
            .collect();
        TpccInputs::NewOrder {
            w,
            d,
            supply_w,
            customer,
            lines,
        }
    }

    /// The procedure arguments: the fields in declaration order, a
    /// new-order's lines flattened to `item, quantity, item, ...`.
    fn args(&self) -> Vec<Datum> {
        let ints = |v: &[i64]| v.iter().map(|&x| Datum::Int(x)).collect::<Vec<_>>();
        match self {
            TpccInputs::NewOrder {
                w,
                d,
                supply_w,
                customer,
                lines,
            } => {
                let mut args = ints(&[*w, *d, *supply_w, *customer]);
                for &(item, qty) in lines {
                    args.extend([Datum::Int(item), Datum::Int(qty)]);
                }
                args
            }
            TpccInputs::Payment {
                w,
                d,
                customer,
                amount,
            } => {
                let mut args = ints(&[*w, *d, *customer]);
                args.push(Datum::Float(*amount));
                args
            }
            TpccInputs::OrderStatus { w, d, customer } => ints(&[*w, *d, *customer]),
            TpccInputs::Delivery {
                w,
                districts,
                carrier,
            } => ints(&[*w, *districts, *carrier]),
            TpccInputs::StockLevel { w, d, threshold } => ints(&[*w, *d, *threshold]),
        }
    }

    /// Reads [`TpccInputs::args`] of a `kind` transaction back.
    fn from_args(kind: TpccTransaction, args: &[Datum]) -> IfdbResult<Self> {
        let bad = || {
            IfdbError::InvalidStatement(format!(
                "{}: malformed arguments {args:?}",
                kind.procedure()
            ))
        };
        let int = |i: usize| match args.get(i) {
            Some(Datum::Int(x)) => Ok(*x),
            _ => Err(bad()),
        };
        let arity = |n: usize| if args.len() == n { Ok(()) } else { Err(bad()) };
        Ok(match kind {
            TpccTransaction::NewOrder => {
                if args.len() < 4 || !args.len().is_multiple_of(2) {
                    return Err(bad());
                }
                TpccInputs::NewOrder {
                    w: int(0)?,
                    d: int(1)?,
                    supply_w: int(2)?,
                    customer: int(3)?,
                    lines: (4..args.len())
                        .step_by(2)
                        .map(|i| Ok((int(i)?, int(i + 1)?)))
                        .collect::<IfdbResult<_>>()?,
                }
            }
            TpccTransaction::Payment => {
                arity(4)?;
                let Datum::Float(amount) = args[3] else {
                    return Err(bad());
                };
                TpccInputs::Payment {
                    w: int(0)?,
                    d: int(1)?,
                    customer: int(2)?,
                    amount,
                }
            }
            TpccTransaction::OrderStatus => {
                arity(3)?;
                TpccInputs::OrderStatus {
                    w: int(0)?,
                    d: int(1)?,
                    customer: int(2)?,
                }
            }
            TpccTransaction::Delivery => {
                arity(3)?;
                TpccInputs::Delivery {
                    w: int(0)?,
                    districts: int(1)?,
                    carrier: int(2)?,
                }
            }
            TpccTransaction::StockLevel => {
                arity(3)?;
                TpccInputs::StockLevel {
                    w: int(0)?,
                    d: int(1)?,
                    threshold: int(2)?,
                }
            }
        })
    }
}

fn pick_d(config: &TpccConfig, rng: &mut StdRng) -> i64 {
    rng.gen_range(1..=config.districts_per_warehouse)
}

fn pick_customer(config: &TpccConfig, rng: &mut StdRng) -> i64 {
    nurand(rng, NURAND_A_C_ID, 1, config.customers_per_district as u64) as i64
}

/// A transaction's body: its profile's statements in their order, from
/// `begin` to `commit`, with every input already drawn. The stored
/// procedures of [`create_procedures`] run it in the server; a terminal
/// that cannot call them runs it itself ([`run_client_side`]).
fn run_body<S: SessionApi>(s: &mut S, inputs: &TpccInputs) -> IfdbResult<()> {
    match *inputs {
        TpccInputs::NewOrder {
            w,
            d,
            supply_w,
            customer,
            ref lines,
        } => new_order(s, w, d, supply_w, customer, lines),
        TpccInputs::Payment {
            w,
            d,
            customer,
            amount,
        } => payment(s, w, d, customer, amount),
        TpccInputs::OrderStatus { w, d, customer } => order_status(s, w, d, customer),
        TpccInputs::Delivery {
            w,
            districts,
            carrier,
        } => delivery(s, w, districts, carrier),
        TpccInputs::StockLevel { w, d, threshold } => stock_level(s, w, d, threshold),
    }
}

fn new_order<S: SessionApi>(
    s: &mut S,
    w: i64,
    d: i64,
    supply_w: i64,
    customer: i64,
    lines: &[(i64, i64)],
) -> IfdbResult<()> {
    let line_count = lines.len() as i64;
    s.begin()?;
    let district = s.select(
        &Select::star("district").filter(
            Predicate::Eq("d_w_id".into(), Datum::Int(w))
                .and(Predicate::Eq("d_id".into(), Datum::Int(d))),
        ),
    )?;
    let o_id = district
        .first()
        .and_then(|r| r.get_int("d_next_o_id"))
        .unwrap_or(1);
    // Everything after the district read depends only on `o_id`, so the
    // order header goes out as one batch — over the network transport that
    // is a single pipelined flush instead of four round trips.
    for r in s.execute_batch(&[
        Statement::Update(Update::new(
            "district",
            Predicate::Eq("d_w_id".into(), Datum::Int(w))
                .and(Predicate::Eq("d_id".into(), Datum::Int(d))),
            vec![("d_next_o_id", Datum::Int(o_id + 1))],
        )),
        Statement::Select(
            Select::star("customer").filter(
                Predicate::Eq("c_w_id".into(), Datum::Int(w))
                    .and(Predicate::Eq("c_d_id".into(), Datum::Int(d)))
                    .and(Predicate::Eq("c_id".into(), Datum::Int(customer))),
            ),
        ),
        Statement::Insert(Insert::new(
            "orders",
            vec![
                Datum::Int(w),
                Datum::Int(d),
                Datum::Int(o_id),
                Datum::Int(customer),
                Datum::Timestamp(o_id * 1_000),
                Datum::Int(line_count),
                Datum::Null,
            ],
        )),
        Statement::Insert(Insert::new(
            "new_order",
            vec![Datum::Int(w), Datum::Int(d), Datum::Int(o_id)],
        )),
    ]) {
        r?;
    }

    // Per-line phase 1: the item and stock reads of every line are
    // independent of each other — one batch of 2×lines selects.
    let mut reads: Vec<Statement> = Vec::with_capacity(2 * lines.len());
    for &(item, _) in lines {
        reads.push(Statement::Select(
            Select::star("item").filter(Predicate::Eq("i_id".into(), Datum::Int(item))),
        ));
        reads.push(Statement::Select(
            Select::star("stock").filter(
                Predicate::Eq("s_w_id".into(), Datum::Int(supply_w))
                    .and(Predicate::Eq("s_i_id".into(), Datum::Int(item))),
            ),
        ));
    }
    let mut read_results = s.execute_batch(&reads).into_iter();

    // Per-line phase 2: compute the new stock level and total from the
    // batched reads, emitting every stock update and order-line insert as
    // one more batch.
    let mut total = 0.0;
    let mut writes: Vec<Statement> = Vec::with_capacity(2 * line_count as usize);
    for (l, (item, qty)) in (1..=line_count).zip(lines) {
        let (item, qty) = (*item, *qty);
        let item_row = rows(read_results.next().expect("item read"))?;
        let price = item_row
            .first()
            .and_then(|r| r.get_float("i_price"))
            .unwrap_or(1.0);
        let stock = rows(read_results.next().expect("stock read"))?;
        let s_qty = stock
            .first()
            .and_then(|r| r.get_int("s_quantity"))
            .unwrap_or(50);
        let new_qty = if s_qty > qty + 10 {
            s_qty - qty
        } else {
            s_qty - qty + 91
        };
        writes.push(Statement::Update(Update::new(
            "stock",
            Predicate::Eq("s_w_id".into(), Datum::Int(supply_w))
                .and(Predicate::Eq("s_i_id".into(), Datum::Int(item))),
            vec![("s_quantity", Datum::Int(new_qty))],
        )));
        total += price * qty as f64;
        writes.push(Statement::Insert(Insert::new(
            "order_line",
            vec![
                Datum::Int(w),
                Datum::Int(d),
                Datum::Int(o_id),
                Datum::Int(l),
                Datum::Int(item),
                Datum::Int(qty),
                Datum::Float(price * qty as f64),
                Datum::Null,
            ],
        )));
    }
    for r in s.execute_batch(&writes) {
        r?;
    }
    let _ = total;
    commit_with_label(s)
}

/// Unwraps a batched statement result expected to be rows.
fn rows(r: IfdbResult<StatementResult>) -> IfdbResult<ifdb::ResultSet> {
    match r? {
        StatementResult::Rows(rs) => Ok(rs),
        StatementResult::Affected(_) => Err(IfdbError::InvalidStatement(
            "batched read returned an affected-count".into(),
        )),
    }
}

fn payment<S: SessionApi>(s: &mut S, w: i64, d: i64, customer: i64, amount: f64) -> IfdbResult<()> {
    s.begin()?;
    let wh =
        s.select(&Select::star("warehouse").filter(Predicate::Eq("w_id".into(), Datum::Int(w))))?;
    let w_ytd = wh.first().and_then(|r| r.get_float("w_ytd")).unwrap_or(0.0);
    s.update(&Update::new(
        "warehouse",
        Predicate::Eq("w_id".into(), Datum::Int(w)),
        vec![("w_ytd", Datum::Float(w_ytd + amount))],
    ))?;
    let dist = s.select(
        &Select::star("district").filter(
            Predicate::Eq("d_w_id".into(), Datum::Int(w))
                .and(Predicate::Eq("d_id".into(), Datum::Int(d))),
        ),
    )?;
    let d_ytd = dist
        .first()
        .and_then(|r| r.get_float("d_ytd"))
        .unwrap_or(0.0);
    s.update(&Update::new(
        "district",
        Predicate::Eq("d_w_id".into(), Datum::Int(w))
            .and(Predicate::Eq("d_id".into(), Datum::Int(d))),
        vec![("d_ytd", Datum::Float(d_ytd + amount))],
    ))?;
    let cust = s.select(
        &Select::star("customer").filter(
            Predicate::Eq("c_w_id".into(), Datum::Int(w))
                .and(Predicate::Eq("c_d_id".into(), Datum::Int(d)))
                .and(Predicate::Eq("c_id".into(), Datum::Int(customer))),
        ),
    )?;
    let balance = cust
        .first()
        .and_then(|r| r.get_float("c_balance"))
        .unwrap_or(0.0);
    s.update(&Update::new(
        "customer",
        Predicate::Eq("c_w_id".into(), Datum::Int(w))
            .and(Predicate::Eq("c_d_id".into(), Datum::Int(d)))
            .and(Predicate::Eq("c_id".into(), Datum::Int(customer))),
        vec![("c_balance", Datum::Float(balance - amount))],
    ))?;
    s.insert(&Insert::new(
        "history",
        vec![
            Datum::Int(w),
            Datum::Int(d),
            Datum::Int(customer),
            Datum::Float(amount),
            Datum::Timestamp(0),
        ],
    ))?;
    commit_with_label(s)
}

fn order_status<S: SessionApi>(s: &mut S, w: i64, d: i64, customer: i64) -> IfdbResult<()> {
    s.begin()?;
    s.select(
        &Select::star("customer").filter(
            Predicate::Eq("c_w_id".into(), Datum::Int(w))
                .and(Predicate::Eq("c_d_id".into(), Datum::Int(d)))
                .and(Predicate::Eq("c_id".into(), Datum::Int(customer))),
        ),
    )?;
    let orders = s.select(
        &Select::star("orders")
            .filter(
                Predicate::Eq("o_w_id".into(), Datum::Int(w))
                    .and(Predicate::Eq("o_d_id".into(), Datum::Int(d)))
                    .and(Predicate::Eq("o_c_id".into(), Datum::Int(customer))),
            )
            .order("o_id", Order::Desc)
            .take(1),
    )?;
    if let Some(order) = orders.first() {
        let o_id = order.get_int("o_id").unwrap_or(0);
        s.select(
            &Select::star("order_line").filter(
                Predicate::Eq("ol_w_id".into(), Datum::Int(w))
                    .and(Predicate::Eq("ol_d_id".into(), Datum::Int(d)))
                    .and(Predicate::Eq("ol_o_id".into(), Datum::Int(o_id))),
            ),
        )?;
    }
    commit_with_label(s)
}

fn delivery<S: SessionApi>(s: &mut S, w: i64, districts: i64, carrier: i64) -> IfdbResult<()> {
    s.begin()?;
    for d in 1..=districts {
        let pending = s.select(
            &Select::star("new_order")
                .filter(
                    Predicate::Eq("no_w_id".into(), Datum::Int(w))
                        .and(Predicate::Eq("no_d_id".into(), Datum::Int(d))),
                )
                .order("no_o_id", Order::Asc)
                .take(1),
        )?;
        let Some(row) = pending.first() else { continue };
        let o_id = row.get_int("no_o_id").unwrap_or(0);
        s.delete(&Delete::new(
            "new_order",
            Predicate::Eq("no_w_id".into(), Datum::Int(w))
                .and(Predicate::Eq("no_d_id".into(), Datum::Int(d)))
                .and(Predicate::Eq("no_o_id".into(), Datum::Int(o_id))),
        ))?;
        s.update(&Update::new(
            "orders",
            Predicate::Eq("o_w_id".into(), Datum::Int(w))
                .and(Predicate::Eq("o_d_id".into(), Datum::Int(d)))
                .and(Predicate::Eq("o_id".into(), Datum::Int(o_id))),
            vec![("o_carrier_id", Datum::Int(carrier))],
        ))?;
        s.update(&Update::new(
            "order_line",
            Predicate::Eq("ol_w_id".into(), Datum::Int(w))
                .and(Predicate::Eq("ol_d_id".into(), Datum::Int(d)))
                .and(Predicate::Eq("ol_o_id".into(), Datum::Int(o_id))),
            vec![("ol_delivery_d", Datum::Timestamp(1))],
        ))?;
    }
    commit_with_label(s)
}

fn stock_level<S: SessionApi>(s: &mut S, w: i64, d: i64, threshold: i64) -> IfdbResult<()> {
    s.begin()?;
    let district = s.select(
        &Select::star("district").filter(
            Predicate::Eq("d_w_id".into(), Datum::Int(w))
                .and(Predicate::Eq("d_id".into(), Datum::Int(d))),
        ),
    )?;
    let next = district
        .first()
        .and_then(|r| r.get_int("d_next_o_id"))
        .unwrap_or(1);
    let lines = s.select(
        &Select::star("order_line").filter(
            Predicate::Eq("ol_w_id".into(), Datum::Int(w))
                .and(Predicate::Eq("ol_d_id".into(), Datum::Int(d)))
                .and(Predicate::Ge("ol_o_id".into(), Datum::Int(next - 20))),
        ),
    )?;
    let mut low = 0;
    for line in lines.iter().take(200) {
        let item = line.get_int("ol_i_id").unwrap_or(1);
        let stock = s.select(
            &Select::star("stock").filter(
                Predicate::Eq("s_w_id".into(), Datum::Int(w))
                    .and(Predicate::Eq("s_i_id".into(), Datum::Int(item))),
            ),
        )?;
        if stock
            .first()
            .and_then(|r| r.get_int("s_quantity"))
            .unwrap_or(100)
            < threshold
        {
            low += 1;
        }
    }
    let _ = low;
    commit_with_label(s)
}

/// Commits a transaction. Every benchmark tuple carries the session's
/// label, so the commit label (the same label) satisfies the commit label
/// rule directly; no declassification is needed per transaction, exactly
/// as in the paper's measurement where all tuples share one label.
fn commit_with_label<S: SessionApi>(s: &mut S) -> IfdbResult<()> {
    s.commit()?;
    Ok(())
}

/// The nine TPC-C table definitions. Besides first-boot creation
/// ([`create_schema`]), this is the DDL a recovered or promoted node
/// re-runs to re-attach constraints — see `DatabaseBuilder::recover` and
/// `ReplicaConfig::first_boot_tables` for that contract.
pub fn table_defs() -> Vec<TableDef> {
    vec![
        TableDef::new("warehouse")
            .column("w_id", DataType::Int)
            .column("w_name", DataType::Text)
            .column("w_tax", DataType::Float)
            .column("w_ytd", DataType::Float)
            .primary_key(&["w_id"]),
        TableDef::new("district")
            .column("d_w_id", DataType::Int)
            .column("d_id", DataType::Int)
            .column("d_name", DataType::Text)
            .column("d_tax", DataType::Float)
            .column("d_ytd", DataType::Float)
            .column("d_next_o_id", DataType::Int)
            .primary_key(&["d_w_id", "d_id"]),
        TableDef::new("customer")
            .column("c_w_id", DataType::Int)
            .column("c_d_id", DataType::Int)
            .column("c_id", DataType::Int)
            .column("c_last", DataType::Text)
            .column("c_data", DataType::Text)
            .column("c_balance", DataType::Float)
            .column("c_ytd_payment", DataType::Float)
            .column("c_payment_cnt", DataType::Int)
            .primary_key(&["c_w_id", "c_d_id", "c_id"]),
        TableDef::new("history")
            .column("h_w_id", DataType::Int)
            .column("h_d_id", DataType::Int)
            .column("h_c_id", DataType::Int)
            .column("h_amount", DataType::Float)
            .column("h_date", DataType::Timestamp),
        TableDef::new("item")
            .column("i_id", DataType::Int)
            .column("i_name", DataType::Text)
            .column("i_price", DataType::Float)
            .primary_key(&["i_id"]),
        TableDef::new("stock")
            .column("s_w_id", DataType::Int)
            .column("s_i_id", DataType::Int)
            .column("s_quantity", DataType::Int)
            .column("s_ytd", DataType::Int)
            .column("s_order_cnt", DataType::Int)
            .primary_key(&["s_w_id", "s_i_id"]),
        TableDef::new("orders")
            .column("o_w_id", DataType::Int)
            .column("o_d_id", DataType::Int)
            .column("o_id", DataType::Int)
            .column("o_c_id", DataType::Int)
            .column("o_entry_d", DataType::Timestamp)
            .column("o_ol_cnt", DataType::Int)
            .nullable_column("o_carrier_id", DataType::Int)
            .primary_key(&["o_w_id", "o_d_id", "o_id"]),
        TableDef::new("new_order")
            .column("no_w_id", DataType::Int)
            .column("no_d_id", DataType::Int)
            .column("no_o_id", DataType::Int)
            .primary_key(&["no_w_id", "no_d_id", "no_o_id"]),
        TableDef::new("order_line")
            .column("ol_w_id", DataType::Int)
            .column("ol_d_id", DataType::Int)
            .column("ol_o_id", DataType::Int)
            .column("ol_number", DataType::Int)
            .column("ol_i_id", DataType::Int)
            .column("ol_quantity", DataType::Int)
            .column("ol_amount", DataType::Float)
            .nullable_column("ol_delivery_d", DataType::Timestamp)
            .primary_key(&["ol_w_id", "ol_d_id", "ol_o_id", "ol_number"]),
    ]
}

/// Creates the nine TPC-C tables and registers the five procedures.
pub fn create_schema(db: &Database) -> IfdbResult<()> {
    for def in table_defs() {
        db.create_table(def)?;
    }
    create_procedures(db)
}

/// Registers one stored procedure per profile, `tpcc_new_order` to
/// `tpcc_stock_level`, which reads its [`TpccInputs`] from the arguments and
/// runs the profile's body.
/// None carries authority: each runs as its caller, under the caller's
/// label, and the commit label rule applies at its commit as it would at
/// the terminal's. Procedures are code, like principals and tags, so every
/// node that serves TPC-C — a replica that may be promoted, a recovered
/// database — registers them itself.
pub fn create_procedures(db: &Database) -> IfdbResult<()> {
    for (kind, _) in TpccDeck::DECK {
        db.create_procedure(StoredProcedure {
            name: kind.procedure().into(),
            authority: None,
            body: Arc::new(move |session, args| {
                run_body(session, &TpccInputs::from_args(kind, args)?)?;
                Ok(ResultSet::default())
            }),
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifdb_difc::audit::AuditEvent;
    use ifdb_storage::{LogRecord, Wal};

    fn tiny_config(tags: usize) -> TpccConfig {
        TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 2,
            customers_per_district: 5,
            items: 20,
            initial_orders_per_district: 3,
            tags_per_label: tags,
            seed: 11,
        }
    }

    #[test]
    fn loader_populates_all_tables() {
        let db = Database::in_memory();
        let tpcc = TpccDatabase::load(db, tiny_config(1)).unwrap();
        let mut s = tpcc.session().unwrap();
        assert_eq!(s.select(&Select::star("warehouse")).unwrap().len(), 1);
        assert_eq!(s.select(&Select::star("district")).unwrap().len(), 2);
        assert_eq!(s.select(&Select::star("customer")).unwrap().len(), 10);
        assert_eq!(s.select(&Select::star("item")).unwrap().len(), 20);
        assert_eq!(s.select(&Select::star("stock")).unwrap().len(), 20);
        assert_eq!(s.select(&Select::star("orders")).unwrap().len(), 6);
        assert!(s.select(&Select::star("order_line")).unwrap().len() >= 30);
        // Every tuple carries the benchmark label.
        let row = s.select(&Select::star("warehouse")).unwrap();
        assert_eq!(row.first().unwrap().label, tpcc.label);
    }

    #[test]
    fn transactions_execute_and_commit() {
        let db = Database::in_memory();
        let tpcc = TpccDatabase::load(db, tiny_config(2)).unwrap();
        let mut s = tpcc.session().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for kind in [
            TpccTransaction::NewOrder,
            TpccTransaction::Payment,
            TpccTransaction::OrderStatus,
            TpccTransaction::Delivery,
            TpccTransaction::StockLevel,
            TpccTransaction::NewOrder,
        ] {
            let ok = tpcc.run_transaction(&mut s, &mut rng, kind).unwrap();
            assert!(ok, "transaction {kind:?} should commit");
        }
        // New orders bumped the district counters.
        let d = s
            .select(&Select::star("district").filter(Predicate::Eq("d_id".into(), Datum::Int(1))))
            .unwrap();
        assert!(d.first().unwrap().get_int("d_next_o_id").unwrap() >= 4);
    }

    #[test]
    fn zero_tag_and_many_tag_labels_both_work() {
        for tags in [0, 5] {
            let db = Database::in_memory();
            let tpcc = TpccDatabase::load(db, tiny_config(tags)).unwrap();
            assert_eq!(tpcc.label.len(), tags);
            let mut s = tpcc.session().unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            assert!(tpcc
                .run_transaction(&mut s, &mut rng, TpccTransaction::NewOrder)
                .unwrap());
        }
    }

    #[test]
    fn heap_pages_and_log_bytes_do_not_grow_with_tags_per_label() {
        // Figure 6's x-axis, flat: every tuple names its label by id, so the
        // same data at 1, 2, 4 or 10 tags per label takes the same pages and
        // the same log bytes, but for the label's one dictionary record
        // (8 bytes per tag). The audit chain is left out of the bytes: its
        // links for the sessions' label raises record the raised label, once
        // a raise, and the loader's `declassify_all` chains one link per tag
        // it removes, so the chain is compared as its other links and the
        // number of those calls.
        let footprint = |tags: usize| {
            let db = Database::new(DatabaseConfig::in_memory().with_seed(7));
            let tpcc = TpccDatabase::load(db, tiny_config(tags)).unwrap();
            let mut s = tpcc.session().unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            for _ in 0..20 {
                let kind = TpccTransaction::draw(&mut rng);
                assert!(tpcc.run_transaction(&mut s, &mut rng, kind).unwrap());
            }
            let engine = tpcc.db.engine();
            let pages: usize = engine
                .table_names()
                .iter()
                .map(|name| engine.table_by_name(name).unwrap().heap().page_count())
                .sum();
            assert_eq!(
                engine.labels().to_vec().len(),
                2,
                "one label besides the empty one"
            );
            let log = engine.wal().read_replication_batch(1, usize::MAX).records;
            let bytes: usize = log
                .iter()
                .filter(|r| !matches!(r, LogRecord::Audit { .. }))
                .map(|r| 8 + Wal::encode_record(r).len())
                .sum();
            let chain = tpcc.db.replay_audit();
            let declassified = chain
                .iter()
                .filter(|e| matches!(e, AuditEvent::Declassify { .. }))
                .count();
            assert_eq!(declassified % tags, 0, "one link per removed tag");
            let others = chain.len() - declassified;
            (pages, bytes - 8 * tags, others, declassified / tags)
        };
        let one = footprint(1);
        for tags in [2, 4, 10] {
            assert_eq!(footprint(tags), one, "{tags} tags per label");
        }
    }

    #[test]
    fn index_lookups_fetch_little_beyond_what_they_return() {
        // A version superseded before every running transaction began is
        // dead to every snapshot, and the first lookup that meets it drops
        // its index entries, so each superseded version is fetched about
        // once, not once per later lookup of its key (each Payment adds a
        // warehouse and a district version). Some versions are never looked
        // up again, so on these seeds the rows fetched beyond the visible
        // ones come to about 0.6 per version the run superseded
        // (`tuples_deleted`); the bound is 0.65. Index paths decide every
        // visible row's label one by one and TPC-C runs no full scan, so
        // `label_checks` counts the visible rows. One warehouse at the
        // benchmark's per-warehouse scale.
        let config = TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 10,
            customers_per_district: 300,
            items: 2_000,
            initial_orders_per_district: 100,
            tags_per_label: 2,
            seed: 3,
        };
        let tpcc = TpccDatabase::load(Database::in_memory(), config).unwrap();
        let mut s = tpcc.session().unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let before = tpcc.db.engine().stats();
        for _ in 0..2_000 {
            let kind = TpccTransaction::draw(&mut rng);
            tpcc.run_transaction(&mut s, &mut rng, kind).unwrap();
        }
        let after = tpcc.db.engine().stats();
        assert_eq!(after.full_table_scans, before.full_table_scans);
        let fetched = after.index_rows_fetched - before.index_rows_fetched;
        let visible = after.label_checks - before.label_checks;
        assert!(visible > 10_000, "{visible} rows");
        let superseded = after.tuples_deleted - before.tuples_deleted;
        assert!(
            20 * (fetched - visible) <= 13 * superseded,
            "{fetched} fetched for {visible} visible, {superseded} versions superseded"
        );
        assert!(after.index_entries_dropped > before.index_entries_dropped);
    }

    #[test]
    fn an_update_logs_only_the_bytes_it_changed() {
        // An UPDATE logs one record holding only the new row's bytes that
        // differ from the old row's (`LogRecord::Update`), not a Delete and
        // the whole new row. A stock update changes one `Int`, so its frame
        // is the record's 29-byte head, at most those 8 bytes and the
        // frame's 8: at most 45 B. One session deals the cards, so the run
        // logs the same bytes each time: at one warehouse at the
        // benchmark's per-warehouse scale, 1 005 B a card, where logging
        // each update as a Delete and an Insert of the whole new row
        // logged 1 784 B. The bound is 35 % under the latter.
        let config = TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 10,
            customers_per_district: 300,
            items: 2_000,
            initial_orders_per_district: 100,
            tags_per_label: 2,
            seed: 3,
        };
        let tpcc = TpccDatabase::load(Database::in_memory(), config).unwrap();
        let engine = tpcc.db.engine();
        let before = engine.stats().wal_bytes;
        let mut s = tpcc.session().unwrap();
        let (deck, mut rng) = (TpccDeck::new(23), StdRng::seed_from_u64(29));
        const CARDS: u64 = 400;
        for _ in 0..CARDS {
            assert!(tpcc.run_transaction(&mut s, &mut rng, deck.deal()).unwrap());
        }
        let per_card = (engine.stats().wal_bytes - before) / CARDS;
        assert!(per_card <= 1_160, "{per_card} B logged a card");
        let stock = engine.table_by_name("stock").unwrap().id().0;
        let frames: Vec<usize> = engine
            .wal()
            .read_replication_batch(1, usize::MAX)
            .records
            .iter()
            .filter(|r| matches!(r, LogRecord::Update { table, .. } if *table == stock))
            .map(|r| 8 + Wal::encode_record(r).len())
            .collect();
        assert!(frames.len() > 1_000, "{} stock updates", frames.len());
        assert!(
            frames.iter().all(|&len| len <= 48),
            "a stock update framed in {} B",
            frames.iter().max().unwrap()
        );
    }

    #[test]
    fn a_delivery_fetches_about_what_it_delivers() {
        // Each district's oldest pending order is the first row of its
        // `new_order` key range that the terminal can read, so the probe
        // stops there instead of reading every pending order; what is left
        // is the order, its lines and the rows delivered orders leave dead.
        // One warehouse at the benchmark's per-warehouse scale.
        let config = TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 10,
            customers_per_district: 300,
            items: 2_000,
            initial_orders_per_district: 100,
            tags_per_label: 2,
            seed: 3,
        };
        let tpcc = TpccDatabase::load(Database::in_memory(), config).unwrap();
        let mut s = tpcc.session().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..3 {
            let before = tpcc.db.engine().stats();
            assert!(tpcc
                .run_transaction(&mut s, &mut rng, TpccTransaction::Delivery)
                .unwrap());
            let after = tpcc.db.engine().stats();
            let fetched = after.index_rows_fetched - before.index_rows_fetched;
            assert!(fetched <= 150, "one delivery fetched {fetched} index rows");
        }
    }

    #[test]
    fn mix_draw_covers_all_types() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..2000 {
            *counts
                .entry(format!("{:?}", TpccTransaction::draw(&mut rng)))
                .or_insert(0) += 1;
        }
        assert!(counts["NewOrder"] > 700);
        assert!(counts["Payment"] > 700);
        assert!(counts.len() == 5);
    }
}
