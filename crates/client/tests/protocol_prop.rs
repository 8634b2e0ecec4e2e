//! Property tests for the wire protocol: encode/decode round-trips over all
//! message types, template/parameter round-trips over random statements, and
//! rejection of torn, truncated and bit-flipped frames (mirroring the WAL's
//! checksum tests).

use ifdb::{AggFunc, Aggregate, Delete, Insert, Join, Order, Predicate, Select, Statement, Update};
use ifdb_client::protocol::{
    decode_template, encode_template, frame_checksum, frame_into, read_frame_id, try_take_frame,
    write_frame_id, HaRole, Reader, Request, Response, WireRow, Writer,
};
use ifdb_difc::{Label, TagId};
use ifdb_storage::Datum;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// Random generators (driven by a seed strategy; the vendored proptest has
// no combinator-rich Arbitrary, so structure is generated with StdRng).
// ---------------------------------------------------------------------

fn gen_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..12);
    (0..len)
        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
        .collect()
}

fn gen_datum(rng: &mut StdRng) -> Datum {
    match rng.gen_range(0..7) {
        0 => Datum::Null,
        1 => Datum::Int(rng.gen()),
        2 => Datum::Float(f64::from_bits(rng.gen::<u64>() | 1)), // avoid NaN-vs-NaN eq issues? keep finite-ish
        3 => Datum::Text(gen_string(rng)),
        4 => Datum::Bool(rng.gen()),
        5 => Datum::Timestamp(rng.gen()),
        _ => Datum::IntArray((0..rng.gen_range(0..4)).map(|_| rng.gen()).collect()),
    }
}

/// A comparable datum: `Datum: PartialEq` treats NaN == NaN via canonical
/// compare, but keep floats finite to make assert_eq unambiguous.
fn gen_cmp_datum(rng: &mut StdRng) -> Datum {
    match gen_datum(rng) {
        Datum::Float(f) if !f.is_finite() => Datum::Float(0.5),
        d => d,
    }
}

fn gen_label(rng: &mut StdRng) -> Label {
    Label::from_tags((0..rng.gen_range(0..4)).map(|_| TagId(rng.gen_range(1..50))))
}

fn gen_pred(rng: &mut StdRng, depth: u32) -> Predicate {
    let leaf = depth >= 3 || rng.gen_bool(0.6);
    if leaf {
        match rng.gen_range(0..10) {
            0 => Predicate::True,
            1 => Predicate::Eq(gen_string(rng), gen_cmp_datum(rng)),
            2 => Predicate::Ne(gen_string(rng), gen_cmp_datum(rng)),
            3 => Predicate::Lt(gen_string(rng), gen_cmp_datum(rng)),
            4 => Predicate::Le(gen_string(rng), gen_cmp_datum(rng)),
            5 => Predicate::Gt(gen_string(rng), gen_cmp_datum(rng)),
            6 => Predicate::Ge(gen_string(rng), gen_cmp_datum(rng)),
            7 => Predicate::IsNull(gen_string(rng)),
            8 => Predicate::IsNotNull(gen_string(rng)),
            _ => Predicate::LabelContains(TagId(rng.gen_range(1..50))),
        }
    } else {
        match rng.gen_range(0..4) {
            0 => gen_pred(rng, depth + 1).and(gen_pred(rng, depth + 1)),
            1 => gen_pred(rng, depth + 1).or(gen_pred(rng, depth + 1)),
            2 => gen_pred(rng, depth + 1).negate(),
            _ => Predicate::LabelEquals(gen_label(rng)),
        }
    }
}

fn gen_statement(rng: &mut StdRng) -> Statement {
    match rng.gen_range(0..6) {
        0 => {
            let mut q = Select::star(&gen_string(rng)).filter(gen_pred(rng, 0));
            if rng.gen_bool(0.5) {
                q = q.project(&["a", "b"]);
            }
            if rng.gen_bool(0.5) {
                q = q.order(
                    "a",
                    if rng.gen_bool(0.5) {
                        Order::Asc
                    } else {
                        Order::Desc
                    },
                );
            }
            if rng.gen_bool(0.5) {
                q = q.take(rng.gen_range(0..100));
            }
            if rng.gen_bool(0.3) {
                q = q.with_exact_label(gen_label(rng));
            }
            Statement::Select(q)
        }
        1 => {
            let mut j = if rng.gen_bool(0.5) {
                Join::inner(&gen_string(rng), &gen_string(rng), ("x", "y"))
            } else {
                Join::left_outer(&gen_string(rng), &gen_string(rng), ("x", "y"))
            };
            j = j.filter(gen_pred(rng, 0));
            Statement::Join(j)
        }
        2 => Statement::Aggregate(Aggregate {
            from: gen_string(rng),
            predicate: gen_pred(rng, 0),
            group_by: rng.gen_bool(0.5).then(|| gen_string(rng)),
            aggregates: (0..rng.gen_range(0..3))
                .map(|_| {
                    let f = match rng.gen_range(0..5) {
                        0 => AggFunc::Count,
                        1 => AggFunc::Sum,
                        2 => AggFunc::Avg,
                        3 => AggFunc::Min,
                        _ => AggFunc::Max,
                    };
                    (f, gen_string(rng))
                })
                .collect(),
        }),
        3 => Statement::Insert(Insert {
            table: gen_string(rng),
            values: (0..rng.gen_range(0..6))
                .map(|_| gen_cmp_datum(rng))
                .collect(),
            declassifying: (0..rng.gen_range(0..3))
                .map(|_| TagId(rng.gen_range(1..50)))
                .collect(),
        }),
        4 => Statement::Update(Update {
            table: gen_string(rng),
            predicate: gen_pred(rng, 0),
            set: (0..rng.gen_range(0..4))
                .map(|_| (gen_string(rng), gen_cmp_datum(rng)))
                .collect(),
        }),
        _ => Statement::Delete(Delete {
            table: gen_string(rng),
            predicate: gen_pred(rng, 0),
        }),
    }
}

fn gen_wire_rows(rng: &mut StdRng) -> Vec<WireRow> {
    (0..rng.gen_range(0..4))
        .map(|_| WireRow {
            label: (0..rng.gen_range(0..3)).map(|_| rng.gen()).collect(),
            values: (0..rng.gen_range(0..4))
                .map(|_| gen_cmp_datum(rng))
                .collect(),
        })
        .collect()
}

fn gen_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0..22) {
        0 => Request::Hello {
            version: rng.gen(),
            user: gen_string(rng),
            password: gen_string(rng),
            platform_secret: rng.gen_bool(0.5).then(|| gen_string(rng)),
            label: (0..rng.gen_range(0..4)).map(|_| rng.gen()).collect(),
        },
        1 => Request::Login {
            user: gen_string(rng),
            password: rng.gen_bool(0.5).then(|| gen_string(rng)),
        },
        2 => Request::Prepare {
            template: encode_template(&gen_statement(rng)).0,
        },
        3 => Request::Execute {
            stmt: rng.gen(),
            params: (0..rng.gen_range(0..5))
                .map(|_| gen_cmp_datum(rng))
                .collect(),
            fetch: rng.gen(),
        },
        4 => Request::Fetch {
            cursor: rng.gen(),
            max: rng.gen(),
        },
        5 => Request::CloseCursor { cursor: rng.gen() },
        6 => Request::Begin,
        7 => Request::Commit,
        8 => Request::Abort,
        9 => Request::AddSecrecy { tag: rng.gen() },
        10 => Request::RaiseLabel {
            tags: (0..rng.gen_range(0..4)).map(|_| rng.gen()).collect(),
        },
        11 => Request::Declassify { tag: rng.gen() },
        12 => Request::DeclassifyAll {
            tags: (0..rng.gen_range(0..4)).map(|_| rng.gen()).collect(),
        },
        13 => Request::Delegate {
            grantee: rng.gen(),
            tag: rng.gen(),
        },
        14 => Request::CallProcedure {
            name: gen_string(rng),
            args: (0..rng.gen_range(0..4))
                .map(|_| gen_cmp_datum(rng))
                .collect(),
        },
        15 => Request::ReplPoll {
            secret: gen_string(rng),
            from_seq: rng.gen(),
            max: rng.gen(),
            applied_seq: rng.gen(),
            generation: rng.gen(),
        },
        16 => Request::Watermark,
        17 => Request::Promote {
            secret: gen_string(rng),
        },
        18 => Request::Fence {
            secret: gen_string(rng),
            generation: rng.gen(),
        },
        19 => Request::HaStatus,
        20 => Request::Stats {
            secret: gen_string(rng),
        },
        _ => Request::Goodbye,
    }
}

fn gen_response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0..12) {
        0 => Response::HelloOk {
            principal: rng.gen(),
            label: (0..rng.gen_range(0..4)).map(|_| rng.gen()).collect(),
        },
        1 => Response::Ok {
            label: (0..rng.gen_range(0..4)).map(|_| rng.gen()).collect(),
            seq: rng.gen(),
        },
        2 => Response::Error {
            code: rng.gen_range(0u64..256) as u8,
            detail: gen_string(rng),
            label0: (0..rng.gen_range(0..3)).map(|_| rng.gen()).collect(),
            label1: (0..rng.gen_range(0..3)).map(|_| rng.gen()).collect(),
            aux: rng.gen(),
            session_label: rng
                .gen_bool(0.5)
                .then(|| (0..rng.gen_range(0..3)).map(|_| rng.gen()).collect()),
        },
        3 => Response::Prepared { id: rng.gen() },
        4 => Response::Rows {
            columns: (0..rng.gen_range(0..4)).map(|_| gen_string(rng)).collect(),
            rows: gen_wire_rows(rng),
            cursor: rng.gen(),
            label: (0..rng.gen_range(0..4)).map(|_| rng.gen()).collect(),
        },
        5 => Response::Affected {
            n: rng.gen(),
            label: (0..rng.gen_range(0..4)).map(|_| rng.gen()).collect(),
            seq: rng.gen(),
        },
        6 => Response::LabelIs {
            tags: (0..rng.gen_range(0..4)).map(|_| rng.gen()).collect(),
        },
        7 => Response::Batch {
            rows: gen_wire_rows(rng),
            done: rng.gen(),
        },
        8 => Response::ProcResult {
            label: (0..rng.gen_range(0..3)).map(|_| rng.gen()).collect(),
            columns: (0..rng.gen_range(0..3)).map(|_| gen_string(rng)).collect(),
            rows: gen_wire_rows(rng),
        },
        9 => Response::ReplBatch {
            epoch: rng.gen(),
            generation: rng.gen(),
            reset: rng.gen(),
            first_seq: rng.gen(),
            end_seq: rng.gen(),
            records: (0..rng.gen_range(0..4))
                .map(|_| {
                    (0..rng.gen_range(0..16))
                        .map(|_| rng.gen_range(0u64..256) as u8)
                        .collect()
                })
                .collect(),
        },
        10 => Response::HaStatus {
            role: match rng.gen_range(0..3) {
                0 => HaRole::Primary,
                1 => HaRole::Replica,
                _ => HaRole::Fenced,
            },
            generation: rng.gen(),
            epoch: rng.gen(),
            seq: rng.gen(),
        },
        _ => Response::Watermark {
            seq: rng.gen(),
            epoch: rng.gen(),
        },
    }
}

/// Parses every complete frame at the head of `buf` (the reactor's
/// incremental assembly loop). `Ok` carries the `(req_id, message)` pairs of
/// the whole frames present; `Err` means the stream is unrecoverably corrupt.
fn parse_all(buf: &[u8]) -> Result<Vec<(u32, Vec<u8>)>, ()> {
    let mut out = Vec::new();
    let mut off = 0;
    loop {
        match try_take_frame(&buf[off..]) {
            Ok(Some((n, id, msg))) => {
                off += n;
                out.push((id, msg));
            }
            Ok(None) => return Ok(out),
            Err(_) => return Err(()),
        }
    }
}

/// The wire's frame checksum is the log's: the same value on the payload
/// the log's unit test pins, and on a frame as the wire writes it.
#[test]
fn frame_checksum_is_the_logs() {
    assert_eq!(frame_checksum(b"ifdb frame"), 0x0609_EEC1);
    let payload = b"any payload at all".to_vec();
    assert_eq!(
        frame_checksum(&payload),
        ifdb_storage::wal::frame_checksum(&payload)
    );
    let mut framed = Vec::new();
    write_frame_id(&mut framed, 9, &payload).unwrap();
    assert_eq!(framed[4..8], frame_checksum(&framed[8..]).to_le_bytes());
}

/// The wire bytes of every datum kind, pinned: the wire and the storage
/// engine share one datum codec, and sharing it changed no wire byte.
#[test]
fn datum_wire_bytes_are_pinned() {
    let golden: Vec<(Datum, Vec<u8>)> = vec![
        (Datum::Null, vec![0]),
        (
            Datum::Int(-2),
            vec![1, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF],
        ),
        (Datum::Float(1.5), vec![2, 0, 0, 0, 0, 0, 0, 0xF8, 0x3F]),
        (
            Datum::Text("hé".into()),
            vec![3, 3, 0, 0, 0, b'h', 0xC3, 0xA9],
        ),
        (Datum::Bool(true), vec![4, 1]),
        (Datum::Bool(false), vec![4, 0]),
        (Datum::Timestamp(258), vec![5, 2, 1, 0, 0, 0, 0, 0, 0]),
        (
            Datum::IntArray(vec![1, 256]),
            vec![
                6, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
            ],
        ),
    ];
    for (datum, bytes) in golden {
        let mut w = Writer::new();
        w.datum(&datum);
        assert_eq!(w.finish(), bytes, "{datum:?}");
        let mut stored = Vec::new();
        datum.encode(&mut stored);
        assert_eq!(stored, bytes, "{datum:?}");
        let mut r = Reader::new(&bytes);
        assert_eq!(format!("{:?}", r.datum().unwrap()), format!("{datum:?}"));
        assert!(r.at_end(), "{datum:?}");
    }
}

/// `Reader::datum` and `Datum::decode` accept the same inputs, read the
/// same datum and consume the same bytes.
fn datum_readers_agree(buf: &[u8]) {
    let wire = Reader::new(buf).datum();
    match (Datum::decode(buf, 0), wire) {
        (Ok((stored, end)), Ok(wire)) => {
            assert_eq!(format!("{stored:?}"), format!("{wire:?}"), "{buf:?}");
            let mut exact = Reader::new(&buf[..end]);
            exact.datum().unwrap();
            assert!(exact.at_end(), "{buf:?}");
        }
        (Err(_), Err(_)) => {}
        (stored, wire) => panic!("readers disagree on {buf:?}: {stored:?} vs {wire:?}"),
    }
}

proptest! {
    #[test]
    fn the_wire_and_storage_read_datums_alike(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Valid encodings, cut anywhere and with a byte overwritten.
        let mut bytes = Vec::new();
        gen_datum(&mut rng).encode(&mut bytes);
        for cut in 0..=bytes.len() {
            datum_readers_agree(&bytes[..cut]);
        }
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = rng.gen::<u32>() as u8;
        datum_readers_agree(&bytes);
        // Noise behind every kind byte, known or not; invalid UTF-8 too.
        let len = rng.gen_range(0..24);
        let mut noise: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4u8)).collect();
        noise.insert(0, rng.gen_range(0..9));
        datum_readers_agree(&noise);
        noise.push(0xFF);
        datum_readers_agree(&noise);
    }

    #[test]
    fn statement_templates_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stmt = gen_statement(&mut rng);
        let (template, params) = encode_template(&stmt);
        let back = decode_template(&template, &params).expect("decode");
        prop_assert_eq!(back, stmt);
    }

    #[test]
    fn requests_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = gen_request(&mut rng);
        let back = Request::decode(&req.encode()).expect("decode");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn responses_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let resp = gen_response(&mut rng);
        let back = Response::decode(&resp.encode()).expect("decode");
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn corrupted_frames_never_decode_by_luck(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = gen_request(&mut rng);
        let req_id = rng.gen::<u32>();
        let mut framed = Vec::new();
        write_frame_id(&mut framed, req_id, &req.encode()).unwrap();

        // Truncation anywhere: either a clean EOF (cut before any byte) or
        // an error — never a successful parse of a partial frame.
        let cut = rng.gen_range(0..framed.len());
        match read_frame_id(&mut &framed[..cut]) {
            Ok(None) => prop_assert_eq!(cut, 0),
            Ok(Some(_)) => prop_assert!(false, "truncated frame parsed"),
            Err(_) => {}
        }

        // A single bit flip anywhere in the frame must not yield the
        // original message. Flips in the payload or checksum are caught by
        // the checksum; flips in the length field either error or (if they
        // shrink the frame) fail the checksum over the shorter payload.
        let byte = rng.gen_range(0..framed.len());
        let bit = rng.gen_range(0u32..8);
        let mut corrupt = framed.clone();
        corrupt[byte] ^= 1u8 << bit;
        if let Ok(Some((id, message))) = read_frame_id(&mut corrupt.as_slice()) {
            prop_assert!(
                id != req_id || Request::decode(&message).map(|r| r != req).unwrap_or(true),
                "bit-flipped frame reproduced the original message"
            );
        }
    }

    /// A pipelined flush — several id-carrying frames back to back — round-
    /// trips through both the incremental parser (`try_take_frame`, the
    /// reactor's read path) and the blocking reader (`read_frame_id`), and
    /// any byte-prefix of the stream yields exactly the whole frames it
    /// contains, in order, never a partial one.
    #[test]
    fn pipelined_frames_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..6usize);
        let mut originals = Vec::with_capacity(n);
        let mut buf = Vec::new();
        for _ in 0..n {
            let req = gen_request(&mut rng);
            let id = rng.gen::<u32>();
            frame_into(&mut buf, id, &req.encode()).unwrap();
            originals.push((id, req));
        }

        // frame_into and write_frame_id produce identical bytes.
        let (id0, req0) = &originals[0];
        let mut via_writer = Vec::new();
        write_frame_id(&mut via_writer, *id0, &req0.encode()).unwrap();
        let mut via_into = Vec::new();
        frame_into(&mut via_into, *id0, &req0.encode()).unwrap();
        prop_assert_eq!(via_writer, via_into);

        // Full stream: every frame, every id, every message.
        let full = parse_all(&buf).expect("valid stream");
        prop_assert_eq!(full.len(), n);
        for ((id, req), (got_id, msg)) in originals.iter().zip(&full) {
            prop_assert_eq!(*got_id, *id);
            prop_assert_eq!(&Request::decode(msg).expect("decode"), req);
        }

        // Any prefix: only the complete frames, in order (the incremental
        // assembler must wait for the rest, not guess).
        let cut = rng.gen_range(0..=buf.len());
        let prefix = parse_all(&buf[..cut]).expect("prefix of a valid stream");
        prop_assert!(prefix.len() <= n);
        for ((id, req), (got_id, msg)) in originals.iter().zip(&prefix) {
            prop_assert_eq!(*got_id, *id);
            prop_assert_eq!(&Request::decode(msg).expect("decode"), req);
        }

        // The blocking reader sees the same stream.
        let mut reader = buf.as_slice();
        for (id, req) in &originals {
            let (got_id, msg) = read_frame_id(&mut reader).unwrap().expect("frame");
            prop_assert_eq!(got_id, *id);
            prop_assert_eq!(&Request::decode(&msg).expect("decode"), req);
        }
        prop_assert!(read_frame_id(&mut reader).unwrap().is_none());
    }

    /// Mid-pipeline corruption: truncation yields exactly the preceding
    /// whole frames, and a single bit flip anywhere in a multi-frame stream
    /// never lets the full original pipeline decode intact — the damage is
    /// always surfaced as an error, a short parse, or a changed message.
    #[test]
    fn corrupted_pipelines_never_decode_by_luck(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..5usize);
        let mut originals = Vec::with_capacity(n);
        let mut buf = Vec::new();
        for _ in 0..n {
            let req = gen_request(&mut rng);
            let id = rng.gen::<u32>();
            frame_into(&mut buf, id, &req.encode()).unwrap();
            originals.push((id, req.encode()));
        }

        let byte = rng.gen_range(0..buf.len());
        let bit = rng.gen_range(0u32..8);
        let mut corrupt = buf.clone();
        corrupt[byte] ^= 1u8 << bit;
        if let Ok(frames) = parse_all(&corrupt) {
            let intact = frames.len() == originals.len()
                && originals
                    .iter()
                    .zip(&frames)
                    .all(|((id, msg), (got_id, got_msg))| got_id == id && got_msg == msg);
            prop_assert!(!intact, "bit-flipped pipeline reproduced every frame");
        }
    }
}
