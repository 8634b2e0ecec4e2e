//! Statement ids are the connection's own: what a session's `Prepare`s are
//! answered, and whether they are refused, depends on its own requests
//! alone. A low session's replies must be byte for byte the same whether or
//! not a high session prepared statements on the same server first (the
//! DBMS is no channel between labels).

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use ifdb::prelude::*;
use ifdb::Statement;
use ifdb_client::protocol::{
    code, encode_template, read_frame_id, write_frame_id, Request, Response, PROTOCOL_VERSION,
};
use ifdb_platform::Authenticator;
use ifdb_server::{start, ServerConfig, ServerHandle};

/// Shapes the high connection prepares before the low one arrives.
const HIGH_SHAPES: usize = 20;

/// A server over one table with a public row and a high row; `high` may
/// log in and holds the high tag.
fn server() -> (ServerHandle, TagId) {
    let db = Database::in_memory();
    let high = db.create_principal("high", PrincipalKind::User);
    let tag = db.create_tag(high, "high_secret", &[]).unwrap();
    db.create_table(
        TableDef::new("notes")
            .column("id", DataType::Int)
            .column("body", DataType::Text)
            .primary_key(&["id"]),
    )
    .unwrap();
    let mut s = db.session(high);
    s.insert(&Insert::new(
        "notes",
        vec![Datum::Int(1), Datum::from("public")],
    ))
    .unwrap();
    s.add_secrecy(tag).unwrap();
    s.insert(&Insert::new(
        "notes",
        vec![Datum::Int(2), Datum::from("secret")],
    ))
    .unwrap();
    let auth = Arc::new(Authenticator::new());
    auth.register("high", "pw", high);
    (start(db, auth, ServerConfig::default()).unwrap(), tag)
}

/// A raw-protocol connection that keeps every reply frame's bytes.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u32,
    replies: Vec<u8>,
}

impl Raw {
    fn connect(server: &ServerHandle, user: &str, password: &str, label: Vec<u64>) -> Raw {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut c = Raw {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
            next_id: 1,
            replies: Vec::new(),
        };
        let resp = c.call(&Request::Hello {
            version: PROTOCOL_VERSION,
            user: user.into(),
            password: password.into(),
            platform_secret: None,
            label,
        });
        assert!(matches!(resp, Response::HelloOk { .. }), "{resp:?}");
        c
    }

    fn call(&mut self, req: &Request) -> Response {
        write_frame_id(&mut self.writer, self.next_id, &req.encode()).unwrap();
        self.writer.flush().unwrap();
        let (id, message) = read_frame_id(&mut self.reader).unwrap().expect("frame");
        assert_eq!(id, self.next_id);
        self.next_id += 1;
        self.replies.extend_from_slice(&id.to_le_bytes());
        self.replies.extend_from_slice(&message);
        Response::decode(&message).unwrap()
    }

    fn prepare_template(&mut self, template: Vec<u8>) -> Response {
        self.call(&Request::Prepare { template })
    }

    /// Prepares `stmt`'s shape and returns its id.
    fn prepare(&mut self, stmt: &Statement) -> u32 {
        match self.prepare_template(encode_template(stmt).0) {
            Response::Prepared { id } => id,
            other => panic!("prepare refused: {other:?}"),
        }
    }

    fn execute(&mut self, stmt: u32, params: Vec<Datum>) -> Response {
        self.call(&Request::Execute {
            stmt,
            params,
            fetch: 0,
        })
    }
}

/// The `k`-th of the high connection's shapes: an `OR` of `k + 1` id tests,
/// so no two share a template.
fn high_shape(k: usize) -> Statement {
    let mut p = Predicate::Eq("id".into(), Datum::Int(0));
    for i in 1..=k as i64 {
        p = p.or(Predicate::Eq("id".into(), Datum::Int(i)));
    }
    Statement::Select(Select::star("notes").filter(p))
}

/// The low connection's session: prepare one shape, run it, and return its
/// id and every reply byte it was sent.
fn low_session(server: &ServerHandle) -> (u32, Vec<u8>) {
    let mut low = Raw::connect(server, "", "", Vec::new());
    let shape = Statement::Select(Select::star("notes"));
    let id = low.prepare(&shape);
    let Response::Rows { rows, .. } = low.execute(id, encode_template(&shape).1) else {
        panic!("the low select returned no rows");
    };
    assert_eq!(rows.len(), 1, "the low session sees the public row only");
    (id, low.replies)
}

#[test]
fn a_low_sessions_statement_ids_carry_nothing_of_a_high_session() {
    let (alone, _) = server();
    let (alone_id, alone_replies) = low_session(&alone);
    assert_eq!(alone_id, 1);

    let (shared, tag) = server();
    let mut high = Raw::connect(&shared, "high", "pw", vec![tag.0]);
    for k in 0..HIGH_SHAPES {
        let shape = high_shape(k);
        assert_eq!(high.prepare(&shape), k as u32 + 1);
        assert!(matches!(
            high.execute(k as u32 + 1, encode_template(&shape).1),
            Response::Rows { .. }
        ));
    }
    let (id, replies) = low_session(&shared);
    assert_eq!(id, 1, "the low session's first id is 1, whatever high did");
    assert_eq!(
        replies, alone_replies,
        "the low session's replies changed with a high session present"
    );
    alone.shutdown();
    shared.shutdown();
}

#[test]
fn an_id_is_unknown_on_every_other_connection() {
    let (server, _) = server();
    let mut a = Raw::connect(&server, "", "", Vec::new());
    let shape = Statement::Select(Select::star("notes"));
    let id = a.prepare(&shape);
    let params = encode_template(&shape).1;
    assert!(matches!(
        a.execute(id, params.clone()),
        Response::Rows { .. }
    ));

    let mut b = Raw::connect(&server, "", "", Vec::new());
    match b.execute(id, params.clone()) {
        Response::Error {
            code: c, detail, ..
        } => {
            assert_eq!(c, code::INVALID_STATEMENT);
            assert!(detail.contains("unknown statement id"), "{detail}");
        }
        other => panic!("another connection's id ran: {other:?}"),
    }
    // The same shape prepared on `b` is `b`'s own id 1, and runs there.
    assert_eq!(b.prepare(&shape), 1);
    assert!(matches!(b.execute(1, params), Response::Rows { .. }));
    server.shutdown();
}

#[test]
fn the_template_bound_refuses_only_the_connection_that_reached_it() {
    let (server, _) = server();
    let mut full = Raw::connect(&server, "", "", Vec::new());
    let shape = Statement::Select(Select::star("notes"));
    assert_eq!(full.prepare(&shape), 1);
    // Fill the connection with distinct templates until it is refused; a
    // `Prepare` does not decode its template, so any distinct bytes do.
    let mut held = 1u32;
    let refusal = loop {
        assert!(held < 1 << 16, "no per-connection template bound");
        match full.prepare_template(held.to_le_bytes().to_vec()) {
            Response::Prepared { id } => {
                held += 1;
                assert_eq!(id, held);
            }
            other => break other,
        }
    };
    match refusal {
        Response::Error {
            code: c, detail, ..
        } => {
            assert_eq!(c, code::SERVER_BUSY);
            assert!(detail.contains(&held.to_string()), "{detail}");
        }
        other => panic!("{other:?}"),
    }
    // The ids the connection holds still run.
    assert!(matches!(
        full.execute(1, encode_template(&shape).1),
        Response::Rows { .. }
    ));
    // Another connection's prepares, of a shape never seen before too, are
    // untouched by it.
    let mut other = Raw::connect(&server, "", "", Vec::new());
    assert_eq!(other.prepare(&high_shape(1)), 1);
    server.shutdown();
}
