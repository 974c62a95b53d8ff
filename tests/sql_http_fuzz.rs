//! Seeded fuzzing of the other two readers of bytes from outside the
//! process (the JSON codec has `tests/json_fuzz.rs`): the SQL front end,
//! which `POST /submit` bodies reach through `plan_sql`, and the monitor's
//! HTTP request reader. Whatever arrives, a reader answers `Ok` or `Err` —
//! never a panic — and what a client may legally send reads back intact.
//! Inputs that once panicked stay here as fixed cases.

use std::io::{self, Read};

use qprog::monitor::http::{read_request, ReadError, MAX_BODY_BYTES};
use qprog::plan::physical::compile;
use qprog::prelude::*;
use qprog::sql::lexer::{tokenize, Token};
use qprog::sql::plan_sql;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Fixed seeds: a failure names its seed and reproduces.
const SEEDS: [u64; 4] = [1, 88, 0x5A1, 0x5EED_F00D];

/// The repository's SQL: the statements its examples, tests and docs run,
/// and one of each construct the grammar has.
const CORPUS: [&str; 8] = [
    "SELECT count(*) FROM customer JOIN nation ON customer.nationkey = nation.nationkey",
    "SELECT nationkey, count(*) AS cnt, min(custkey) AS lo FROM customer \
     GROUP BY nationkey ORDER BY nationkey",
    "SELECT count(*) AS cnt, nationkey FROM customer GROUP BY nationkey",
    "SELECT DISTINCT nationkey FROM customer ORDER BY nationkey DESC LIMIT 5;",
    "SELECT c.custkey * 2 AS dbl FROM customer AS c LEFT OUTER JOIN nation n \
     ON c.nationkey = n.nationkey WHERE c.custkey BETWEEN 1 AND 9 OR n.name \
     IN ('nation1', 'it''s', 'Zürich') AND NOT n.nationkey IS NULL",
    "SELECT * FROM customer WHERE custkey <> -3 AND nationkey != 2.5 -- note\nLIMIT 0",
    "SELECT sum(custkey), avg(custkey), max(nationkey) FROM customer \
     WHERE (custkey >= 10 AND custkey < 20) OR custkey / 2 > 40 + 1",
    "SELECT name FROM customer c INNER JOIN nation ON c.nationkey = nation.nationkey \
     WHERE name = 'nation3' AND custkey NOT IN (1, 2) AND custkey NOT BETWEEN 5 AND 6",
];

/// Inputs that once took the front end down, kept as fixed cases.
fn fixed_cases() -> Vec<String> {
    let chain = |link: &str| {
        format!(
            "SELECT custkey FROM customer WHERE {}1",
            link.repeat(40_000)
        )
    };
    let mut nested = "custkey BETWEEN 1 AND 2".to_string();
    for _ in 0..60 {
        nested = format!("({nested}) IN (1, 2)");
    }
    vec![
        // Recursion deep enough to overflow the stack and abort the process:
        // parsing a parenthesis or a NOT recurses, and binding, evaluating
        // and dropping recurse over each operator of a chain.
        chain("("),
        chain("NOT "),
        chain("custkey = 1 OR "),
        chain("-1 + "),
        format!(
            "SELECT custkey FROM customer WHERE custkey IN ({}1)",
            "1, ".repeat(40_000)
        ),
        // Each IN copies its operand per item: 2^60 nodes.
        format!("SELECT custkey FROM customer WHERE {nested}"),
    ]
}

fn builder() -> PlanBuilder {
    let mut catalog = Catalog::new();
    catalog
        .register(qprog::datagen::customer_table("customer", 200, 1.0, 20, 1))
        .unwrap();
    catalog
        .register(qprog::datagen::nation_table("nation", 20))
        .unwrap();
    PlanBuilder::new(catalog)
}

/// Plan `sql` and, when it plans, run it. Either step may refuse; neither
/// may panic, and a planned query may not end in an operator panic (the
/// engine catches those and reports them as `OperatorPanic`). Returns
/// whether the statement planned.
fn front_end(builder: &PlanBuilder, sql: &str) -> bool {
    let Ok(plan) = plan_sql(builder, sql) else {
        return false;
    };
    let opts = PhysicalOptions {
        batch_rows: 7,
        ..PhysicalOptions::default()
    };
    if let Ok(mut query) = compile(&plan, &opts) {
        if let Err(QError::Lifecycle(ExecError::OperatorPanic(msg))) = query.collect() {
            panic!("`{sql}` panicked in the engine: {msg}");
        }
    }
    true
}

/// SQL text of one token, such that lexing it gives the token back.
fn render(token: &Token) -> String {
    match token {
        Token::Ident(s) => s.clone(),
        Token::Int(n) => n.to_string(),
        // Display never uses an exponent; the lexer wants a `.`.
        Token::Float(f) if f.fract() == 0.0 => format!("{f}.0"),
        Token::Float(f) => f.to_string(),
        Token::Str(s) => quote(s),
        Token::LParen => "(".into(),
        Token::RParen => ")".into(),
        Token::Comma => ",".into(),
        Token::Dot => ".".into(),
        Token::Star => "*".into(),
        Token::Plus => "+".into(),
        Token::Minus => "-".into(),
        Token::Slash => "/".into(),
        Token::Eq => "=".into(),
        Token::NotEq => "<>".into(),
        Token::Lt => "<".into(),
        Token::LtEq => "<=".into(),
        Token::Gt => ">".into(),
        Token::GtEq => ">=".into(),
        Token::Semicolon => ";".into(),
    }
}

/// `s` as a SQL string literal: single-quoted, `'` doubled.
fn quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// Arbitrary Unicode weighted toward what breaks a SQL lexer: quotes,
/// comment and operator characters, multi-byte and non-BMP text.
fn arbitrary_text(rng: &mut StdRng) -> String {
    const SPICE: [&str; 12] = [
        "'", "''", "--", "\n", "(", ")", "é", "Zürich", "🎯", "東京", "\u{0}", ".",
    ];
    let mut out = String::new();
    for _ in 0..rng.random_range(0..10usize) {
        match rng.random_range(0..3u32) {
            0 => out.push_str(SPICE[rng.random_range(0..SPICE.len())]),
            1 => out.push(char::from_u32(rng.random_range(0x20..0x7fu32)).unwrap()),
            // any scalar value (surrogate code points are not chars: skipped)
            _ => out.extend(char::from_u32(rng.random_range(0..0x11_0000u32))),
        }
    }
    out
}

fn random_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.random_range(0..max_len);
    (0..len)
        .map(|_| rng.random_range(0..256u32) as u8)
        .collect()
}

#[test]
fn sql_front_end_survives_seeded_fuzzing() {
    let b = builder();
    for sql in CORPUS {
        assert!(front_end(&b, sql), "the corpus must plan: {sql}");
    }
    for sql in fixed_cases() {
        assert!(!front_end(&b, &sql), "{}…", &sql[..60]);
    }
    // Every truncation of every statement.
    let mut cases = 0usize;
    for sql in CORPUS {
        for cut in (0..sql.len()).filter(|&i| sql.is_char_boundary(i)) {
            front_end(&b, &sql[..cut]);
            cases += 1;
        }
    }
    let corpus: Vec<Vec<Token>> = CORPUS.iter().map(|s| tokenize(s).unwrap()).collect();
    let mut pool: Vec<Token> = corpus.iter().flatten().cloned().collect();
    pool.extend([
        Token::Int(i64::MAX),
        Token::Float(1e308),
        Token::Str("é🎯''".into()),
        Token::Ident("null".into()),
        Token::Ident("select".into()),
        Token::Ident("nosuch".into()),
    ]);
    let mut planned = 0usize;
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..1000 {
            // Token-level mutations, once or twice: drop, repeat or swap a
            // token, replace it by one of its kind (another column, keyword
            // or literal), or insert any token of the corpus.
            let mut tokens = corpus[round % corpus.len()].clone();
            for _ in 0..rng.random_range(1..3u32) {
                let (len, at) = (tokens.len(), rng.random_range(0..tokens.len()));
                let other = pool[rng.random_range(0..pool.len())].clone();
                let kind = std::mem::discriminant(&tokens[at]);
                let same: Vec<&Token> = pool
                    .iter()
                    .filter(|t| std::mem::discriminant(*t) == kind)
                    .collect();
                match rng.random_range(0..6u32) {
                    0 => drop(tokens.remove(at)),
                    1 => tokens.insert(at, tokens[at].clone()),
                    2 => tokens.swap(at, (at + 1).min(len - 1)),
                    3 => tokens.insert(at, other),
                    _ => tokens[at] = same[rng.random_range(0..same.len())].clone(),
                }
                if tokens.is_empty() {
                    tokens.push(Token::Star);
                }
            }
            let text: Vec<String> = tokens.iter().map(render).collect();
            let sql = text.join(" ");
            assert_eq!(
                tokenize(&sql).as_ref(),
                Ok(&tokens),
                "seed {seed:#x}: {sql}"
            );
            planned += usize::from(front_end(&b, &sql));
            // Arbitrary bytes and arbitrary text.
            for _ in 0..4 {
                front_end(&b, &String::from_utf8_lossy(&random_bytes(&mut rng, 64)));
                front_end(&b, &arbitrary_text(&mut rng));
            }
            cases += 9;
        }
    }
    assert!(
        planned >= 300,
        "mutations should still plan sometimes: {planned}"
    );
    assert!(cases >= 35_000, "only {cases} cases ran");
}

#[test]
fn any_quoted_text_lexes_back_to_itself() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..500 {
            let s = arbitrary_text(&mut rng);
            let sql = quote(&s);
            assert_eq!(
                tokenize(&sql),
                Ok(vec![Token::Str(s)]),
                "seed {seed:#x}: {sql}"
            );
        }
    }
}

/// Hands out its bytes in chunks of random size, like a socket.
struct Trickle {
    bytes: Vec<u8>,
    at: usize,
    rng: StdRng,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self
            .rng
            .random_range(1..64usize)
            .min(buf.len())
            .min(self.bytes.len() - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

fn read_trickled(bytes: Vec<u8>, seed: u64) -> Result<qprog::monitor::http::Request, ReadError> {
    read_request(&mut Trickle {
        bytes,
        at: 0,
        rng: StdRng::seed_from_u64(seed),
    })
}

/// A well-formed request: `(bytes, method, path, body)`.
fn arbitrary_request(rng: &mut StdRng) -> (Vec<u8>, &'static str, String, String) {
    let method = ["GET", "POST", "HEAD", "DELETE"][rng.random_range(0..4usize)];
    let path = format!("/progress/{}", rng.random_range(0..1000u32));
    let body = match method {
        "POST" => format!(
            "{{\"sql\":\"{}\"}}",
            arbitrary_text(rng).replace(['"', '\\'], "")
        ),
        _ => String::new(),
    };
    let mut head = format!("{method} {path}?x=1 HTTP/1.1\r\nHost: localhost\r\n");
    if rng.random_bool(0.5) {
        let id = arbitrary_text(rng).replace(char::is_control, "");
        head.push_str(&format!("Last-Event-ID: {id}\r\n"));
    }
    if !body.is_empty() || rng.random_bool(0.3) {
        head.push_str(&format!("content-length: {}\r\n", body.len()));
    }
    let bytes = format!("{head}\r\n{body}").into_bytes();
    (bytes, method, path, body)
}

#[test]
fn http_request_reader_survives_seeded_fuzzing() {
    let mut cases = 0usize;
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..100u64 {
            let ctx = format!("seed {seed:#x} round {round}");
            // 1. A well-formed request reads back intact, however split.
            let (bytes, method, path, body) = arbitrary_request(&mut rng);
            let req = read_trickled(bytes.clone(), seed ^ round).expect(&ctx);
            assert_eq!(
                (req.method.as_str(), &req.path, &req.body),
                (method, &path, &body),
                "{ctx}"
            );
            assert_eq!(req.param("x"), Some("1"), "{ctx}");
            // 2. Torn at every offset: never a panic; a head torn before
            //    its blank line is malformed.
            let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
            for cut in 0..bytes.len() {
                let got = read_trickled(bytes[..cut].to_vec(), round);
                if cut < head_end {
                    assert_eq!(got, Err(ReadError::Malformed), "{ctx}: cut {cut}");
                }
                cases += 1;
            }
            // 3. Mutated (a bit flipped, a byte dropped or doubled).
            for _ in 0..30 {
                let mut bytes = bytes.clone();
                let at = rng.random_range(0..bytes.len());
                match rng.random_range(0..3u32) {
                    0 => bytes[at] ^= 1 << rng.random_range(0..8u32),
                    1 => drop(bytes.remove(at)),
                    _ => bytes.insert(at, bytes[at]),
                }
                let _ = read_trickled(bytes, round);
                cases += 1;
            }
            // 4. Arbitrary heads and bodies, with and without a blank line
            //    and a (possibly absurd) Content-Length between them.
            for _ in 0..10 {
                let mut bytes = random_bytes(&mut rng, 200);
                if rng.random_bool(0.5) {
                    let length = match rng.random_range(0..4u32) {
                        0 => "-1".to_string(),
                        1 => u64::MAX.to_string(),
                        2 => (MAX_BODY_BYTES + 1).to_string(),
                        _ => rng.random_range(0..300u32).to_string(),
                    };
                    let head = format!("POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
                    bytes.splice(0..0, head.into_bytes());
                }
                let _ = read_trickled(bytes, round);
                cases += 1;
            }
        }
    }
    // A head that never ends is refused once past its cap, not buffered.
    let endless = b"GET / HTTP/1.1\r\nX: "
        .iter()
        .chain(&[b'a'; 20_000])
        .copied();
    assert_eq!(
        read_trickled(endless.collect(), 0),
        Err(ReadError::Malformed)
    );
    let huge = format!(
        "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    assert_eq!(
        read_trickled(huge.into_bytes(), 0),
        Err(ReadError::BodyTooLarge)
    );
    assert!(cases >= 20_000, "only {cases} cases ran");
}
