//! The `serve-fb` load: a minimal HTTP/1.1 client over `std::net`, the
//! seeded request mix, and the closed-loop clients that drive it.

use kgfd_datasets::Zipf;
use kgfd_kg::{Dataset, RelationId, Triple};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Triples per `/v1/score` and `/v1/rank` request.
pub const TRIPLES_PER_REQUEST: usize = 16;
/// Candidate budget of one `/v1/discover` request.
pub const DISCOVER_CANDIDATES: usize = 100;
/// Bodies in the fixed hot set; repeats of them hit the response cache.
pub const HOT_BODIES: usize = 32;
/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;

/// One HTTP response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    /// The `X-Kgfd-Cache` header (`hit` / `miss`), when present.
    pub cache: Option<String>,
    pub body: Vec<u8>,
}

/// `GET path`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Response> {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes(),
    )
}

/// `POST path` with a JSON body.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> std::io::Result<Response> {
    let mut request = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    exchange(addr, &request)
}

/// One request per connection, as the server answers (`Connection: close`).
fn exchange(addr: SocketAddr, request: &[u8]) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    stream.write_all(request)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad())?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let cache = lines.find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("x-kgfd-cache")
            .then(|| v.trim().to_string())
    });
    Ok(Response {
        status,
        cache,
        body: raw[split + 4..].to_vec(),
    })
}

/// The served endpoints in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Score,
    Rank,
    Discover,
}

impl Endpoint {
    pub const ALL: [Endpoint; 3] = [Endpoint::Score, Endpoint::Rank, Endpoint::Discover];

    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Score => "score",
            Endpoint::Rank => "rank",
            Endpoint::Discover => "discover",
        }
    }

    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Score => "/v1/score",
            Endpoint::Rank => "/v1/rank",
            Endpoint::Discover => "/v1/discover",
        }
    }
}

/// What a request asks, in the dataset's ids (for the in-process replay)
/// and as the JSON body the server receives.
#[derive(Debug, Clone)]
pub struct Request {
    pub endpoint: Endpoint,
    pub query: Query,
    pub body: Vec<u8>,
    /// Index into the hot set, for hot requests.
    pub hot: Option<usize>,
}

#[derive(Debug, Clone)]
pub enum Query {
    Triples(Vec<Triple>),
    Discover { relation: RelationId, seed: u64 },
}

/// The request mix: 45% score, 45% rank, 10% discover (relation drawn
/// Zipf over relations by training frequency); 20% of each endpoint's
/// requests repeat one of its hot bodies (32 in all), the rest are fresh.
/// Clients draw the shares from a [`Stream`]'s deck.
pub struct Mix<'a> {
    dataset: &'a Dataset,
    relations: Vec<RelationId>,
    zipf: Zipf,
    /// Hot bodies per endpoint, in [`Endpoint::ALL`] order.
    hot: [Vec<Request>; 3],
}

/// Cards per endpoint in a deck of 100, and how many of them are hot.
const CARDS: [usize; 3] = [45, 45, 10];
const HOT_CARDS: [usize; 3] = [9, 9, 2];
/// The hot set split in proportion to [`CARDS`].
const HOT_PER_ENDPOINT: [usize; 3] = [14, 14, 4];

/// One client's request stream: a seeded RNG and a shuffled deck of
/// (endpoint, hot) cards, refilled when empty, so every 100 requests hold
/// the mix's shares exactly. Independent draws let a run's discover share
/// wander by about a point, and discoveries are most of the mean latency.
pub struct Stream {
    rng: StdRng,
    deck: Vec<(Endpoint, bool)>,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(seed),
            deck: Vec::new(),
        }
    }
}

impl<'a> Mix<'a> {
    pub fn new(dataset: &'a Dataset, seed: u64) -> Mix<'a> {
        let mut relations = dataset.train.used_relations();
        // Most frequent first, so Zipf rank 0 is the busiest relation.
        relations.sort_by_key(|&r| std::cmp::Reverse(dataset.train.triples_of_relation(r).len()));
        let zipf = Zipf::new(relations.len(), 1.0);
        let mut mix = Mix {
            dataset,
            relations,
            zipf,
            hot: Default::default(),
        };
        // Stream 0 of the seed; clients draw from the streams `drive` names.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut id = 0..HOT_BODIES;
        for (e, n) in Endpoint::ALL.into_iter().zip(HOT_PER_ENDPOINT) {
            let bodies = (0..n)
                .map(|_| Request {
                    hot: id.next(),
                    ..mix.fresh(e, &mut rng)
                })
                .collect();
            mix.hot[e as usize] = bodies;
        }
        mix
    }

    /// The next request of `stream`.
    pub fn next(&self, stream: &mut Stream) -> Request {
        if stream.deck.is_empty() {
            for (e, (cards, hot)) in Endpoint::ALL
                .into_iter()
                .zip(CARDS.into_iter().zip(HOT_CARDS))
            {
                stream.deck.extend((0..cards).map(|i| (e, i < hot)));
            }
            stream.deck.shuffle(&mut stream.rng);
        }
        let (endpoint, hot) = stream.deck.pop().expect("the deck was just refilled");
        let rng = &mut stream.rng;
        if hot {
            let bodies = &self.hot[endpoint as usize];
            bodies[rng.random_range(0..bodies.len())].clone()
        } else {
            self.fresh(endpoint, rng)
        }
    }

    fn fresh(&self, endpoint: Endpoint, rng: &mut StdRng) -> Request {
        let query = match endpoint {
            Endpoint::Discover => Query::Discover {
                relation: self.relations[self.zipf.sample(rng)],
                // Below 2^53, so the seed survives JSON as an exact number.
                seed: rng.random::<u64>() >> 12,
            },
            _ => {
                let test = &self.dataset.test;
                Query::Triples(
                    (0..TRIPLES_PER_REQUEST)
                        .map(|_| test[rng.random_range(0..test.len())])
                        .collect(),
                )
            }
        };
        let body = self.body(endpoint, &query);
        Request {
            endpoint,
            query,
            body,
            hot: None,
        }
    }

    fn body(&self, endpoint: Endpoint, query: &Query) -> Vec<u8> {
        let vocab = &self.dataset.vocab;
        let value = match query {
            Query::Triples(triples) => {
                let rows: Vec<Value> = triples
                    .iter()
                    .map(|t| {
                        json!([
                            (vocab.entity_label(t.subject).expect("labelled")),
                            (vocab.relation_label(t.relation).expect("labelled")),
                            (vocab.entity_label(t.object).expect("labelled"))
                        ])
                    })
                    .collect();
                match endpoint {
                    Endpoint::Rank => {
                        json!({"model": "model", "triples": (Value::Array(rows)), "filtered": true})
                    }
                    _ => json!({"model": "model", "triples": (Value::Array(rows))}),
                }
            }
            Query::Discover { relation, seed } => json!({
                "model": "model",
                "relation": (vocab.relation_label(*relation).expect("labelled")),
                "max_candidates": DISCOVER_CANDIDATES,
                "seed": (*seed),
            }),
        };
        serde_json::to_vec(&value).expect("JSON rendering is infallible")
    }
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub endpoint: Endpoint,
    pub latency: Duration,
    pub cache_hit: bool,
}

/// What the clients saw.
#[derive(Debug, Default)]
pub struct Load {
    /// 2xx requests.
    pub samples: Vec<Sample>,
    /// From the start until the last request finished.
    pub window: Duration,
    pub attempted: u64,
    /// Requests that failed: transport error, non-2xx, or a failed check.
    pub failures: Vec<String>,
}

/// Runs [`CLIENTS`] closed-loop clients for `duration`; client `c` draws
/// its requests from stream `stream + c` of `seed`. Every response is
/// checked: 2xx, a JSON body of the endpoint's shape, and — for hot
/// bodies — the same bytes every time, whether the cache served them or not.
pub fn drive(addr: SocketAddr, mix: &Mix<'_>, seed: u64, stream: u64, duration: Duration) -> Load {
    let first_bytes: Mutex<HashMap<usize, Vec<u8>>> = Mutex::new(HashMap::new());
    let start = Instant::now();
    let until = start + duration;
    let per_client: Vec<Load> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let first_bytes = &first_bytes;
                s.spawn(move || {
                    let mut requests = Stream::new(seed.wrapping_add(stream + c));
                    let mut load = Load::default();
                    while Instant::now() < until {
                        let request = mix.next(&mut requests);
                        let started = Instant::now();
                        load.attempted += 1;
                        let outcome = post(addr, request.endpoint.path(), &request.body);
                        let latency = started.elapsed();
                        let checked = outcome
                            .map_err(|e| format!("{}: {e}", request.endpoint.name()))
                            .and_then(|r| check_response(&request, r, first_bytes));
                        match checked {
                            Ok(cache_hit) => load.samples.push(Sample {
                                endpoint: request.endpoint,
                                latency,
                                cache_hit,
                            }),
                            Err(e) => load.failures.push(e),
                        }
                    }
                    load.window = start.elapsed();
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Load::default();
    for load in per_client {
        total.samples.extend(load.samples);
        total.window = total.window.max(load.window);
        total.attempted += load.attempted;
        total.failures.extend(load.failures);
    }
    total
}

/// Checks one response; returns whether the cache answered it.
fn check_response(
    request: &Request,
    response: Response,
    first_bytes: &Mutex<HashMap<usize, Vec<u8>>>,
) -> Result<bool, String> {
    let name = request.endpoint.name();
    if response.status != 200 {
        return Err(format!("{name}: HTTP {}", response.status));
    }
    let value: Value = serde_json::from_slice(&response.body)
        .map_err(|e| format!("{name}: response is not JSON: {e}"))?;
    let shape_ok = match request.endpoint {
        Endpoint::Score => array_len(&value, "scores") == Some(TRIPLES_PER_REQUEST),
        Endpoint::Rank => array_len(&value, "ranks") == Some(TRIPLES_PER_REQUEST),
        Endpoint::Discover => {
            array_len(&value, "facts").map(|n| n as u64) == value["fact_count"].as_u64()
        }
    };
    if !shape_ok {
        return Err(format!("{name}: response has the wrong shape"));
    }
    let cache_hit = match response.cache.as_deref() {
        Some("hit") => true,
        Some("miss") => false,
        other => return Err(format!("{name}: X-Kgfd-Cache is {other:?}")),
    };
    if let Some(i) = request.hot {
        let mut first = first_bytes.lock().expect("no client panics holding it");
        let reference = first.entry(i).or_insert_with(|| response.body.clone());
        if *reference != response.body {
            return Err(format!(
                "{name}: hot body {i} answered with different bytes (cache {})",
                if cache_hit { "hit" } else { "miss" }
            ));
        }
    }
    Ok(cache_hit)
}

fn array_len(value: &Value, key: &str) -> Option<usize> {
    value.get(key)?.as_array().map(Vec::len)
}

/// The value of an unlabelled Prometheus sample `name` in `text`.
pub fn prometheus_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (k, v) = l.split_once(' ')?;
            (k == name).then(|| v.trim().parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}
