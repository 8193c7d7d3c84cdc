//! The three workloads: their seeded request corpus, the in-process
//! servers they call, and one caller that runs their lanes and checks
//! every reply.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bxdm::{ArrayValue, AtomicValue, Element};
use bxsoap::{VerifyRequest, VerifyResponse, LEAD_NS};
use soap::{
    BxsaEncoding, CallOptions, DecodeScratch, HttpBinding, HttpSoapServer, ServiceRegistry,
    SoapEngine, SoapEnvelope, SoapError, SoapResult, SoapService, StreamOp, TcpBinding,
    XmlEncoding,
};
use transport::{
    BufferPool, HttpResponse, HttpServer, HttpServerConfig, Pool, ServerBuilder, TcpServer,
};

use crate::layers::{Traced, Wire};
use crate::trace::{self, Kind};

type Bx = Traced<BxsaEncoding>;
type Xml = Traced<XmlEncoding>;

/// One kind of call a workload makes; a workload cycles through its
/// lanes in a fixed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Tree-lane BXSA `VerifyTree` over framed TCP.
    Tcp,
    /// Tree-lane BXSA `VerifyTree` over HTTP/1.1 keep-alive.
    Http,
    /// Tree-lane BXSA `VerifyTree` (`call_with`) over framed TCP.
    Tree,
    /// Typed BXSA `Verify` (`call_typed_into`) over framed TCP.
    Typed,
    /// Streamed BXSA `VerifyStream` (`call_streaming`) over HTTP chunked.
    Streamed,
    /// Tree-lane BXSA `VerifyTree` with a CRC32C trailer, framed TCP.
    Checksummed,
    /// XML `VerifyTree` over HTTP: floats formatted by the caller.
    Upload,
    /// XML `Fetch` over HTTP: floats formatted by the server.
    Download,
}

/// Every lane, in the order per-lane metrics are printed.
pub const ALL_LANES: [Lane; 8] = [
    Lane::Tcp,
    Lane::Http,
    Lane::Tree,
    Lane::Typed,
    Lane::Streamed,
    Lane::Checksummed,
    Lane::Upload,
    Lane::Download,
];

impl Lane {
    /// The lane's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Tcp => "tcp",
            Lane::Http => "http",
            Lane::Tree => "tree",
            Lane::Typed => "typed",
            Lane::Streamed => "streamed",
            Lane::Checksummed => "checksummed",
            Lane::Upload => "upload",
            Lane::Download => "download",
        }
    }
}

/// A workload: which lanes, at which payload size, over how many
/// distinct datasets.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// (index, value) pairs per dataset: 12 bytes of array data each.
    pub pairs: usize,
    /// Distinct datasets in the corpus; calls cycle through them.
    pub datasets: usize,
    /// The lane rotation.
    pub lanes: &'static [Lane],
    /// Rounds of the rotation run during set-up, before measuring.
    pub warmup_rounds: usize,
}

/// Parts a streamed dataset is split into.
pub const STREAM_PARTS: usize = 8;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "rpc-small",
        pairs: 8,
        datasets: 64,
        lanes: &[Lane::Tcp, Lane::Http],
        warmup_rounds: 500,
    },
    Workload {
        name: "bulk-bxsa",
        pairs: 100_000,
        datasets: 6,
        lanes: &[Lane::Tree, Lane::Typed, Lane::Streamed, Lane::Checksummed],
        warmup_rounds: 4,
    },
    Workload {
        name: "xml-interop",
        pairs: 1_000,
        datasets: 16,
        lanes: &[Lane::Upload, Lane::Download],
        warmup_rounds: 25,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The lane and dataset of call number `i`: the lanes rotate call by
    /// call, and each full rotation moves on to the next dataset.
    pub fn schedule(&self, i: u64) -> (Lane, usize) {
        let n = self.lanes.len() as u64;
        let lane = self.lanes[(i % n) as usize];
        let dataset = ((i / n) % self.datasets as u64) as usize;
        (lane, dataset)
    }

    fn uses(&self, lane: Lane) -> bool {
        self.lanes.contains(&lane)
    }

    /// Application array bytes a call carries (request plus response;
    /// envelopes and headers are not counted). Every lane moves one
    /// dataset one way: uploads in the request, downloads in the reply.
    pub fn payload_bytes(&self) -> u64 {
        (self.pairs * 12) as u64
    }
}

/// One dataset and every request form the workload's lanes send for it.
pub struct Dataset {
    pub index: Vec<i32>,
    pub values: Vec<f64>,
    /// `VerifyTree` envelope (tree lanes).
    tree: Option<SoapEnvelope>,
    /// `Verify` struct (typed lane).
    typed: Option<VerifyRequest>,
    /// `VerifyStream` manifest and payload parts (streamed lane).
    stream: Option<(SoapEnvelope, Vec<Element>)>,
    /// `Fetch` envelope (download lane).
    fetch: Option<SoapEnvelope>,
}

/// The seed of dataset `k` under run seed `seed` (splitmix64).
fn dataset_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(k as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn lead(local: &str) -> String {
    format!("d:{local}")
}

fn arrays(index: &[i32], values: &[f64]) -> [Element; 2] {
    [
        Element::array(lead("index"), ArrayValue::I32(index.to_vec())),
        Element::array(lead("values"), ArrayValue::F64(values.to_vec())),
    ]
}

fn request(op: &str, children: impl IntoIterator<Item = Element>) -> SoapEnvelope {
    let mut body = Element::component(lead(op)).with_namespace("d", LEAD_NS);
    for child in children {
        body.push_child(child);
    }
    SoapEnvelope::with_body(body)
}

/// Build the seeded corpus for `w`.
pub fn corpus(w: &Workload, seed: u64) -> Vec<Dataset> {
    (0..w.datasets)
        .map(|k| {
            let (index, values) = bxsoap::lead_dataset(w.pairs, dataset_seed(seed, k));
            let tree_lane = w.uses(Lane::Tcp)
                || w.uses(Lane::Http)
                || w.uses(Lane::Tree)
                || w.uses(Lane::Checksummed)
                || w.uses(Lane::Upload);
            let per_part = w.pairs.div_ceil(STREAM_PARTS);
            Dataset {
                tree: tree_lane.then(|| request("VerifyTree", arrays(&index, &values))),
                typed: w.uses(Lane::Typed).then(|| VerifyRequest {
                    index: index.clone(),
                    values: values.clone(),
                }),
                stream: w.uses(Lane::Streamed).then(|| {
                    let manifest = request(
                        "VerifyStream",
                        [Element::leaf(
                            lead("parts"),
                            AtomicValue::I64(STREAM_PARTS as i64),
                        )],
                    );
                    let parts = index
                        .chunks(per_part)
                        .zip(values.chunks(per_part))
                        .map(|(i, v)| {
                            let mut part =
                                Element::component(lead("chunk")).with_namespace("d", LEAD_NS);
                            for a in arrays(i, v) {
                                part.push_child(a);
                            }
                            part
                        })
                        .collect();
                    (manifest, parts)
                }),
                fetch: w.uses(Lane::Download).then(|| {
                    request(
                        "Fetch",
                        [Element::leaf(lead("dataset"), AtomicValue::I64(k as i64))],
                    )
                }),
                index,
                values,
            }
        })
        .collect()
}

/// Every request of the corpus as bytes (envelopes BXSA-encoded, typed
/// arrays raw), for comparing corpora.
#[cfg(test)]
fn corpus_bytes(corpus: &[Dataset]) -> Vec<u8> {
    use soap::EncodingPolicy;
    let mut out = Vec::new();
    for ds in corpus {
        for env in [&ds.tree, &ds.fetch].into_iter().flatten() {
            out.extend(
                BxsaEncoding::default()
                    .encode(&env.to_document())
                    .expect("corpus encodes"),
            );
        }
        if let Some(req) = &ds.typed {
            out.extend(req.index.iter().flat_map(|i| i.to_le_bytes()));
            out.extend(req.values.iter().flat_map(|v| v.to_le_bytes()));
        }
        if let Some((manifest, parts)) = &ds.stream {
            out.extend(
                BxsaEncoding::default()
                    .encode(&manifest.to_document())
                    .expect("manifest encodes"),
            );
            for p in parts {
                let mut buf = Vec::new();
                bxsa::encode_element_into(p, &Default::default(), &mut buf).expect("part encodes");
                out.extend(buf);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------

fn verify_reply(ok: bool, count: usize, parts: Option<usize>) -> SoapEnvelope {
    let mut body = Element::component("VerifyResponse")
        .with_child(Element::leaf("ok", AtomicValue::Bool(ok)))
        .with_child(Element::leaf("count", AtomicValue::I64(count as i64)));
    if let Some(p) = parts {
        body.push_child(Element::leaf("parts", AtomicValue::I64(p as i64)));
    }
    SoapEnvelope::with_body(body)
}

fn missing(what: &str) -> SoapError {
    SoapError::Protocol(format!("missing {what}"))
}

fn body_arrays(body: &Element) -> SoapResult<(&[i32], &[f64])> {
    let index = body
        .find_child("index")
        .and_then(|e| e.as_i32_array())
        .ok_or_else(|| missing("index array"))?;
    let values = body
        .find_child("values")
        .and_then(|e| e.as_f64_array())
        .ok_or_else(|| missing("values array"))?;
    Ok((index, values))
}

/// The datasets a `Fetch` handler serves, by corpus position.
type Downloads = Arc<Vec<(Vec<i32>, Vec<f64>)>>;

/// The tree handlers: `VerifyTree` always, `Fetch` when a corpus is
/// given to serve downloads from.
fn registry(downloads: Option<Downloads>) -> ServiceRegistry {
    let mut registry = ServiceRegistry::new();
    registry.register("VerifyTree", |req| {
        let span = trace::open_handler();
        let reply = (|| {
            let body = req.body_element().ok_or_else(|| missing("body"))?;
            let (index, values) = body_arrays(body)?;
            Ok(verify_reply(
                bxsoap::verify_dataset(index, values),
                values.len(),
                None,
            ))
        })();
        trace::close_handler(span);
        reply
    });
    if let Some(data) = downloads {
        registry.register("Fetch", move |req| {
            let span = trace::open_handler();
            let reply = (|| {
                let k = req
                    .body_element()
                    .and_then(|b| b.child_value("dataset"))
                    .and_then(|v| match v {
                        AtomicValue::I64(k) => usize::try_from(*k).ok(),
                        _ => None,
                    })
                    .ok_or_else(|| missing("dataset id"))?;
                let (index, values) = data.get(k).ok_or_else(|| missing("dataset"))?;
                let mut body =
                    Element::component(lead("FetchResponse")).with_namespace("d", LEAD_NS);
                for a in arrays(index, values) {
                    body.push_child(a);
                }
                Ok(SoapEnvelope::with_body(body))
            })();
            trace::close_handler(span);
            reply
        });
    }
    registry
}

/// Server half of the streamed lane: checks each chunk as it arrives.
#[derive(Default)]
struct VerifyStream {
    next_index: i64,
    ok: bool,
    parts: usize,
}

impl StreamOp for VerifyStream {
    fn start(&mut self, _manifest: &SoapEnvelope) -> SoapResult<()> {
        let span = trace::open_handler();
        self.ok = true;
        trace::close_handler(span);
        Ok(())
    }

    fn on_part(&mut self, part: &Element) -> SoapResult<()> {
        let span = trace::open_handler();
        // `bxsoap::verify_dataset`'s test, except that a chunk's indexes
        // continue from where the previous chunk stopped instead of 0.
        let r = body_arrays(part).map(|(index, values)| {
            let consecutive = index
                .iter()
                .zip(self.next_index..)
                .all(|(&i, want)| i64::from(i) == want);
            let plausible = values
                .iter()
                .all(|v| v.is_finite() && (100.0..400.0).contains(v));
            self.ok &= index.len() == values.len() && consecutive && plausible;
            self.next_index += index.len() as i64;
            self.parts += 1;
        });
        trace::close_handler(span);
        r
    }

    fn finish(&mut self) -> SoapResult<SoapEnvelope> {
        let span = trace::open_handler();
        let reply = verify_reply(self.ok, self.next_index as usize, Some(self.parts));
        trace::close_handler(span);
        Ok(reply)
    }

    fn next_part(&mut self, _slot: &mut Element) -> SoapResult<bool> {
        Ok(false)
    }
}

fn bxsa_service() -> SoapService<Bx> {
    let mut service = SoapService::new(
        Traced::bxsa(BxsaEncoding::default()),
        Arc::new(registry(None)),
    );
    service.register_typed::<VerifyRequest, VerifyResponse, _>("Verify", |req, resp| {
        let span = trace::open_handler();
        resp.ok = bxsoap::verify_dataset(&req.index, &req.values);
        resp.count = req.values.len() as i64;
        trace::close_handler(span);
        Ok(())
    });
    service.register_streaming("VerifyStream", || Box::<VerifyStream>::default());
    service
}

/// A framed-TCP server built from the transport's `ServerBuilder`, the
/// service call timed as [`Kind::Service`].
fn tcp_server<E>(service: SoapService<E>) -> transport::TransportResult<TcpServer>
where
    E: soap::EncodingPolicy + Send + Sync + 'static,
{
    ServerBuilder::bind("127.0.0.1:0").serve_framed(
        DecodeScratch::default,
        move |scratch, request, out, _ctl| {
            let span = trace::open(Kind::Service);
            service.handle_bytes_deadline(scratch, request, out);
            trace::close(span);
        },
    )
}

/// An HTTP/1.1 keep-alive server built from `ServerBuilder`, recycling
/// bodies and decode scratch through pools the way the repository's own
/// HTTP server does; the service call timed as [`Kind::Service`].
fn http_server<E>(service: SoapService<E>) -> transport::TransportResult<HttpServer>
where
    E: soap::EncodingPolicy + Send + Sync + 'static,
{
    let content_type = service.encoding().content_type();
    let pool = Arc::new(BufferPool::default());
    let bodies = Arc::clone(&pool);
    let scratches: Pool<DecodeScratch> = Pool::default();
    ServerBuilder::bind("127.0.0.1:0")
        .pool(pool)
        .serve_http_ctl(move |request, _ctl| {
            let mut body = bodies.take();
            let mut scratch = scratches.take();
            let span = trace::open(Kind::Service);
            let outcome = service.handle_bytes_deadline(&mut scratch, &request.body, &mut body);
            trace::close(span);
            scratches.put(scratch);
            if outcome.is_fault {
                HttpResponse::server_error(body).with_header("Content-Type", content_type)
            } else {
                HttpResponse::ok(content_type, body)
            }
        })
}

/// The servers a workload calls.
pub struct Servers {
    tcp: Option<TcpServer>,
    http: Option<HttpServer>,
    streaming: Option<HttpSoapServer>,
}

impl Servers {
    /// Bind the servers `w` needs on ephemeral loopback ports.
    pub fn bind(w: &Workload, corpus: &[Dataset]) -> SoapResult<Servers> {
        let mut s = Servers {
            tcp: None,
            http: None,
            streaming: None,
        };
        if w.uses(Lane::Tcp) || w.uses(Lane::Tree) {
            s.tcp = Some(tcp_server(bxsa_service())?);
        }
        if w.uses(Lane::Http) {
            s.http = Some(http_server(bxsa_service())?);
        }
        if w.uses(Lane::Upload) {
            let downloads = corpus
                .iter()
                .map(|d| (d.index.clone(), d.values.clone()))
                .collect();
            let service = SoapService::new(
                Traced::xml(XmlEncoding::default()),
                Arc::new(registry(Some(Arc::new(downloads)))),
            );
            s.http = Some(http_server(service)?);
        }
        if w.uses(Lane::Streamed) {
            // The streamed lane needs the repository's HTTP SOAP server:
            // its streaming session type is not public, so a
            // benchmark-built server cannot host it.
            s.streaming = Some(HttpSoapServer::bind_service_with(
                "127.0.0.1:0",
                "/soap",
                HttpServerConfig::default(),
                bxsa_service(),
            )?);
        }
        Ok(s)
    }

    /// Stop every server and wait for its threads.
    pub fn shutdown(self) {
        if let Some(s) = self.tcp {
            s.shutdown();
        }
        if let Some(s) = self.http {
            s.shutdown();
        }
        if let Some(s) = self.streaming {
            s.shutdown();
        }
    }
}

// ---------------------------------------------------------------------
// Caller side
// ---------------------------------------------------------------------

/// One call's outcome.
pub struct CallResult {
    /// Wall time of the engine call alone (reply check excluded).
    pub latency: Duration,
    /// Exchanges the engine made (1 = no retries).
    pub attempts: u32,
    /// `Err` when the call failed or its reply did not check out.
    pub verdict: Result<(), String>,
}

/// The one caller: an engine per encoding, with lanes that share a
/// transport sharing one connection.
pub struct Caller {
    tcp: Option<SoapEngine<Bx, Wire<TcpBinding>>>,
    tcp_crc: Option<SoapEngine<Bx, Wire<TcpBinding>>>,
    http: Option<SoapEngine<Bx, Wire<HttpBinding>>>,
    xml: Option<SoapEngine<Xml, Wire<HttpBinding>>>,
    stream: Option<SoapEngine<Bx, HttpBinding>>,
    trailer_failures: Rc<Cell<u64>>,
    typed_reply: VerifyResponse,
    options: CallOptions,
}

impl Caller {
    /// Engines for every lane of `w`, pointed at `servers`. Connections
    /// open on the first call.
    pub fn new(w: &Workload, servers: &Servers) -> Caller {
        let trailer_failures = Rc::new(Cell::new(0));
        let tcp_binding = servers
            .tcp
            .as_ref()
            .map(|s| Rc::new(RefCell::new(TcpBinding::new(&s.local_addr().to_string()))));
        let bx = || Traced::bxsa(BxsaEncoding::default());
        let http_addr = servers.http.as_ref().map(|s| s.local_addr().to_string());
        let http_binding = || {
            Rc::new(RefCell::new(HttpBinding::new(
                http_addr.as_deref().expect("workload has an HTTP server"),
                "/soap",
            )))
        };
        Caller {
            tcp: tcp_binding
                .clone()
                .map(|b| SoapEngine::new(bx(), Wire::new(b))),
            tcp_crc: tcp_binding.filter(|_| w.uses(Lane::Checksummed)).map(|b| {
                SoapEngine::new(
                    Traced::bxsa(BxsaEncoding::default().with_checksum()),
                    Wire::checking_trailer(b, Rc::clone(&trailer_failures)),
                )
            }),
            http: w
                .uses(Lane::Http)
                .then(|| SoapEngine::new(bx(), Wire::new(http_binding()))),
            xml: w.uses(Lane::Upload).then(|| {
                SoapEngine::new(
                    Traced::xml(XmlEncoding::default()),
                    Wire::new(http_binding()),
                )
            }),
            stream: servers.streaming.as_ref().map(|s| {
                SoapEngine::new(bx(), HttpBinding::new(&s.local_addr().to_string(), "/soap"))
            }),
            trailer_failures,
            typed_reply: VerifyResponse::default(),
            options: CallOptions::new(),
        }
    }

    /// Make call `lane` with dataset `ds` and check its reply.
    pub fn call(&mut self, lane: Lane, ds: &Dataset) -> CallResult {
        let n = ds.values.len();
        let (latency, attempts, verdict) = match lane {
            Lane::Tcp | Lane::Tree => tree_call(self.tcp.as_mut(), ds, &self.options, n),
            Lane::Http => tree_call(self.http.as_mut(), ds, &self.options, n),
            Lane::Upload => tree_call(self.xml.as_mut(), ds, &self.options, n),
            Lane::Checksummed => {
                let before = self.trailer_failures.get();
                let (t, a, v) = tree_call(self.tcp_crc.as_mut(), ds, &self.options, n);
                let trailer = if self.trailer_failures.get() == before {
                    Ok(())
                } else {
                    Err("request lacks a valid CRC32C trailer frame".to_owned())
                };
                (t, a, v.and(trailer))
            }
            Lane::Typed => {
                let engine = self.tcp.as_mut().expect("typed lane rides the TCP engine");
                let req = ds.typed.as_ref().expect("corpus has typed requests");
                let start = Instant::now();
                let span = trace::open_call();
                let r = engine.call_typed_into(req, &mut self.typed_reply, &self.options);
                trace::call_returned(&span);
                trace::close_call(span);
                let latency = start.elapsed();
                let verdict = r
                    .map_err(|e| e.to_string())
                    .and_then(|()| check_verify(self.typed_reply.ok, self.typed_reply.count, n));
                (latency, engine.last_call_attempts(), verdict)
            }
            Lane::Streamed => {
                let engine = self.stream.as_mut().expect("streamed lane has its engine");
                stream_call(engine, ds, &self.options, n)
            }
            Lane::Download => {
                let engine = self
                    .xml
                    .as_mut()
                    .expect("download lane rides the XML engine");
                let req = ds.fetch.clone().expect("corpus has fetch requests");
                let start = Instant::now();
                let span = trace::open_call();
                let r = engine.call_with(req, &self.options);
                trace::call_returned(&span);
                trace::close_call(span);
                let latency = start.elapsed();
                let verdict = r
                    .map_err(|e| e.to_string())
                    .and_then(|env| check_download(&env, ds));
                (latency, engine.last_call_attempts(), verdict)
            }
        };
        CallResult {
            latency,
            attempts,
            verdict,
        }
    }
}

fn tree_call<E: soap::EncodingPolicy, B: soap::BindingPolicy>(
    engine: Option<&mut SoapEngine<E, B>>,
    ds: &Dataset,
    options: &CallOptions,
    n: usize,
) -> (Duration, u32, Result<(), String>) {
    let engine = engine.expect("lane has its engine");
    // `call_with` consumes its request, so each call sends a fresh copy
    // of the corpus envelope, made before the clock starts.
    let req = ds.tree.clone().expect("corpus has tree requests");
    let start = Instant::now();
    let span = trace::open_call();
    let r = engine.call_with(req, options);
    trace::call_returned(&span);
    trace::close_call(span);
    let latency = start.elapsed();
    let verdict = r
        .map_err(|e| e.to_string())
        .and_then(|env| verify_fields(&env).and_then(|(ok, count, _)| check_verify(ok, count, n)));
    (latency, engine.last_call_attempts(), verdict)
}

fn stream_call(
    engine: &mut SoapEngine<Bx, HttpBinding>,
    ds: &Dataset,
    options: &CallOptions,
    n: usize,
) -> (Duration, u32, Result<(), String>) {
    let (manifest, parts) = ds.stream.as_ref().expect("corpus has streamed requests");
    let manifest = manifest.clone();
    let mut sent = 0;
    let start = Instant::now();
    let span = trace::open_call();
    let r = (|| {
        let mut reply = engine.call_streaming(manifest, options, |sender| {
            for part in parts {
                let s = trace::open(Kind::PartSend);
                let r = sender.send(part);
                trace::close(s);
                r?;
            }
            sent = sender.parts_sent();
            Ok(())
        })?;
        trace::call_returned(&span);
        let fields = verify_fields(reply.envelope());
        let mut extra = 0;
        while reply.next_part()?.is_some() {
            extra += 1;
        }
        Ok::<_, SoapError>((fields, extra))
    })();
    trace::close_call(span);
    let latency = start.elapsed();
    let verdict = r.map_err(|e| e.to_string()).and_then(|(fields, extra)| {
        let (ok, count, got_parts) = fields?;
        check_verify(ok, count, n)?;
        let want = parts.len() as u64;
        if sent != want || got_parts != Some(want as i64) || extra != 0 {
            return Err(format!(
                "streamed {sent} of {want} parts, server saw {got_parts:?}, reply had {extra} parts"
            ));
        }
        Ok(())
    });
    (latency, engine.last_call_attempts(), verdict)
}

/// `(ok, count, parts)` of a `VerifyResponse` envelope.
fn verify_fields(env: &SoapEnvelope) -> Result<(bool, i64, Option<i64>), String> {
    let body = env.body_element().ok_or("reply has no body")?;
    let ok = match body.child_value("ok") {
        Some(AtomicValue::Bool(b)) => *b,
        other => return Err(format!("reply ok field is {other:?}")),
    };
    let count = match body.child_value("count") {
        Some(AtomicValue::I64(c)) => *c,
        other => return Err(format!("reply count field is {other:?}")),
    };
    let parts = match body.child_value("parts") {
        Some(AtomicValue::I64(p)) => Some(*p),
        _ => None,
    };
    Ok((ok, count, parts))
}

fn check_verify(ok: bool, count: i64, n: usize) -> Result<(), String> {
    if ok && count == n as i64 {
        Ok(())
    } else {
        Err(format!(
            "Verify replied ok={ok} count={count}, want ok=true count={n}"
        ))
    }
}

fn check_download(env: &SoapEnvelope, ds: &Dataset) -> Result<(), String> {
    let body = env.body_element().ok_or("reply has no body")?;
    let (index, values) = body_arrays(body).map_err(|e| e.to_string())?;
    let same_values = values.len() == ds.values.len()
        && values
            .iter()
            .zip(&ds.values)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if index == ds.index.as_slice() && same_values {
        Ok(())
    } else {
        Err("downloaded dataset differs from the one sent".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_corpus() {
        for w in &WORKLOADS {
            let small = Workload {
                pairs: w.pairs.min(1_000),
                datasets: 3,
                ..*w
            };
            let a = corpus_bytes(&corpus(&small, 7));
            let b = corpus_bytes(&corpus(&small, 7));
            let c = corpus_bytes(&corpus(&small, 8));
            assert!(!a.is_empty());
            assert_eq!(a, b, "{}: same seed, same bytes", w.name);
            assert_ne!(a, c, "{}: another seed, other bytes", w.name);
        }
    }

    #[test]
    fn datasets_within_a_corpus_differ() {
        let w = workload("bulk-bxsa").unwrap();
        let small = Workload { pairs: 100, ..w };
        let c = corpus(&small, 1);
        assert_ne!(c[0].values, c[1].values);
        assert!(c
            .iter()
            .all(|d| bxsoap::verify_dataset(&d.index, &d.values)));
    }

    #[test]
    fn lane_rotation_is_fixed() {
        let w = workload("bulk-bxsa").unwrap();
        let lanes: Vec<&str> = (0..8).map(|i| w.schedule(i).0.name()).collect();
        assert_eq!(
            lanes,
            [
                "tree",
                "typed",
                "streamed",
                "checksummed",
                "tree",
                "typed",
                "streamed",
                "checksummed"
            ]
        );
        let datasets: Vec<usize> = (0..9).map(|i| w.schedule(i).1).collect();
        assert_eq!(datasets, [0, 0, 0, 0, 1, 1, 1, 1, 2]);
        // Wraps around the corpus.
        assert_eq!(w.schedule(4 * 6).1, 0);
        let x = workload("xml-interop").unwrap();
        assert_eq!(x.schedule(0), (Lane::Upload, 0));
        assert_eq!(
            x.schedule(1),
            (Lane::Download, 0),
            "a download fetches what was uploaded"
        );
        let r = workload("rpc-small").unwrap();
        assert_eq!(r.schedule(3).0, Lane::Http);
        // Every workload's mix is exact over any whole number of rounds.
        for w in &WORKLOADS {
            let n = w.lanes.len() as u64;
            for lane in w.lanes {
                let hits = (0..n * 10).filter(|&i| w.schedule(i).0 == *lane).count();
                assert_eq!(hits, 10);
            }
        }
    }

    #[test]
    fn streamed_datasets_split_into_the_declared_parts() {
        let w = workload("bulk-bxsa").unwrap();
        let c = corpus(
            &Workload {
                pairs: 1_000,
                datasets: 1,
                ..w
            },
            3,
        );
        let (_, parts) = c[0].stream.as_ref().unwrap();
        assert_eq!(parts.len(), STREAM_PARTS);
    }

    #[test]
    fn checksum_trailer_is_recognised() {
        use soap::EncodingPolicy;
        let c = corpus(
            &Workload {
                pairs: 100,
                datasets: 1,
                ..workload("bulk-bxsa").unwrap()
            },
            5,
        );
        let doc = c[0].tree.as_ref().unwrap().to_document();
        let plain = BxsaEncoding::default().encode(&doc).unwrap();
        let summed = BxsaEncoding::default()
            .with_checksum()
            .encode(&doc)
            .unwrap();
        assert_eq!(summed.len(), plain.len() + crate::layers::TRAILER_LEN);
        assert!(crate::layers::trailer_ok(&summed, true));
        assert!(!crate::layers::trailer_ok(&plain, false));
        let mut corrupt = summed.clone();
        corrupt[10] ^= 1;
        assert!(crate::layers::trailer_ok(&corrupt, false));
        assert!(!crate::layers::trailer_ok(&corrupt, true));
    }
}
