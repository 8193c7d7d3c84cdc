//! Spans recorded from the benchmark's own code around the calls it makes
//! into each layer, plus a counting allocator.
//!
//! Tracing is off unless [`set_tracing`] turned it on; then every span
//! costs two clock reads and a few relaxed atomics. Each thread keeps a
//! small stack of open spans so a span's *self* time is its duration
//! minus its children's.
//!
//! The caller thread and the server threads share one CPU, and the caller
//! blocks while the server works, so a caller span also covers whatever
//! server work ran inside it. Server spans that close with no open parent
//! add their time to a process-wide "server busy" clock, and a caller
//! span subtracts the server time that accrued while it was open. With
//! that, the self times of all spans of a call add up to the call's wall
//! time, and nothing is counted twice.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// What a span or gap measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One engine call (`call_with`, `call_typed_into`, or
    /// `call_streaming` plus draining its reply), caller side.
    Call,
    /// `SoapEnvelope::to_document` and its surroundings: the gap between
    /// the start of a call (or the end of a server handler) and the
    /// tree encoder starting.
    EnvBuild,
    /// `SoapEnvelope::from_document` and its surroundings: the gap
    /// between the tree decoder finishing and the call returning (or the
    /// server handler starting).
    EnvExtract,
    /// `EncodingPolicy::encode_into` / `StreamEncoding::encode_part_into`
    /// on BXSA.
    BxsaEncode,
    /// `EncodingPolicy::decode_into` / `StreamEncoding::decode_part` on
    /// BXSA.
    BxsaDecode,
    /// `TypedEncoding::encode_typed` on BXSA.
    TypedEncode,
    /// `TypedEncoding::decode_typed_reply` / `decode_typed_request` on
    /// BXSA.
    TypedDecode,
    /// Any encode on the XML encoding.
    XmlWrite,
    /// Any decode on the XML encoding.
    XmlParse,
    /// `BindingPolicy::exchange_into`.
    Exchange,
    /// `PartSender::send`.
    PartSend,
    /// `SoapService::handle_bytes_deadline` inside a server handler.
    Service,
    /// The application handler a service dispatches to.
    Handler,
    /// One `bxsa::crc32c` pass over a checksummed request, made by the
    /// benchmark itself to time the kernel.
    Crc,
}

const KINDS: usize = 14;

impl Kind {
    fn index(self) -> usize {
        self as usize
    }
}

struct Counters {
    self_ns: [AtomicU64; KINDS],
    raw_ns: [AtomicU64; KINDS],
    spans: [AtomicU64; KINDS],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

static COUNTERS: Counters = Counters {
    self_ns: [ZERO; KINDS],
    raw_ns: [ZERO; KINDS],
    spans: [ZERO; KINDS],
};
static TRACING: AtomicBool = AtomicBool::new(false);
static SERVER_BUSY_NS: AtomicU64 = AtomicU64::new(0);
static WIRE_OUT: AtomicU64 = AtomicU64::new(0);
static WIRE_IN: AtomicU64 = AtomicU64::new(0);
static ALLOCS: [AtomicU64; 2] = [ZERO; 2];
static ALLOC_BYTES: [AtomicU64; 2] = [ZERO; 2];

const CALLER: usize = 0;
const SERVER: usize = 1;
const MAX_DEPTH: usize = 8;

thread_local! {
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
    static COUNT_CALLER_ALLOCS: Cell<bool> = const { Cell::new(false) };
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static CHILD_NS: [Cell<u64>; MAX_DEPTH] = const { [const { Cell::new(0) }; MAX_DEPTH] };
    static CALL_START: Cell<Option<Instant>> = const { Cell::new(None) };
    static DECODE_END: Cell<Option<Instant>> = const { Cell::new(None) };
    static HANDLER_END: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Mark the current thread as the caller (the one closed-loop client).
pub fn mark_caller_thread() {
    IS_CALLER.with(|c| c.set(true));
}

fn is_caller() -> bool {
    IS_CALLER.with(Cell::get)
}

/// Turn span recording and allocation counting on or off.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Relaxed);
}

/// Whether spans are being recorded.
pub fn is_tracing() -> bool {
    TRACING.load(Relaxed)
}

/// An open span; close it with [`close`].
pub struct Span {
    kind: Kind,
    start: Instant,
    server_busy_at_start: u64,
}

/// Open a span of `kind` on this thread (`None` while tracing is off).
pub fn open(kind: Kind) -> Option<Span> {
    if !is_tracing() {
        return None;
    }
    let depth = DEPTH.with(Cell::get);
    assert!(depth < MAX_DEPTH, "span stack deeper than {MAX_DEPTH}");
    CHILD_NS.with(|c| c[depth].set(0));
    DEPTH.with(|d| d.set(depth + 1));
    Some(Span {
        kind,
        start: Instant::now(),
        server_busy_at_start: SERVER_BUSY_NS.load(Relaxed),
    })
}

/// Close a span opened by [`open`].
pub fn close(span: Option<Span>) {
    let Some(span) = span else { return };
    let raw = span.start.elapsed().as_nanos() as u64;
    let net = if is_caller() {
        let server = SERVER_BUSY_NS.load(Relaxed) - span.server_busy_at_start;
        raw.saturating_sub(server)
    } else {
        raw
    };
    let depth = DEPTH.with(Cell::get) - 1;
    DEPTH.with(|d| d.set(depth));
    let children = CHILD_NS.with(|c| c[depth].get());
    let k = span.kind.index();
    COUNTERS.self_ns[k].fetch_add(net.saturating_sub(children), Relaxed);
    COUNTERS.raw_ns[k].fetch_add(raw, Relaxed);
    COUNTERS.spans[k].fetch_add(1, Relaxed);
    credit_parent(depth, net);
}

/// Charge `ns` to the enclosing span, or to the server busy clock when a
/// server-side interval has no enclosing span.
fn credit_parent(depth: usize, ns: u64) {
    if depth > 0 {
        CHILD_NS.with(|c| c[depth - 1].set(c[depth - 1].get() + ns));
    } else if !is_caller() {
        SERVER_BUSY_NS.fetch_add(ns, Relaxed);
    }
}

/// Record an interval between two spans as `kind`.
fn gap(kind: Kind, since: Instant, now: Instant) {
    let ns = now.duration_since(since).as_nanos() as u64;
    let k = kind.index();
    COUNTERS.self_ns[k].fetch_add(ns, Relaxed);
    COUNTERS.raw_ns[k].fetch_add(ns, Relaxed);
    COUNTERS.spans[k].fetch_add(1, Relaxed);
    credit_parent(DEPTH.with(Cell::get), ns);
}

/// Open the caller's span around one engine call, and start counting
/// the caller's allocations.
pub fn open_call() -> Option<Span> {
    let span = open(Kind::Call)?;
    CALL_START.with(|c| c.set(Some(span.start)));
    DECODE_END.with(|c| c.set(None));
    COUNT_CALLER_ALLOCS.with(|c| c.set(true));
    Some(span)
}

/// The engine call returned: record the envelope-extract gap after the
/// last tree decode, if there was one.
pub fn call_returned(span: &Option<Span>) {
    if span.is_none() {
        return;
    }
    if let Some(end) = DECODE_END.with(Cell::take) {
        gap(Kind::EnvExtract, end, Instant::now());
    }
}

/// Close the caller's call span and stop counting its allocations.
pub fn close_call(span: Option<Span>) {
    COUNT_CALLER_ALLOCS.with(|c| c.set(false));
    CALL_START.with(|c| c.set(None));
    close(span);
}

/// Which codec entry point a span covers; decides the envelope gaps.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// Whole-document encode of an envelope tree.
    TreeEncode,
    /// Whole-document decode into an envelope tree.
    TreeDecode,
    /// Anything else (typed, per-part).
    Other,
}

/// Open a codec span. A tree encode first records the envelope-build gap
/// since the call started (caller) or the handler ended (server).
pub fn open_codec(kind: Kind, entry: Entry) -> Option<Span> {
    if !is_tracing() {
        return None;
    }
    let now = Instant::now();
    let since = if is_caller() {
        CALL_START.with(Cell::take)
    } else {
        HANDLER_END.with(Cell::take)
    };
    DECODE_END.with(|c| c.set(None));
    if let (Some(since), Entry::TreeEncode) = (since, entry) {
        gap(Kind::EnvBuild, since, now);
    }
    open(kind)
}

/// Close a codec span; `wire_bytes` is the message size it produced or
/// consumed, counted as caller traffic when on the caller thread.
pub fn close_codec(span: Option<Span>, entry: Entry, wire_bytes: usize) {
    if span.is_none() {
        return;
    }
    let kind = span.as_ref().map(|s| s.kind);
    close(span);
    if entry == Entry::TreeDecode {
        DECODE_END.with(|c| c.set(Some(Instant::now())));
    }
    if is_caller() {
        let encode = matches!(
            kind,
            Some(Kind::BxsaEncode | Kind::TypedEncode | Kind::XmlWrite)
        );
        let wire = if encode { &WIRE_OUT } else { &WIRE_IN };
        wire.fetch_add(wire_bytes as u64, Relaxed);
    }
}

/// Open a server handler span, recording the envelope-extract gap since
/// the tree decode that fed it.
pub fn open_handler() -> Option<Span> {
    if !is_tracing() {
        return None;
    }
    if let Some(end) = DECODE_END.with(Cell::take) {
        gap(Kind::EnvExtract, end, Instant::now());
    }
    open(Kind::Handler)
}

/// Close a handler span; a tree encode that follows records the
/// envelope-build gap from here.
pub fn close_handler(span: Option<Span>) {
    if span.is_some() {
        close(span);
        HANDLER_END.with(|c| c.set(Some(Instant::now())));
    }
}

/// Everything accumulated so far.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub self_ns: [u64; KINDS],
    pub raw_ns: [u64; KINDS],
    pub spans: [u64; KINDS],
    pub server_busy_ns: u64,
    pub wire_out: u64,
    pub wire_in: u64,
    pub caller_allocs: u64,
    pub caller_alloc_bytes: u64,
    pub server_allocs: u64,
    pub server_alloc_bytes: u64,
}

impl Totals {
    /// Read every counter.
    pub fn now() -> Totals {
        let read = |a: &[AtomicU64; KINDS]| std::array::from_fn(|i| a[i].load(Relaxed));
        Totals {
            self_ns: read(&COUNTERS.self_ns),
            raw_ns: read(&COUNTERS.raw_ns),
            spans: read(&COUNTERS.spans),
            server_busy_ns: SERVER_BUSY_NS.load(Relaxed),
            wire_out: WIRE_OUT.load(Relaxed),
            wire_in: WIRE_IN.load(Relaxed),
            caller_allocs: ALLOCS[CALLER].load(Relaxed),
            caller_alloc_bytes: ALLOC_BYTES[CALLER].load(Relaxed),
            server_allocs: ALLOCS[SERVER].load(Relaxed),
            server_alloc_bytes: ALLOC_BYTES[SERVER].load(Relaxed),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let sub = |a: &[u64; KINDS], b: &[u64; KINDS]| std::array::from_fn(|i| a[i] - b[i]);
        Totals {
            self_ns: sub(&self.self_ns, &earlier.self_ns),
            raw_ns: sub(&self.raw_ns, &earlier.raw_ns),
            spans: sub(&self.spans, &earlier.spans),
            server_busy_ns: self.server_busy_ns - earlier.server_busy_ns,
            wire_out: self.wire_out - earlier.wire_out,
            wire_in: self.wire_in - earlier.wire_in,
            caller_allocs: self.caller_allocs - earlier.caller_allocs,
            caller_alloc_bytes: self.caller_alloc_bytes - earlier.caller_alloc_bytes,
            server_allocs: self.server_allocs - earlier.server_allocs,
            server_alloc_bytes: self.server_alloc_bytes - earlier.server_alloc_bytes,
        }
    }

    /// Self time of `kind`, in nanoseconds.
    pub fn self_of(&self, kind: Kind) -> u64 {
        self.self_ns[kind.index()]
    }

    /// Wall time of `kind`'s spans, in nanoseconds.
    pub fn raw_of(&self, kind: Kind) -> u64 {
        self.raw_ns[kind.index()]
    }

    /// Number of `kind` spans.
    pub fn spans_of(&self, kind: Kind) -> u64 {
        self.spans[kind.index()]
    }

    /// Sum of every phase's self time, the benchmark's own CRC probe
    /// included (it runs inside the call span).
    pub fn phase_sum_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

/// The global allocator of the benchmark binary: the system allocator,
/// counting allocations per side while tracing. The caller's are counted
/// only inside an engine call; every other thread is a server thread.
pub struct CountingAlloc;

fn note_alloc(size: usize) {
    if !is_tracing() {
        return;
    }
    let side = match (
        IS_CALLER.try_with(Cell::get),
        COUNT_CALLER_ALLOCS.try_with(Cell::get),
    ) {
        (Ok(true), Ok(true)) => CALLER,
        (Ok(true), _) => return,
        _ => SERVER,
    };
    ALLOCS[side].fetch_add(1, Relaxed);
    ALLOC_BYTES[side].fetch_add(size as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only atomics and const-initialised
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}
