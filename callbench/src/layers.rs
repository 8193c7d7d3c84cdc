//! Policy wrappers through which the engine and the services reach the
//! codecs and the transport. Each forwards to the real policy unchanged
//! and, while tracing, times the call into it.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

use bxdm::{Document, Element};
use soap::{
    BindingPolicy, DeadlineHeader, EncodingPolicy, FromBxsa, PartScratch, SoapResult,
    StreamEncoding, ToBxsa, TypedDecode, TypedEncoding, TypedRequest, TypedScratch,
};

use crate::trace::{self, Entry, Kind};

/// An encoding policy that times every call into `inner`.
#[derive(Debug, Clone)]
pub struct Traced<E> {
    inner: E,
    /// The policy is BXSA (otherwise XML).
    bxsa: bool,
}

impl Traced<soap::BxsaEncoding> {
    /// Wrap a BXSA encoding.
    pub fn bxsa(inner: soap::BxsaEncoding) -> Self {
        Traced { inner, bxsa: true }
    }
}

impl Traced<soap::XmlEncoding> {
    /// Wrap an XML encoding.
    pub fn xml(inner: soap::XmlEncoding) -> Self {
        Traced { inner, bxsa: false }
    }
}

impl<E> Traced<E> {
    fn encode_kind(&self, typed: bool) -> Kind {
        match (self.bxsa, typed) {
            (false, _) => Kind::XmlWrite,
            (true, false) => Kind::BxsaEncode,
            (true, true) => Kind::TypedEncode,
        }
    }

    fn decode_kind(&self, typed: bool) -> Kind {
        match (self.bxsa, typed) {
            (false, _) => Kind::XmlParse,
            (true, false) => Kind::BxsaDecode,
            (true, true) => Kind::TypedDecode,
        }
    }
}

impl<E: EncodingPolicy> EncodingPolicy for Traced<E> {
    fn content_type(&self) -> &'static str {
        self.inner.content_type()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn encode_into(&self, doc: &Document, out: &mut Vec<u8>) -> SoapResult<()> {
        let span = trace::open_codec(self.encode_kind(false), Entry::TreeEncode);
        let r = self.inner.encode_into(doc, out);
        trace::close_codec(span, Entry::TreeEncode, out.len());
        r
    }

    fn decode_into(&self, bytes: &[u8], doc: &mut Document) -> SoapResult<()> {
        let span = trace::open_codec(self.decode_kind(false), Entry::TreeDecode);
        let r = self.inner.decode_into(bytes, doc);
        trace::close_codec(span, Entry::TreeDecode, bytes.len());
        r
    }
}

impl<E: TypedEncoding> TypedEncoding for Traced<E> {
    fn encode_typed<M: ToBxsa>(
        &self,
        msg: &M,
        deadline: Option<&DeadlineHeader>,
        scratch: &mut TypedScratch,
        out: &mut Vec<u8>,
    ) -> SoapResult<()> {
        let span = trace::open_codec(self.encode_kind(true), Entry::Other);
        let r = self.inner.encode_typed(msg, deadline, scratch, out);
        trace::close_codec(span, Entry::Other, out.len());
        r
    }

    fn decode_typed_reply<M: FromBxsa>(
        &self,
        bytes: &[u8],
        out: &mut M,
    ) -> SoapResult<TypedDecode> {
        let span = trace::open_codec(self.decode_kind(true), Entry::Other);
        let r = self.inner.decode_typed_reply(bytes, out);
        trace::close_codec(span, Entry::Other, bytes.len());
        r
    }

    fn decode_typed_request<M: FromBxsa>(
        &self,
        bytes: &[u8],
        out: &mut M,
    ) -> SoapResult<TypedRequest> {
        let span = trace::open_codec(self.decode_kind(true), Entry::Other);
        let r = self.inner.decode_typed_request(bytes, out);
        trace::close_codec(span, Entry::Other, bytes.len());
        r
    }

    fn peek_operation<'a>(&self, bytes: &'a [u8]) -> Option<&'a str> {
        self.inner.peek_operation(bytes)
    }
}

impl<E: StreamEncoding> StreamEncoding for Traced<E> {
    fn encode_part_into(&self, part: &Element, out: &mut Vec<u8>) -> SoapResult<()> {
        let span = trace::open_codec(self.encode_kind(false), Entry::Other);
        let r = self.inner.encode_part_into(part, out);
        trace::close_codec(span, Entry::Other, out.len());
        r
    }

    fn decode_part<'s>(
        &self,
        bytes: &[u8],
        scratch: &'s mut PartScratch,
    ) -> SoapResult<&'s Element> {
        let span = trace::open_codec(self.decode_kind(false), Entry::Other);
        let r = self.inner.decode_part(bytes, scratch);
        trace::close_codec(span, Entry::Other, bytes.len());
        r
    }
}

/// A client binding shared by several engines, so that lanes with
/// different encodings ride one connection; times every exchange.
pub struct Wire<B> {
    inner: Rc<RefCell<B>>,
    /// Check that every request ends in a CRC32C trailer frame.
    expect_trailer: bool,
    /// Requests whose trailer check failed, shared with the caller.
    trailer_failures: Rc<Cell<u64>>,
}

impl<B> Wire<B> {
    /// A binding over `inner`.
    pub fn new(inner: Rc<RefCell<B>>) -> Self {
        Wire {
            inner,
            expect_trailer: false,
            trailer_failures: Rc::default(),
        }
    }

    /// A binding over `inner` that checks each request's checksum
    /// trailer and counts failures into `failures`.
    pub fn checking_trailer(inner: Rc<RefCell<B>>, failures: Rc<Cell<u64>>) -> Self {
        Wire {
            inner,
            expect_trailer: true,
            trailer_failures: failures,
        }
    }
}

/// Layout of the checksum frame BXSA appends: prefix byte (byte order
/// and frame type 0x08), one-byte size (7), algorithm byte (0x01 =
/// CRC32C), then the CRC of every preceding byte in the frame's byte
/// order.
pub const TRAILER_LEN: usize = 7;

/// Recompute the CRC in every trailer check, not only while tracing.
static RECOMPUTE_CRC: AtomicBool = AtomicBool::new(false);

/// Make every trailer check recompute the CRC (set during warm-up, so
/// each run checks the trailer's value at least once).
pub fn set_recompute_crc(on: bool) {
    RECOMPUTE_CRC.store(on, Relaxed);
}

/// Whether `request` ends in a well-formed CRC32C trailer frame. With
/// `recompute`, the stored CRC is also checked against a fresh
/// `bxsa::crc32c` pass over the covered bytes, timed as [`Kind::Crc`].
pub fn trailer_ok(request: &[u8], recompute: bool) -> bool {
    let Some(at) = request.len().checked_sub(TRAILER_LEN) else {
        return false;
    };
    let t = &request[at..];
    let Ok((order, bxsa::FrameType::Checksum)) = bxsa::frame::parse_prefix(t[0], at) else {
        return false;
    };
    if t[1] as usize != TRAILER_LEN || t[2] != 0x01 {
        return false;
    }
    if !recompute {
        return true;
    }
    let raw = [t[3], t[4], t[5], t[6]];
    let stored = match order {
        xbs::ByteOrder::Big => u32::from_be_bytes(raw),
        _ => u32::from_le_bytes(raw),
    };
    let span = trace::open(Kind::Crc);
    let computed = bxsa::crc32c::crc32c(&request[..at]);
    trace::close(span);
    stored == computed
}

impl<B: BindingPolicy> BindingPolicy for Wire<B> {
    fn send_request(&mut self, payload: &[u8], content_type: &str) -> SoapResult<()> {
        self.inner.borrow_mut().send_request(payload, content_type)
    }

    fn receive_response_into(&mut self, out: &mut Vec<u8>) -> SoapResult<()> {
        self.inner.borrow_mut().receive_response_into(out)
    }

    fn exchange_into(
        &mut self,
        payload: &[u8],
        content_type: &str,
        out: &mut Vec<u8>,
    ) -> SoapResult<()> {
        if self.expect_trailer
            && !trailer_ok(payload, trace::is_tracing() || RECOMPUTE_CRC.load(Relaxed))
        {
            self.trailer_failures.set(self.trailer_failures.get() + 1);
        }
        let span = trace::open(Kind::Exchange);
        let r = self
            .inner
            .borrow_mut()
            .exchange_into(payload, content_type, out);
        trace::close(span);
        r
    }

    fn set_call_deadline(&mut self, deadline: Option<soap::Deadline>) {
        self.inner.borrow_mut().set_call_deadline(deadline);
    }
}
