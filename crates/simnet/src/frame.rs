//! Frames: the unit of delivery on the simulated network.

use std::any::Any;
use std::fmt;

use crate::host::HostId;

/// A network address: host plus port (a demultiplexing key on the NIC).
///
/// Ports below 1024 are conventionally used by listeners in this simulator,
/// but nothing enforces that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr {
    /// The host the port lives on.
    pub host: HostId,
    /// The port number on that host.
    pub port: u32,
}

impl Addr {
    /// Creates an address from host and port.
    pub fn new(host: HostId, port: u32) -> Addr {
        Addr { host, port }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.host, self.port)
    }
}

/// What travels with every frame besides its payload.
///
/// 24 bytes: a delivery event holds the network handle (8 B), this header
/// and the payload by value, so a 64-byte payload (an RDMA packet) keeps the
/// whole event within its 96-byte in-place slot. A `usize` size would make
/// it 32 and push every RDMA frame's event onto the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    pub src: Addr,
    pub dst: Addr,
    pub wire_bytes: u32,
    pub corrupted: bool,
}

impl Header {
    /// A clean header.
    ///
    /// # Panics
    ///
    /// Panics if `wire_bytes` does not fit in a `u32`.
    pub fn new(src: Addr, dst: Addr, wire_bytes: usize) -> Header {
        let wire_bytes = u32::try_from(wire_bytes)
            .unwrap_or_else(|_| panic!("a {wire_bytes}-byte frame exceeds 4 GiB"));
        Header {
            src,
            dst,
            wire_bytes,
            corrupted: false,
        }
    }
}

/// A frame being delivered: its header, and a borrow of the payload.
///
/// [`Network::send`](crate::Network::send) keeps a payload typed, by value,
/// inside its delivery event; only at delivery is it erased, into this view
/// of an `Option<T>` on the delivering stack frame. The bound handler takes
/// it out with [`into_payload`](Frame::into_payload), within the call.
/// Keeping payloads typed lets every protocol layer define its own message
/// types without a central enum, while the real bytes still travel end to
/// end so data integrity is genuine.
pub struct Frame<'a> {
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Size charged on the wire (payload + protocol headers), in bytes.
    pub wire_bytes: usize,
    /// Set by the fault plane when the frame's payload was damaged in
    /// flight. Protocol layers that carry real bytes honour this by
    /// flipping payload bits at delivery; integrity checks (MACs,
    /// checksums) downstream are what must catch it.
    pub corrupted: bool,
    /// The `Option<T>` holding the payload, still `Some`.
    payload: &'a mut dyn Any,
}

impl<'a> Frame<'a> {
    /// A view of `payload` (`Some`) travelling under `header`.
    pub(crate) fn view<T: Any>(header: Header, payload: &'a mut Option<T>) -> Frame<'a> {
        Frame {
            src: header.src,
            dst: header.dst,
            wire_bytes: header.wire_bytes as usize,
            corrupted: header.corrupted,
            payload,
        }
    }

    /// Takes the payload out as a `T`, consuming the frame.
    ///
    /// # Errors
    ///
    /// Returns the frame unchanged if the payload is not a `T`.
    pub fn into_payload<T: Any>(self) -> Result<T, Frame<'a>> {
        match self.payload.downcast_mut::<Option<T>>() {
            Some(slot) => Ok(slot.take().expect("a frame's payload is taken once")),
            None => Err(self),
        }
    }
}

impl fmt::Debug for Frame<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frame")
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("wire_bytes", &self.wire_bytes)
            .field("corrupted", &self.corrupted)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(wire_bytes: usize) -> Header {
        Header::new(Addr::new(HostId(0), 1), Addr::new(HostId(1), 2), wire_bytes)
    }

    #[test]
    fn addr_display() {
        let a = Addr::new(HostId(3), 80);
        assert_eq!(a.to_string(), "h3:80");
    }

    #[test]
    fn header_fits_three_words() {
        assert_eq!(std::mem::size_of::<Header>(), 24);
    }

    #[test]
    #[should_panic(expected = "exceeds 4 GiB")]
    fn oversized_frame_panics() {
        header(u32::MAX as usize + 1);
    }

    #[test]
    fn payload_downcast_roundtrip() {
        let mut payload = Some(String::from("hello"));
        let f = Frame::view(header(100), &mut payload);
        let s: String = f.into_payload().expect("payload is a String");
        assert_eq!(s, "hello");
        assert_eq!(payload, None);
    }

    #[test]
    fn payload_downcast_wrong_type_returns_frame() {
        let mut payload = Some(42u64);
        let f = Frame::view(header(100), &mut payload);
        let f = f.into_payload::<String>().expect_err("not a String");
        assert_eq!(f.wire_bytes, 100);
        let v: u64 = f.into_payload().expect("payload is u64");
        assert_eq!(v, 42);
    }

    #[test]
    fn clone_duplicates_payload() {
        // The fault plane's duplicate: the header is `Copy`, the payload a
        // plain `T::clone`.
        let h = header(100);
        let (mut original, mut copy) = (Some(vec![1u8, 2, 3]), None);
        copy.clone_from(&original);
        let v1: Vec<u8> = Frame::view(h, &mut original).into_payload().expect("bytes");
        let v2: Vec<u8> = Frame::view(h, &mut copy)
            .into_payload()
            .expect("same bytes");
        assert_eq!(v1, v2);
    }
}
