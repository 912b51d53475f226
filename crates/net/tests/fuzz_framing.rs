//! Robustness: the framer and header decoder treat the network as
//! untrusted input — arbitrary bytes must produce errors, never panics.

use bytes::Bytes;
use proptest::prelude::*;
use zygos_net::packet::{RpcHeader, RPC_HEADER_LEN};
use zygos_net::wire::Framer;

proptest! {
    /// Arbitrary byte soup through the framer: no panic, and once an error
    /// is reported the framer stays poisoned. The soup is fed as slices of
    /// one buffer, like received segments, so both the in-segment and the
    /// reassembly path see it.
    #[test]
    fn framer_never_panics_on_garbage(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..32),
    ) {
        let wire = Bytes::from(chunks.concat());
        let mut f = Framer::new();
        let mut errored = false;
        let mut off = 0;
        for chunk in &chunks {
            let end = off + chunk.len();
            let segment = wire.slice(off..end);
            off = end;
            if f.feed(&segment).is_err() {
                errored = true;
            }
            match f.drain() {
                Ok(_) => {}
                Err(_) => errored = true,
            }
            if errored {
                prop_assert!(f.is_poisoned());
            }
        }
    }

    /// Header decode on arbitrary (sufficiently long) bytes never panics.
    #[test]
    fn header_decode_total(bytes in proptest::collection::vec(any::<u8>(), RPC_HEADER_LEN..64)) {
        let mut buf = &bytes[..];
        let _ = RpcHeader::decode(&mut buf);
    }
}
