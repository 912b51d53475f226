//! Offline stand-in for the `bytes` crate.
//!
//! The container this repository builds in has no network access to
//! crates.io, so the workspace vendors a minimal, API-compatible subset of
//! `bytes` — exactly the operations the other crates use. Semantics match
//! the real crate for that subset: [`Bytes`] is a cheaply cloneable,
//! immutable view into shared storage; [`BytesMut`] is a growable buffer
//! with an amortized-O(1) front cursor for `advance`/`split_to`.
//! [`BytesMut::freeze`] hands its storage to a [`Bytes`] without
//! allocating, and [`Bytes::try_into_mut`] hands the storage of the last
//! view back as a [`BytesMut`].

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Shared Debug impl body for the two buffer types.
macro_rules! fmt_bytes_debug {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "b\"")?;
            for &b in self.as_slice() {
                if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\x{b:02x}")?;
                }
            }
            write!(f, "\"")
        }
    };
}

/// Shared storage behind a [`Bytes`]: one block that holds the counts and
/// the bytes (copied in, or frozen from a [`BytesMut`]), a `Vec` that was
/// moved in (its buffer is kept as it is; only the counts are allocated),
/// or none at all for [`Bytes::new`].
#[derive(Clone, Default)]
enum Storage {
    /// No bytes and no counts, like the real crate's static empty
    /// `Bytes`: making, cloning and dropping one touches no shared
    /// count (an empty `Arc<[u8]>` is one static every thread counts on).
    #[default]
    Empty,
    Block(Arc<[u8]>),
    Vec(Arc<Vec<u8>>),
}

/// A cheaply cloneable, contiguous, immutable slice of memory.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Storage,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Creates `Bytes` from a static slice.
    ///
    /// (The real crate borrows the static data; this shim copies it once,
    /// which is indistinguishable through the API.)
    pub fn from_static(b: &'static [u8]) -> Self {
        Bytes::copy_from_slice(b)
    }

    /// Creates `Bytes` by copying a slice.
    pub fn copy_from_slice(b: &[u8]) -> Self {
        Bytes {
            start: 0,
            end: b.len(),
            data: Storage::Block(Arc::from(b)),
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view of `self` for the given range (indices are
    /// relative to this view, like the real crate's `Bytes::slice`).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// True if no other `Bytes` shares this view's storage, so
    /// [`Bytes::try_into_mut`] would succeed.
    pub fn is_unique(&self) -> bool {
        match &self.data {
            Storage::Empty => false,
            Storage::Block(block) => Arc::strong_count(block) == 1,
            Storage::Vec(vec) => Arc::strong_count(vec) == 1,
        }
    }

    /// Copies the view into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Turns the view into a [`BytesMut`] holding the same bytes if no
    /// other `Bytes` shares its storage; otherwise hands `self` back
    /// unchanged.
    ///
    /// A block (storage copied in, or frozen from a [`BytesMut`]) is taken
    /// over as it is: the buffer writes into the same allocation, and
    /// freezing it again allocates nothing. A `Vec` that was moved in is
    /// copied out into a block.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let Bytes {
            mut data,
            start,
            end,
        } = self;
        let unique = match &mut data {
            Storage::Empty => false,
            Storage::Block(block) => Arc::get_mut(block).is_some(),
            Storage::Vec(vec) => Arc::get_mut(vec).is_some(),
        };
        match data {
            Storage::Block(block) if unique => Ok(BytesMut {
                block,
                head: start,
                len: end,
            }),
            Storage::Vec(vec) if unique => Ok(BytesMut::from(&vec[start..end])),
            data => Err(Bytes { data, start, end }),
        }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.data {
            Storage::Empty => &[],
            Storage::Block(data) => &data[self.start..self.end],
            Storage::Vec(data) => &data[self.start..self.end],
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl fmt::Debug for Bytes {
    fmt_bytes_debug!();
}

impl From<Vec<u8>> for Bytes {
    /// Takes over the vector's buffer: nothing is copied.
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            start: 0,
            end: v.len(),
            data: Storage::Vec(Arc::new(v)),
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Self {
        Bytes::copy_from_slice(b)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer with a consuming front cursor.
///
/// The buffer is one shared block, the same kind a [`Bytes`] views, held
/// by nothing else while the `BytesMut` lives: `block[head..len]` are the
/// unconsumed bytes and `block[len..]` is spare capacity. [`freeze`]
/// hands the block over as it is.
///
/// [`freeze`]: BytesMut::freeze
#[derive(Default)]
pub struct BytesMut {
    block: Arc<[u8]>,
    /// Bytes before `head` have been consumed by `advance`/`split_to`.
    head: usize,
    /// End of the written bytes.
    len: usize,
}

impl Clone for BytesMut {
    /// Copies the unconsumed bytes into a block of their own.
    fn clone(&self) -> Self {
        BytesMut::from(self.as_slice())
    }
}

impl From<&[u8]> for BytesMut {
    fn from(b: &[u8]) -> Self {
        BytesMut {
            block: Arc::from(b),
            head: 0,
            len: b.len(),
        }
    }
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            block: zeroed(cap),
            head: 0,
            len: 0,
        }
    }

    /// Reserves space for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        if self.len + additional > self.block.len() {
            self.grow(additional);
        }
    }

    /// Number of unconsumed bytes.
    pub fn len(&self) -> usize {
        self.len - self.head
    }

    /// True if no unconsumed bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, b: &[u8]) {
        self.compact_if_large();
        self.spare(b.len()).copy_from_slice(b);
    }

    /// Consumes the first `n` bytes (also exposed as [`Buf::advance`]).
    fn consume(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end");
        self.head += n;
        self.compact_if_large();
    }

    /// Splits off and returns the first `n` bytes.
    pub fn split_to(&mut self, n: usize) -> BytesMut {
        assert!(n <= self.len(), "split_to past end");
        let front = BytesMut::from(&self.as_slice()[..n]);
        self.consume(n);
        front
    }

    /// Shortens the buffer to at most `n` unconsumed bytes.
    pub fn truncate(&mut self, n: usize) {
        if n < self.len() {
            self.len = self.head + n;
        }
    }

    /// Clears the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Freezes the buffer into an immutable [`Bytes`] over the same block:
    /// nothing is copied or allocated, a consumed prefix is just not
    /// viewed.
    pub fn freeze(self) -> Bytes {
        Bytes {
            start: self.head,
            end: self.len,
            data: Storage::Block(self.block),
        }
    }

    /// Appends `cnt` copies of `val` (the `BufMut::put_bytes` operation).
    pub fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.spare(cnt).fill(val);
    }

    fn as_slice(&self) -> &[u8] {
        &self.block[self.head..self.len]
    }

    /// Extends the written bytes by `n` and returns them for writing,
    /// growing the block first if it is too small.
    fn spare(&mut self, n: usize) -> &mut [u8] {
        if n == 0 {
            return &mut [];
        }
        if self.len + n > self.block.len() {
            self.grow(n);
        }
        let at = self.len;
        self.len += n;
        &mut Arc::get_mut(&mut self.block).expect("nothing else holds a BytesMut's block")
            [at..at + n]
    }

    /// Moves the unconsumed bytes into a new block with room for `n` more
    /// (at least twice the bytes held).
    fn grow(&mut self, n: usize) {
        let held = self.len();
        let cap = (held + n).max(2 * held);
        let bytes = self.as_slice().iter().copied();
        self.block = bytes.chain(std::iter::repeat_n(0, cap - held)).collect();
        self.head = 0;
        self.len = held;
    }

    /// Reclaims consumed space once it dominates the buffer, keeping
    /// `advance` amortized O(1) without unbounded growth.
    fn compact_if_large(&mut self) {
        if self.head > 4096 && self.head * 2 > self.len {
            let (head, len) = (self.head, self.len);
            Arc::get_mut(&mut self.block)
                .expect("nothing else holds a BytesMut's block")
                .copy_within(head..len, 0);
            self.head = 0;
            self.len = len - head;
        }
    }
}

/// A block of `len` zeroed bytes, allocated once (the empty block is a
/// shared static).
fn zeroed(len: usize) -> Arc<[u8]> {
    if len == 0 {
        return Arc::default();
    }
    std::iter::repeat_n(0, len).collect()
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for BytesMut {
    fmt_bytes_debug!();
}

/// Read access to a buffer of bytes, consumed front-to-back.
pub trait Buf {
    /// Bytes remaining to read.
    fn remaining(&self) -> usize;
    /// The readable contiguous slice.
    fn chunk(&self) -> &[u8];
    /// Consumes `n` bytes.
    fn advance(&mut self, n: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take_array())
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take_array())
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_array())
    }

    /// Reads a little-endian `i32`.
    fn get_i32_le(&mut self) -> i32 {
        i32::from_le_bytes(self.take_array())
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take_array())
    }

    /// Copies bytes into `dst`, consuming them.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Consumes `len` bytes into a new [`Bytes`].
    ///
    /// One allocation: the bytes are copied chunk by chunk straight into
    /// the shared storage (the real crate builds a `BytesMut` of exactly
    /// `len` and freezes it, which is one allocation there too).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `len` bytes remain.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(len <= self.remaining(), "copy_to_bytes past end");
        let mut data = Arc::<[u8]>::new_uninit_slice(len);
        let dst = Arc::get_mut(&mut data).expect("fresh Arc");
        let mut at = 0;
        while at < len {
            let chunk = self.chunk();
            let n = chunk.len().min(len - at);
            dst[at..at + n].write_copy_of_slice(&chunk[..n]);
            self.advance(n);
            at += n;
        }
        // SAFETY: the loop ends only once `at == len`, and each pass wrote
        // `n` bytes at `at` before moving `at` past them, so all `len`
        // bytes are initialized.
        let data = unsafe { data.assume_init() };
        Bytes {
            start: 0,
            end: len,
            data: Storage::Block(data),
        }
    }

    /// Joins `self` and `next` into one buffer that reads `self` first.
    fn chain<U: Buf>(self, next: U) -> Chain<Self, U>
    where
        Self: Sized,
    {
        Chain { a: self, b: next }
    }

    #[doc(hidden)]
    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        let mut a = [0u8; N];
        a.copy_from_slice(&self.chunk()[..N]);
        self.advance(N);
        a
    }
}

/// Two buffers read one after the other (returned by [`Buf::chain`]; the
/// real crate names it `bytes::buf::Chain`).
pub struct Chain<T, U> {
    a: T,
    b: U,
}

impl<T: Buf, U: Buf> Buf for Chain<T, U> {
    fn remaining(&self) -> usize {
        self.a.remaining() + self.b.remaining()
    }
    fn chunk(&self) -> &[u8] {
        if self.a.remaining() > 0 {
            self.a.chunk()
        } else {
            self.b.chunk()
        }
    }
    fn advance(&mut self, n: usize) {
        let first = n.min(self.a.remaining());
        self.a.advance(first);
        self.b.advance(n - first);
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end");
        self.start += n;
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, n: usize) {
        self.consume(n);
    }
}

/// Write access to a growable byte buffer.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, b: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `i32`.
    fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.put_slice(&vec![val; cnt]);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// Allocations made by this thread (const-initialized and without a
        /// destructor, so the allocator may touch it at any time).
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts each thread's allocations, so a test reads its own count
    /// while other tests run beside it.
    struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the only addition is a
    // thread-local counter update that neither allocates nor touches the
    // returned memory.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|n| n.set(n.get() + 1));
            System.alloc(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.with(|n| n.set(n.get() + 1));
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// Allocations this thread makes while running `f`.
    fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = ALLOCS.with(Cell::get);
        let out = f();
        (out, ALLOCS.with(Cell::get) - before)
    }

    #[test]
    fn a_buffer_is_one_block_that_freeze_hands_over() {
        let (_, allocs) = allocs_in(BytesMut::new);
        assert_eq!(allocs, 0, "an empty buffer allocates");
        let (frame, allocs) = allocs_in(|| {
            let mut m = BytesMut::with_capacity(32);
            m.extend_from_slice(b"header");
            m.put_bytes(b'.', 3);
            m.extend_from_slice(b"body");
            m.freeze()
        });
        assert_eq!(allocs, 1, "one block, written in place and handed over");
        assert_eq!(&frame[..], b"header...body");
        // Growing past the capacity moves the bytes to a bigger block.
        let mut m = BytesMut::with_capacity(4);
        m.extend_from_slice(b"abcd");
        m.advance(1);
        let (_, allocs) = allocs_in(|| m.extend_from_slice(b"efgh"));
        assert_eq!(allocs, 1, "growing allocates the bigger block only");
        assert_eq!(&m[..], b"bcdefgh");
        assert_eq!(&m.clone().freeze()[..], b"bcdefgh");
    }

    #[test]
    fn try_into_mut_reclaims_the_last_view_and_freeze_reuses_it() {
        let mut m = BytesMut::with_capacity(64);
        m.extend_from_slice(b"frame one");
        let frame = m.freeze();
        let at = frame.as_ptr();
        let held = frame.clone();

        // A live clone keeps the storage shared: the view comes back as is.
        assert!(!frame.is_unique());
        let frame = frame.try_into_mut().expect_err("a clone still views it");
        assert_eq!(&frame[..], b"frame one");
        assert_eq!(frame.as_ptr(), at);

        drop(held);
        assert!(frame.is_unique());
        let mut buf = frame.try_into_mut().expect("the last view");
        assert_eq!(&buf[..], b"frame one");
        assert_eq!(buf.as_ptr(), at, "the same allocation, not a copy");

        buf.clear();
        buf.extend_from_slice(b"frame two");
        let (frame, allocs) = allocs_in(|| buf.freeze());
        assert_eq!(allocs, 0, "freezing a reclaimed buffer allocates");
        assert_eq!(&frame[..], b"frame two");
        assert_eq!(frame.as_ptr(), at);

        // Round trip: a frozen reclaimed buffer is reclaimable again.
        let (buf, allocs) = allocs_in(|| frame.try_into_mut().expect("unshared"));
        assert_eq!(allocs, 0);
        assert_eq!(buf.as_ptr(), at);
    }

    #[test]
    fn an_empty_bytes_holds_nothing_to_reclaim() {
        let (empty, allocs) = allocs_in(Bytes::new);
        assert_eq!(allocs, 0);
        assert!(empty.is_empty() && !empty.is_unique());
        let empty = empty.try_into_mut().expect_err("no buffer to hand over");
        assert_eq!(empty.slice(..), Bytes::default());
    }

    #[test]
    fn try_into_mut_keeps_a_sub_view_and_copied_storage() {
        let whole = Bytes::from(b"header+body".to_vec());
        let body = whole.slice(7..);
        let body = body.try_into_mut().expect_err("`whole` shares it");
        assert_eq!(&body[..], b"body");
        drop(whole);
        let buf = body.try_into_mut().expect("the last view");
        assert_eq!(&buf[..], b"body");

        let copied = Bytes::copy_from_slice(b"copied");
        assert_eq!(&copied.try_into_mut().expect("unshared")[..], b"copied");
    }

    #[test]
    fn bytes_slice_and_clone_share() {
        let b = Bytes::copy_from_slice(b"hello world");
        let w = b.slice(6..);
        assert_eq!(&w[..], b"world");
        assert_eq!(b.slice(..5), Bytes::from_static(b"hello"));
    }

    #[test]
    fn bytesmut_roundtrip() {
        let mut m = BytesMut::with_capacity(32);
        m.put_u16_le(0x1234);
        m.put_u64_le(7);
        m.extend_from_slice(b"xyz");
        assert_eq!(m.len(), 13);
        let mut r: &[u8] = &m;
        assert_eq!(r.get_u16_le(), 0x1234);
        assert_eq!(r.get_u64_le(), 7);
        m.advance(10);
        assert_eq!(&m[..], b"xyz");
        let frozen = m.freeze();
        assert_eq!(&frozen[..], b"xyz");
    }

    #[test]
    fn freeze_and_from_vec_move_the_buffer() {
        let v = b"moved, not copied".to_vec();
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at);
        assert_eq!(&b.slice(7..)[..], b"not copied");

        let mut m = BytesMut::with_capacity(64);
        m.extend_from_slice(b"headerbody");
        let at = m.as_ptr();
        m.advance(6);
        let frozen = m.freeze();
        assert_eq!(&frozen[..], b"body");
        assert_eq!(frozen.as_ptr(), at.wrapping_add(6));
        assert_eq!(frozen.clone(), Bytes::copy_from_slice(b"body"));
    }

    #[test]
    fn split_to_takes_prefix() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"abcdef");
        let front = m.split_to(2);
        assert_eq!(&front[..], b"ab");
        assert_eq!(&m[..], b"cdef");
    }

    #[test]
    fn chain_copies_both_parts_into_one_buffer() {
        let mut joined = (&b"head"[..]).chain(Bytes::from_static(b"er+body"));
        assert_eq!(joined.remaining(), 11);
        assert_eq!(joined.copy_to_bytes(6), Bytes::from_static(b"header"));
        assert_eq!(joined.chunk(), b"+body");
        assert_eq!(&joined.copy_to_bytes(5)[..], b"+body");
        assert_eq!(joined.remaining(), 0);
        assert!((&b""[..]).copy_to_bytes(0).is_empty());
    }

    #[test]
    fn buf_on_bytes() {
        let mut b = Bytes::copy_from_slice(&42u32.to_le_bytes());
        assert_eq!(b.remaining(), 4);
        assert_eq!(b.get_u32_le(), 42);
        assert_eq!(b.remaining(), 0);
    }
}
