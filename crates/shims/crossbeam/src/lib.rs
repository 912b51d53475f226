//! Offline stand-in for `crossbeam`.
//!
//! Provides the one item this workspace uses, `utils::CachePadded`, with
//! upstream's observable semantics (a cacheline-aligned wrapper). The
//! queues the live runtime needs are hand-written in `zygos-net`.

/// Utility types.
pub mod utils {
    use std::ops::{Deref, DerefMut};

    /// Aligns the wrapped value to a cache line to prevent false sharing.
    #[derive(Default, Debug)]
    #[repr(align(128))]
    pub struct CachePadded<T>(T);

    impl<T> CachePadded<T> {
        /// Wraps a value.
        pub const fn new(value: T) -> Self {
            CachePadded(value)
        }

        /// Unwraps the value.
        pub fn into_inner(self) -> T {
            self.0
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }
}
