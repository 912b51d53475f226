//! One slab for every request the ZygOS model holds in a queue.
//!
//! NIC rings, connection event queues, RX batches and remote-syscall
//! batches are all FIFOs of requests. Each is a [`Fifo`] handle — head,
//! tail and length — threaded through one [`Arena`] of linked nodes, with
//! freed nodes kept on a free list. The slab grows to the most requests
//! ever queued at once and is then reused, so a run allocates it a
//! logarithmic number of times, and a cloned world (a checkpoint) copies
//! it as one buffer instead of one per queue.
//! Moving a queue, taking a batch off its front or joining two queues
//! relinks nodes and never copies a request (IX takes every dataplane
//! buffer from pools allocated up front, for the same reason).

/// End of a list, and of the free list.
const NIL: u32 = u32::MAX;

/// A FIFO threaded through an [`Arena`]. The handle is plain data: moving
/// it moves the whole queue. It is only meaningful with the arena whose
/// nodes it links.
#[derive(Clone, Copy)]
pub(crate) struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for Fifo {
    fn default() -> Self {
        Fifo {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

impl Fifo {
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The node slab: each node is an item and the index of the next node in
/// its list (or in the free list).
#[derive(Clone)]
pub(crate) struct Arena<T> {
    nodes: Vec<(T, u32)>,
    free: u32,
}

impl<T: Copy> Arena<T> {
    pub(crate) fn new() -> Self {
        Arena {
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// A node holding `item` and linking to `next`, from the free list
    /// when it has one.
    fn node(&mut self, item: T, next: u32) -> u32 {
        if self.free == NIL {
            assert!(self.nodes.len() < NIL as usize, "2^32 - 1 queued items");
            self.nodes.push((item, next));
            (self.nodes.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].1;
            self.nodes[i as usize] = (item, next);
            i
        }
    }

    pub(crate) fn push_back(&mut self, q: &mut Fifo, item: T) {
        let i = self.node(item, NIL);
        if q.tail == NIL {
            q.head = i;
        } else {
            self.nodes[q.tail as usize].1 = i;
        }
        q.tail = i;
        q.len += 1;
    }

    pub(crate) fn push_front(&mut self, q: &mut Fifo, item: T) {
        q.head = self.node(item, q.head);
        if q.tail == NIL {
            q.tail = q.head;
        }
        q.len += 1;
    }

    pub(crate) fn pop_front(&mut self, q: &mut Fifo) -> Option<T> {
        if q.head == NIL {
            return None;
        }
        let i = q.head;
        let (item, next) = self.nodes[i as usize];
        q.head = next;
        if next == NIL {
            q.tail = NIL;
        }
        q.len -= 1;
        self.nodes[i as usize].1 = self.free;
        self.free = i;
        Some(item)
    }

    pub(crate) fn front(&self, q: &Fifo) -> Option<&T> {
        (q.head != NIL).then(|| &self.nodes[q.head as usize].0)
    }

    /// Moves every item of `other` to the back of `q`, in order.
    pub(crate) fn append(&mut self, q: &mut Fifo, other: Fifo) {
        if other.head == NIL {
            return;
        }
        if q.tail == NIL {
            *q = other;
            return;
        }
        self.nodes[q.tail as usize].1 = other.head;
        q.tail = other.tail;
        q.len += other.len;
    }

    /// Takes the first `k` ≥ 1 items of `q` (all of them if it holds
    /// fewer) as a queue of their own.
    pub(crate) fn split_front(&mut self, q: &mut Fifo, k: usize) -> Fifo {
        debug_assert!(k > 0, "an empty split");
        if k >= q.len() {
            return std::mem::take(q);
        }
        let mut last = q.head;
        for _ in 1..k {
            last = self.nodes[last as usize].1;
        }
        let front = Fifo {
            head: q.head,
            tail: last,
            len: k as u32,
        };
        q.head = self.nodes[last as usize].1;
        self.nodes[last as usize].1 = NIL;
        q.len -= k as u32;
        front
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(a: &mut Arena<u32>, q: &mut Fifo) -> Vec<u32> {
        std::iter::from_fn(|| a.pop_front(q)).collect()
    }

    #[test]
    fn queues_keep_order_through_split_join_and_push_front() {
        let mut a = Arena::new();
        let (mut x, mut y) = (Fifo::default(), Fifo::default());
        for i in 0..5 {
            a.push_back(&mut x, i);
        }
        for i in 10..13 {
            a.push_back(&mut y, i);
        }
        let mut front = a.split_front(&mut x, 2);
        assert_eq!((front.len(), x.len()), (2, 3));
        assert_eq!(a.front(&x), Some(&2));
        a.push_front(&mut front, 99);
        a.append(&mut front, y);
        a.append(&mut front, Fifo::default());
        assert_eq!(drain(&mut a, &mut front), [99, 0, 1, 10, 11, 12]);
        assert!(front.is_empty() && a.front(&front).is_none());
        let mut empty = Fifo::default();
        a.append(&mut empty, x);
        let mut all = a.split_front(&mut empty, 7);
        assert!(empty.is_empty());
        assert_eq!(drain(&mut a, &mut all), [2, 3, 4]);
    }

    #[test]
    fn freed_nodes_are_reused_before_the_slab_grows() {
        let mut a = Arena::new();
        let mut q = Fifo::default();
        for round in 0..100 {
            for i in 0..8 {
                a.push_back(&mut q, round * 8 + i);
            }
            assert_eq!(
                drain(&mut a, &mut q),
                (round * 8..round * 8 + 8).collect::<Vec<_>>()
            );
        }
        assert_eq!(a.nodes.len(), 8);
    }
}
