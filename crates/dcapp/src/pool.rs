//! Recycled buffer storage for the streaming payloads.
//!
//! Every payload travelling E → Ra → M carries a `Vec` (triangles, depth
//! bands, winning pixels). Allocating those per batch dominates the hot
//! path once the kernels themselves are fast, so each producer stage owns
//! a [`BufferPool`] and wraps outgoing buffers in [`PoolVec`]s: when the
//! consumer drops the payload, the buffer flows back to the producer's
//! free list instead of the allocator. After one warm-up unit of work the
//! steady state allocates nothing per buffer — [`BufferPool::allocated`]
//! counts exactly the pool misses, which is what the zero-alloc
//! integration test pins down.
//!
//! Pools are keyed per stage *copy* (each copy constructs its own), so
//! there is no cross-copy contention beyond the producer/consumer
//! hand-off itself. The z-buffer band pools are the exception: every copy
//! of a raster filter ships its end-of-work bands from one shared pair,
//! so a copy that is done with its bands leaves them to its siblings.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

struct PoolInner<T> {
    free: Mutex<Vec<Vec<T>>>,
    /// Fresh `Vec`s handed out because the free list was empty.
    misses: AtomicU64,
}

/// A shared free list of `Vec<T>` buffers. Cloning shares the list.
pub struct BufferPool<T> {
    inner: Arc<PoolInner<T>>,
}

impl<T> Clone for BufferPool<T> {
    fn clone(&self) -> Self {
        BufferPool {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BufferPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(Vec::new()),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// An empty buffer with room for `capacity` elements, recycled from
    /// the free list when possible. The returned [`PoolVec`] flows back
    /// here on drop.
    pub fn take(&self, capacity: usize) -> PoolVec<T> {
        let buf = match self.inner.free.lock().pop() {
            Some(mut v) => {
                v.reserve(capacity.saturating_sub(v.capacity()));
                v
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(capacity)
            }
        };
        PoolVec {
            buf,
            home: Some(self.clone()),
        }
    }

    /// A recycled raw buffer, or `None` if the free list is empty. For
    /// feeding spares into sinks that manage reuse themselves (e.g.
    /// [`isosurf::ActivePixelBuffer::supply`]).
    pub fn try_take_raw(&self) -> Option<Vec<T>> {
        self.inner.free.lock().pop()
    }

    /// Wrap an externally produced buffer so it recycles into this pool
    /// on drop (used for buffers that left via [`try_take_raw`](Self::try_take_raw)).
    pub fn adopt(&self, buf: Vec<T>) -> PoolVec<T> {
        PoolVec {
            buf,
            home: Some(self.clone()),
        }
    }

    /// Return a buffer to the free list.
    pub fn put(&self, mut buf: Vec<T>) {
        buf.clear();
        self.inner.free.lock().push(buf);
    }

    /// Number of fresh allocations the pool has performed (free-list
    /// misses). Flat across iterations ⇒ the hot path recycles fully.
    pub fn allocated(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }
}

/// A `Vec<T>` that returns to its [`BufferPool`] when dropped. Payloads
/// hold these instead of bare `Vec`s; construction sites that have no
/// pool use `From<Vec<T>>` (drop then simply frees).
pub struct PoolVec<T> {
    buf: Vec<T>,
    home: Option<BufferPool<T>>,
}

impl<T> PoolVec<T> {
    /// Mutable access to the underlying `Vec` for filling.
    pub fn buf_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }

    /// Detach the buffer, bypassing recycling.
    pub fn into_inner(mut self) -> Vec<T> {
        self.home = None;
        std::mem::take(&mut self.buf)
    }
}

/// Replication for crash-recovery retention: the clone draws its
/// backing buffer from the same pool (alloc-free at steady state) and
/// recycles there on drop, so retained replicas cost no allocator traffic
/// once the pool is warm.
impl<T: Clone> Clone for PoolVec<T> {
    fn clone(&self) -> Self {
        let mut out = match &self.home {
            Some(home) => home.take(self.buf.len()),
            None => PoolVec {
                buf: Vec::with_capacity(self.buf.len()),
                home: None,
            },
        };
        out.buf.extend(self.buf.iter().cloned());
        out
    }
}

impl<T> From<Vec<T>> for PoolVec<T> {
    fn from(buf: Vec<T>) -> Self {
        PoolVec { buf, home: None }
    }
}

/// An empty, homeless buffer — the state `mem::take` leaves behind when a
/// payload box is recycled through a [`BufferSlab`](datacutter::BufferSlab).
impl<T> Default for PoolVec<T> {
    fn default() -> Self {
        PoolVec {
            buf: Vec::new(),
            home: None,
        }
    }
}

impl<T> Deref for PoolVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.buf
    }
}

impl<T> DerefMut for PoolVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf
    }
}

impl<T> Drop for PoolVec<T> {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            home.put(std::mem::take(&mut self.buf));
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PoolVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.buf.fmt(f)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn drop_returns_buffer_to_pool() {
        let pool: BufferPool<u32> = BufferPool::new();
        let mut v = pool.take(8);
        v.buf_mut().extend([1, 2, 3]);
        let addr = v.as_ptr();
        drop(v);
        assert_eq!(pool.allocated(), 1);
        let v2 = pool.take(8);
        assert_eq!(
            v2.as_ptr(),
            addr,
            "free list should hand back the same buffer"
        );
        assert!(v2.is_empty(), "recycled buffers come back cleared");
        assert_eq!(pool.allocated(), 1, "second take must not allocate");
    }

    #[test]
    fn unpooled_from_vec_just_frees() {
        let v: PoolVec<u8> = vec![1, 2, 3].into();
        assert_eq!(&*v, &[1, 2, 3]);
        drop(v); // no pool: plain deallocation, nothing to assert beyond no panic
    }

    #[test]
    fn adopt_recycles_external_buffers() {
        let pool: BufferPool<u8> = BufferPool::new();
        let v = pool.adopt(Vec::with_capacity(16));
        drop(v);
        assert_eq!(pool.allocated(), 0);
        assert!(pool.try_take_raw().is_some());
        assert!(pool.try_take_raw().is_none());
    }

    #[test]
    fn steady_state_take_put_never_allocates() {
        let pool: BufferPool<u64> = BufferPool::new();
        for _ in 0..100 {
            let mut v = pool.take(32);
            v.buf_mut().extend(0..32);
        }
        assert_eq!(pool.allocated(), 1);
    }
}
