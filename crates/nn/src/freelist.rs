//! The one `Vec<f32>` free list, shared by the autodiff tape's arena and the
//! inference plane's activation workspaces.

use std::collections::HashMap;

/// Free list of `f32` buffers in power-of-two size classes, retaining at
/// most `CAP` floats of capacity. `take` pops a recycled buffer of the
/// request's class or allocates one; `put` returns one for reuse.
///
/// A request for `len` floats is served from the class
/// `len.next_power_of_two()`, and a returned buffer is filed under the
/// largest power of two its capacity covers, so every buffer in a class can
/// hold any request of that class. Variable-length inputs make every
/// sequence length a new set of shapes (`t × d`, `t × t`, `t × d_ff`, …);
/// classes let a buffer from one length serve the next, so steady-state
/// training and scoring over mixed lengths allocate almost nothing. The
/// price is at most 2× the requested capacity per buffer.
#[derive(Default)]
pub struct FreeList<const CAP: usize> {
    free: HashMap<usize, Vec<Vec<f32>>>,
    /// Capacity (in floats) of the buffers held.
    retained: usize,
}

impl<const CAP: usize> FreeList<CAP> {
    /// Create an empty free list.
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer of exactly `len` floats with **unspecified contents**
    /// (previous activations); the caller must fully overwrite it.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        let class = len.next_power_of_two();
        match self.free.get_mut(&class).and_then(Vec::pop) {
            Some(mut buf) => {
                self.retained -= buf.capacity();
                // Shrinking keeps the old contents; growing zero-fills only
                // the tail past the buffer's last length.
                buf.resize(len, 0.0);
                buf
            }
            None => {
                let mut buf = Vec::with_capacity(class);
                buf.resize(len, 0.0);
                buf
            }
        }
    }

    /// A zero-filled buffer of exactly `len` floats.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.fill(0.0);
        buf
    }

    /// Return a buffer for reuse (dropped silently past the `CAP` retained
    /// floats).
    pub fn put(&mut self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if cap == 0 || self.retained + cap > CAP {
            return;
        }
        self.retained += cap;
        // The largest power of two not above `cap`.
        let class = 1usize << cap.ilog2();
        self.free.entry(class).or_default().push(buf);
    }

    /// Floats of capacity currently held on the free list.
    pub fn retained_floats(&self) -> usize {
        self.retained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_buffer_serves_every_length_of_its_class() {
        let mut fl = FreeList::<1024>::new();
        let buf = fl.take(100);
        assert_eq!((buf.len(), buf.capacity()), (100, 128));
        let ptr = buf.as_ptr();
        fl.put(buf);
        assert_eq!(fl.retained_floats(), 128);
        for len in [65, 128, 97, 70] {
            let buf = fl.take(len);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.as_ptr(), ptr, "len {len} reuses the class buffer");
            assert_eq!(fl.retained_floats(), 0);
            fl.put(buf);
        }
        // The next class up allocates afresh.
        let other = fl.take(129);
        assert_ne!(other.as_ptr(), ptr);
        assert_eq!(other.capacity(), 256);
    }

    #[test]
    fn zeroed_take_clears_recycled_contents() {
        let mut fl = FreeList::<1024>::new();
        fl.put(vec![7.0; 64]);
        let buf = fl.take_zeroed(40);
        assert_eq!(buf, vec![0.0; 40]);
    }

    #[test]
    fn foreign_buffers_file_under_the_class_their_capacity_covers() {
        let mut fl = FreeList::<1024>::new();
        // Capacity 100 holds any request up to 64 (class 64), not 128.
        fl.put(Vec::with_capacity(100));
        assert_eq!(fl.retained_floats(), 100);
        let big = fl.take(100);
        assert_eq!(fl.retained_floats(), 100, "class 128 is empty");
        let small = fl.take(50);
        assert!(small.capacity() >= 100);
        assert_eq!(fl.retained_floats(), 0);
        drop((big, small));
    }

    #[test]
    fn retention_is_capped_by_capacity() {
        let mut fl = FreeList::<256>::new();
        fl.put(fl_buf(100)); // capacity 128
        fl.put(fl_buf(120)); // capacity 128
        assert_eq!(fl.retained_floats(), 256);
        fl.put(fl_buf(3)); // capacity 4: over the cap, dropped
        assert_eq!(fl.retained_floats(), 256);
        let _ = fl.take(128);
        assert_eq!(fl.retained_floats(), 128);
        fl.put(Vec::new()); // empty buffers are never kept
        assert_eq!(fl.retained_floats(), 128);
        assert!(fl.take(0).is_empty());
    }

    /// A buffer of `len` floats with the capacity `take` gives it.
    fn fl_buf(len: usize) -> Vec<f32> {
        FreeList::<0>::new().take(len)
    }
}
