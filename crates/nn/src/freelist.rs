//! The one `Vec<f32>` free list, shared by the autodiff tape's arena and the
//! inference plane's activation workspaces.

use std::collections::HashMap;

/// Free list of `f32` buffers keyed by exact element count, retaining at
/// most `CAP` floats. `take` pops a recycled buffer or allocates; `put`
/// returns one for reuse. Forward and backward passes recur in the same
/// shapes, so after one warm-up pass steady-state traffic allocates nothing.
///
/// Buckets are hashed, not scanned: with variable-length inputs the number
/// of live sizes grows with the number of distinct sequence lengths (every
/// `t × d`, `t × t`, `t × d_ff`, …).
#[derive(Default)]
pub struct FreeList<const CAP: usize> {
    free: HashMap<usize, Vec<Vec<f32>>>,
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
        match self.free.get_mut(&len).and_then(Vec::pop) {
            Some(buf) => {
                self.retained -= len;
                buf
            }
            None => vec![0.0; len],
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
        let len = buf.len();
        if len == 0 || self.retained + len > CAP {
            return;
        }
        self.retained += len;
        self.free.entry(len).or_default().push(buf);
    }

    /// Floats currently held on the free list.
    pub fn retained_floats(&self) -> usize {
        self.retained
    }
}
