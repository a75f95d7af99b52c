//! Simulated memory: host and device allocations, shared arrays,
//! constant memory.
//!
//! Host and device-global allocations store raw 32-bit words in
//! `AtomicU32` cells. That single representation gives us:
//!
//! * **stores through a shared reference** — every lane of every block
//!   writes through the one `&MemPool` a launch borrows. Blocks run one
//!   at a time in launch order, so no two threads touch a word; plain
//!   loads/stores use `Relaxed` ordering, which costs what a plain move
//!   does, and `atomicAdd` and friends are compare-and-swap loops;
//! * **C-style type punning through pointers** — a word's meaning comes
//!   from the pointer's element type, not from the allocation.
//!
//! Shared memory is per-block and accessed by a single interpreter
//! thread, so it is a plain `Vec<u32>`.

use crate::value::{ElemType, Ptr, Value};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// One allocation: a boxed slice of raw words.
#[derive(Debug, Clone)]
pub struct Alloc {
    words: Arc<[AtomicU32]>,
    freed: bool,
}

impl Alloc {
    fn new(len_words: usize) -> Self {
        let words: Arc<[AtomicU32]> = (0..len_words).map(|_| AtomicU32::new(0)).collect();
        Alloc {
            words,
            freed: false,
        }
    }

    /// Length in 32-bit words (= elements, since all element types are
    /// 4 bytes).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True for zero-length allocations.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The raw words, for executors that resolve the allocation once
    /// per instruction and bounds-check each lane with [`bounds`].
    pub(crate) fn words(&self) -> &[AtomicU32] {
        &self.words
    }
}

fn decode(bits: u32, elem: ElemType) -> Value {
    match elem {
        ElemType::F32 | ElemType::Unknown => Value::F(f32::from_bits(bits)),
        ElemType::I32 => Value::I(bits as i32 as i64),
    }
}

fn encode(v: Value) -> u32 {
    match v {
        Value::F(f) => f.to_bits(),
        Value::I(i) => i as i32 as u32,
        Value::B(b) => b as u32,
        Value::P(_) => 0,
    }
}

/// A pool of allocations for one address space family.
///
/// The pool is shared between the host interpreter and kernel
/// executions via `Arc`, so it is append-only under a lock-free
/// discipline: the host owns it mutably between launches, and launches
/// receive a cloned snapshot (`Alloc` clones share the underlying
/// words).
#[derive(Debug, Default, Clone)]
pub struct MemPool {
    allocs: Vec<Alloc>,
}

/// Error from a memory access: out-of-bounds, use-after-free, or a
/// space violation. The interpreter attaches position/thread context.
#[derive(Debug, Clone, PartialEq)]
pub struct MemError(pub String);

impl MemPool {
    /// Create an empty pool.
    pub fn new() -> Self {
        MemPool::default()
    }

    /// Allocate `bytes` rounded up to whole words; returns the alloc id.
    pub fn alloc_bytes(&mut self, bytes: usize) -> u32 {
        let words = bytes.div_ceil(4);
        self.allocs.push(Alloc::new(words));
        (self.allocs.len() - 1) as u32
    }

    /// Allocate room for `n` elements.
    pub fn alloc_elems(&mut self, n: usize) -> u32 {
        self.allocs.push(Alloc::new(n));
        (self.allocs.len() - 1) as u32
    }

    /// Total words currently allocated (capacity accounting).
    pub fn total_words(&self) -> usize {
        self.allocs
            .iter()
            .filter(|a| !a.freed)
            .map(|a| a.len())
            .sum()
    }

    /// Mark an allocation freed. Later accesses fail (use-after-free).
    pub fn free(&mut self, id: u32) -> Result<(), MemError> {
        let a = self
            .allocs
            .get_mut(id as usize)
            .ok_or_else(|| MemError("free of invalid pointer".to_string()))?;
        if a.freed {
            return Err(MemError("double free".to_string()));
        }
        a.freed = true;
        Ok(())
    }

    fn get(&self, id: u32) -> Result<&Alloc, MemError> {
        if id == u32::MAX {
            return Err(MemError("null pointer dereference".to_string()));
        }
        let a = self
            .allocs
            .get(id as usize)
            .ok_or_else(|| MemError("access through invalid pointer".to_string()))?;
        if a.freed {
            return Err(MemError("use after free".to_string()));
        }
        Ok(a)
    }

    /// Checked allocation lookup (null / invalid / freed), returning
    /// the allocation for repeated per-lane access.
    pub fn view(&self, id: u32) -> Result<&Alloc, MemError> {
        self.get(id)
    }

    /// Load the element at `offset` through a pointer's element type.
    pub fn load(&self, ptr: Ptr) -> Result<Value, MemError> {
        let a = self.get(ptr.alloc)?;
        let idx = bounds(ptr, a.len())?;
        Ok(decode(a.words[idx].load(Ordering::Relaxed), ptr.elem))
    }

    /// Store a value (coerced to the pointer's element type).
    pub fn store(&self, ptr: Ptr, v: Value) -> Result<(), MemError> {
        let a = self.get(ptr.alloc)?;
        let idx = bounds(ptr, a.len())?;
        let v = v.coerce_to_elem(ptr.elem).map_err(MemError)?;
        a.words[idx].store(encode(v), Ordering::Relaxed);
        Ok(())
    }

    /// `atomicAdd`: returns the old value.
    pub fn atomic_add(&self, ptr: Ptr, v: Value) -> Result<Value, MemError> {
        self.atomic_rmw(ptr, v, |old, add| match (old, add) {
            (Value::F(a), b) => Ok(Value::F(a + b.as_float().map_err(MemError)?)),
            (Value::I(a), b) => Ok(Value::I(a.wrapping_add(b.as_int().map_err(MemError)?))),
            _ => Err(MemError("atomicAdd on non-numeric element".to_string())),
        })
    }

    /// `atomicMin`: returns the old value.
    pub fn atomic_min(&self, ptr: Ptr, v: Value) -> Result<Value, MemError> {
        self.atomic_rmw(ptr, v, |old, rhs| match (old, rhs) {
            (Value::F(a), b) => Ok(Value::F(a.min(b.as_float().map_err(MemError)?))),
            (Value::I(a), b) => Ok(Value::I(a.min(b.as_int().map_err(MemError)?))),
            _ => Err(MemError("atomicMin on non-numeric element".to_string())),
        })
    }

    /// `atomicMax`: returns the old value.
    pub fn atomic_max(&self, ptr: Ptr, v: Value) -> Result<Value, MemError> {
        self.atomic_rmw(ptr, v, |old, rhs| match (old, rhs) {
            (Value::F(a), b) => Ok(Value::F(a.max(b.as_float().map_err(MemError)?))),
            (Value::I(a), b) => Ok(Value::I(a.max(b.as_int().map_err(MemError)?))),
            _ => Err(MemError("atomicMax on non-numeric element".to_string())),
        })
    }

    /// `atomicExch`: store `v`, return the old value.
    pub fn atomic_exch(&self, ptr: Ptr, v: Value) -> Result<Value, MemError> {
        let a = self.get(ptr.alloc)?;
        let idx = bounds(ptr, a.len())?;
        let v = v.coerce_to_elem(ptr.elem).map_err(MemError)?;
        let old = a.words[idx].swap(encode(v), Ordering::Relaxed);
        Ok(decode(old, ptr.elem))
    }

    /// `atomicCAS` (integer): if current == cmp, store val; returns old.
    pub fn atomic_cas(&self, ptr: Ptr, cmp: i64, val: i64) -> Result<Value, MemError> {
        let a = self.get(ptr.alloc)?;
        let idx = bounds(ptr, a.len())?;
        let cmp_bits = cmp as i32 as u32;
        let val_bits = val as i32 as u32;
        let old = match a.words[idx].compare_exchange(
            cmp_bits,
            val_bits,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(old) | Err(old) => old,
        };
        Ok(Value::I(old as i32 as i64))
    }

    fn atomic_rmw(
        &self,
        ptr: Ptr,
        v: Value,
        f: impl Fn(Value, Value) -> Result<Value, MemError>,
    ) -> Result<Value, MemError> {
        let a = self.get(ptr.alloc)?;
        let idx = bounds(ptr, a.len())?;
        let cell = &a.words[idx];
        loop {
            let old_bits = cell.load(Ordering::Relaxed);
            let old = decode(old_bits, ptr.elem);
            let new = f(old, v)?;
            let new_bits = encode(new.coerce_to_elem(ptr.elem).map_err(MemError)?);
            if cell
                .compare_exchange_weak(old_bits, new_bits, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(old);
            }
        }
    }

    /// Copy `n` elements between allocations (memcpy in words).
    pub fn copy(
        &self,
        dst: Ptr,
        src_pool: &MemPool,
        src: Ptr,
        n_words: usize,
    ) -> Result<(), MemError> {
        let d = self.get(dst.alloc)?;
        let s = src_pool.get(src.alloc)?;
        let doff = usize::try_from(dst.offset)
            .map_err(|_| MemError("negative destination offset".to_string()))?;
        let soff = usize::try_from(src.offset)
            .map_err(|_| MemError("negative source offset".to_string()))?;
        if doff + n_words > d.len() {
            return Err(MemError(format!(
                "copy overruns destination ({} words past end)",
                doff + n_words - d.len()
            )));
        }
        if soff + n_words > s.len() {
            return Err(MemError(format!(
                "copy overruns source ({} words past end)",
                soff + n_words - s.len()
            )));
        }
        for k in 0..n_words {
            let bits = s.words[soff + k].load(Ordering::Relaxed);
            d.words[doff + k].store(bits, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Bulk-write f32 data (dataset import).
    pub fn write_f32(&self, id: u32, data: &[f32]) -> Result<(), MemError> {
        let a = self.get(id)?;
        if data.len() > a.len() {
            return Err(MemError("write overruns allocation".to_string()));
        }
        for (k, &x) in data.iter().enumerate() {
            a.words[k].store(x.to_bits(), Ordering::Relaxed);
        }
        Ok(())
    }

    /// Bulk-write i32 data.
    pub fn write_i32(&self, id: u32, data: &[i32]) -> Result<(), MemError> {
        let a = self.get(id)?;
        if data.len() > a.len() {
            return Err(MemError("write overruns allocation".to_string()));
        }
        for (k, &x) in data.iter().enumerate() {
            a.words[k].store(x as u32, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Bulk-read f32 data (solution export).
    pub fn read_f32(&self, id: u32, offset: usize, n: usize) -> Result<Vec<f32>, MemError> {
        let a = self.get(id)?;
        if offset + n > a.len() {
            return Err(MemError(format!(
                "read of {n} values at offset {offset} overruns allocation of {} values",
                a.len()
            )));
        }
        Ok((0..n)
            .map(|k| f32::from_bits(a.words[offset + k].load(Ordering::Relaxed)))
            .collect())
    }

    /// Bulk-read i32 data.
    pub fn read_i32(&self, id: u32, offset: usize, n: usize) -> Result<Vec<i32>, MemError> {
        let a = self.get(id)?;
        if offset + n > a.len() {
            return Err(MemError(format!(
                "read of {n} values at offset {offset} overruns allocation of {} values",
                a.len()
            )));
        }
        Ok((0..n)
            .map(|k| a.words[offset + k].load(Ordering::Relaxed) as i32)
            .collect())
    }
}

/// The element index `ptr` addresses in an allocation of `len`
/// elements, or the student-facing access error.
#[inline]
pub(crate) fn bounds(ptr: Ptr, len: usize) -> Result<usize, MemError> {
    // One unsigned compare admits exactly the in-range, non-negative
    // offsets; the diagnosis of everything else is off the hot path.
    if !ptr.is_null() && (ptr.offset as u64) < len as u64 {
        return Ok(ptr.offset as usize);
    }
    Err(bounds_error(ptr, len))
}

#[cold]
fn bounds_error(ptr: Ptr, len: usize) -> MemError {
    if ptr.is_null() {
        return MemError("null pointer dereference".to_string());
    }
    match usize::try_from(ptr.offset) {
        Err(_) => MemError(format!(
            "negative index {} on {} pointer",
            ptr.offset,
            ptr.space.label()
        )),
        Ok(idx) => MemError(format!(
            "index {idx} out of bounds for {} allocation of {len} elements",
            ptr.space.label()
        )),
    }
}

/// Per-block shared memory: named fixed-shape arrays.
#[derive(Debug, Default)]
pub struct SharedMem {
    arrays: Vec<SharedArray>,
}

/// One `__shared__` array.
#[derive(Debug)]
pub struct SharedArray {
    /// Dimension extents (outermost first).
    pub dims: Vec<usize>,
    /// Element interpretation.
    pub elem: ElemType,
    /// `strides[l]` is the element distance one step of the index at
    /// nesting level `l` covers: the product of `dims[l + 1..]`.
    strides: Vec<usize>,
    data: Vec<u32>,
}

impl SharedArray {
    /// Element stride of an index applied at `level`, when that index
    /// still yields a row (a deeper level exists); `None` when it
    /// reaches an element.
    pub(crate) fn row_stride(&self, level: usize) -> Option<usize> {
        (level + 1 < self.dims.len()).then(|| self.strides[level])
    }

    /// The raw words, for executors that bounds-check lanes themselves.
    pub(crate) fn words(&self) -> &[u32] {
        &self.data
    }

    /// Mutable counterpart of [`Self::words`].
    pub(crate) fn words_mut(&mut self) -> &mut [u32] {
        &mut self.data
    }
}

impl SharedMem {
    /// Create an empty shared-memory region.
    pub fn new() -> Self {
        SharedMem::default()
    }

    /// Declare an array; returns its id. Idempotent per kernel run —
    /// the interpreter declares each `__shared__` statement once.
    pub fn declare(&mut self, dims: Vec<usize>, elem: ElemType) -> u32 {
        let len: usize = dims.iter().product();
        let strides = (0..dims.len())
            .map(|l| dims[l + 1..].iter().product())
            .collect();
        self.arrays.push(SharedArray {
            dims,
            elem,
            strides,
            data: vec![0u32; len],
        });
        (self.arrays.len() - 1) as u32
    }

    /// Total bytes held (for the per-block shared memory limit).
    pub fn bytes(&self) -> usize {
        self.arrays.iter().map(|a| a.data.len() * 4).sum()
    }

    /// The array with id `id`.
    pub fn array(&self, id: u32) -> Option<&SharedArray> {
        self.arrays.get(id as usize)
    }

    /// Mutable counterpart of [`Self::array`].
    pub(crate) fn array_mut(&mut self, id: u32) -> Option<&mut SharedArray> {
        self.arrays.get_mut(id as usize)
    }

    /// Load an element.
    pub fn load(&self, ptr: Ptr) -> Result<Value, MemError> {
        let a = self
            .arrays
            .get(ptr.alloc as usize)
            .ok_or_else(|| MemError("invalid shared array".to_string()))?;
        let idx = bounds(ptr, a.data.len())?;
        Ok(decode(a.data[idx], a.elem))
    }

    /// Store an element.
    pub fn store(&mut self, ptr: Ptr, v: Value) -> Result<(), MemError> {
        let a = self
            .arrays
            .get_mut(ptr.alloc as usize)
            .ok_or_else(|| MemError("invalid shared array".to_string()))?;
        let idx = bounds(ptr, a.data.len())?;
        let v = v.coerce_to_elem(a.elem).map_err(MemError)?;
        a.data[idx] = encode(v);
        Ok(())
    }

    /// Atomic read-modify-write (single interpreter thread per block,
    /// so this is just a load + store; semantics match warp-serialized
    /// shared atomics).
    pub fn atomic_add(&mut self, ptr: Ptr, v: Value) -> Result<Value, MemError> {
        let old = self.load(ptr)?;
        let new = match old {
            Value::F(a) => Value::F(a + v.as_float().map_err(MemError)?),
            Value::I(a) => Value::I(a.wrapping_add(v.as_int().map_err(MemError)?)),
            _ => return Err(MemError("atomicAdd on non-numeric element".to_string())),
        };
        self.store(ptr, new)?;
        Ok(old)
    }
}

/// Device constant memory: frozen f32/i32 banks written by
/// `cudaMemcpyToSymbol` before launch.
#[derive(Debug, Default, Clone)]
pub struct ConstMem {
    banks: Vec<(ElemType, Vec<u32>)>,
}

impl ConstMem {
    /// Create an empty constant memory image.
    pub fn new() -> Self {
        ConstMem::default()
    }

    /// Declare a bank of `len` elements; returns its id.
    pub fn declare(&mut self, len: usize, elem: ElemType) -> u32 {
        self.banks.push((elem, vec![0u32; len]));
        (self.banks.len() - 1) as u32
    }

    /// A bank's element interpretation and raw words.
    pub(crate) fn bank(&self, id: u32) -> Option<(ElemType, &[u32])> {
        self.banks.get(id as usize).map(|(e, d)| (*e, d.as_slice()))
    }

    /// Fill a bank from a host allocation (cudaMemcpyToSymbol).
    pub fn fill_from(
        &mut self,
        id: u32,
        pool: &MemPool,
        src: Ptr,
        n_words: usize,
    ) -> Result<(), MemError> {
        let (_, data) = self
            .banks
            .get_mut(id as usize)
            .ok_or_else(|| MemError("invalid constant symbol".to_string()))?;
        if n_words > data.len() {
            return Err(MemError("cudaMemcpyToSymbol overruns symbol".to_string()));
        }
        let src_alloc = pool.get(src.alloc)?;
        let soff = usize::try_from(src.offset)
            .map_err(|_| MemError("negative source offset".to_string()))?;
        if soff + n_words > src_alloc.len() {
            return Err(MemError("cudaMemcpyToSymbol overruns source".to_string()));
        }
        for (k, slot) in data.iter_mut().enumerate().take(n_words) {
            *slot = src_alloc.words[soff + k].load(Ordering::Relaxed);
        }
        Ok(())
    }

    /// Load an element of a bank.
    pub fn load(&self, ptr: Ptr) -> Result<Value, MemError> {
        let (elem, data) = self
            .banks
            .get(ptr.alloc as usize)
            .ok_or_else(|| MemError("invalid constant symbol".to_string()))?;
        let idx = bounds(ptr, data.len())?;
        Ok(decode(data[idx], *elem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Space;

    impl MemPool {
        /// Length in elements of an allocation.
        fn len_of(&self, id: u32) -> Result<usize, MemError> {
            Ok(self.get(id)?.len())
        }
    }

    impl ConstMem {
        /// Number of elements in a bank.
        fn len_of(&self, id: u32) -> Option<usize> {
            self.banks.get(id as usize).map(|(_, d)| d.len())
        }
    }

    fn fptr(alloc: u32, offset: i64) -> Ptr {
        Ptr {
            space: Space::Global,
            alloc,
            offset,
            elem: ElemType::F32,
            level: 0,
        }
    }

    fn iptr(alloc: u32, offset: i64) -> Ptr {
        Ptr {
            elem: ElemType::I32,
            ..fptr(alloc, offset)
        }
    }

    #[test]
    fn store_load_roundtrip() {
        let mut pool = MemPool::new();
        let id = pool.alloc_elems(4);
        pool.store(fptr(id, 2), Value::F(3.5)).unwrap();
        assert_eq!(pool.load(fptr(id, 2)).unwrap(), Value::F(3.5));
    }

    #[test]
    fn type_punning_via_pointer_elem() {
        let mut pool = MemPool::new();
        let id = pool.alloc_elems(1);
        pool.store(iptr(id, 0), Value::I(-7)).unwrap();
        assert_eq!(pool.load(iptr(id, 0)).unwrap(), Value::I(-7));
        // Reading the same bits as float yields the punned value.
        match pool.load(fptr(id, 0)).unwrap() {
            Value::F(f) => assert_eq!(f.to_bits(), (-7i32) as u32),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn store_coerces_value_to_elem() {
        let mut pool = MemPool::new();
        let id = pool.alloc_elems(1);
        // `a[0] = 3;` with float* a stores 3.0f.
        pool.store(fptr(id, 0), Value::I(3)).unwrap();
        assert_eq!(pool.load(fptr(id, 0)).unwrap(), Value::F(3.0));
    }

    #[test]
    fn bounds_checked() {
        let mut pool = MemPool::new();
        let id = pool.alloc_elems(2);
        assert!(pool.load(fptr(id, 2)).is_err());
        assert!(pool.load(fptr(id, -1)).is_err());
        assert!(pool.store(fptr(id, 5), Value::F(0.0)).is_err());
    }

    #[test]
    fn null_deref_reported() {
        let pool = MemPool::new();
        let err = pool.load(Ptr::null()).unwrap_err();
        assert!(err.0.contains("null pointer"));
    }

    #[test]
    fn use_after_free_detected() {
        let mut pool = MemPool::new();
        let id = pool.alloc_elems(1);
        pool.free(id).unwrap();
        assert!(pool.load(fptr(id, 0)).is_err());
        assert!(pool.free(id).is_err(), "double free");
    }

    #[test]
    fn alloc_bytes_rounds_up() {
        let mut pool = MemPool::new();
        let id = pool.alloc_bytes(5);
        assert_eq!(pool.len_of(id).unwrap(), 2);
    }

    #[test]
    fn atomic_add_returns_old() {
        let mut pool = MemPool::new();
        let id = pool.alloc_elems(1);
        pool.store(iptr(id, 0), Value::I(10)).unwrap();
        let old = pool.atomic_add(iptr(id, 0), Value::I(5)).unwrap();
        assert_eq!(old, Value::I(10));
        assert_eq!(pool.load(iptr(id, 0)).unwrap(), Value::I(15));
    }

    #[test]
    fn atomic_add_float() {
        let mut pool = MemPool::new();
        let id = pool.alloc_elems(1);
        pool.atomic_add(fptr(id, 0), Value::F(1.5)).unwrap();
        pool.atomic_add(fptr(id, 0), Value::F(2.5)).unwrap();
        assert_eq!(pool.load(fptr(id, 0)).unwrap(), Value::F(4.0));
    }

    #[test]
    fn atomic_min_max() {
        let mut pool = MemPool::new();
        let id = pool.alloc_elems(1);
        pool.store(iptr(id, 0), Value::I(10)).unwrap();
        pool.atomic_min(iptr(id, 0), Value::I(3)).unwrap();
        assert_eq!(pool.load(iptr(id, 0)).unwrap(), Value::I(3));
        pool.atomic_max(iptr(id, 0), Value::I(8)).unwrap();
        assert_eq!(pool.load(iptr(id, 0)).unwrap(), Value::I(8));
    }

    #[test]
    fn atomic_cas_semantics() {
        let mut pool = MemPool::new();
        let id = pool.alloc_elems(1);
        pool.store(iptr(id, 0), Value::I(5)).unwrap();
        // Mismatch: no store, returns current.
        assert_eq!(pool.atomic_cas(iptr(id, 0), 4, 9).unwrap(), Value::I(5));
        assert_eq!(pool.load(iptr(id, 0)).unwrap(), Value::I(5));
        // Match: stores.
        assert_eq!(pool.atomic_cas(iptr(id, 0), 5, 9).unwrap(), Value::I(5));
        assert_eq!(pool.load(iptr(id, 0)).unwrap(), Value::I(9));
    }

    #[test]
    fn atomic_exch() {
        let mut pool = MemPool::new();
        let id = pool.alloc_elems(1);
        pool.store(iptr(id, 0), Value::I(1)).unwrap();
        assert_eq!(
            pool.atomic_exch(iptr(id, 0), Value::I(2)).unwrap(),
            Value::I(1)
        );
        assert_eq!(pool.load(iptr(id, 0)).unwrap(), Value::I(2));
    }

    #[test]
    fn copy_between_pools() {
        let mut host = MemPool::new();
        let mut dev = MemPool::new();
        let h = host.alloc_elems(4);
        let d = dev.alloc_elems(4);
        host.write_f32(h, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        dev.copy(fptr(d, 0), &host, fptr(h, 0), 4).unwrap();
        assert_eq!(dev.read_f32(d, 0, 4).unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn copy_bounds_checked() {
        let mut host = MemPool::new();
        let mut dev = MemPool::new();
        let h = host.alloc_elems(2);
        let d = dev.alloc_elems(4);
        assert!(dev.copy(fptr(d, 0), &host, fptr(h, 0), 4).is_err());
        assert!(dev.copy(fptr(d, 3), &host, fptr(h, 0), 2).is_err());
    }

    #[test]
    fn bulk_io_roundtrip() {
        let mut pool = MemPool::new();
        let id = pool.alloc_elems(3);
        pool.write_i32(id, &[7, -8, 9]).unwrap();
        assert_eq!(pool.read_i32(id, 0, 3).unwrap(), vec![7, -8, 9]);
        assert_eq!(pool.read_i32(id, 1, 2).unwrap(), vec![-8, 9]);
        assert!(pool.read_i32(id, 2, 2).is_err());
    }

    #[test]
    fn shared_memory_2d() {
        let mut sh = SharedMem::new();
        let id = sh.declare(vec![2, 3], ElemType::F32);
        assert_eq!(sh.bytes(), 24);
        let p = Ptr {
            space: Space::Shared,
            alloc: id,
            offset: 5, // [1][2]
            elem: ElemType::F32,
            level: 1,
        };
        sh.store(p, Value::F(9.0)).unwrap();
        assert_eq!(sh.load(p).unwrap(), Value::F(9.0));
        assert_eq!(sh.array(id).unwrap().dims, vec![2, 3]);
    }

    #[test]
    fn shared_bounds_checked() {
        let mut sh = SharedMem::new();
        let id = sh.declare(vec![4], ElemType::I32);
        let p = Ptr {
            space: Space::Shared,
            alloc: id,
            offset: 4,
            elem: ElemType::I32,
            level: 0,
        };
        assert!(sh.load(p).is_err());
    }

    #[test]
    fn constant_memory_fill_and_load() {
        let mut host = MemPool::new();
        let h = host.alloc_elems(3);
        host.write_f32(h, &[0.5, 1.5, 2.5]).unwrap();
        let mut cm = ConstMem::new();
        let c = cm.declare(3, ElemType::F32);
        cm.fill_from(
            c,
            &host,
            Ptr {
                space: Space::Host,
                alloc: h,
                offset: 0,
                elem: ElemType::F32,
                level: 0,
            },
            3,
        )
        .unwrap();
        let p = Ptr {
            space: Space::Constant,
            alloc: c,
            offset: 1,
            elem: ElemType::F32,
            level: 0,
        };
        assert_eq!(cm.load(p).unwrap(), Value::F(1.5));
        assert_eq!(cm.len_of(c), Some(3));
    }

    #[test]
    fn constant_fill_bounds() {
        let mut host = MemPool::new();
        let h = host.alloc_elems(2);
        let mut cm = ConstMem::new();
        let c = cm.declare(1, ElemType::F32);
        let p = Ptr {
            space: Space::Host,
            alloc: h,
            offset: 0,
            elem: ElemType::F32,
            level: 0,
        };
        assert!(cm.fill_from(c, &host, p, 2).is_err());
    }
}
