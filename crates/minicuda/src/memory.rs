//! Simulated memory: host and device allocations, shared arrays,
//! constant memory.
//!
//! Every space is plain `u32` words that one thread writes. A rank's
//! interpreter thread owns its host pool, device pool and constant
//! memory, and each block has shared memory of its own. A kernel launch
//! borrows the device pool mutably; when it fans its blocks out, the
//! helpers only read the pool and log their stores, which the rank
//! thread applies (see `device`). No word is ever written by two
//! threads, so a load is a read, a store is a write, and `atomicAdd`
//! and its siblings are plain read-modify-writes on the rank thread
//! (a launch with an atomic never fans out).
//!
//! A word's meaning comes from the element type it is read by, not from
//! its allocation (C-style type punning): the pointer's for host and
//! device words, the declaration's for shared arrays and constant
//! banks. One set of word functions (`load`, `store`, `rmw`, `cas`)
//! serves every space over a word slice and that type; the per-space
//! types only resolve an id to its words, with their null, invalid,
//! freed, shared-array and constant-symbol checks.

use crate::ir::AtomicKind;
use crate::value::{store_bits, ElemType, Ptr, Space, Value};

/// One allocation: its words, released when it is freed.
#[derive(Debug)]
struct Alloc {
    words: Box<[u32]>,
    freed: bool,
}

fn decode(bits: u32, elem: ElemType) -> Value {
    match elem {
        ElemType::F32 | ElemType::Unknown => Value::F(f32::from_bits(bits)),
        ElemType::I32 => Value::I(bits as i32 as i64),
    }
}

/// The value the word `p` addresses holds, read by `elem`.
pub(crate) fn load(words: &[u32], p: Ptr, elem: ElemType) -> Result<Value, MemError> {
    Ok(decode(words[bounds(p, words.len())?], elem))
}

/// Store `v`, coerced to `elem`, in the word `p` addresses.
pub(crate) fn store(words: &mut [u32], p: Ptr, elem: ElemType, v: Value) -> Result<(), MemError> {
    let k = bounds(p, words.len())?;
    words[k] = store_word(v, elem)?;
    Ok(())
}

/// The word a store of `v` through an `elem` pointer writes
/// ([`store_bits`]). A pointer keeps no word of its own: it stores as 0
/// through an untyped pointer and fails as a number through a typed one.
pub(crate) fn store_word(v: Value, elem: ElemType) -> Result<u32, MemError> {
    match v {
        Value::I(x) => Ok(store_bits(x, elem)),
        Value::F(x) => Ok(store_bits(x, elem)),
        Value::B(x) => Ok(store_bits(x, elem)),
        Value::P(_) if elem == ElemType::Unknown => Ok(0),
        Value::P(_) => v.as_int().map(|_| 0).map_err(MemError),
    }
}

/// `atomicAdd`, `atomicMin`, `atomicMax` or `atomicExch` on the word
/// `p` addresses, read and written by `elem`: returns the old value.
pub(crate) fn rmw(
    words: &mut [u32],
    p: Ptr,
    elem: ElemType,
    kind: AtomicKind,
    v: Value,
) -> Result<Value, MemError> {
    let k = bounds(p, words.len())?;
    let new = match kind {
        AtomicKind::Exch => v,
        _ if elem == ElemType::I32 => {
            let (a, b) = (words[k] as i32 as i64, v.as_int().map_err(MemError)?);
            Value::I(match kind {
                AtomicKind::Add => a.wrapping_add(b),
                AtomicKind::Min => a.min(b),
                _ => a.max(b),
            })
        }
        _ => {
            let (a, b) = (f32::from_bits(words[k]), v.as_float().map_err(MemError)?);
            Value::F(match kind {
                AtomicKind::Add => a + b,
                AtomicKind::Min => a.min(b),
                _ => a.max(b),
            })
        }
    };
    let old = decode(words[k], elem);
    words[k] = store_word(new, elem)?;
    Ok(old)
}

/// `atomicCAS` on the word `p` addresses: when its value as an int
/// equals `cmp`, store `val`; returns that int. Global words compare
/// and store raw 32-bit ints whatever the pointer's type (`cmp`
/// narrowed to 32 bits); other words are read and written by `elem`.
pub(crate) fn cas(
    words: &mut [u32],
    p: Ptr,
    elem: ElemType,
    cmp: i64,
    val: i64,
) -> Result<Value, MemError> {
    let (elem, cmp) = match p.space {
        Space::Global => (ElemType::I32, cmp as i32 as i64),
        _ => (elem, cmp),
    };
    let k = bounds(p, words.len())?;
    let old = match elem {
        ElemType::I32 => words[k] as i32 as i64,
        _ => f32::from_bits(words[k]) as i64,
    };
    if old == cmp {
        words[k] = store_bits(val, elem);
    }
    Ok(Value::I(old))
}

/// The words a kernel reads through `p`, with the element type it
/// reads them by (the pointer's for global memory, the declaration's
/// for shared arrays and constant banks).
pub(crate) fn kernel_words<'m>(
    global: &'m MemPool,
    consts: &'m ConstMem,
    shared: &'m SharedMem,
    p: Ptr,
) -> Result<(&'m [u32], ElemType), MemError> {
    match p.space {
        Space::Global => Ok((global.words(p.alloc)?, p.elem)),
        Space::Shared => shared.words(p.alloc),
        Space::Constant => consts.bank(p.alloc),
        Space::Host => Err(MemError(
            "kernel dereferenced a host pointer (did you forget cudaMemcpy?)".to_string(),
        )),
    }
}

/// The words a kernel writes through `p`: [`kernel_words`]' mutable
/// counterpart, which refuses constant and host pointers.
pub(crate) fn kernel_words_mut<'m>(
    global: &'m mut MemPool,
    shared: &'m mut SharedMem,
    p: Ptr,
) -> Result<(&'m mut [u32], ElemType), MemError> {
    match p.space {
        Space::Global => Ok((global.words_mut(p.alloc)?, p.elem)),
        _ => block_words_mut(shared, p),
    }
}

/// [`kernel_words_mut`] for every pointer but a global one: the
/// block's own shared words, or the refusal of a constant or host
/// pointer.
pub(crate) fn block_words_mut(
    shared: &mut SharedMem,
    p: Ptr,
) -> Result<(&mut [u32], ElemType), MemError> {
    match p.space {
        Space::Shared => shared.words_mut(p.alloc),
        Space::Constant => Err(MemError("constant memory is read-only".to_string())),
        Space::Host => Err(MemError(
            "kernel wrote through a host pointer (did you forget cudaMemcpy?)".to_string(),
        )),
        Space::Global => unreachable!("global words are the pool's"),
    }
}

/// The words the atomic `name` updates through `p`: global and shared
/// memory only.
pub(crate) fn atomic_words<'m>(
    global: &'m mut MemPool,
    shared: &'m mut SharedMem,
    p: Ptr,
    name: &str,
) -> Result<(&'m mut [u32], ElemType), MemError> {
    match p.space {
        Space::Global | Space::Shared => kernel_words_mut(global, shared, p),
        _ => Err(MemError(format!(
            "{name} requires a global or shared pointer"
        ))),
    }
}

/// A pool of allocations for one address space: a rank's host memory
/// or its device's global memory.
#[derive(Debug, Default)]
pub struct MemPool {
    allocs: Vec<Alloc>,
    /// Words held by allocations not yet freed.
    live_words: usize,
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
        self.alloc_elems(bytes.div_ceil(4))
    }

    /// Allocate room for `n` elements, zeroed.
    pub fn alloc_elems(&mut self, n: usize) -> u32 {
        self.allocs.push(Alloc {
            words: vec![0; n].into_boxed_slice(),
            freed: false,
        });
        self.live_words += n;
        (self.allocs.len() - 1) as u32
    }

    /// Words held by allocations not yet freed (capacity accounting).
    pub fn live_words(&self) -> usize {
        self.live_words
    }

    /// Free an allocation: its words are released, and later accesses
    /// fail (use-after-free).
    pub fn free(&mut self, id: u32) -> Result<(), MemError> {
        let a = self
            .allocs
            .get_mut(id as usize)
            .ok_or_else(|| MemError("free of invalid pointer".to_string()))?;
        if a.freed {
            return Err(MemError("double free".to_string()));
        }
        a.freed = true;
        self.live_words -= a.words.len();
        a.words = Box::default();
        Ok(())
    }

    /// Checked allocation lookup: null, invalid, freed.
    fn index(&self, id: u32) -> Result<usize, MemError> {
        if id == u32::MAX {
            return Err(MemError("null pointer dereference".to_string()));
        }
        match self.allocs.get(id as usize) {
            None => Err(MemError("access through invalid pointer".to_string())),
            Some(a) if a.freed => Err(MemError("use after free".to_string())),
            Some(_) => Ok(id as usize),
        }
    }

    /// The words of allocation `id`.
    pub(crate) fn words(&self, id: u32) -> Result<&[u32], MemError> {
        let k = self.index(id)?;
        Ok(&self.allocs[k].words)
    }

    /// Mutable counterpart of [`Self::words`].
    pub(crate) fn words_mut(&mut self, id: u32) -> Result<&mut [u32], MemError> {
        let k = self.index(id)?;
        Ok(&mut self.allocs[k].words)
    }

    /// Copy `n_words` words from `src` in `src_pool` to `dst` in this
    /// pool (`cudaMemcpy` between host and device).
    pub fn copy_from(
        &mut self,
        dst: Ptr,
        src_pool: &MemPool,
        src: Ptr,
        n_words: usize,
    ) -> Result<(), MemError> {
        let (d, s) = (self.words_mut(dst.alloc)?, src_pool.words(src.alloc)?);
        let (doff, soff) = copy_span(dst, d.len(), src, s.len(), n_words)?;
        d[doff..doff + n_words].copy_from_slice(&s[soff..soff + n_words]);
        Ok(())
    }

    /// Copy `n_words` words from `src` to `dst`, both in this pool
    /// (`cudaMemcpy` host to host or device to device). Inside one
    /// allocation the words move in forward order: a copy onto a later
    /// part of its own source repeats its first `dst - src` words.
    pub fn copy_within(&mut self, dst: Ptr, src: Ptr, n_words: usize) -> Result<(), MemError> {
        let (d, s) = (self.index(dst.alloc)?, self.index(src.alloc)?);
        let (dlen, slen) = (self.allocs[d].words.len(), self.allocs[s].words.len());
        let (doff, soff) = copy_span(dst, dlen, src, slen, n_words)?;
        if d != s {
            let [a, b] = self.allocs.get_disjoint_mut([d, s]).expect("distinct ids");
            a.words[doff..doff + n_words].copy_from_slice(&b.words[soff..soff + n_words]);
            return Ok(());
        }
        // Each chunk reads only words that are the source's own or that
        // the chunk before it wrote, as a word-by-word forward copy does.
        let words = &mut self.allocs[d].words;
        let chunk = if doff > soff {
            doff - soff
        } else {
            n_words.max(1)
        };
        for k in (0..n_words).step_by(chunk) {
            let len = chunk.min(n_words - k);
            words.copy_within(soff + k..soff + k + len, doff + k);
        }
        Ok(())
    }

    /// The `n` words from `at` on, for a bulk write: the first word
    /// outside the allocation fails as its store would. An empty span
    /// checks nothing.
    fn span_mut(&mut self, at: Ptr, n: usize) -> Result<&mut [u32], MemError> {
        if n == 0 {
            return Ok(&mut []);
        }
        let words = self.words_mut(at.alloc)?;
        let len = words.len();
        let off = bounds(at, len)?;
        if off + n > len {
            let first_out = Ptr {
                offset: len as i64,
                ..at
            };
            return Err(bounds_error(first_out, len));
        }
        Ok(&mut words[off..off + n])
    }

    /// Bulk-write f32 data from `at` on (dataset import, MPI receive).
    pub fn write_f32(&mut self, at: Ptr, data: &[f32]) -> Result<(), MemError> {
        let words = self.span_mut(at, data.len())?;
        for (w, x) in words.iter_mut().zip(data) {
            *w = x.to_bits();
        }
        Ok(())
    }

    /// Bulk-write i32 data from `at` on.
    pub fn write_i32(
        &mut self,
        at: Ptr,
        data: impl ExactSizeIterator<Item = i32>,
    ) -> Result<(), MemError> {
        let words = self.span_mut(at, data.len())?;
        for (w, x) in words.iter_mut().zip(data) {
            *w = x as u32;
        }
        Ok(())
    }

    /// The `n` words at `offset` in allocation `id`, for a bulk read.
    fn span(&self, id: u32, offset: usize, n: usize) -> Result<&[u32], MemError> {
        let words = self.words(id)?;
        match offset.checked_add(n) {
            Some(end) if end <= words.len() => Ok(&words[offset..end]),
            _ => Err(MemError(format!(
                "read of {n} values at offset {offset} overruns allocation of {} values",
                words.len()
            ))),
        }
    }

    /// Bulk-read f32 data (solution export).
    pub fn read_f32(&self, id: u32, offset: usize, n: usize) -> Result<Vec<f32>, MemError> {
        Ok(self
            .span(id, offset, n)?
            .iter()
            .map(|&w| f32::from_bits(w))
            .collect())
    }

    /// Bulk-read i32 data.
    pub fn read_i32(&self, id: u32, offset: usize, n: usize) -> Result<Vec<i32>, MemError> {
        Ok(self
            .span(id, offset, n)?
            .iter()
            .map(|&w| w as i32)
            .collect())
    }
}

/// The destination and source word offsets of an `n`-word copy between
/// allocations of `dst_len` and `src_len` words, or the copy's error.
fn copy_span(
    dst: Ptr,
    dst_len: usize,
    src: Ptr,
    src_len: usize,
    n: usize,
) -> Result<(usize, usize), MemError> {
    let doff = usize::try_from(dst.offset)
        .map_err(|_| MemError("negative destination offset".to_string()))?;
    let soff =
        usize::try_from(src.offset).map_err(|_| MemError("negative source offset".to_string()))?;
    let (dend, send) = (doff.saturating_add(n), soff.saturating_add(n));
    if dend > dst_len {
        return Err(MemError(format!(
            "copy overruns destination ({} words past end)",
            dend - dst_len
        )));
    }
    if send > src_len {
        return Err(MemError(format!(
            "copy overruns source ({} words past end)",
            send - src_len
        )));
    }
    Ok((doff, soff))
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

    /// The words of array `id` and their element type.
    pub(crate) fn words(&self, id: u32) -> Result<(&[u32], ElemType), MemError> {
        let a = self.array(id).ok_or_else(invalid_shared)?;
        Ok((&a.data, a.elem))
    }

    /// Mutable counterpart of [`Self::words`].
    pub(crate) fn words_mut(&mut self, id: u32) -> Result<(&mut [u32], ElemType), MemError> {
        let a = self
            .arrays
            .get_mut(id as usize)
            .ok_or_else(invalid_shared)?;
        Ok((&mut a.data, a.elem))
    }
}

fn invalid_shared() -> MemError {
    MemError("invalid shared array".to_string())
}

/// Device constant memory: frozen f32/i32 banks written by
/// `cudaMemcpyToSymbol` before launch.
#[derive(Debug, Default)]
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

    /// The words of bank `id` and their element type.
    pub(crate) fn bank(&self, id: u32) -> Result<(&[u32], ElemType), MemError> {
        let (elem, data) = self.banks.get(id as usize).ok_or_else(invalid_symbol)?;
        Ok((data, *elem))
    }

    /// Fill a bank from a host allocation (cudaMemcpyToSymbol).
    pub fn fill_from(
        &mut self,
        id: u32,
        pool: &MemPool,
        src: Ptr,
        n_words: usize,
    ) -> Result<(), MemError> {
        let (_, data) = self.banks.get_mut(id as usize).ok_or_else(invalid_symbol)?;
        if n_words > data.len() {
            return Err(MemError("cudaMemcpyToSymbol overruns symbol".to_string()));
        }
        let words = pool.words(src.alloc)?;
        let soff = usize::try_from(src.offset)
            .map_err(|_| MemError("negative source offset".to_string()))?;
        if soff + n_words > words.len() {
            return Err(MemError("cudaMemcpyToSymbol overruns source".to_string()));
        }
        data[..n_words].copy_from_slice(&words[soff..soff + n_words]);
        Ok(())
    }
}

fn invalid_symbol() -> MemError {
    MemError("invalid constant symbol".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(space: Space, alloc: u32, offset: i64, elem: ElemType) -> Ptr {
        Ptr {
            space,
            alloc,
            offset,
            elem,
            level: 0,
        }
    }

    fn fptr(alloc: u32, offset: i64) -> Ptr {
        ptr(Space::Global, alloc, offset, ElemType::F32)
    }

    fn iptr(alloc: u32, offset: i64) -> Ptr {
        ptr(Space::Global, alloc, offset, ElemType::I32)
    }

    /// `kind` applied to an int word holding `old` with operand `v`:
    /// the returned old value and the word's new value.
    fn rmw_int(old: i64, kind: AtomicKind, v: i64) -> (Value, Value) {
        let (mut w, p) = ([old as u32], iptr(0, 0));
        let ret = rmw(&mut w, p, ElemType::I32, kind, Value::I(v)).unwrap();
        (ret, load(&w, p, ElemType::I32).unwrap())
    }

    #[test]
    fn store_load_roundtrip() {
        let mut w = [0u32; 4];
        store(&mut w, fptr(0, 2), ElemType::F32, Value::F(3.5)).unwrap();
        assert_eq!(load(&w, fptr(0, 2), ElemType::F32).unwrap(), Value::F(3.5));
    }

    #[test]
    fn type_punning_via_pointer_elem() {
        let mut w = [0u32];
        store(&mut w, iptr(0, 0), ElemType::I32, Value::I(-7)).unwrap();
        assert_eq!(load(&w, iptr(0, 0), ElemType::I32).unwrap(), Value::I(-7));
        // Reading the same bits as float yields the punned value.
        match load(&w, fptr(0, 0), ElemType::F32).unwrap() {
            Value::F(f) => assert_eq!(f.to_bits(), (-7i32) as u32),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn store_coerces_value_to_elem() {
        // `a[0] = 3;` with float* a stores 3.0f.
        let mut w = [0u32];
        store(&mut w, fptr(0, 0), ElemType::F32, Value::I(3)).unwrap();
        assert_eq!(load(&w, fptr(0, 0), ElemType::F32).unwrap(), Value::F(3.0));
    }

    #[test]
    fn bounds_checked() {
        let mut w = [0u32; 2];
        assert!(load(&w, fptr(0, 2), ElemType::F32).is_err());
        assert!(load(&w, fptr(0, -1), ElemType::F32).is_err());
        assert!(store(&mut w, fptr(0, 5), ElemType::F32, Value::F(0.0)).is_err());
    }

    #[test]
    fn null_deref_reported() {
        let pool = MemPool::new();
        let err = pool.words(Ptr::null().alloc).unwrap_err();
        assert!(err.0.contains("null pointer"));
    }

    #[test]
    fn use_after_free_detected() {
        let mut pool = MemPool::new();
        let a = pool.alloc_elems(2);
        let b = pool.alloc_elems(3);
        assert_eq!(pool.live_words(), 5);
        pool.free(a).unwrap();
        assert_eq!(pool.live_words(), 3, "freed words are released");
        assert_eq!(pool.words(a).unwrap_err().0, "use after free");
        assert_eq!(pool.free(a).unwrap_err().0, "double free");
        assert_eq!(pool.free(9).unwrap_err().0, "free of invalid pointer");
        assert_eq!(pool.words(b).unwrap().len(), 3);
    }

    #[test]
    fn alloc_bytes_rounds_up() {
        let mut pool = MemPool::new();
        let id = pool.alloc_bytes(5);
        assert_eq!(pool.words(id).unwrap().len(), 2);
    }

    #[test]
    fn rmw_add_returns_old() {
        assert_eq!(
            rmw_int(10, AtomicKind::Add, 5),
            (Value::I(10), Value::I(15))
        );
    }

    #[test]
    fn rmw_add_float() {
        let (mut w, p) = ([0u32], fptr(0, 0));
        rmw(&mut w, p, ElemType::F32, AtomicKind::Add, Value::F(1.5)).unwrap();
        rmw(&mut w, p, ElemType::F32, AtomicKind::Add, Value::F(2.5)).unwrap();
        assert_eq!(load(&w, p, ElemType::F32).unwrap(), Value::F(4.0));
    }

    #[test]
    fn rmw_min_max() {
        assert_eq!(rmw_int(10, AtomicKind::Min, 3), (Value::I(10), Value::I(3)));
        assert_eq!(rmw_int(3, AtomicKind::Max, 8), (Value::I(3), Value::I(8)));
    }

    #[test]
    fn cas_semantics() {
        let mut w = [5u32];
        // Mismatch: no store, returns current.
        assert_eq!(
            cas(&mut w, iptr(0, 0), ElemType::I32, 4, 9).unwrap(),
            Value::I(5)
        );
        assert_eq!(w, [5]);
        // Match: stores.
        assert_eq!(
            cas(&mut w, iptr(0, 0), ElemType::I32, 5, 9).unwrap(),
            Value::I(5)
        );
        assert_eq!(w, [9]);
        // A shared float word compares its value as an int and stores
        // the new value as a float.
        let mut s = [2.5f32.to_bits()];
        let sp = ptr(Space::Shared, 0, 0, ElemType::F32);
        assert_eq!(cas(&mut s, sp, ElemType::F32, 2, 7).unwrap(), Value::I(2));
        assert_eq!(s, [7.0f32.to_bits()]);
    }

    #[test]
    fn rmw_exch() {
        assert_eq!(rmw_int(1, AtomicKind::Exch, 2), (Value::I(1), Value::I(2)));
    }

    #[test]
    fn copy_between_pools() {
        let mut host = MemPool::new();
        let mut dev = MemPool::new();
        let h = host.alloc_elems(4);
        let d = dev.alloc_elems(4);
        host.write_f32(fptr(h, 0), &[1.0, 2.0, 3.0, 4.0]).unwrap();
        dev.copy_from(fptr(d, 0), &host, fptr(h, 0), 4).unwrap();
        assert_eq!(dev.read_f32(d, 0, 4).unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn copy_bounds_checked() {
        let mut host = MemPool::new();
        let mut dev = MemPool::new();
        let h = host.alloc_elems(2);
        let d = dev.alloc_elems(4);
        assert!(dev.copy_from(fptr(d, 0), &host, fptr(h, 0), 4).is_err());
        assert!(dev.copy_from(fptr(d, 3), &host, fptr(h, 0), 2).is_err());
        assert!(dev.copy_within(fptr(d, 3), fptr(d, 0), 2).is_err());
    }

    #[test]
    fn copy_within_one_allocation_runs_forward() {
        let mut pool = MemPool::new();
        let a = pool.alloc_elems(8);
        let b = pool.alloc_elems(8);
        pool.write_i32(iptr(a, 0), 0..8).unwrap();
        pool.copy_within(iptr(b, 1), iptr(a, 0), 7).unwrap();
        assert_eq!(pool.read_i32(b, 0, 8).unwrap(), [0, 0, 1, 2, 3, 4, 5, 6]);
        pool.copy_within(iptr(a, 3), iptr(a, 0), 5).unwrap();
        assert_eq!(pool.read_i32(a, 0, 8).unwrap(), [0, 1, 2, 0, 1, 2, 0, 1]);
        pool.copy_within(iptr(a, 0), iptr(a, 2), 6).unwrap();
        assert_eq!(pool.read_i32(a, 0, 8).unwrap(), [2, 0, 1, 2, 0, 1, 0, 1]);
        pool.copy_within(iptr(a, 0), iptr(a, 0), 0).unwrap();
    }

    #[test]
    fn bulk_io_roundtrip() {
        let mut pool = MemPool::new();
        let id = pool.alloc_elems(3);
        pool.write_i32(iptr(id, 0), [7, -8, 9].into_iter()).unwrap();
        assert_eq!(pool.read_i32(id, 0, 3).unwrap(), vec![7, -8, 9]);
        assert_eq!(pool.read_i32(id, 1, 2).unwrap(), vec![-8, 9]);
        assert!(pool.read_i32(id, 2, 2).is_err());
        assert!(pool.read_i32(id, 2, usize::MAX).is_err());
        let past = pool.write_f32(fptr(id, 2), &[1.0, 2.0]).unwrap_err();
        assert_eq!(
            past.0,
            "index 3 out of bounds for device global allocation of 3 elements"
        );
    }

    #[test]
    fn shared_memory_2d() {
        let mut sh = SharedMem::new();
        let id = sh.declare(vec![2, 3], ElemType::F32);
        assert_eq!(sh.bytes(), 24);
        let p = Ptr {
            offset: 5, // [1][2]
            level: 1,
            ..ptr(Space::Shared, id, 0, ElemType::F32)
        };
        let (w, elem) = sh.words_mut(id).unwrap();
        store(w, p, elem, Value::F(9.0)).unwrap();
        let (w, elem) = sh.words(id).unwrap();
        assert_eq!(load(w, p, elem).unwrap(), Value::F(9.0));
        assert_eq!(sh.array(id).unwrap().dims, vec![2, 3]);
    }

    #[test]
    fn shared_bounds_checked() {
        let mut sh = SharedMem::new();
        let id = sh.declare(vec![4], ElemType::I32);
        let (w, elem) = sh.words(id).unwrap();
        assert!(load(w, ptr(Space::Shared, id, 4, ElemType::I32), elem).is_err());
        assert_eq!(sh.words(id + 1).unwrap_err().0, "invalid shared array");
    }

    #[test]
    fn constant_memory_fill_and_load() {
        let mut host = MemPool::new();
        let h = host.alloc_elems(3);
        let hp = ptr(Space::Host, h, 0, ElemType::F32);
        host.write_f32(hp, &[0.5, 1.5, 2.5]).unwrap();
        let mut cm = ConstMem::new();
        let c = cm.declare(3, ElemType::F32);
        cm.fill_from(c, &host, hp, 3).unwrap();
        let (w, elem) = cm.bank(c).unwrap();
        assert_eq!(w.len(), 3);
        let p = ptr(Space::Constant, c, 1, ElemType::F32);
        assert_eq!(load(w, p, elem).unwrap(), Value::F(1.5));
        assert_eq!(cm.bank(c + 1).unwrap_err().0, "invalid constant symbol");
    }

    #[test]
    fn constant_fill_bounds() {
        let mut host = MemPool::new();
        let h = host.alloc_elems(2);
        let mut cm = ConstMem::new();
        let c = cm.declare(1, ElemType::F32);
        let p = ptr(Space::Host, h, 0, ElemType::F32);
        assert!(cm.fill_from(c, &host, p, 2).is_err());
    }
}
