//! Runtime-dispatched SIMD kernels and the lane-split accumulation
//! contract.
//!
//! # The contract (v2, "lane-split-4")
//!
//! Up to PR 5 the [`crate::kernels::dot`] contract was a single
//! sequential fused-multiply-add chain. That chain is inherently
//! serial — each fma waits on the previous one — so it cannot be
//! vectorized without changing the rounding order, and at rank 10 it
//! left the SGD and score-evaluation hot paths latency-bound. This PR
//! re-pins the contract *once, deliberately* (as the ROADMAP's SIMD item
//! anticipated) to the **lane-split-4** order, which every dispatch
//! path below reproduces bit for bit:
//!
//! ```text
//! acc[0..4] = 0.0
//! for each full chunk of 4:          // k = 0, 4, 8, …
//!     acc[c] = fma(a[k+c], b[k+c], acc[c])   for c in 0..4
//! combined = (acc[0] + acc[2]) + (acc[1] + acc[3])
//! for each trailing element:         // k = 4·⌊n/4⌋ .. n
//!     combined = fma(a[k], b[k], combined)
//! ```
//!
//! Lane `c` accumulates the elements with index ≡ `c` (mod 4) — which
//! is exactly what one AVX2 `vfmadd231pd` per chunk computes, and the
//! combine order matches the natural 256→128→64-bit horizontal
//! reduction. Because scalar [`f64::mul_add`] is the same
//! correctly-rounded IEEE-754 operation as the hardware `vfmadd`
//! lanes, the scalar reference, the portable unrolled fallback and the
//! AVX2 path are bitwise identical *by construction*; the differential
//! suite in `crates/linalg/tests/kernel_conformance.rs` pins this over
//! adversarial inputs (denormals, ±0.0, NaN/∞, every rank 1..=32,
//! unaligned slices).
//!
//! ## Quantified diff against the v1 (sequential) contract
//!
//! * The result is a different *rounding* of the same exact sum: each
//!   element still participates in exactly one fma, so the error bound
//!   is the usual `O(n·ε·Σ|aᵢbᵢ|)` for both orders and the observed
//!   difference on rank ≤ 32 data is a few ULP.
//! * Signed zeros: the v1 chain initialized with the plain product
//!   `a[0]·b[0]`, so an all-negative-zero-product input could return
//!   `-0.0`. v2 initializes the accumulators with `+0.0`, and
//!   `fma(x, y, +0.0)` returns `+0.0` when `x·y` is `-0.0`; a dot whose
//!   value is zero therefore now returns `+0.0` wherever a sign was
//!   previously possible. `sign()`-based classification is unaffected.
//! * NaN/∞ propagation is unchanged: every element still enters the
//!   accumulation through one fma.
//!
//! [`axpby`](crate::kernels::axpby) is element-independent, so its contract
//! (`y[i] ← fma(beta, y[i], alpha·x[i])`) is **unchanged** — the AVX2
//! path is bitwise-identical to the v1 scalar loop.
//!
//! # Dispatch
//!
//! The path is resolved once per process (and cached): AVX2+FMA when
//! the CPU reports them, the portable fallback otherwise. Two knobs
//! exist for conformance testing:
//!
//! * the `DMF_FORCE_SCALAR=1` environment variable pins the whole
//!   process to the portable path (read once, at first kernel call);
//! * [`set_thread_override`] pins the *current thread* to a path, so a
//!   test can run the same workload on both paths in one process.
//!
//! Because all paths are bitwise identical, dispatch never changes
//! results — the knobs exist so the tests can *prove* that.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// A kernel implementation the dispatcher can select.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Dispatch {
    /// Portable unrolled Rust (no `unsafe`); the only path on
    /// non-x86-64 targets.
    Portable,
    /// Explicit AVX2+FMA intrinsics (x86-64, runtime-detected).
    Avx2,
    /// AVX-512F tiles for `matmul_nt` (x86-64, runtime-detected).
    /// `dot`/`axpby` reuse the AVX2 bodies on this path: their
    /// contract fixes four accumulator lanes, so a 512-bit register
    /// cannot be used without changing the bits — only the
    /// column-tiled matmul, where each 64-bit element carries an
    /// independent output column, gets wider.
    Avx512,
}

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<Dispatch>> = const { Cell::new(None) };
}

/// Sticky flag: set the first time any thread installs an override and
/// never cleared. While it is `false` (every production run), `active()`
/// skips the thread-local lookup entirely — that lookup is measurable
/// on the rank-10 `dot`/`axpby` hot path, where the kernel itself is
/// only a handful of instructions.
static ANY_OVERRIDE: AtomicBool = AtomicBool::new(false);

/// True when the running CPU supports the AVX2+FMA path (independent
/// of any override).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the running CPU also supports the AVX-512F matmul tiles
/// (independent of any override). Implies [`avx2_available`].
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE
            .get_or_init(|| avx2_available() && std::arch::is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[inline]
fn process_default() -> Dispatch {
    static DEFAULT: OnceLock<Dispatch> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let forced_scalar = std::env::var("DMF_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        if forced_scalar {
            Dispatch::Portable
        } else if avx512_available() {
            Dispatch::Avx512
        } else if avx2_available() {
            Dispatch::Avx2
        } else {
            Dispatch::Portable
        }
    })
}

/// The dispatch path kernel calls on this thread will take: the
/// thread override if one is set, otherwise the cached process default
/// (`DMF_FORCE_SCALAR` / CPU detection). In a process that never
/// installs an override this is one relaxed load plus the cached
/// default — cheap enough to sit in front of a rank-10 kernel.
#[inline]
pub fn active() -> Dispatch {
    if ANY_OVERRIDE.load(Ordering::Relaxed) {
        if let Some(d) = THREAD_OVERRIDE.with(|o| o.get()) {
            return d;
        }
    }
    process_default()
}

/// Forces (or with `None`, un-forces) the dispatch path for the
/// current thread. Test-only in spirit: results are bitwise identical
/// on every path, so this only exists to let conformance and
/// determinism tests exercise both paths in one process.
///
/// # Panics
/// Panics when asked to force [`Dispatch::Avx2`] on a CPU without it.
pub fn set_thread_override(path: Option<Dispatch>) {
    if path == Some(Dispatch::Avx2) {
        assert!(
            avx2_available(),
            "cannot force AVX2 dispatch: CPU lacks AVX2/FMA"
        );
    }
    if path == Some(Dispatch::Avx512) {
        assert!(
            avx512_available(),
            "cannot force AVX-512 dispatch: CPU lacks AVX-512F"
        );
    }
    if path.is_some() {
        ANY_OVERRIDE.store(true, Ordering::Relaxed);
    }
    THREAD_OVERRIDE.with(|o| o.set(path));
}

// ---------------------------------------------------------------------------
// aligned scratch
// ---------------------------------------------------------------------------

#[repr(align(64))]
#[derive(Clone, Copy)]
struct CacheLine(#[allow(dead_code)] [f64; 8]); // only ever read through the `f64` view below

thread_local! {
    static NT_SCRATCH: RefCell<Vec<CacheLine>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a 64-byte-aligned `f64` scratch slice of length
/// `len`, reused across calls on the same thread (contents are
/// whatever the previous caller left — callers must fully initialize
/// the region they read). Not re-entrant: `f` must not call back into
/// `with_aligned_scratch` — directly or through
/// [`Matrix::matmul_nt_into`](crate::Matrix::matmul_nt_into), which
/// uses it for the `rhsᵀ` pack — or the inner call panics on the
/// `RefCell` borrow. Feed pre-packed operands to
/// [`kernels::matmul_nt_packed_into`](crate::kernels::matmul_nt_packed_into)
/// from inside instead; that entry point takes the scratch as plain
/// slices.
///
/// Alignment is the point, not a nicety: the `matmul_nt` tile kernels
/// stream 32-byte loads from `rhsᵀ` rows, and a `Vec` the allocator
/// happens to place at 8- or 16-mod-64 makes half of those loads
/// straddle cache lines. On the load-port-bound score-evaluation path
/// that was a measured double-digit-percent slowdown that came and
/// went with heap layout; a dedicated aligned buffer makes the fast
/// case deterministic (and drops a per-call transpose allocation).
#[allow(unsafe_code)]
pub fn with_aligned_scratch<T>(len: usize, f: impl FnOnce(&mut [f64]) -> T) -> T {
    NT_SCRATCH.with(|s| {
        let mut buf = s.borrow_mut();
        let lines = len.div_ceil(8).max(1);
        if buf.len() < lines {
            buf.resize(lines, CacheLine([0.0; 8]));
        }
        // SAFETY: `CacheLine` is exactly eight `f64`s (size 64, no
        // padding), so viewing the contiguous allocation as `f64`s is
        // in-bounds, correctly aligned, and fully initialized.
        let slice = unsafe {
            std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<f64>(), buf.len() * 8)
        };
        f(&mut slice[..len])
    })
}

// ---------------------------------------------------------------------------
// dot
// ---------------------------------------------------------------------------

/// Straight-line scalar spelling of the lane-split-4 contract — the
/// executable specification the other paths are tested against.
///
/// Lengths must match (checked by the public [`crate::kernels::dot`]).
pub fn dot_reference(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let chunks = n / 4;
    let mut acc = [0.0f64; 4];
    for k in 0..chunks {
        for c in 0..4 {
            acc[c] = a[4 * k + c].mul_add(b[4 * k + c], acc[c]);
        }
    }
    let mut combined = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for k in 4 * chunks..n {
        combined = a[k].mul_add(b[k], combined);
    }
    combined
}

#[inline(always)]
fn dot_unrolled_body<const R: usize>(a: &[f64], b: &[f64]) -> f64 {
    // R > 0 monomorphizes the dominant ranks (4/8/16): the trip counts
    // become constants and the chunk loop fully unrolls. R == 0 is the
    // runtime-length version of the identical code.
    let n = if R > 0 { R } else { a.len() };
    let chunks = n / 4;
    let mut acc = [0.0f64; 4];
    for k in 0..chunks {
        let ca = &a[4 * k..4 * k + 4];
        let cb = &b[4 * k..4 * k + 4];
        for c in 0..4 {
            acc[c] = ca[c].mul_add(cb[c], acc[c]);
        }
    }
    let mut combined = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for k in 4 * chunks..n {
        combined = a[k].mul_add(b[k], combined);
    }
    combined
}

/// Portable unrolled fallback for [`crate::kernels::dot`], with
/// rank-monomorphized fast paths for 4/8/10/16 (10 is the paper's
/// default rank, so it is the one the SGD hot path actually takes).
#[inline]
pub fn dot_portable(a: &[f64], b: &[f64]) -> f64 {
    match a.len() {
        4 => dot_unrolled_body::<4>(a, b),
        8 => dot_unrolled_body::<8>(a, b),
        10 => dot_unrolled_body::<10>(a, b),
        16 => dot_unrolled_body::<16>(a, b),
        _ => dot_unrolled_body::<0>(a, b),
    }
}

/// AVX2+FMA path for [`crate::kernels::dot`].
///
/// # Panics
/// Panics when the CPU lacks AVX2/FMA (callers should gate on
/// [`avx2_available`]; the dispatcher does).
#[inline]
#[allow(unsafe_code)]
pub fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    assert!(avx2_available(), "AVX2 dot on a CPU without AVX2/FMA");
    // SAFETY: the feature check above guarantees the target features
    // the callee is compiled with are present at runtime.
    unsafe { avx2::dot(a, b) }
}

/// Dispatched dot product (lengths already validated by the caller).
#[inline]
#[allow(unsafe_code)]
pub(crate) fn dot_dispatch(a: &[f64], b: &[f64]) -> f64 {
    match active() {
        // Avx512 implies Avx2, and the lane-split-4 contract caps the
        // useful register width at 256 bits here — same body.
        Dispatch::Avx2 | Dispatch::Avx512 => {
            // SAFETY: `active()` only returns Avx2/Avx512 when
            // `avx2_available()` reported the features present.
            unsafe { avx2::dot(a, b) }
        }
        Dispatch::Portable => dot_portable(a, b),
    }
}

// ---------------------------------------------------------------------------
// axpby
// ---------------------------------------------------------------------------

/// Scalar reference for [`crate::kernels::axpby`] — the unchanged v1
/// contract, `y[i] ← fma(beta, y[i], alpha·x[i])`.
pub fn axpby_reference(y: &mut [f64], beta: f64, alpha: f64, x: &[f64]) {
    for i in 0..y.len() {
        y[i] = beta.mul_add(y[i], alpha * x[i]);
    }
}

#[inline(always)]
fn axpby_unrolled_body<const R: usize>(y: &mut [f64], beta: f64, alpha: f64, x: &[f64]) {
    let n = if R > 0 { R } else { y.len() };
    for i in 0..n {
        y[i] = beta.mul_add(y[i], alpha * x[i]);
    }
}

/// Portable fallback for [`crate::kernels::axpby`], with
/// rank-monomorphized fast paths for 4/8/10/16.
#[inline]
pub fn axpby_portable(y: &mut [f64], beta: f64, alpha: f64, x: &[f64]) {
    match y.len() {
        4 => axpby_unrolled_body::<4>(y, beta, alpha, x),
        8 => axpby_unrolled_body::<8>(y, beta, alpha, x),
        10 => axpby_unrolled_body::<10>(y, beta, alpha, x),
        16 => axpby_unrolled_body::<16>(y, beta, alpha, x),
        _ => axpby_unrolled_body::<0>(y, beta, alpha, x),
    }
}

/// AVX2+FMA path for [`crate::kernels::axpby`].
///
/// # Panics
/// Panics when the CPU lacks AVX2/FMA.
#[inline]
#[allow(unsafe_code)]
pub fn axpby_avx2(y: &mut [f64], beta: f64, alpha: f64, x: &[f64]) {
    assert!(avx2_available(), "AVX2 axpby on a CPU without AVX2/FMA");
    // SAFETY: feature check above.
    unsafe { avx2::axpby(y, beta, alpha, x) }
}

/// Dispatched axpby (lengths already validated by the caller).
#[inline]
#[allow(unsafe_code)]
pub(crate) fn axpby_dispatch(y: &mut [f64], beta: f64, alpha: f64, x: &[f64]) {
    match active() {
        Dispatch::Avx2 | Dispatch::Avx512 => {
            // SAFETY: `active()` implies `avx2_available()`.
            unsafe { avx2::axpby(y, beta, alpha, x) }
        }
        Dispatch::Portable => axpby_portable(y, beta, alpha, x),
    }
}

// ---------------------------------------------------------------------------
// matmul_nt
// ---------------------------------------------------------------------------

/// Per-entry scalar reference for `matmul_nt`: `out[i][j]` is exactly
/// [`dot_reference`]`(lhs.row(i), rhs.row(j))`. Quadratic and slow —
/// it exists as the conformance oracle.
pub fn matmul_nt_reference(
    lhs: &[f64],
    rhs: &[f64],
    rows: usize,
    inner: usize,
    cols: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.reserve(rows * cols);
    for i in 0..rows {
        let a = &lhs[i * inner..(i + 1) * inner];
        for j in 0..cols {
            out.push(dot_reference(a, &rhs[j * inner..(j + 1) * inner]));
        }
    }
}

const NT_TILE: usize = 8;

#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn nt_row_portable_body<const R: usize>(
    a: &[f64],
    inner: usize,
    rhs: &[f64],
    rhs_t: &[f64],
    cols: usize,
    out: &mut Vec<f64>,
) {
    let inner = if R > 0 { R } else { inner };
    let chunks = inner / 4;
    let mut j = 0;
    // Tiles of 8 output columns: 4 lane accumulators × 8 columns, all
    // independent, so the autovectorizer can keep 8 fma chains in
    // flight. Per column the accumulation is exactly the lane-split-4
    // chain of `dot_reference`.
    while j + NT_TILE <= cols {
        let mut acc = [[0.0f64; NT_TILE]; 4];
        for k in 0..chunks {
            for c in 0..4 {
                let ak = a[4 * k + c];
                let r = &rhs_t[(4 * k + c) * cols + j..][..NT_TILE];
                for t in 0..NT_TILE {
                    acc[c][t] = ak.mul_add(r[t], acc[c][t]);
                }
            }
        }
        let mut comb = [0.0f64; NT_TILE];
        for t in 0..NT_TILE {
            comb[t] = (acc[0][t] + acc[2][t]) + (acc[1][t] + acc[3][t]);
        }
        for k in 4 * chunks..inner {
            let ak = a[k];
            let r = &rhs_t[k * cols + j..][..NT_TILE];
            for t in 0..NT_TILE {
                comb[t] = ak.mul_add(r[t], comb[t]);
            }
        }
        out.extend_from_slice(&comb);
        j += NT_TILE;
    }
    // Column remainder: per-entry dot against the contiguous rhs row —
    // same chain, same bits.
    while j < cols {
        out.push(dot_portable(a, &rhs[j * inner..(j + 1) * inner]));
        j += 1;
    }
}

/// Portable blocked/tiled `matmul_nt` over raw row-major storage:
/// `lhs` is `rows × inner`, `rhs` is `cols × inner`, `rhs_t` is the
/// materialized `inner × cols` transpose. Appends `rows·cols` entries
/// to `out` (cleared first). `inner` must be ≥ 1 (the caller
/// short-circuits the empty inner dimension).
fn matmul_nt_portable(
    lhs: &[f64],
    rhs: &[f64],
    rhs_t: &[f64],
    rows: usize,
    inner: usize,
    cols: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.reserve(rows * cols);
    for i in 0..rows {
        let a = &lhs[i * inner..(i + 1) * inner];
        match inner {
            4 => nt_row_portable_body::<4>(a, inner, rhs, rhs_t, cols, out),
            8 => nt_row_portable_body::<8>(a, inner, rhs, rhs_t, cols, out),
            10 => nt_row_portable_body::<10>(a, inner, rhs, rhs_t, cols, out),
            16 => nt_row_portable_body::<16>(a, inner, rhs, rhs_t, cols, out),
            _ => nt_row_portable_body::<0>(a, inner, rhs, rhs_t, cols, out),
        }
    }
}

/// Dispatched `matmul_nt` backend (shapes already validated by
/// [`crate::Matrix::matmul_nt_into`]).
#[inline]
#[allow(unsafe_code)]
pub(crate) fn matmul_nt_dispatch(
    lhs: &[f64],
    rhs: &[f64],
    rhs_t: &[f64],
    rows: usize,
    inner: usize,
    cols: usize,
    out: &mut Vec<f64>,
) {
    match active() {
        Dispatch::Avx512 => {
            // SAFETY: `active()` implies `avx512_available()`.
            unsafe { avx512::matmul_nt(lhs, rhs, rhs_t, rows, inner, cols, out) }
        }
        Dispatch::Avx2 => {
            // SAFETY: `active()` implies `avx2_available()`.
            unsafe { avx2::matmul_nt(lhs, rhs, rhs_t, rows, inner, cols, out) }
        }
        Dispatch::Portable => matmul_nt_portable(lhs, rhs, rhs_t, rows, inner, cols, out),
    }
}

// ---------------------------------------------------------------------------
// AVX2 implementations (the only unsafe code in the crate)
// ---------------------------------------------------------------------------

/// The `std::arch` implementations. Everything here is compiled with
/// `#[target_feature(enable = "avx2", enable = "fma")]` and must only
/// be called after a runtime feature check; the safe wrappers above
/// are the only callers.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code, clippy::needless_range_loop)]
mod avx2 {
    use std::arch::x86_64::*;

    /// Horizontal reduce matching the contract's combine order:
    /// `(lane0 + lane2) + (lane1 + lane3)`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum(acc: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(acc); // [lane0, lane1]
        let hi = _mm256_extractf128_pd::<1>(acc); // [lane2, lane3]
        let pair = _mm_add_pd(lo, hi); // [l0+l2, l1+l3]
        let swapped = _mm_unpackhi_pd(pair, pair); // [l1+l3, l1+l3]
        _mm_cvtsd_f64(_mm_add_sd(pair, swapped))
    }

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_body<const R: usize>(a: &[f64], b: &[f64]) -> f64 {
        let n = if R > 0 { R } else { a.len() };
        let chunks = n / 4;
        let mut acc = _mm256_setzero_pd();
        for k in 0..chunks {
            let va = _mm256_loadu_pd(a.as_ptr().add(4 * k));
            let vb = _mm256_loadu_pd(b.as_ptr().add(4 * k));
            acc = _mm256_fmadd_pd(va, vb, acc);
        }
        let mut combined = hsum(acc);
        for k in 4 * chunks..n {
            combined = (*a.get_unchecked(k)).mul_add(*b.get_unchecked(k), combined);
        }
        combined
    }

    // `#[inline]` on the public entry points lets builds whose baseline
    // already includes AVX2+FMA (e.g. `target-cpu=native`) inline the
    // whole chain into the dispatcher's callers; generic builds keep a
    // plain call across the `#[target_feature]` boundary.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        match a.len() {
            4 => dot_body::<4>(a, b),
            8 => dot_body::<8>(a, b),
            10 => dot_body::<10>(a, b),
            16 => dot_body::<16>(a, b),
            _ => dot_body::<0>(a, b),
        }
    }

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn axpby_body<const R: usize>(y: &mut [f64], beta: f64, alpha: f64, x: &[f64]) {
        let n = if R > 0 { R } else { y.len() };
        let chunks = n / 4;
        let vbeta = _mm256_set1_pd(beta);
        let valpha = _mm256_set1_pd(alpha);
        for k in 0..chunks {
            let vy = _mm256_loadu_pd(y.as_ptr().add(4 * k));
            let vx = _mm256_loadu_pd(x.as_ptr().add(4 * k));
            let r = _mm256_fmadd_pd(vbeta, vy, _mm256_mul_pd(valpha, vx));
            _mm256_storeu_pd(y.as_mut_ptr().add(4 * k), r);
        }
        for k in 4 * chunks..n {
            let yk = *y.get_unchecked(k);
            *y.get_unchecked_mut(k) = beta.mul_add(yk, alpha * *x.get_unchecked(k));
        }
    }

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpby(y: &mut [f64], beta: f64, alpha: f64, x: &[f64]) {
        match y.len() {
            4 => axpby_body::<4>(y, beta, alpha, x),
            8 => axpby_body::<8>(y, beta, alpha, x),
            10 => axpby_body::<10>(y, beta, alpha, x),
            16 => axpby_body::<16>(y, beta, alpha, x),
            _ => axpby_body::<0>(y, beta, alpha, x),
        }
    }

    /// One output row with the rank's broadcasts hoisted into
    /// registers: the `R` lane multipliers `set1(a[k])` are loaded
    /// once per row, so each 4-column tile costs only its `rhsᵀ`
    /// loads — folded straight into the fmas — plus the combine and
    /// one store. The tile kernels are load-port-bound, so dropping
    /// the per-tile broadcast loads is worth ~30% at rank 10; `R`
    /// must be small enough that `R + 4` accumulators fit the 16
    /// `ymm` registers (callers use this for ranks 4/8/10).
    ///
    /// (Non-temporal stores were tried here and measured ~2× slower
    /// than regular stores on the virtualized reference host, so the
    /// tile store below is a plain `vmovupd`.)
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn nt_row_hoisted<const R: usize>(
        a: &[f64],
        rhs: &[f64],
        rhs_t: &[f64],
        cols: usize,
        out: &mut Vec<f64>,
    ) {
        let chunks = R / 4;
        let mut ab = [_mm256_setzero_pd(); R];
        for (k, slot) in ab.iter_mut().enumerate() {
            *slot = _mm256_set1_pd(*a.get_unchecked(k));
        }
        let rt = rhs_t.as_ptr();
        let start = out.len();
        let op = out.as_mut_ptr().add(start);
        // One 4-column tile; a macro (not a helper fn) because
        // `#[inline(always)]` cannot be combined with
        // `#[target_feature]` and the body must stay in this frame.
        macro_rules! tile {
            ($j:expr) => {{
                let j = $j;
                let mut acc = [_mm256_setzero_pd(); 4];
                for k in 0..chunks {
                    for c in 0..4 {
                        let row = _mm256_loadu_pd(rt.add((4 * k + c) * cols + j));
                        acc[c] = _mm256_fmadd_pd(ab[4 * k + c], row, acc[c]);
                    }
                }
                let mut comb =
                    _mm256_add_pd(_mm256_add_pd(acc[0], acc[2]), _mm256_add_pd(acc[1], acc[3]));
                for k in 4 * chunks..R {
                    comb = _mm256_fmadd_pd(ab[k], _mm256_loadu_pd(rt.add(k * cols + j)), comb);
                }
                _mm256_storeu_pd(op.add(j), comb);
            }};
        }
        let mut j = 0;
        // 2× unrolled: loop control is a fifth of the tile's
        // instruction count, so halving it is measurable.
        while j + 8 <= cols {
            tile!(j);
            tile!(j + 4);
            j += 8;
        }
        while j + 4 <= cols {
            tile!(j);
            j += 4;
        }
        while j < cols {
            *op.add(j) = dot(a, rhs.get_unchecked(j * R..(j + 1) * R));
            j += 1;
        }
        out.set_len(start + cols);
    }

    /// One output row, 8 columns at a time: 4 lane accumulators × two
    /// 256-bit halves = 8 independent fma chains per tile. Also the
    /// fallback for non-monomorphized ranks on the AVX-512 path.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn nt_row<const R: usize>(
        a: &[f64],
        inner: usize,
        rhs: &[f64],
        rhs_t: &[f64],
        cols: usize,
        out: &mut Vec<f64>,
    ) {
        let inner = if R > 0 { R } else { inner };
        let chunks = inner / 4;
        let rt = rhs_t.as_ptr();
        let mut j = 0;
        while j + 8 <= cols {
            let mut acc = [[_mm256_setzero_pd(); 2]; 4];
            for k in 0..chunks {
                for c in 0..4 {
                    let ak = _mm256_set1_pd(*a.get_unchecked(4 * k + c));
                    let row = rt.add((4 * k + c) * cols + j);
                    acc[c][0] = _mm256_fmadd_pd(ak, _mm256_loadu_pd(row), acc[c][0]);
                    acc[c][1] = _mm256_fmadd_pd(ak, _mm256_loadu_pd(row.add(4)), acc[c][1]);
                }
            }
            let mut comb = [_mm256_setzero_pd(); 2];
            for (h, slot) in comb.iter_mut().enumerate() {
                *slot = _mm256_add_pd(
                    _mm256_add_pd(acc[0][h], acc[2][h]),
                    _mm256_add_pd(acc[1][h], acc[3][h]),
                );
            }
            for k in 4 * chunks..inner {
                let ak = _mm256_set1_pd(*a.get_unchecked(k));
                let row = rt.add(k * cols + j);
                comb[0] = _mm256_fmadd_pd(ak, _mm256_loadu_pd(row), comb[0]);
                comb[1] = _mm256_fmadd_pd(ak, _mm256_loadu_pd(row.add(4)), comb[1]);
            }
            // Capacity was reserved up front; write through the raw
            // pointer first, then publish the new length.
            let start = out.len();
            _mm256_storeu_pd(out.as_mut_ptr().add(start), comb[0]);
            _mm256_storeu_pd(out.as_mut_ptr().add(start + 4), comb[1]);
            out.set_len(start + 8);
            j += 8;
        }
        while j < cols {
            out.push(dot(a, &rhs[j * inner..(j + 1) * inner]));
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matmul_nt(
        lhs: &[f64],
        rhs: &[f64],
        rhs_t: &[f64],
        rows: usize,
        inner: usize,
        cols: usize,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.reserve(rows * cols);
        for i in 0..rows {
            let a = &lhs[i * inner..(i + 1) * inner];
            match inner {
                4 => nt_row_hoisted::<4>(a, rhs, rhs_t, cols, out),
                8 => nt_row_hoisted::<8>(a, rhs, rhs_t, cols, out),
                10 => nt_row_hoisted::<10>(a, rhs, rhs_t, cols, out),
                16 => nt_row::<16>(a, inner, rhs, rhs_t, cols, out),
                _ => nt_row::<0>(a, inner, rhs, rhs_t, cols, out),
            }
        }
    }
}

/// The AVX-512F `matmul_nt` tiles. Same lane-split-4 contract, wider
/// registers: a `zmm` accumulator carries eight output columns, and
/// each of its 64-bit elements runs exactly the scalar reference
/// chain for its column — the bits cannot differ from the AVX2 or
/// portable paths. `dot`/`axpby` have no AVX-512 form (their contract
/// fixes four lanes), so only this kernel lives here.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code, clippy::needless_range_loop)]
mod avx512 {
    use std::arch::x86_64::*;

    /// One output row, 8 columns per 512-bit tile, with the rank's
    /// broadcasts hoisted into registers (AVX-512 has 32 of them, so
    /// rank 16 fits comfortably). Per tile the loads fold into the
    /// fmas, halving the per-output load-port pressure that bounds
    /// the 256-bit kernel.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    unsafe fn nt_row_hoisted<const R: usize>(
        a: &[f64],
        rhs: &[f64],
        rhs_t: &[f64],
        cols: usize,
        out: &mut Vec<f64>,
    ) {
        let chunks = R / 4;
        let mut ab = [_mm512_setzero_pd(); R];
        for (k, slot) in ab.iter_mut().enumerate() {
            *slot = _mm512_set1_pd(*a.get_unchecked(k));
        }
        let rt = rhs_t.as_ptr();
        let start = out.len();
        let op = out.as_mut_ptr().add(start);
        let mut j = 0;
        // Two independent 8-column tiles per iteration: 8 accumulator
        // chains hide fma latency behind the folded L1 loads, and the
        // loop overhead amortizes over 16 outputs (18 live registers,
        // well inside the 32-register file).
        while j + 16 <= cols {
            let mut acc = [_mm512_setzero_pd(); 4];
            let mut acc2 = [_mm512_setzero_pd(); 4];
            for k in 0..chunks {
                for c in 0..4 {
                    let p = rt.add((4 * k + c) * cols + j);
                    acc[c] = _mm512_fmadd_pd(ab[4 * k + c], _mm512_loadu_pd(p), acc[c]);
                    acc2[c] = _mm512_fmadd_pd(ab[4 * k + c], _mm512_loadu_pd(p.add(8)), acc2[c]);
                }
            }
            let mut comb =
                _mm512_add_pd(_mm512_add_pd(acc[0], acc[2]), _mm512_add_pd(acc[1], acc[3]));
            let mut comb2 = _mm512_add_pd(
                _mm512_add_pd(acc2[0], acc2[2]),
                _mm512_add_pd(acc2[1], acc2[3]),
            );
            for k in 4 * chunks..R {
                let p = rt.add(k * cols + j);
                comb = _mm512_fmadd_pd(ab[k], _mm512_loadu_pd(p), comb);
                comb2 = _mm512_fmadd_pd(ab[k], _mm512_loadu_pd(p.add(8)), comb2);
            }
            _mm512_storeu_pd(op.add(j), comb);
            _mm512_storeu_pd(op.add(j + 8), comb2);
            j += 16;
        }
        while j + 8 <= cols {
            let mut acc = [_mm512_setzero_pd(); 4];
            for k in 0..chunks {
                for c in 0..4 {
                    let row = _mm512_loadu_pd(rt.add((4 * k + c) * cols + j));
                    acc[c] = _mm512_fmadd_pd(ab[4 * k + c], row, acc[c]);
                }
            }
            let mut comb =
                _mm512_add_pd(_mm512_add_pd(acc[0], acc[2]), _mm512_add_pd(acc[1], acc[3]));
            for k in 4 * chunks..R {
                comb = _mm512_fmadd_pd(ab[k], _mm512_loadu_pd(rt.add(k * cols + j)), comb);
            }
            _mm512_storeu_pd(op.add(j), comb);
            j += 8;
        }
        // 4-column remainder tile on the lower 256-bit halves of the
        // hoisted broadcasts (a free cast), then per-entry dots.
        if j + 4 <= cols {
            let mut acc = [_mm256_setzero_pd(); 4];
            for k in 0..chunks {
                for c in 0..4 {
                    let row = _mm256_loadu_pd(rt.add((4 * k + c) * cols + j));
                    acc[c] = _mm256_fmadd_pd(_mm512_castpd512_pd256(ab[4 * k + c]), row, acc[c]);
                }
            }
            let mut comb =
                _mm256_add_pd(_mm256_add_pd(acc[0], acc[2]), _mm256_add_pd(acc[1], acc[3]));
            for k in 4 * chunks..R {
                comb = _mm256_fmadd_pd(
                    _mm512_castpd512_pd256(ab[k]),
                    _mm256_loadu_pd(rt.add(k * cols + j)),
                    comb,
                );
            }
            _mm256_storeu_pd(op.add(j), comb);
            j += 4;
        }
        while j < cols {
            *op.add(j) = super::avx2::dot(a, rhs.get_unchecked(j * R..(j + 1) * R));
            j += 1;
        }
        out.set_len(start + cols);
    }

    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn matmul_nt(
        lhs: &[f64],
        rhs: &[f64],
        rhs_t: &[f64],
        rows: usize,
        inner: usize,
        cols: usize,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.reserve(rows * cols);
        for i in 0..rows {
            let a = &lhs[i * inner..(i + 1) * inner];
            match inner {
                4 => nt_row_hoisted::<4>(a, rhs, rhs_t, cols, out),
                8 => nt_row_hoisted::<8>(a, rhs, rhs_t, cols, out),
                10 => nt_row_hoisted::<10>(a, rhs, rhs_t, cols, out),
                16 => nt_row_hoisted::<16>(a, rhs, rhs_t, cols, out),
                _ => super::avx2::nt_row::<0>(a, inner, rhs, rhs_t, cols, out),
            }
        }
    }
}

// Non-x86-64 stub so the dispatchers compile everywhere; `active()`
// can never return `Avx2` on these targets.
#[cfg(not(target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx2 {
    pub unsafe fn dot(_a: &[f64], _b: &[f64]) -> f64 {
        unreachable!("AVX2 path selected on a non-x86-64 target")
    }
    pub unsafe fn axpby(_y: &mut [f64], _beta: f64, _alpha: f64, _x: &[f64]) {
        unreachable!("AVX2 path selected on a non-x86-64 target")
    }
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn matmul_nt(
        _lhs: &[f64],
        _rhs: &[f64],
        _rhs_t: &[f64],
        _rows: usize,
        _inner: usize,
        _cols: usize,
        _out: &mut Vec<f64>,
    ) {
        unreachable!("AVX2 path selected on a non-x86-64 target")
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx512 {
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn matmul_nt(
        _lhs: &[f64],
        _rhs: &[f64],
        _rhs_t: &[f64],
        _rows: usize,
        _inner: usize,
        _cols: usize,
        _out: &mut Vec<f64>,
    ) {
        unreachable!("AVX-512 path selected on a non-x86-64 target")
    }
}

// ---------------------------------------------------------------------------
// prefetch (below the kernels on purpose: placed above them it moved
// their code and `train-oracle` read 6 % slower in 11 of 14 pairs)
// ---------------------------------------------------------------------------

/// Cache-line size [`prefetch`] strides by.
const LINE_BYTES: usize = 64;

/// Number of cache lines the `bytes` bytes starting at `addr` overlap.
#[inline]
fn lines_spanned(addr: usize, bytes: usize) -> usize {
    match bytes {
        0 => 0,
        _ => (addr % LINE_BYTES + bytes).div_ceil(LINE_BYTES),
    }
}

/// Hints the CPU to pull every cache line `value` occupies into all
/// cache levels (x86-64 `PREFETCHT0`; a no-op on other targets). For
/// a caller that knows which state it will touch a few hundred
/// instructions from now — the sharded event loop knows its next
/// deliveries — this overlaps the misses instead of taking them one at
/// a time. Purely a hint: it reads nothing, so it cannot change a
/// result, and only lines that hold a byte of `value` are named (none
/// for a zero-sized value or an empty slice).
#[inline]
#[allow(unsafe_code)]
pub fn prefetch<T: ?Sized>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = std::ptr::from_ref(value).cast::<i8>();
        let first_line = start.wrapping_sub(start as usize % LINE_BYTES);
        for line in 0..lines_spanned(start as usize, std::mem::size_of_val(value)) {
            // SAFETY: a prefetch never faults and has no architectural
            // effect, whatever address it is given; SSE is part of the
            // x86-64 baseline, so no feature check is needed. The
            // address names a line holding a byte of the live `value`.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first_line.wrapping_add(line * LINE_BYTES)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// AVX-512F tiled `matmul_nt` (same storage conventions as
    /// [`matmul_nt_portable`]).
    ///
    /// # Panics
    /// Panics when the CPU lacks AVX-512F.
    #[allow(unsafe_code)]
    fn matmul_nt_avx512(
        lhs: &[f64],
        rhs: &[f64],
        rhs_t: &[f64],
        rows: usize,
        inner: usize,
        cols: usize,
        out: &mut Vec<f64>,
    ) {
        assert!(
            avx512_available(),
            "AVX-512 matmul_nt on a CPU without AVX-512F"
        );
        // SAFETY: feature check above.
        unsafe { avx512::matmul_nt(lhs, rhs, rhs_t, rows, inner, cols, out) }
    }

    /// AVX2+FMA blocked/tiled `matmul_nt` (same storage conventions as
    /// [`matmul_nt_portable`]).
    ///
    /// # Panics
    /// Panics when the CPU lacks AVX2/FMA.
    #[allow(unsafe_code)]
    fn matmul_nt_avx2(
        lhs: &[f64],
        rhs: &[f64],
        rhs_t: &[f64],
        rows: usize,
        inner: usize,
        cols: usize,
        out: &mut Vec<f64>,
    ) {
        assert!(avx2_available(), "AVX2 matmul_nt on a CPU without AVX2/FMA");
        // SAFETY: feature check above.
        unsafe { avx2::matmul_nt(lhs, rhs, rhs_t, rows, inner, cols, out) }
    }

    fn data(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                (((i as u64).wrapping_mul(2654435761).wrapping_add(salt) % 1000) as f64 / 37.0)
                    - 13.0
            })
            .collect()
    }

    #[test]
    fn portable_dot_matches_reference_bitwise() {
        for n in 0..=33 {
            let a = data(n, 1);
            let b = data(n, 7);
            assert_eq!(
                dot_portable(&a, &b).to_bits(),
                dot_reference(&a, &b).to_bits(),
                "rank {n}"
            );
        }
    }

    #[test]
    fn avx2_dot_matches_reference_bitwise() {
        if !avx2_available() {
            return;
        }
        for n in 0..=33 {
            let a = data(n, 3);
            let b = data(n, 11);
            assert_eq!(
                dot_avx2(&a, &b).to_bits(),
                dot_reference(&a, &b).to_bits(),
                "rank {n}"
            );
        }
    }

    #[test]
    fn axpby_paths_match_bitwise() {
        for n in 0..=33 {
            let x = data(n, 5);
            let mut y_ref = data(n, 9);
            let mut y_port = y_ref.clone();
            axpby_reference(&mut y_ref, 0.987, -0.031, &x);
            axpby_portable(&mut y_port, 0.987, -0.031, &x);
            assert_eq!(bits(&y_ref), bits(&y_port), "rank {n}");
            if avx2_available() {
                let mut y_simd = data(n, 9);
                axpby_avx2(&mut y_simd, 0.987, -0.031, &x);
                assert_eq!(bits(&y_ref), bits(&y_simd), "rank {n}");
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matmul_paths_match_reference_bitwise() {
        for (rows, inner, cols) in [(3, 10, 17), (5, 4, 8), (2, 16, 9), (4, 7, 3), (1, 1, 1)] {
            let lhs = data(rows * inner, 21);
            let rhs = data(cols * inner, 23);
            let mut rhs_t = vec![0.0; inner * cols];
            for j in 0..cols {
                for k in 0..inner {
                    rhs_t[k * cols + j] = rhs[j * inner + k];
                }
            }
            let mut want = Vec::new();
            matmul_nt_reference(&lhs, &rhs, rows, inner, cols, &mut want);
            let mut got = Vec::new();
            matmul_nt_portable(&lhs, &rhs, &rhs_t, rows, inner, cols, &mut got);
            assert_eq!(bits(&want), bits(&got), "portable {rows}x{inner}x{cols}");
            if avx2_available() {
                matmul_nt_avx2(&lhs, &rhs, &rhs_t, rows, inner, cols, &mut got);
                assert_eq!(bits(&want), bits(&got), "avx2 {rows}x{inner}x{cols}");
            }
            if avx512_available() {
                matmul_nt_avx512(&lhs, &rhs, &rhs_t, rows, inner, cols, &mut got);
                assert_eq!(bits(&want), bits(&got), "avx512 {rows}x{inner}x{cols}");
            }
        }
    }

    #[test]
    fn signed_zero_follows_v2_contract() {
        // fma(x, y, +0.0) flushes a -0.0 product to +0.0: the v2 chain
        // returns +0.0 where the v1 product-initialized chain kept the
        // sign. Pinned here so the quirk is deliberate, not accidental.
        let a = [-1.0, 0.0];
        let b = [0.0, 5.0];
        let d = dot_reference(&a, &b);
        assert_eq!(d.to_bits(), 0.0f64.to_bits());
        assert_eq!(dot_portable(&a, &b).to_bits(), d.to_bits());
    }

    #[test]
    fn prefetch_names_exactly_the_lines_a_value_occupies() {
        // Nothing for no bytes, wherever they are not.
        assert_eq!(lines_spanned(0, 0), 0);
        assert_eq!(lines_spanned(4096 + 63, 0), 0);
        // One byte is one line, also the last byte of a line.
        assert_eq!(lines_spanned(4096, 1), 1);
        assert_eq!(lines_spanned(4096 + 63, 1), 1);
        assert_eq!(lines_spanned(4096 + 63, 2), 2);
        // A value ending on the last byte of a line (so possibly of
        // its page and allocation) does not reach into the next one.
        assert_eq!(lines_spanned(4096 - 64, 64), 1);
        assert_eq!(lines_spanned(4096 - 8, 8), 1);
        // A 300-byte node-sized struct: five lines when line-aligned,
        // six when it straddles.
        assert_eq!(lines_spanned(4096, 300), 5);
        assert_eq!(lines_spanned(4096 + 40, 300), 6);
    }

    #[test]
    fn thread_override_controls_active_path() {
        let default = active();
        set_thread_override(Some(Dispatch::Portable));
        assert_eq!(active(), Dispatch::Portable);
        set_thread_override(None);
        assert_eq!(active(), default);
    }
}
