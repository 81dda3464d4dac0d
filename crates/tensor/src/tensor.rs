//! The `f32` N-dimensional array at the heart of the workspace.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

use rand::Rng;

use crate::Shape;

/// A contiguous, row-major, `f32` N-dimensional array.
///
/// `Tensor` provides exactly the operations the rram-bnn training and
/// inference stack needs; it is intentionally small rather than general.
/// Binary (±1) data uses [`BitVec`](crate::BitVec) /
/// [`BitMatrix`](crate::BitMatrix) instead.
///
/// ```
/// use rbnn_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
/// assert_eq!(x.map(f32::abs).sum(), 6.0);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

/// Index of the maximum element of a slice (first occurrence; 0 for an
/// empty slice) — the shared argmax behind every classification path.
#[inline]
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Self {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Self {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the number of elements implied by
    /// `shape`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer of {} elements cannot have shape {}",
            data.len(),
            shape
        );
        Self { data, shape }
    }

    /// Creates a tensor by calling `f(flat_index)` for every element.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(&mut f).collect();
        Self { data, shape }
    }

    /// Samples every element i.i.d. from `N(0, std²)` using the Box–Muller
    /// transform on the supplied RNG (keeps the whole workspace reproducible
    /// from a single seed).
    pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Self { data, shape }
    }

    /// Samples every element i.i.d. from the uniform distribution over
    /// `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.gen_range(lo..hi)).collect();
        Self { data, shape }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Extent of dimension `axis`.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or a coordinate is out of range.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or a coordinate is out of range.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Returns the contiguous sub-tensor at position `i` of the leading axis.
    ///
    /// For a `[N, C, L]` tensor this is sample `i` with shape `[C, L]`.
    ///
    /// # Panics
    ///
    /// Panics on a scalar tensor or if `i` is out of range.
    pub fn index_axis0(&self, i: usize) -> Tensor {
        assert!(self.shape.ndim() >= 1, "cannot index a scalar tensor");
        let n = self.shape.dim(0);
        assert!(
            i < n,
            "index {i} out of range for leading axis of extent {n}"
        );
        let inner: Vec<usize> = self.shape.dims()[1..].to_vec();
        let stride: usize = inner.iter().product();
        let data = self.data[i * stride..(i + 1) * stride].to_vec();
        Tensor::from_vec(data, inner)
    }

    /// Writes `src` into position `i` of the leading axis.
    ///
    /// # Panics
    ///
    /// Panics if `src`'s shape does not match this tensor's trailing
    /// dimensions or `i` is out of range.
    pub fn set_axis0(&mut self, i: usize, src: &Tensor) {
        assert!(self.shape.ndim() >= 1, "cannot index a scalar tensor");
        let n = self.shape.dim(0);
        assert!(
            i < n,
            "index {i} out of range for leading axis of extent {n}"
        );
        let inner: Vec<usize> = self.shape.dims()[1..].to_vec();
        assert_eq!(src.dims(), &inner[..], "sub-tensor shape mismatch");
        let stride: usize = inner.iter().product();
        self.data[i * stride..(i + 1) * stride].copy_from_slice(src.as_slice());
    }

    /// Reshapes this tensor to `shape` and fills it with zeros, reusing the
    /// existing allocation when it is large enough.
    ///
    /// This is the zero-alloc counterpart of `Tensor::zeros` for buffers
    /// that live across batches (GEMM outputs, caches, batch buffers).
    pub fn resize_zeroed(&mut self, shape: impl Into<Shape>) {
        let shape = shape.into();
        let n = shape.numel();
        self.data.clear();
        self.data.resize(n, 0.0);
        if self.shape != shape {
            self.shape = shape;
        }
    }

    /// Reshapes this tensor to `shape` reusing its allocation, leaving the
    /// element values **unspecified** (a mix of prior contents and zeros).
    ///
    /// For buffers about to be fully overwritten (GEMM outputs, gathered
    /// batches); use [`resize_zeroed`](Self::resize_zeroed) when the code
    /// that follows only accumulates.
    pub fn resize_for_overwrite(&mut self, shape: impl Into<Shape>) {
        let shape = shape.into();
        let n = shape.numel();
        if self.data.len() != n {
            self.data.resize(n, 0.0);
        }
        if self.shape != shape {
            self.shape = shape;
        }
    }

    /// Overwrites this tensor with a copy of `src`, reusing the existing
    /// allocation when it is large enough (the zero-alloc counterpart of
    /// `clone` for cache fields refreshed every batch).
    pub fn copy_from(&mut self, src: &Tensor) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
        if self.shape != src.shape {
            self.shape = src.shape.clone();
        }
    }

    /// Gathers `indices` of the leading axis of `self` into `out`
    /// (`[indices.len(), …]`), reusing `out`'s allocation.
    ///
    /// This replaces the per-sample `index_axis0` + `stack` batch assembly
    /// (two full copies and `O(batch)` allocations per step) with a single
    /// copy into a buffer reused across the epoch.
    ///
    /// # Panics
    ///
    /// Panics on a scalar tensor or if an index is out of range.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Tensor) {
        assert!(self.shape.ndim() >= 1, "cannot gather a scalar tensor");
        let n = self.shape.dim(0);
        let stride: usize = self.shape.dims()[1..].iter().product();
        out.data.clear();
        out.data.reserve(indices.len() * stride);
        for &i in indices {
            assert!(
                i < n,
                "index {i} out of range for leading axis of extent {n}"
            );
            out.data
                .extend_from_slice(&self.data[i * stride..(i + 1) * stride]);
        }
        let mut dims = Vec::with_capacity(self.shape.ndim());
        dims.push(indices.len());
        dims.extend_from_slice(&self.shape.dims()[1..]);
        if out.shape.dims() != dims {
            out.shape = Shape::new(&dims);
        }
    }

    /// Stacks tensors of identical shape along a new leading axis.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or shapes differ.
    pub fn stack(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "cannot stack an empty list of tensors");
        let inner = items[0].shape().clone();
        let mut dims = vec![items.len()];
        dims.extend_from_slice(inner.dims());
        let mut out = Tensor::zeros(dims);
        for (i, t) in items.iter().enumerate() {
            assert_eq!(t.shape(), &inner, "stack: shape mismatch at item {i}");
            out.set_axis0(i, t);
        }
        out
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} elements into {}",
            self.numel(),
            shape
        );
        Tensor {
            data: self.data.clone(),
            shape,
        }
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.ndim(), 2, "transpose requires a 2-D tensor");
        let (r, c) = (self.dim(0), self.dim(1));
        let mut out = Tensor::zeros([c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Elementwise operations
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip: shape mismatch");
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// Adds `other * scale` into `self` (`axpy`), in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
    }

    /// Sets every element to zero (reuses the allocation).
    pub fn fill(&mut self, value: f32) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// The elementwise sign with `sign(0) = +1`, as used for BNN weight and
    /// activation binarization (a weight of exactly 0 maps to +1 so every
    /// synapse has a definite differential state). Semantics — including
    /// NaN → −1 and `-0.0` → +1 — are pinned by the canonical
    /// [`sign_bit`](crate::sign_bit) predicate shared with the bit-packing
    /// kernels.
    pub fn signum_binary(&self) -> Tensor {
        self.map(|x| if crate::sign_bit(x) { 1.0 } else { -1.0 })
    }

    /// [`signum_binary`](Self::signum_binary) written into `dst`, reusing
    /// its allocation — the zero-alloc effective-weight refresh every
    /// binarized layer performs each batch.
    pub fn signum_binary_into(&self, dst: &mut Tensor) {
        dst.resize_for_overwrite(self.shape.clone());
        for (d, &x) in dst.data.iter_mut().zip(&self.data) {
            *d = if crate::sign_bit(x) { 1.0 } else { -1.0 };
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Population variance of all elements.
    pub fn variance(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        self.data.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / self.data.len() as f32
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first occurrence; 0 for empty).
    pub fn argmax(&self) -> usize {
        argmax(&self.data)
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Dot product with a same-shaped tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "dot: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// True if every pairwise difference is at most `tol` in absolute value.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}", self.shape)?;
        if self.numel() <= 8 {
            write!(f, ", {:?}", self.data)?;
        } else {
            write!(
                f,
                ", [{:.4}, {:.4}, … ; mean {:.4}]",
                self.data[0],
                self.data[1],
                self.mean()
            )?;
        }
        write!(f, ")")
    }
}

macro_rules! elementwise_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip(rhs, |a, b| a $op b)
            }
        }
        impl $trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|a| a $op rhs)
            }
        }
    };
}

elementwise_binop!(Add, add, +);
elementwise_binop!(Sub, sub, -);
elementwise_binop!(Mul, mul, *);
elementwise_binop!(Div, div, /);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|a| -a)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.add_scaled(rhs, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros([2, 3]).sum(), 0.0);
        assert_eq!(Tensor::ones([2, 3]).sum(), 6.0);
        assert_eq!(Tensor::full([4], 2.5).sum(), 10.0);
        let e = Tensor::eye(3);
        assert_eq!(e.sum(), 3.0);
        assert_eq!(e.at(&[1, 1]), 1.0);
        assert_eq!(e.at(&[0, 1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot have shape")]
    fn from_vec_bad_len_panics() {
        Tensor::from_vec(vec![1.0, 2.0], [3]);
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn([10_000], 2.0, &mut rng);
        assert!(t.mean().abs() < 0.1, "mean {} too far from 0", t.mean());
        assert!(
            (t.variance().sqrt() - 2.0).abs() < 0.1,
            "std {} too far from 2",
            t.variance().sqrt()
        );
    }

    #[test]
    fn rand_uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::rand_uniform([1000], -1.0, 1.0, &mut rng);
        assert!(t.min() >= -1.0 && t.max() < 1.0);
    }

    #[test]
    fn indexing_roundtrip() {
        let t = Tensor::from_fn([2, 3, 4], |i| i as f32);
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
        let s = t.index_axis0(1);
        assert_eq!(s.dims(), &[3, 4]);
        assert_eq!(s.at(&[0, 0]), 12.0);
        let mut u = Tensor::zeros([2, 3, 4]);
        u.set_axis0(1, &s);
        assert_eq!(u.at(&[1, 2, 3]), 23.0);
        assert_eq!(u.at(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn gather_rows_into_matches_stack_of_index_axis0() {
        let x = Tensor::from_fn([4, 2, 3], |i| i as f32);
        let idx = [2usize, 0, 2];
        let expect = Tensor::stack(&idx.iter().map(|&i| x.index_axis0(i)).collect::<Vec<_>>());
        let mut out = Tensor::zeros([50]); // stale shape and spare capacity
        let cap = out.as_slice().as_ptr();
        x.gather_rows_into(&idx, &mut out);
        assert_eq!(out, expect);
        assert_eq!(out.as_slice().as_ptr(), cap, "must reuse the allocation");
        // Partial batch reuses the same buffer at a smaller leading extent.
        x.gather_rows_into(&[1], &mut out);
        assert_eq!(out.dims(), &[1, 2, 3]);
        assert_eq!(out.as_slice(), x.index_axis0(1).as_slice());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rows_into_rejects_bad_index() {
        let x = Tensor::zeros([2, 2]);
        let mut out = Tensor::default();
        x.gather_rows_into(&[2], &mut out);
    }

    #[test]
    fn resize_zeroed_and_copy_from_reuse_allocations() {
        let mut t = Tensor::full([10], 3.0);
        let ptr = t.as_slice().as_ptr();
        t.resize_zeroed([2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.as_slice().as_ptr(), ptr);
        let src = Tensor::from_fn([4], |i| i as f32);
        t.copy_from(&src);
        assert_eq!(t, src);
        assert_eq!(t.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn stack_unstack() {
        let a = Tensor::full([2, 2], 1.0);
        let b = Tensor::full([2, 2], 2.0);
        let s = Tensor::stack(&[a.clone(), b.clone()]);
        assert_eq!(s.dims(), &[2, 2, 2]);
        assert_eq!(s.index_axis0(0), a);
        assert_eq!(s.index_axis0(1), b);
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_fn([3, 5], |i| i as f32);
        let tt = t.transpose().transpose();
        assert_eq!(t, tt);
        assert_eq!(t.transpose().at(&[4, 2]), t.at(&[2, 4]));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], [2]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&a - &b).as_slice(), &[-2.0, -2.0]);
        assert_eq!((&a * &b).as_slice(), &[3.0, 8.0]);
        assert_eq!((&b / &a).as_slice(), &[3.0, 2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn signum_binary_maps_zero_to_plus_one() {
        let t = Tensor::from_vec(vec![-0.5, 0.0, 0.5], [3]);
        assert_eq!(t.signum_binary().as_slice(), &[-1.0, 1.0, 1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -3.0, 2.0], [3]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.max(), 2.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.argmax(), 2);
        assert_eq!(t.norm_sq(), 14.0);
        assert!((t.mean() - 0.0).abs() < 1e-6);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn([2, 6], |i| i as f32);
        let r = t.reshape([3, 4]);
        assert_eq!(r.dims(), &[3, 4]);
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    fn add_scaled_axpy() {
        let mut a = Tensor::ones([3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        a.add_scaled(&b, -2.0);
        assert_eq!(a.as_slice(), &[-1.0, -3.0, -5.0]);
    }

    #[test]
    fn allclose_tolerates_small_differences() {
        let a = Tensor::ones([4]);
        let mut b = Tensor::ones([4]);
        b.as_mut_slice()[2] += 1e-6;
        assert!(a.allclose(&b, 1e-5));
        b.as_mut_slice()[2] += 1.0;
        assert!(!a.allclose(&b, 1e-5));
    }
}
