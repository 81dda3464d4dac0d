//! Matrix multiplication entry points on [`Tensor`].
//!
//! Convolution in `rbnn-nn` is lowered to matrix multiplication through
//! `im2col`, so these methods are the hot path of the whole training stack.
//! All three transpose variants route into the packed register-tiled kernel
//! in [`crate::gemm`]; the `_into` variants write into a caller-provided
//! tensor so steady-state training allocates nothing per batch.

use crate::gemm::{self, Layout};
use crate::Tensor;

impl Tensor {
    /// Matrix product `self × rhs` for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions disagree.
    ///
    /// ```
    /// use rbnn_tensor::Tensor;
    /// let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
    /// let b = Tensor::from_vec(vec![5., 6., 7., 8.], &[2, 2]);
    /// assert_eq!(a.matmul(&b).as_slice(), &[19., 22., 43., 50.]);
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`matmul`](Self::matmul) writing into `out` (resized in place,
    /// reusing its allocation; prior contents are overwritten).
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape().ndim(), 2, "matmul: lhs must be 2-D");
        assert_eq!(rhs.shape().ndim(), 2, "matmul: rhs must be 2-D");
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(k, k2, "matmul: inner dimensions {k} and {k2} disagree");
        out.resize_for_overwrite([m, n]); // the kernels fully overwrite `out`
        gemm::gemm(
            self.as_slice(),
            Layout::RowMajor,
            rhs.as_slice(),
            Layout::RowMajor,
            m,
            k,
            n,
            out.as_mut_slice(),
        );
    }

    /// Matrix product `selfᵀ × rhs` without materializing the transpose.
    ///
    /// `self` is `[k, m]`, `rhs` is `[k, n]`, the result is `[m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the leading dimensions disagree.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// [`matmul_tn`](Self::matmul_tn) writing into `out` (resized in place,
    /// reusing its allocation; prior contents are overwritten).
    pub fn matmul_tn_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape().ndim(), 2, "matmul_tn: lhs must be 2-D");
        assert_eq!(rhs.shape().ndim(), 2, "matmul_tn: rhs must be 2-D");
        let (k, m) = (self.dim(0), self.dim(1));
        let (k2, n) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(k, k2, "matmul_tn: leading dimensions {k} and {k2} disagree");
        out.resize_for_overwrite([m, n]); // the kernels fully overwrite `out`
        gemm::gemm(
            self.as_slice(),
            Layout::Transposed,
            rhs.as_slice(),
            Layout::RowMajor,
            m,
            k,
            n,
            out.as_mut_slice(),
        );
    }

    /// Matrix product `self × rhsᵀ` without materializing the transpose.
    ///
    /// `self` is `[m, k]`, `rhs` is `[n, k]`, the result is `[m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the trailing dimensions
    /// disagree.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// [`matmul_nt`](Self::matmul_nt) writing into `out` (resized in place,
    /// reusing its allocation; prior contents are overwritten).
    pub fn matmul_nt_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape().ndim(), 2, "matmul_nt: lhs must be 2-D");
        assert_eq!(rhs.shape().ndim(), 2, "matmul_nt: rhs must be 2-D");
        let (m, k) = (self.dim(0), self.dim(1));
        let (n, k2) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(
            k, k2,
            "matmul_nt: trailing dimensions {k} and {k2} disagree"
        );
        out.resize_for_overwrite([m, n]); // the kernels fully overwrite `out`
        gemm::gemm(
            self.as_slice(),
            Layout::RowMajor,
            rhs.as_slice(),
            Layout::Transposed,
            m,
            k,
            n,
            out.as_mut_slice(),
        );
    }

    /// Matrix–vector product `self × v` for a 2-D tensor and 1-D vector.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matvec: lhs must be 2-D");
        assert_eq!(v.shape().ndim(), 1, "matvec: rhs must be 1-D");
        let (m, k) = (self.dim(0), self.dim(1));
        assert_eq!(k, v.dim(0), "matvec: dimension mismatch");
        let a = self.as_slice();
        let x = v.as_slice();
        let mut out = Tensor::zeros([m]);
        for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
            let row = &a[i * k..(i + 1) * k];
            *o = row.iter().zip(x).map(|(&p, &q)| p * q).sum();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let n = b.dim(1);
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *out.at_mut(&[i, j]) = acc;
            }
        }
        out
    }

    /// Non-block-multiple shapes: unit, tall/skinny, fat/short, and sizes
    /// straddling the register tile and cache blocks.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 9, 1),
        (3, 5, 7),
        (17, 33, 9),
        (70, 65, 130),
        (257, 3, 2),
        (2, 3, 257),
        (5, 300, 18),
    ];

    #[test]
    fn matmul_matches_naive() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(m, k, n) in SHAPES {
            let a = Tensor::randn([m, k], 1.0, &mut rng);
            let b = Tensor::randn([k, n], 1.0, &mut rng);
            let fast = a.matmul(&b);
            let slow = naive_matmul(&a, &b);
            assert!(fast.allclose(&slow, 1e-3), "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(5);
        for &(m, k, n) in SHAPES {
            let a = Tensor::randn([k, m], 1.0, &mut rng);
            let b = Tensor::randn([k, n], 1.0, &mut rng);
            let expect = naive_matmul(&a.transpose(), &b);
            let got = a.matmul_tn(&b);
            assert!(got.allclose(&expect, 1e-3), "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(6);
        for &(m, k, n) in SHAPES {
            let a = Tensor::randn([m, k], 1.0, &mut rng);
            let b = Tensor::randn([n, k], 1.0, &mut rng);
            let expect = naive_matmul(&a, &b.transpose());
            let got = a.matmul_nt(&b);
            assert!(got.allclose(&expect, 1e-3), "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn into_variants_reuse_allocation_and_match() {
        // Exact-equality comparisons between kernel invocations: serialize
        // against the forced-scalar toggle so a scalar/dispatched parity
        // regression fails its own test, not this one.
        let _guard = crate::gemm::TEST_GLOBALS_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::randn([13, 37], 1.0, &mut rng);
        let b = Tensor::randn([37, 11], 1.0, &mut rng);
        // Seed `out` with a larger stale buffer to prove reuse + overwrite.
        let mut out = Tensor::full([40, 40], 7.0);
        let cap_before = out.numel();
        a.matmul_into(&b, &mut out);
        assert!(out.numel() <= cap_before);
        assert!(out.allclose(&a.matmul(&b), 0.0));
        a.transpose().matmul_tn_into(&b, &mut out);
        assert!(out.allclose(&a.transpose().matmul_tn(&b), 0.0));
        a.matmul_nt_into(&b.transpose(), &mut out);
        assert!(out.allclose(&a.matmul_nt(&b.transpose()), 0.0));
    }

    #[test]
    fn parallel_matmul_is_thread_count_invariant() {
        // The kernel splits row panels across workers but fixes the
        // accumulation order per element, so results must be bitwise equal
        // for every worker count. The override only changes scheduling for
        // any concurrently running test, never results; serialize against
        // the forced-scalar toggle all the same, so a parity regression
        // fails its own test, not this one.
        let _guard = crate::gemm::TEST_GLOBALS_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut rng = StdRng::seed_from_u64(11);
        let a = Tensor::randn([37, 129], 1.0, &mut rng);
        let b = Tensor::randn([129, 61], 1.0, &mut rng);
        let mut results = Vec::new();
        for threads in [1, 2, 5] {
            crate::par::set_thread_override(Some(threads));
            results.push((a.matmul(&b), a.matmul_tn(&a), b.matmul_nt(&b)));
        }
        crate::par::set_thread_override(None);
        for (x, y, z) in &results[1..] {
            assert_eq!(x.as_slice(), results[0].0.as_slice(), "matmul varies");
            assert_eq!(y.as_slice(), results[0].1.as_slice(), "matmul_tn varies");
            assert_eq!(z.as_slice(), results[0].2.as_slice(), "matmul_nt varies");
        }
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = Tensor::randn([9, 14], 1.0, &mut rng);
        let v = Tensor::randn([14], 1.0, &mut rng);
        let expect = a.matmul(&v.reshape([14, 1])).reshape([9]);
        assert!(a.matvec(&v).allclose(&expect, 1e-4));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Tensor::randn([6, 6], 1.0, &mut rng);
        assert!(a.matmul(&Tensor::eye(6)).allclose(&a, 1e-6));
        assert!(Tensor::eye(6).matmul(&a).allclose(&a, 1e-6));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = a.matmul(&b);
    }
}
