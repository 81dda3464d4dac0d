//! Pooling layers: max/average, 1-D and 2-D, plus global average pooling.

use rbnn_tensor::{Scratch, Tensor};

use crate::{Layer, Phase};

/// Pooling reduction kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window (backward routes to the argmax).
    Max,
    /// Mean over the window (backward spreads evenly).
    Avg,
}

/// 1-D pooling over `[batch, channels, len]` (Table II uses max pool 2×1).
#[derive(Debug)]
pub struct Pool1d {
    kind: PoolKind,
    kernel: usize,
    stride: usize,
    cached_argmax: Vec<usize>,
    cached_in_dims: Vec<usize>,
}

impl Pool1d {
    /// Creates a pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0` or `stride == 0`.
    pub fn new(kind: PoolKind, kernel: usize, stride: usize) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        Self {
            kind,
            kernel,
            stride,
            cached_argmax: Vec::new(),
            cached_in_dims: Vec::new(),
        }
    }

    /// Max pooling with `stride == kernel` (the paper's 2×1 max pools).
    pub fn max(kernel: usize) -> Self {
        Self::new(PoolKind::Max, kernel, kernel)
    }

    fn out_len(&self, len: usize) -> usize {
        assert!(len >= self.kernel, "input shorter than pooling window");
        (len - self.kernel) / self.stride + 1
    }
}

impl Layer for Pool1d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward_with(&mut self, x: &Tensor, phase: Phase, scratch: &mut Scratch) -> Tensor {
        assert_eq!(x.shape().ndim(), 3, "Pool1d expects [batch, channels, len]");
        let (n, c, l) = (x.dim(0), x.dim(1), x.dim(2));
        let ol = self.out_len(l);
        let mut out = scratch.tensor_for_overwrite([n, c, ol]);
        let xs = x.as_slice();
        let os = out.as_mut_slice();
        if phase.is_train() {
            self.cached_argmax = vec![0; n * c * ol];
            self.cached_in_dims = x.dims().to_vec();
        }
        for nc in 0..n * c {
            let src = &xs[nc * l..(nc + 1) * l];
            for t in 0..ol {
                let start = t * self.stride;
                let window = &src[start..start + self.kernel];
                match self.kind {
                    PoolKind::Max => {
                        let (mut best_k, mut best_v) = (0, f32::NEG_INFINITY);
                        for (k, &v) in window.iter().enumerate() {
                            if v > best_v {
                                best_v = v;
                                best_k = k;
                            }
                        }
                        os[nc * ol + t] = best_v;
                        if phase.is_train() {
                            self.cached_argmax[nc * ol + t] = start + best_k;
                        }
                    }
                    PoolKind::Avg => {
                        os[nc * ol + t] = window.iter().sum::<f32>() / self.kernel as f32;
                    }
                }
            }
        }
        out
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        assert!(
            !self.cached_in_dims.is_empty(),
            "Pool1d::backward called without forward(Phase::Train)"
        );
        let dims = std::mem::take(&mut self.cached_in_dims);
        let (n, c, l) = (dims[0], dims[1], dims[2]);
        let ol = self.out_len(l);
        // Max routes to the argmax / Avg spreads: both accumulate, so the
        // gradient buffer must start zeroed.
        let mut grad_x = scratch.tensor([n, c, l]);
        let gs = grad_out.as_slice();
        let gx = grad_x.as_mut_slice();
        for nc in 0..n * c {
            for t in 0..ol {
                let g = gs[nc * ol + t];
                match self.kind {
                    PoolKind::Max => {
                        gx[nc * l + self.cached_argmax[nc * ol + t]] += g;
                    }
                    PoolKind::Avg => {
                        let start = t * self.stride;
                        let share = g / self.kernel as f32;
                        for k in 0..self.kernel {
                            gx[nc * l + start + k] += share;
                        }
                    }
                }
            }
        }
        self.cached_argmax.clear();
        grad_x
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        assert_eq!(
            in_shape.len(),
            2,
            "Pool1d expects [channels, len] per sample"
        );
        vec![in_shape[0], self.out_len(in_shape[1])]
    }

    fn name(&self) -> String {
        let tag = match self.kind {
            PoolKind::Max => "MaxPool1d",
            PoolKind::Avg => "AvgPool1d",
        };
        format!("{tag}(k{}, s{})", self.kernel, self.stride)
    }
}

/// 2-D pooling over `[batch, channels, h, w]` (Table I uses average pooling
/// 30×1 with stride 15).
#[derive(Debug)]
pub struct Pool2d {
    kind: PoolKind,
    kernel: (usize, usize),
    stride: (usize, usize),
    cached_argmax: Vec<usize>,
    cached_in_dims: Vec<usize>,
}

impl Pool2d {
    /// Creates a pooling layer with `(height, width)` kernel and stride.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn new(kind: PoolKind, kernel: (usize, usize), stride: (usize, usize)) -> Self {
        assert!(
            kernel.0 > 0 && kernel.1 > 0 && stride.0 > 0 && stride.1 > 0,
            "kernel and stride must be positive"
        );
        Self {
            kind,
            kernel,
            stride,
            cached_argmax: Vec::new(),
            cached_in_dims: Vec::new(),
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h >= self.kernel.0 && w >= self.kernel.1,
            "input smaller than window"
        );
        (
            (h - self.kernel.0) / self.stride.0 + 1,
            (w - self.kernel.1) / self.stride.1 + 1,
        )
    }
}

impl Layer for Pool2d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward_with(&mut self, x: &Tensor, phase: Phase, scratch: &mut Scratch) -> Tensor {
        assert_eq!(
            x.shape().ndim(),
            4,
            "Pool2d expects [batch, channels, h, w]"
        );
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (oh, ow) = self.out_hw(h, w);
        let mut out = scratch.tensor_for_overwrite([n, c, oh, ow]);
        let xs = x.as_slice();
        let os = out.as_mut_slice();
        let plane_in = h * w;
        let plane_out = oh * ow;
        let window = (self.kernel.0 * self.kernel.1) as f32;
        if phase.is_train() {
            self.cached_argmax = vec![0; n * c * plane_out];
            self.cached_in_dims = x.dims().to_vec();
        }
        for nc in 0..n * c {
            let src = &xs[nc * plane_in..(nc + 1) * plane_in];
            for oy in 0..oh {
                for ox in 0..ow {
                    let (y0, x0) = (oy * self.stride.0, ox * self.stride.1);
                    match self.kind {
                        PoolKind::Max => {
                            let (mut best_idx, mut best_v) = (0, f32::NEG_INFINITY);
                            for ky in 0..self.kernel.0 {
                                for kx in 0..self.kernel.1 {
                                    let idx = (y0 + ky) * w + (x0 + kx);
                                    if src[idx] > best_v {
                                        best_v = src[idx];
                                        best_idx = idx;
                                    }
                                }
                            }
                            os[nc * plane_out + oy * ow + ox] = best_v;
                            if phase.is_train() {
                                self.cached_argmax[nc * plane_out + oy * ow + ox] = best_idx;
                            }
                        }
                        PoolKind::Avg => {
                            let mut acc = 0.0;
                            for ky in 0..self.kernel.0 {
                                for kx in 0..self.kernel.1 {
                                    acc += src[(y0 + ky) * w + (x0 + kx)];
                                }
                            }
                            os[nc * plane_out + oy * ow + ox] = acc / window;
                        }
                    }
                }
            }
        }
        out
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        assert!(
            !self.cached_in_dims.is_empty(),
            "Pool2d::backward called without forward(Phase::Train)"
        );
        let dims = std::mem::take(&mut self.cached_in_dims);
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let (oh, ow) = self.out_hw(h, w);
        let plane_in = h * w;
        let plane_out = oh * ow;
        let window = (self.kernel.0 * self.kernel.1) as f32;
        // Accumulating scatter: must start zeroed.
        let mut grad_x = scratch.tensor([n, c, h, w]);
        let gs = grad_out.as_slice();
        let gx = grad_x.as_mut_slice();
        for nc in 0..n * c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = gs[nc * plane_out + oy * ow + ox];
                    match self.kind {
                        PoolKind::Max => {
                            gx[nc * plane_in
                                + self.cached_argmax[nc * plane_out + oy * ow + ox]] += g;
                        }
                        PoolKind::Avg => {
                            let (y0, x0) = (oy * self.stride.0, ox * self.stride.1);
                            let share = g / window;
                            for ky in 0..self.kernel.0 {
                                for kx in 0..self.kernel.1 {
                                    gx[nc * plane_in + (y0 + ky) * w + (x0 + kx)] += share;
                                }
                            }
                        }
                    }
                }
            }
        }
        self.cached_argmax.clear();
        grad_x
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        assert_eq!(
            in_shape.len(),
            3,
            "Pool2d expects [channels, h, w] per sample"
        );
        let (oh, ow) = self.out_hw(in_shape[1], in_shape[2]);
        vec![in_shape[0], oh, ow]
    }

    fn name(&self) -> String {
        let tag = match self.kind {
            PoolKind::Max => "MaxPool2d",
            PoolKind::Avg => "AvgPool2d",
        };
        format!(
            "{tag}(k{}×{}, s{}×{})",
            self.kernel.0, self.kernel.1, self.stride.0, self.stride.1
        )
    }
}

/// Global average pooling `[batch, channels, h, w] → [batch, channels]`
/// (the head of MobileNet V1).
#[derive(Debug, Default)]
pub struct GlobalAvgPool2d {
    cached_in_dims: Vec<usize>,
}

impl GlobalAvgPool2d {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool2d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward_with(&mut self, x: &Tensor, phase: Phase, scratch: &mut Scratch) -> Tensor {
        assert_eq!(
            x.shape().ndim(),
            4,
            "GlobalAvgPool2d expects [batch, channels, h, w]"
        );
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let plane = h * w;
        let mut out = scratch.tensor_for_overwrite([n, c]);
        let xs = x.as_slice();
        let os = out.as_mut_slice();
        for nc in 0..n * c {
            os[nc] = xs[nc * plane..(nc + 1) * plane].iter().sum::<f32>() / plane as f32;
        }
        if phase.is_train() {
            self.cached_in_dims = x.dims().to_vec();
        }
        out
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        assert!(
            !self.cached_in_dims.is_empty(),
            "GlobalAvgPool2d::backward called without forward(Phase::Train)"
        );
        let dims = std::mem::take(&mut self.cached_in_dims);
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = h * w;
        let mut grad_x = scratch.tensor_for_overwrite([n, c, h, w]);
        let gs = grad_out.as_slice();
        let gx = grad_x.as_mut_slice();
        for nc in 0..n * c {
            let share = gs[nc] / plane as f32;
            for t in 0..plane {
                gx[nc * plane + t] = share;
            }
        }
        grad_x
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        assert_eq!(
            in_shape.len(),
            3,
            "GlobalAvgPool2d expects [channels, h, w]"
        );
        vec![in_shape[0]]
    }

    fn name(&self) -> String {
        "GlobalAvgPool".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool1d_forward_backward() {
        let mut p = Pool1d::max(2);
        let x = Tensor::from_vec(vec![1.0, 3.0, 2.0, 0.0], [1, 1, 4]);
        let y = p.forward(&x, Phase::Train);
        assert_eq!(y.as_slice(), &[3.0, 2.0]);
        let gx = p.backward(&Tensor::from_vec(vec![10.0, 20.0], [1, 1, 2]));
        assert_eq!(gx.as_slice(), &[0.0, 10.0, 20.0, 0.0]);
    }

    #[test]
    fn table2_pool_shapes() {
        // 738 → 369 → (conv 11) 359 → 179.
        let p = Pool1d::max(2);
        assert_eq!(p.out_shape(&[32, 738]), vec![32, 369]);
        assert_eq!(p.out_shape(&[32, 359]), vec![32, 179]);
    }

    #[test]
    fn avg_pool1d_spreads_gradient() {
        let mut p = Pool1d::new(PoolKind::Avg, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], [1, 1, 4]);
        let y = p.forward(&x, Phase::Train);
        assert_eq!(y.as_slice(), &[2.0, 6.0]);
        let gx = p.backward(&Tensor::from_vec(vec![4.0, 8.0], [1, 1, 2]));
        assert_eq!(gx.as_slice(), &[2.0, 2.0, 4.0, 4.0]);
    }

    #[test]
    fn table1_avg_pool_shape() {
        // Avg pool 30×1 stride 15×1: 961×1 → 63×1.
        let p = Pool2d::new(PoolKind::Avg, (30, 1), (15, 1));
        assert_eq!(p.out_shape(&[40, 961, 1]), vec![40, 63, 1]);
    }

    #[test]
    fn max_pool2d_forward_backward() {
        let mut p = Pool2d::new(PoolKind::Max, (2, 2), (2, 2));
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            [1, 1, 4, 4],
        );
        let y = p.forward(&x, Phase::Train);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        let gx = p.backward(&Tensor::ones([1, 1, 2, 2]));
        assert_eq!(gx.sum(), 4.0);
        assert_eq!(gx.at(&[0, 0, 1, 1]), 1.0); // position of 6
    }

    #[test]
    fn global_avg_pool() {
        let mut p = GlobalAvgPool2d::new();
        let x = Tensor::from_fn([1, 2, 2, 2], |i| i as f32);
        let y = p.forward(&x, Phase::Train);
        assert_eq!(y.as_slice(), &[1.5, 5.5]);
        let gx = p.backward(&Tensor::from_vec(vec![4.0, 8.0], [1, 2]));
        assert_eq!(gx.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(gx.at(&[0, 1, 1, 1]), 2.0);
        assert_eq!(p.out_shape(&[64, 7, 7]), vec![64]);
    }

    #[test]
    fn avg_pool_conserves_gradient_mass() {
        let mut p = Pool2d::new(PoolKind::Avg, (2, 2), (2, 2));
        let x = Tensor::from_fn([1, 1, 4, 4], |i| i as f32);
        let _ = p.forward(&x, Phase::Train);
        let g = Tensor::ones([1, 1, 2, 2]);
        let gx = p.backward(&g);
        // Non-overlapping windows: total gradient mass is conserved.
        assert!((gx.sum() - g.sum()).abs() < 1e-6);
    }
}
