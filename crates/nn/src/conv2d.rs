//! 2-D convolution layers: standard, pointwise and depthwise.
//!
//! The EEG network (Table I) uses asymmetric 2-D kernels (30×1 in time, 1×64
//! in space); MobileNet V1 (§IV) is built from depthwise 3×3 + pointwise 1×1
//! pairs. All three shapes are covered here.

use rand::Rng;

use rbnn_tensor::{
    im2col2d, im2col2d_backward, im2col2d_batch, im2col2d_batch_backward, Conv2dGeom, Scratch,
    Tensor,
};

use crate::{init, Layer, Param, Phase, WeightMode};

/// A 2-D convolution over `[batch, channels, height, width]` images.
///
/// Weight shape `[out_channels, in_channels · kh · kw]`, lowered to matrix
/// multiplication through `im2col`. Supports independent kernel/stride/
/// padding per axis, which Table I of the paper requires.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    in_channels: usize,
    out_channels: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    mode: WeightMode,
    // Persistent training buffers, refreshed in place each batch (see
    // `Conv1d`).
    cached_cols: Tensor,
    cached_geom: Option<Conv2dGeom>,
    cached_eff_w: Tensor,
    eff_w: Tensor,
    cache_valid: bool,
}

impl Conv2d {
    /// Creates a convolution with He-initialized weights and zero bias.
    ///
    /// `kernel`, `stride` and `padding` are `(height, width)` pairs.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
        mode: WeightMode,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = in_channels * kernel.0 * kernel.1;
        let mut weight = Param::new(init::he_normal(&[out_channels, fan_in], fan_in, rng));
        if mode.is_binary() {
            weight = weight.with_clamp(-1.0, 1.0);
        }
        Self {
            weight,
            bias: Some(Param::new(Tensor::zeros([out_channels])).no_decay()),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            mode,
            cached_cols: Tensor::default(),
            cached_geom: None,
            cached_eff_w: Tensor::default(),
            eff_w: Tensor::default(),
            cache_valid: false,
        }
    }

    /// Convenience constructor for a 1×1 ("pointwise") convolution, the
    /// channel-mixing half of a depthwise-separable block.
    pub fn pointwise(
        in_channels: usize,
        out_channels: usize,
        mode: WeightMode,
        rng: &mut impl Rng,
    ) -> Self {
        Self::new(in_channels, out_channels, (1, 1), (1, 1), (0, 0), mode, rng)
    }

    /// Removes the bias term (builder style); used before BatchNorm.
    pub fn without_bias(mut self) -> Self {
        self.bias = None;
        self
    }

    /// The weight mode (real or binary).
    pub fn mode(&self) -> WeightMode {
        self.mode
    }

    /// The weights as seen by the forward pass.
    pub fn effective_weight(&self) -> Tensor {
        match self.mode {
            WeightMode::Real => self.weight.value.clone(),
            WeightMode::Binary => self.weight.value.signum_binary(),
        }
    }

    fn geom(&self, h: usize, w: usize) -> Conv2dGeom {
        Conv2dGeom::new(
            self.in_channels,
            h,
            w,
            self.kernel,
            self.stride,
            self.padding,
        )
    }

    /// Shared backward body; `need_dx` false skips the input-gradient
    /// GEMM and im2col scatter (root of the backward pass).
    fn backward_impl(&mut self, grad_out: &Tensor, scratch: &mut Scratch, need_dx: bool) -> Tensor {
        assert!(
            self.cache_valid,
            "Conv2d::backward called without forward(Phase::Train)"
        );
        self.cache_valid = false;
        let geom = self.cached_geom.take().expect("geometry cache missing");
        let n = grad_out.dim(0);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let plane = oh * ow;

        // Regroup grad_out [n, Co, oh, ow] into [Co, n·plane].
        let mut g_all = scratch.tensor_for_overwrite([self.out_channels, n * plane]);
        {
            let gs = grad_out.as_slice();
            let gd = g_all.as_mut_slice();
            for i in 0..n {
                for c in 0..self.out_channels {
                    let src = &gs[(i * self.out_channels + c) * plane..][..plane];
                    gd[c * n * plane + i * plane..c * n * plane + (i + 1) * plane]
                        .copy_from_slice(src);
                }
            }
        }

        let mut grad_w = scratch.tensor_for_overwrite(self.weight.value.shape().clone());
        g_all.matmul_nt_into(&self.cached_cols, &mut grad_w);
        if self.mode.is_binary() {
            self.weight.accumulate_ste_masked(&grad_w);
        } else {
            self.weight.grad += &grad_w;
        }
        scratch.recycle(grad_w);

        if let Some(b) = &mut self.bias {
            let gs = g_all.as_slice();
            let gb = b.grad.as_mut_slice();
            for (c, gbc) in gb.iter_mut().enumerate() {
                *gbc += gs[c * n * plane..(c + 1) * n * plane].iter().sum::<f32>();
            }
        }

        // Input gradient (GEMM + scatter) skipped at the backward root.
        if !need_dx {
            scratch.recycle(g_all);
            return Tensor::default();
        }
        let rows = geom.patch_rows();
        let mut gcols_all = scratch.tensor_for_overwrite([rows, n * plane]);
        self.cached_eff_w.matmul_tn_into(&g_all, &mut gcols_all);
        scratch.recycle(g_all);
        let mut grad_x =
            scratch.tensor_for_overwrite([n, self.in_channels, geom.height, geom.width]);
        im2col2d_batch_backward(&gcols_all, &geom, &mut grad_x);
        scratch.recycle(gcols_all);
        grad_x
    }
}

impl Layer for Conv2d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward_with(&mut self, x: &Tensor, phase: Phase, scratch: &mut Scratch) -> Tensor {
        assert_eq!(
            x.shape().ndim(),
            4,
            "Conv2d expects [batch, channels, h, w]"
        );
        assert_eq!(
            x.dim(1),
            self.in_channels,
            "Conv2d: expected {} channels, got {}",
            self.in_channels,
            x.dim(1)
        );
        let n = x.dim(0);
        let geom = self.geom(x.dim(2), x.dim(3));
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let plane = oh * ow;
        let rows = geom.patch_rows();
        let train = phase.is_train();

        // Refresh the effective weight in place (sign(W) in binary mode);
        // training writes the buffer the backward pass reads.
        let eff_w: &Tensor = {
            let dst = if train {
                &mut self.cached_eff_w
            } else {
                &mut self.eff_w
            };
            match self.mode {
                WeightMode::Real => dst.copy_from(&self.weight.value),
                WeightMode::Binary => self.weight.value.signum_binary_into(dst),
            }
            if train {
                &self.cached_eff_w
            } else {
                &self.eff_w
            }
        };

        // One batched patch matrix [rows, n·plane] → a single large matmul
        // per layer instead of n small ones; training keeps it for the
        // backward pass, eval recycles it immediately.
        let mut eval_cols = None;
        let cols: &Tensor = if train {
            im2col2d_batch(x, &geom, &mut self.cached_cols);
            &self.cached_cols
        } else {
            let mut cols = scratch.tensor_for_overwrite([rows, n * plane]);
            im2col2d_batch(x, &geom, &mut cols);
            eval_cols.insert(cols)
        };
        let mut y_all = scratch.tensor_for_overwrite([self.out_channels, n * plane]);
        eff_w.matmul_into(cols, &mut y_all);

        let mut out = scratch.tensor_for_overwrite([n, self.out_channels, oh, ow]);
        {
            let ys = y_all.as_slice();
            let os = out.as_mut_slice();
            let bias = self.bias.as_ref().map(|b| b.value.as_slice());
            for c in 0..self.out_channels {
                let bv = bias.map_or(0.0, |b| b[c]);
                for i in 0..n {
                    let src = &ys[c * n * plane + i * plane..][..plane];
                    let dst = &mut os[(i * self.out_channels + c) * plane..][..plane];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = s + bv;
                    }
                }
            }
        }
        scratch.recycle(y_all);
        if let Some(cols) = eval_cols {
            scratch.recycle(cols);
        }
        if train {
            self.cached_geom = Some(geom);
            self.cache_valid = true;
        }
        out
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.backward_impl(grad_out, scratch, true)
    }

    fn backward_root_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.backward_impl(grad_out, scratch, false)
    }
    fn params(&self) -> Vec<&Param> {
        let mut v = vec![&self.weight];
        if let Some(b) = &self.bias {
            v.push(b);
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        assert_eq!(
            in_shape.len(),
            3,
            "Conv2d expects [channels, h, w] per sample"
        );
        assert_eq!(in_shape[0], self.in_channels);
        let geom = self.geom(in_shape[1], in_shape[2]);
        vec![self.out_channels, geom.out_h(), geom.out_w()]
    }

    fn name(&self) -> String {
        let tag = if self.mode.is_binary() {
            "BinConv2d"
        } else {
            "Conv2d"
        };
        format!(
            "{tag}({}→{}, k{}×{}, s{}×{}, p{}×{})",
            self.in_channels,
            self.out_channels,
            self.kernel.0,
            self.kernel.1,
            self.stride.0,
            self.stride.1,
            self.padding.0,
            self.padding.1
        )
    }
}

/// A depthwise 2-D convolution: each input channel is filtered independently
/// by its own `kh × kw` kernel (channel multiplier 1, as in MobileNet V1).
///
/// Weight shape `[channels, kh · kw]`.
#[derive(Debug)]
pub struct DepthwiseConv2d {
    weight: Param,
    bias: Option<Param>,
    channels: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    mode: WeightMode,
    cached_cols: Vec<Vec<Tensor>>,
    cached_geom: Option<Conv2dGeom>,
    cached_eff_w: Option<Tensor>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution with He-initialized weights.
    pub fn new(
        channels: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
        mode: WeightMode,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = kernel.0 * kernel.1;
        let mut weight = Param::new(init::he_normal(&[channels, fan_in], fan_in, rng));
        if mode.is_binary() {
            weight = weight.with_clamp(-1.0, 1.0);
        }
        Self {
            weight,
            bias: Some(Param::new(Tensor::zeros([channels])).no_decay()),
            channels,
            kernel,
            stride,
            padding,
            mode,
            cached_cols: Vec::new(),
            cached_geom: None,
            cached_eff_w: None,
        }
    }

    /// Removes the bias term (builder style); used before BatchNorm.
    pub fn without_bias(mut self) -> Self {
        self.bias = None;
        self
    }

    /// The weights as seen by the forward pass.
    pub fn effective_weight(&self) -> Tensor {
        match self.mode {
            WeightMode::Real => self.weight.value.clone(),
            WeightMode::Binary => self.weight.value.signum_binary(),
        }
    }

    fn geom(&self, h: usize, w: usize) -> Conv2dGeom {
        // Per-channel geometry: one channel at a time.
        Conv2dGeom::new(1, h, w, self.kernel, self.stride, self.padding)
    }
}

impl Layer for DepthwiseConv2d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward_with(&mut self, x: &Tensor, phase: Phase, scratch: &mut Scratch) -> Tensor {
        assert_eq!(
            x.shape().ndim(),
            4,
            "DepthwiseConv2d expects [batch, channels, h, w]"
        );
        assert_eq!(x.dim(1), self.channels, "channel count mismatch");
        let n = x.dim(0);
        let (h, w) = (x.dim(2), x.dim(3));
        let geom = self.geom(h, w);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let plane_out = oh * ow;
        let ktaps = self.kernel.0 * self.kernel.1;
        let eff_w = self.effective_weight();

        let mut out = scratch.tensor([n, self.channels, oh, ow]);
        self.cached_cols.clear();
        let xs = x.as_slice();
        let plane_in = h * w;
        for i in 0..n {
            let mut sample_cols = Vec::with_capacity(self.channels);
            for c in 0..self.channels {
                let off = (i * self.channels + c) * plane_in;
                let chan = Tensor::from_vec(xs[off..off + plane_in].to_vec(), [1, h, w]);
                let cols = im2col2d(&chan, &geom); // [ktaps, oh·ow]
                let wrow = &eff_w.as_slice()[c * ktaps..(c + 1) * ktaps];
                let bval = self.bias.as_ref().map_or(0.0, |b| b.value.as_slice()[c]);
                let dst_off = (i * self.channels + c) * plane_out;
                let dst = &mut out.as_mut_slice()[dst_off..dst_off + plane_out];
                let cs = cols.as_slice();
                for (t, d) in dst.iter_mut().enumerate() {
                    let mut acc = bval;
                    for (k, &wv) in wrow.iter().enumerate() {
                        acc += wv * cs[k * plane_out + t];
                    }
                    *d = acc;
                }
                if phase.is_train() {
                    sample_cols.push(cols);
                }
            }
            if phase.is_train() {
                self.cached_cols.push(sample_cols);
            }
        }
        if phase.is_train() {
            self.cached_geom = Some(geom);
            self.cached_eff_w = Some(eff_w);
        }
        out
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        let geom = self
            .cached_geom
            .take()
            .expect("DepthwiseConv2d::backward called without forward(Phase::Train)");
        let eff_w = self
            .cached_eff_w
            .take()
            .expect("effective weight cache missing");
        let n = grad_out.dim(0);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let plane_out = oh * ow;
        let ktaps = self.kernel.0 * self.kernel.1;

        let mut grad_w = scratch.tensor(self.weight.value.shape().clone());
        let mut grad_x = scratch.tensor([n, self.channels, geom.height, geom.width]);
        let plane_in = geom.height * geom.width;
        let gs = grad_out.as_slice();
        for i in 0..n {
            for c in 0..self.channels {
                let cols = &self.cached_cols[i][c];
                let cs = cols.as_slice();
                let g = &gs[(i * self.channels + c) * plane_out..][..plane_out];
                // dW[c, k] += Σ_t g[t] · cols[k, t]
                let gw = &mut grad_w.as_mut_slice()[c * ktaps..(c + 1) * ktaps];
                for (k, gwk) in gw.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (t, &gv) in g.iter().enumerate() {
                        acc += gv * cs[k * plane_out + t];
                    }
                    *gwk += acc;
                }
                // dcols[k, t] = w[c, k] · g[t]
                let wrow = &eff_w.as_slice()[c * ktaps..(c + 1) * ktaps];
                let mut gcols = Tensor::zeros([ktaps, plane_out]);
                {
                    let gc = gcols.as_mut_slice();
                    for (k, &wv) in wrow.iter().enumerate() {
                        for (t, &gv) in g.iter().enumerate() {
                            gc[k * plane_out + t] = wv * gv;
                        }
                    }
                }
                let gchan = im2col2d_backward(&gcols, &geom);
                let dst =
                    &mut grad_x.as_mut_slice()[(i * self.channels + c) * plane_in..][..plane_in];
                for (d, &s) in dst.iter_mut().zip(gchan.as_slice()) {
                    *d += s;
                }
                if let Some(b) = &mut self.bias {
                    b.grad.as_mut_slice()[c] += g.iter().sum::<f32>();
                }
            }
        }
        if self.mode.is_binary() {
            self.weight.accumulate_ste_masked(&grad_w);
        } else {
            self.weight.grad += &grad_w;
        }
        scratch.recycle(grad_w);
        self.cached_cols.clear();
        grad_x
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = vec![&self.weight];
        if let Some(b) = &self.bias {
            v.push(b);
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        assert_eq!(
            in_shape.len(),
            3,
            "DepthwiseConv2d expects [channels, h, w]"
        );
        assert_eq!(in_shape[0], self.channels);
        let geom = self.geom(in_shape[1], in_shape[2]);
        vec![self.channels, geom.out_h(), geom.out_w()]
    }

    fn name(&self) -> String {
        let tag = if self.mode.is_binary() {
            "BinDwConv2d"
        } else {
            "DwConv2d"
        };
        format!(
            "{tag}({}ch, k{}×{}, s{}×{})",
            self.channels, self.kernel.0, self.kernel.1, self.stride.0, self.stride.1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn eeg_table1_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        // Conv in time: 1→40 channels, kernel 30×1, padding 15×0.
        let c1 = Conv2d::new(1, 40, (30, 1), (1, 1), (15, 0), WeightMode::Real, &mut rng);
        assert_eq!(c1.out_shape(&[1, 960, 64]), vec![40, 961, 64]);
        // Conv in space: 40→40 channels, kernel 1×64.
        let c2 = Conv2d::new(40, 40, (1, 64), (1, 1), (0, 0), WeightMode::Real, &mut rng);
        assert_eq!(c2.out_shape(&[40, 961, 64]), vec![40, 961, 1]);
    }

    #[test]
    fn pointwise_is_channel_mixing_only() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut pw = Conv2d::pointwise(2, 1, WeightMode::Real, &mut rng);
        pw.weight.value = Tensor::from_vec(vec![2.0, -1.0], [1, 2]);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
            [1, 2, 2, 2],
        );
        let y = pw.forward(&x, Phase::Eval);
        // y = 2·ch0 − 1·ch1 pixelwise
        assert_eq!(y.as_slice(), &[-8.0, -16.0, -24.0, -32.0]);
    }

    #[test]
    fn conv2d_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(2, 3, (3, 3), (2, 2), (1, 1), WeightMode::Real, &mut rng);
        let x = Tensor::randn([2, 2, 8, 8], 1.0, &mut rng);
        let y = conv.forward(&x, Phase::Train);
        assert_eq!(y.dims(), &[2, 3, 4, 4]);
        let gx = conv.backward(&Tensor::ones(y.shape().clone()));
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn depthwise_matches_manual_per_channel_filter() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut dw = DepthwiseConv2d::new(2, (1, 1), (1, 1), (0, 0), WeightMode::Real, &mut rng);
        dw.weight.value = Tensor::from_vec(vec![2.0, -3.0], [2, 1]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 2, 1, 2]);
        let y = dw.forward(&x, Phase::Eval);
        // ch0 scaled by 2, ch1 scaled by −3.
        assert_eq!(y.as_slice(), &[2.0, 4.0, -9.0, -12.0]);
    }

    #[test]
    fn depthwise_equals_grouped_conv2d() {
        // A depthwise conv must equal C independent 1-channel Conv2ds.
        let mut rng = StdRng::seed_from_u64(3);
        let mut dw = DepthwiseConv2d::new(3, (3, 3), (1, 1), (1, 1), WeightMode::Real, &mut rng);
        let x = Tensor::randn([2, 3, 6, 6], 1.0, &mut rng);
        let y = dw.forward(&x, Phase::Eval);
        for c in 0..3 {
            let mut single = Conv2d::new(1, 1, (3, 3), (1, 1), (1, 1), WeightMode::Real, &mut rng);
            let ktaps = 9;
            single.weight.value = Tensor::from_vec(
                dw.weight.value.as_slice()[c * ktaps..(c + 1) * ktaps].to_vec(),
                [1, ktaps],
            );
            single.bias.as_mut().unwrap().value =
                Tensor::from_vec(vec![dw.bias.as_ref().unwrap().value.as_slice()[c]], [1]);
            // Build the 1-channel input for channel c.
            let mut xc = Tensor::zeros([2, 1, 6, 6]);
            for i in 0..2 {
                let s = x.index_axis0(i);
                let plane = 36;
                let chan =
                    Tensor::from_vec(s.as_slice()[c * plane..(c + 1) * plane].to_vec(), [1, 6, 6]);
                xc.set_axis0(i, &chan);
            }
            let yc = single.forward(&xc, Phase::Eval);
            for i in 0..2 {
                let got = y.index_axis0(i);
                let expect = yc.index_axis0(i);
                let plane = 36;
                let got_c = &got.as_slice()[c * plane..(c + 1) * plane];
                assert!(
                    got_c
                        .iter()
                        .zip(expect.as_slice())
                        .all(|(a, b)| (a - b).abs() < 1e-4),
                    "channel {c} mismatch"
                );
            }
        }
    }

    #[test]
    fn depthwise_backward_accumulates() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut dw = DepthwiseConv2d::new(2, (3, 3), (1, 1), (1, 1), WeightMode::Real, &mut rng);
        let x = Tensor::randn([1, 2, 5, 5], 1.0, &mut rng);
        let y = dw.forward(&x, Phase::Train);
        let gx = dw.backward(&Tensor::ones(y.shape().clone()));
        assert_eq!(gx.dims(), x.dims());
        assert!(dw.weight.grad.norm_sq() > 0.0);
        // 25 output pixels of unit gradient per channel.
        assert_eq!(dw.bias.as_ref().unwrap().grad.as_slice(), &[25.0, 25.0]);
    }
}
