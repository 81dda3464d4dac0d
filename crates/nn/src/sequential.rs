//! Sequential container and model summaries.

use std::fmt;

use rbnn_tensor::{Scratch, Tensor};

use crate::{Layer, Param, Phase};

/// A linear chain of layers, itself a [`Layer`].
///
/// ```
/// use rbnn_nn::{Activation, Dense, Layer, Phase, Sequential, WeightMode};
/// use rbnn_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Dense::new(8, 4, WeightMode::Real, &mut rng));
/// net.push(Activation::relu());
/// net.push(Dense::new(4, 2, WeightMode::Real, &mut rng));
/// let y = net.forward(&Tensor::zeros([3, 8]), Phase::Eval);
/// assert_eq!(y.dims(), &[3, 2]);
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer (builder-friendly: returns `&mut self`).
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the contained layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the contained layers (model surgery).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Runs the backward chain; when `need_input_grad` is false the first
    /// layer is told its input gradient is unused (`backward_root_with`).
    fn backward_chain(
        &mut self,
        grad_out: &Tensor,
        scratch: &mut Scratch,
        need_input_grad: bool,
    ) -> Tensor {
        let count = self.layers.len();
        if count == 0 {
            return grad_out.clone();
        }
        let mut g: Option<Tensor> = None;
        for (pos, layer) in self.layers.iter_mut().rev().enumerate() {
            let is_first_layer = pos + 1 == count;
            let gin = g.as_ref().unwrap_or(grad_out);
            let next = if is_first_layer && !need_input_grad {
                layer.backward_root_with(gin, scratch)
            } else {
                layer.backward_with(gin, scratch)
            };
            if let Some(prev) = g.take() {
                scratch.recycle(prev);
            }
            g = Some(next);
        }
        g.expect("non-empty layer chain")
    }

    /// Builds a per-layer summary table (the shape of Tables I–II of the
    /// paper) for a given per-sample input shape.
    pub fn summary(&self, input_shape: &[usize]) -> ModelSummary {
        let mut rows = Vec::new();
        let mut shape = input_shape.to_vec();
        for layer in &self.layers {
            shape = layer.out_shape(&shape);
            rows.push(SummaryRow {
                name: layer.name(),
                out_shape: shape.clone(),
                params: layer.param_count(),
            });
        }
        ModelSummary {
            input_shape: input_shape.to_vec(),
            rows,
        }
    }
}

impl Layer for Sequential {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward_with(&mut self, x: &Tensor, phase: Phase, scratch: &mut Scratch) -> Tensor {
        // Chain layers, recycling each intermediate activation as soon as
        // the next layer has consumed it — the steady-state epoch then
        // cycles a fixed set of buffers instead of allocating per batch.
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            return x.clone();
        };
        let mut h = first.forward_with(x, phase, scratch);
        for layer in layers {
            let next = layer.forward_with(&h, phase, scratch);
            scratch.recycle(h);
            h = next;
        }
        h
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.backward_chain(grad_out, scratch, true)
    }

    fn backward_root_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.backward_chain(grad_out, scratch, false)
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let mut shape = in_shape.to_vec();
        for layer in &self.layers {
            shape = layer.out_shape(&shape);
        }
        shape
    }

    fn name(&self) -> String {
        format!("Sequential[{}]", self.layers.len())
    }
}

/// One row of a [`ModelSummary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryRow {
    /// Layer display name.
    pub name: String,
    /// Per-sample output shape after this layer.
    pub out_shape: Vec<usize>,
    /// Scalar parameter count of this layer.
    pub params: usize,
}

/// A layer-by-layer description of a network: names, output shapes and
/// parameter counts — the information Tables I, II and IV of the paper are
/// built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSummary {
    /// Per-sample input shape.
    pub input_shape: Vec<usize>,
    /// Per-layer rows in forward order.
    pub rows: Vec<SummaryRow>,
}

impl ModelSummary {
    /// Total parameter count.
    pub fn total_params(&self) -> usize {
        self.rows.iter().map(|r| r.params).sum()
    }
}

impl fmt::Display for ModelSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<40} {:>18} {:>12}", "Layer", "Output shape", "Params")?;
        writeln!(f, "{}", "-".repeat(72))?;
        writeln!(
            f,
            "{:<40} {:>18} {:>12}",
            "Input",
            format!("{:?}", self.input_shape),
            ""
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<40} {:>18} {:>12}",
                row.name,
                format!("{:?}", row.out_shape),
                row.params
            )?;
        }
        writeln!(f, "{}", "-".repeat(72))?;
        writeln!(f, "Total params: {}", self.total_params())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Dense, WeightMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(rng: &mut StdRng) -> Sequential {
        let mut net = Sequential::new();
        net.push(Dense::new(4, 3, WeightMode::Real, rng));
        net.push(Activation::relu());
        net.push(Dense::new(3, 2, WeightMode::Real, rng));
        net
    }

    #[test]
    fn forward_backward_chain() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn([5, 4], 1.0, &mut rng);
        let y = net.forward(&x, Phase::Train);
        assert_eq!(y.dims(), &[5, 2]);
        let gx = net.backward(&Tensor::ones([5, 2]));
        assert_eq!(gx.dims(), &[5, 4]);
    }

    #[test]
    fn param_collection_flattens() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = tiny_net(&mut rng);
        // Dense(4→3): w+b, Dense(3→2): w+b → 4 params.
        assert_eq!(net.params().len(), 4);
        assert_eq!(net.param_count(), 4 * 3 + 3 + 3 * 2 + 2);
    }

    #[test]
    fn zero_grad_clears_everything() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn([2, 4], 1.0, &mut rng);
        let _ = net.forward(&x, Phase::Train);
        let _ = net.backward(&Tensor::ones([2, 2]));
        assert!(net.params().iter().any(|p| p.grad.norm_sq() > 0.0));
        net.zero_grad();
        assert!(net.params().iter().all(|p| p.grad.norm_sq() == 0.0));
    }

    #[test]
    fn summary_table() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = tiny_net(&mut rng);
        let s = net.summary(&[4]);
        assert_eq!(s.rows.len(), 3);
        assert_eq!(s.rows[0].out_shape, vec![3]);
        assert_eq!(s.rows[2].out_shape, vec![2]);
        assert_eq!(s.total_params(), net.param_count());
        let text = s.to_string();
        assert!(text.contains("Dense(4→3)"));
        assert!(text.contains("Total params"));
    }
}
