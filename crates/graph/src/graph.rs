//! Lowering: an explicit op graph for a deployed binarized network.
//!
//! The graph makes the stages the layer-by-layer `BinaryNetwork` walk
//! executes implicitly — and the tensors it materializes between them —
//! explicit, so the fusion pass ([`crate::fuse`]) can reason about which
//! values are genuinely live and which exist only because a layer-by-layer
//! API has no way to stream one stage into the next.

use rbnn_binary::{export_classifier, BinaryNetwork, ExportError};
use rbnn_nn::Sequential;

/// A primitive op in the unfused graph. `layer` indexes
/// [`BinaryNetwork::layers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Binarize a float input row and pack its sign bits into words.
    PackInput {
        /// Feature width of the float input.
        width: usize,
    },
    /// Per output neuron of `layer`: `popcount(XNOR(w_r, x))`.
    XnorPopcount {
        /// Layer index.
        layer: usize,
    },
    /// Compare each popcount against the folded integer threshold (Eq. 3).
    Threshold {
        /// Layer index.
        layer: usize,
    },
    /// Pack the threshold verdicts into ±1 sign bits.
    SignPack {
        /// Layer index.
        layer: usize,
    },
    /// Output-layer affine read-out: `scale·(2p − n) + shift` per class.
    Affine {
        /// Layer index (always the final layer).
        layer: usize,
    },
}

/// What a graph value holds, per element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// Row-major `f32` features or logits.
    Floats,
    /// Bit-packed ±1 activations (64 per word).
    Bits,
    /// Raw `u32` popcounts, one per output neuron.
    Counts,
    /// Boolean threshold verdicts, one per output neuron.
    Flags,
}

/// A value (edge) in the graph: one logical per-sample tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueInfo {
    /// Element kind.
    pub kind: ValueKind,
    /// Per-sample element count.
    pub width: usize,
}

/// A node: one primitive op consuming `input` and defining `output`
/// (value indices into [`OpGraph::values`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// The op.
    pub op: Op,
    /// Consumed value index.
    pub input: usize,
    /// Defined value index.
    pub output: usize,
}

/// The unfused op graph for one deployed network, paired with the network
/// itself (weights, thresholds and affine parameters are read from it at
/// compile and replay time — the graph never copies them).
#[derive(Debug, Clone)]
pub struct OpGraph {
    network: BinaryNetwork,
    nodes: Vec<Node>,
    values: Vec<ValueInfo>,
}

impl OpGraph {
    /// The network this graph was lowered from.
    pub fn network(&self) -> &BinaryNetwork {
        &self.network
    }

    /// Nodes in execution order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Value table (indexed by [`Node::input`] / [`Node::output`]).
    pub fn values(&self) -> &[ValueInfo] {
        &self.values
    }

    /// Input feature width.
    pub fn in_features(&self) -> usize {
        self.network.in_features()
    }

    /// Number of output classes.
    pub fn out_features(&self) -> usize {
        self.network.out_features()
    }
}

/// Lowers a deployed [`BinaryNetwork`] into the explicit op graph its
/// single-sample walk executes implicitly: `PackInput`, then per hidden layer
/// `XnorPopcount → Threshold → SignPack`, then `XnorPopcount → Affine` for
/// the output layer.
///
/// # Panics
///
/// Panics if the network has no layers (a [`BinaryNetwork`] always has at
/// least one).
pub fn lower(network: &BinaryNetwork) -> OpGraph {
    let layers = network.layers();
    assert!(!layers.is_empty(), "cannot lower an empty network");
    let mut values = vec![ValueInfo {
        kind: ValueKind::Floats,
        width: network.in_features(),
    }];
    let mut nodes = Vec::new();
    let push = |nodes: &mut Vec<Node>, values: &mut Vec<ValueInfo>, op, input, info| {
        values.push(info);
        let output = values.len() - 1;
        nodes.push(Node { op, input, output });
        output
    };
    let mut cur = push(
        &mut nodes,
        &mut values,
        Op::PackInput {
            width: network.in_features(),
        },
        0,
        ValueInfo {
            kind: ValueKind::Bits,
            width: network.in_features(),
        },
    );
    let last = layers.len() - 1;
    for (l, layer) in layers.iter().enumerate() {
        let out = layer.out_features();
        let counts = push(
            &mut nodes,
            &mut values,
            Op::XnorPopcount { layer: l },
            cur,
            ValueInfo {
                kind: ValueKind::Counts,
                width: out,
            },
        );
        if l == last {
            cur = push(
                &mut nodes,
                &mut values,
                Op::Affine { layer: l },
                counts,
                ValueInfo {
                    kind: ValueKind::Floats,
                    width: out,
                },
            );
        } else {
            let flags = push(
                &mut nodes,
                &mut values,
                Op::Threshold { layer: l },
                counts,
                ValueInfo {
                    kind: ValueKind::Flags,
                    width: out,
                },
            );
            cur = push(
                &mut nodes,
                &mut values,
                Op::SignPack { layer: l },
                flags,
                ValueInfo {
                    kind: ValueKind::Bits,
                    width: out,
                },
            );
        }
    }
    let _ = cur;
    OpGraph {
        network: network.clone(),
        nodes,
        values,
    }
}

/// Lowers a trained `rbnn-nn` binarized classifier by first exporting it
/// bit-exactly to a [`BinaryNetwork`] (see
/// [`export_classifier`](rbnn_binary::export_classifier)), then lowering
/// that.
pub fn lower_sequential(classifier: &Sequential) -> Result<OpGraph, ExportError> {
    Ok(lower(&export_classifier(classifier)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbnn_binary::BinaryDense;
    use rbnn_tensor::BitMatrix;

    fn net(dims: &[usize]) -> BinaryNetwork {
        let layers = dims
            .windows(2)
            .map(|w| {
                let (inp, out) = (w[0], w[1]);
                let signs: Vec<f32> = (0..inp * out)
                    .map(|i| if i % 3 == 0 { -1.0 } else { 1.0 })
                    .collect();
                BinaryDense::new(
                    BitMatrix::from_signs(&signs, out, inp),
                    vec![1.0; out],
                    vec![0.0; out],
                )
            })
            .collect();
        BinaryNetwork::new(layers)
    }

    #[test]
    fn lowering_emits_the_layer_stage_sequence() {
        let g = lower(&net(&[65, 33, 4]));
        let ops: Vec<Op> = g.nodes().iter().map(|n| n.op).collect();
        assert_eq!(
            ops,
            vec![
                Op::PackInput { width: 65 },
                Op::XnorPopcount { layer: 0 },
                Op::Threshold { layer: 0 },
                Op::SignPack { layer: 0 },
                Op::XnorPopcount { layer: 1 },
                Op::Affine { layer: 1 },
            ]
        );
        // Every node's input is the previous node's output: a pure chain.
        for pair in g.nodes().windows(2) {
            assert_eq!(pair[1].input, pair[0].output);
        }
        assert_eq!(g.values()[0].kind, ValueKind::Floats);
        assert_eq!(g.out_features(), 4);
    }

    #[test]
    fn single_layer_network_lowers_to_pack_then_affine() {
        let g = lower(&net(&[7, 3]));
        let ops: Vec<Op> = g.nodes().iter().map(|n| n.op).collect();
        assert_eq!(
            ops,
            vec![
                Op::PackInput { width: 7 },
                Op::XnorPopcount { layer: 0 },
                Op::Affine { layer: 0 },
            ]
        );
    }
}
