//! One sample's output logits, stored inline: a served [`Prediction`]
//! carries its logits in place instead of on the heap, so answering a
//! request allocates at most the window's prediction list.
//!
//! [`Prediction`]: crate::Prediction

use std::ops::Deref;

/// Most outputs a served model may have: the widest model the registry
/// deploys (`ModelRegistry::demo`'s image classifier, 1024→100→16).
/// [`Server::start`](crate::Server::start) and
/// [`ServeHandle::swap_model`](crate::ServeHandle::swap_model) refuse a
/// wider model.
pub const MAX_CLASSES: usize = 16;

/// A sample's raw output logits: up to [`MAX_CLASSES`] values held inline,
/// so the type is `Copy` and building one never allocates.
///
/// Reads as a `[f32]` slice ([`Deref`]); equality and `Debug` see only the
/// live values, never the unused capacity.
#[derive(Clone, Copy)]
pub struct Logits {
    len: usize,
    values: [f32; MAX_CLASSES],
}

impl Logits {
    /// `row` stored inline, or `None` when it has more than
    /// [`MAX_CLASSES`] values.
    pub fn new(row: &[f32]) -> Option<Self> {
        let mut values = [0.0; MAX_CLASSES];
        values.get_mut(..row.len())?.copy_from_slice(row);
        Some(Self {
            len: row.len(),
            values,
        })
    }

    /// The live values.
    pub fn as_slice(&self) -> &[f32] {
        &self.values[..self.len]
    }
}

impl Deref for Logits {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl PartialEq for Logits {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[f32]> for Logits {
    fn eq(&self, other: &[f32]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<f32>> for Logits {
    fn eq(&self, other: &Vec<f32>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for Logits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_up_to_capacity_and_refuses_wider_rows() {
        let row = [0.25f32, -1.5, 3.0];
        let logits = Logits::new(&row).expect("fits inline");
        assert_eq!(logits.len(), 3);
        assert_eq!(logits, row.to_vec());
        assert_eq!(&logits, &row[..]);
        assert_eq!(format!("{logits:?}"), format!("{:?}", &row[..]));
        assert_eq!(Logits::new(&[]).map(|l| l.len()), Some(0));
        assert!(Logits::new(&[1.0; MAX_CLASSES]).is_some());
        assert!(Logits::new(&[1.0; MAX_CLASSES + 1]).is_none());
    }

    #[test]
    fn equality_ignores_the_unused_capacity() {
        let a = Logits::new(&[1.0, 2.0]).expect("fits");
        let mut b = Logits::new(&[1.0, 2.0, 9.0]).expect("fits");
        assert_ne!(a, b);
        b.len = 2;
        assert_eq!(a, b, "a stale value past the length must not count");
        assert_ne!(a, vec![1.0]);
    }
}
