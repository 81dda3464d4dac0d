//! RA0005 negative: the hot path reuses caller-provided buffers.

pub fn hot_loop(src: &[f32], dst: &mut [f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s * 2.0;
    }
}

pub fn setup(n: usize) -> Vec<f32> {
    // Outside the zone function: setup may allocate freely.
    vec![0.0; n]
}

pub fn grouped_hot_loop(
    shared: &std::sync::Arc<Vec<f32>>,
    by_task: &std::collections::BTreeMap<u8, usize>,
    tasks: &[u8],
) -> usize {
    // Sharing an existing pointer and looking up a map do not allocate.
    let rows = std::sync::Arc::clone(shared);
    let mut present = [false; 4];
    for &task in tasks {
        if let Some(seen) = present.get_mut(usize::from(task)) {
            *seen = by_task.contains_key(&task);
        }
    }
    rows.len() + present.iter().filter(|&&p| p).count()
}
