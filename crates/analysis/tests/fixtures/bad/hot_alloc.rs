//! RA0005 positive: allocation inside a declared zero-alloc function.

pub fn hot_loop(src: &[f32], dst: &mut [f32]) {
    let scaled: Vec<f32> = src.iter().map(|x| x * 2.0).collect();
    let label = format!("{} rows", scaled.len());
    let copy = scaled.to_vec();
    dst[..copy.len()].copy_from_slice(&copy);
    drop(label);
}

pub fn setup(n: usize) -> Vec<f32> {
    // Outside the zone function: setup may allocate freely.
    vec![0.0; n]
}

pub fn grouped_hot_loop(src: &[f32], tasks: &[u8]) -> usize {
    let shared = std::sync::Arc::new(src.len());
    let mut by_task: std::collections::BTreeMap<u8, Vec<f32>> = std::collections::BTreeMap::new();
    let mut order = std::collections::VecDeque::with_capacity(*shared);
    let seen = std::rc::Rc::new(std::collections::HashMap::<u8, usize>::new());
    for (&task, &x) in tasks.iter().zip(src) {
        by_task.entry(task).or_default().push(x);
        order.push_back(task);
    }
    by_task.len() + order.len() + seen.len()
}
