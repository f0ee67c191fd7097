//! Helpers shared by the service's integration tests.

/// The value of one sample (`name{labels}` exactly as exposed) in a
/// Prometheus text exposition; panics when the sample is missing.
pub fn metric(text: &str, sample: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            (name == sample).then(|| value.parse::<f64>().expect("numeric sample") as u64)
        })
        .unwrap_or_else(|| panic!("metric {sample} missing from exposition"))
}
