//! Order statistics over small sample sets (iterations, passes, segments).

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the two middle values for an even count.
/// Panics on an empty slice: a run that measured nothing is a bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// (max - min) / median.
pub fn range_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    (v[v.len() - 1] - v[0]) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_segments() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Five open-loop segments with one outlier: the median ignores it.
        assert_eq!(median(&[54.5, 57.9, 800.0, 55.0, 56.1]), 56.1);
    }

    #[test]
    fn range_share_is_relative_to_the_median() {
        assert_eq!(range_share(&[90.0, 100.0, 120.0]), 0.3);
    }
}
