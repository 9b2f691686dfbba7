//! Order statistics for the report.

use crate::workloads::WindowStats;

/// Nearest-rank quantile of `v` (sorted in place); NaN when empty.
pub fn quantile<T: Copy + Into<f64>>(v: &mut [T], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable_by(|a, b| (*a).into().total_cmp(&(*b).into()));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1].into()
}

/// Median of `v` (sorted in place); NaN when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Mean op latency of the last tenth of the windows over that of the
/// first tenth (one window at least); NaN without windows.
pub fn growth(ws: &[WindowStats]) -> f64 {
    if ws.is_empty() {
        return f64::NAN;
    }
    let d = (ws.len() / 10).max(1);
    let mean = |w: &[WindowStats]| w.iter().map(|w| w.mean_us).sum::<f64>() / w.len() as f64;
    mean(&ws[ws.len() - d..]) / mean(&ws[..d])
}
