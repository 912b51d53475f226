//! Helpers shared by the integration tests (`mod common;`).

use zygos::lab::PointMetrics;

/// Asserts two report points are identical in every field, bit for bit.
///
/// The comparison is over the derived `Debug` rendering, so a field added
/// to [`PointMetrics`] is compared without touching this function. `f64`
/// `Debug` is shortest-round-trip, so two values render alike only when
/// they are the same number (`-0.0` and `0.0` differ). The panic names the
/// first line that differs.
pub fn assert_bits(a: &PointMetrics, b: &PointMetrics, what: &str) {
    let (a, b) = (format!("{a:#?}"), format!("{b:#?}"));
    if let Some((x, y)) = a.lines().zip(b.lines()).find(|(x, y)| x != y) {
        panic!("{what}: `{}` vs `{}`", x.trim(), y.trim());
    }
    assert_eq!(a, b, "{what}");
}
