//! The exact-hash key kernel shared by every grouping and equi-join in the
//! dataframe and SQL substrates.
//!
//! Grouping and joining compare key values, and the comparison-based way
//! to do that (scan every group seen so far for each row, or probe every
//! right row for each left row) is quadratic. This module hashes instead,
//! but only where hashing provably gives the same answer: inside the
//! *exact domain* — `Null`, `Bool`, `Str` and integral numbers with
//! `|v| < 10^9` — [`AttrValue`]'s `==` and [`AttrValue::approx_eq`] are the
//! same equivalence, and [`ValueKey`] equality is exactly that equivalence.
//! Outside the domain (non-integral or non-finite floats, huge integers,
//! lists) the helpers return `None` and the caller runs its comparison
//! scan, so results never depend on which path ran.

use netgraph::AttrValue;
use std::collections::HashMap;

/// An exactly-hashable stand-in for an [`AttrValue`] used as a grouping or
/// join key. Within its domain, key equality coincides *exactly* with both
/// `AttrValue::eq` and [`AttrValue::approx_eq`]:
///
/// * `Null`, `Bool` and `Str` compare exactly in every scheme;
/// * numeric values map to their integer value, but only when integral and
///   `|v| < 10^9` — beyond that, `approx_eq`'s relative tolerance of
///   `1e-9 * |v|` reaches 1.0 and *distinct* integers start comparing
///   equal, which a hash key cannot express. `Int(3)`, `Float(3.0)` and
///   `Float(-0.0)`/`Int(0)` share a key, as they compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKey<'a> {
    /// `Null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integral `Int` or `Float` with `|v| < 10^9`.
    Int(i64),
    /// A string, borrowed from the value.
    Str(&'a str),
}

/// The exact key of `v`, or `None` when `v` is outside the exact domain.
pub fn value_key(v: &AttrValue) -> Option<ValueKey<'_>> {
    const MAX_EXACT: i64 = 1_000_000_000;
    match v {
        AttrValue::Null => Some(ValueKey::Null),
        AttrValue::Bool(b) => Some(ValueKey::Bool(*b)),
        AttrValue::Int(_) | AttrValue::Float(_) => match v.as_i64() {
            // Range check rather than `abs()`: `i64::MIN.abs()` overflows.
            Some(i) if -MAX_EXACT < i && i < MAX_EXACT => Some(ValueKey::Int(i)),
            _ => None,
        },
        AttrValue::Str(s) => Some(ValueKey::Str(s)),
        AttrValue::List(_) => None,
    }
}

/// Partitions rows by their key tuples in one hashed pass.
///
/// `rows` yields each row's key values in order. The result lists every
/// group's member row indices (ascending), groups ordered by first
/// appearance — the partition the first-match comparison scan builds.
/// Returns `None` as soon as any key value is outside the exact domain.
///
/// ```
/// use dataframe::ops::key::partition;
/// use dataframe::AttrValue;
/// let col = [AttrValue::from("a"), AttrValue::Int(3), AttrValue::from("a"), AttrValue::Float(3.0)];
/// let groups = partition(col.iter().map(std::iter::once)).unwrap();
/// assert_eq!(groups, vec![vec![0, 2], vec![1, 3]]);
/// assert!(partition([[AttrValue::Float(0.5)]].iter()).is_none());
/// ```
pub fn partition<'a, R, K>(rows: R) -> Option<Vec<Vec<usize>>>
where
    R: IntoIterator<Item = K>,
    K: IntoIterator<Item = &'a AttrValue>,
{
    let mut index: HashMap<Vec<ValueKey<'a>>, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut key = Vec::new();
    for (row, values) in rows.into_iter().enumerate() {
        key.clear();
        for v in values {
            key.push(value_key(v)?);
        }
        match index.get(key.as_slice()) {
            Some(&g) => groups[g].push(row),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push(vec![row]);
            }
        }
    }
    Some(groups)
}

/// Equi-join row pairs for `left key == right key`, through [`partition`].
///
/// Pairs come in left-row order, each left row's matches in ascending
/// right order; an unmatched left row yields `(l, None)` when
/// `keep_unmatched_left` (a left join) and nothing otherwise — the output
/// of the nested comparison loop. Returns `None` when any key on either
/// side is outside the exact domain.
pub fn equi_join<'a>(
    left: impl ExactSizeIterator<Item = &'a AttrValue>,
    right: impl ExactSizeIterator<Item = &'a AttrValue>,
    keep_unmatched_left: bool,
) -> Option<Vec<(usize, Option<usize>)>> {
    // Partition the right rows followed by the left rows: a group's members
    // below `n_right` are the right rows matching every left row above it.
    let (n_left, n_right) = (left.len(), right.len());
    let groups = partition(right.chain(left).map(std::iter::once))?;
    let mut matches: Vec<&[usize]> = vec![&[]; n_left];
    for members in &groups {
        let split = members.partition_point(|&i| i < n_right);
        for &l in &members[split..] {
            matches[l - n_right] = &members[..split];
        }
    }
    let mut pairs = Vec::with_capacity(n_left);
    for (l, rights) in matches.into_iter().enumerate() {
        pairs.extend(rights.iter().map(|&r| (l, Some(r))));
        if rights.is_empty() && keep_unmatched_left {
            pairs.push((l, None));
        }
    }
    Some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_edges() {
        assert_eq!(value_key(&AttrValue::Float(-0.0)), Some(ValueKey::Int(0)));
        assert_eq!(
            value_key(&AttrValue::Float(3.0)),
            value_key(&AttrValue::Int(3))
        );
        assert_eq!(
            value_key(&AttrValue::Int(999_999_999)),
            Some(ValueKey::Int(999_999_999))
        );
        for v in [
            AttrValue::Int(1_000_000_000),
            AttrValue::Int(-1_000_000_000),
            AttrValue::Int(i64::MIN),
            AttrValue::Float(1e20),
            AttrValue::Float(0.5),
            AttrValue::Float(f64::NAN),
            AttrValue::Float(f64::INFINITY),
            AttrValue::List(vec![]),
        ] {
            assert_eq!(value_key(&v), None, "{v:?}");
        }
    }

    #[test]
    fn partition_multi_column_keys() {
        let rows = [
            [AttrValue::from("x"), AttrValue::Int(1)],
            [AttrValue::from("x"), AttrValue::Int(2)],
            [AttrValue::from("x"), AttrValue::Float(1.0)],
            [AttrValue::Null, AttrValue::Bool(true)],
        ];
        let groups = partition(rows.iter()).unwrap();
        assert_eq!(groups, vec![vec![0, 2], vec![1], vec![3]]);
        assert_eq!(
            partition(std::iter::empty::<[&AttrValue; 1]>()),
            Some(vec![])
        );
    }

    #[test]
    fn equi_join_orders_pairs_like_the_nested_loop() {
        let left = [AttrValue::Int(1), AttrValue::Int(9), AttrValue::Float(1.0)];
        let right = [AttrValue::Int(1), AttrValue::Int(2), AttrValue::Int(1)];
        assert_eq!(
            equi_join(left.iter(), right.iter(), true).unwrap(),
            vec![
                (0, Some(0)),
                (0, Some(2)),
                (1, None),
                (2, Some(0)),
                (2, Some(2))
            ]
        );
        assert_eq!(
            equi_join(left.iter(), right.iter(), false).unwrap().len(),
            4
        );
        let huge = [AttrValue::Int(1 << 40)];
        assert!(equi_join(left.iter(), huge.iter(), false).is_none());
    }
}
