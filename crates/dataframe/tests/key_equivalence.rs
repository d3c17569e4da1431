//! Equivalence of the exact-hash key kernel (`dataframe::ops::key`) with
//! the comparison scans it replaced.
//!
//! `GroupBy::new`, `DataFrame::unique` and the inner/left joins hash their
//! keys when every key is in the exact domain and fall back to a
//! comparison scan otherwise. Each property below runs the public
//! operation against an in-test copy of the linear-scan implementation
//! and requires identical output: same groups, key values, member rows
//! and order; same distinct values in first-occurrence order; same joined
//! rows in the same order. Key values come from a small pool that mixes
//! in-domain values (strings, small integers, integral floats including
//! `-0.0` and `3.0` beside `Int(3)`, null, booleans) with values outside
//! the domain (non-integral floats, NaN, |Int| >= 1e9, lists). Each case
//! draws its keys from a few pool values, either all inside the domain or
//! from the whole pool, so both paths run.

use dataframe::ops::{inner_join, key, left_join};
use dataframe::{AttrValue, Column, DataFrame};
use proptest::prelude::*;

/// Key values; the first `EXACT` entries are inside the exact domain.
fn pool() -> Vec<AttrValue> {
    vec![
        AttrValue::from("a"),
        AttrValue::from("b"),
        AttrValue::Int(3),
        AttrValue::Float(3.0),
        AttrValue::Int(0),
        AttrValue::Float(-0.0),
        AttrValue::Int(999_999_999),
        AttrValue::Null,
        AttrValue::Bool(true),
        AttrValue::Bool(false),
        // Outside the exact domain. 1e9 and 1e9 + 1 are distinct under
        // `==` but equal under `approx_eq`.
        AttrValue::Float(2.5),
        AttrValue::Float(f64::NAN),
        AttrValue::Int(1_000_000_000),
        AttrValue::Int(1_000_000_001),
        AttrValue::Float(-1e12),
        AttrValue::List(vec![AttrValue::Int(3)]),
        AttrValue::List(vec![AttrValue::Float(3.0)]),
    ]
}

const EXACT: usize = 10;

/// One case: two frames whose keys come from the same 1-4 pool values.
/// Half the cases pick those values inside the exact domain only, so the
/// hashed path runs; the rest pick from the whole pool, so small mixes of
/// out-of-domain values meet each other and the in-domain ones.
#[derive(Debug)]
struct Case {
    exact: bool,
    left: DataFrame,
    right: DataFrame,
}

type Rows = Vec<(usize, usize)>;

fn arb_case() -> impl Strategy<Value = Case> {
    let rows = || prop::collection::vec((0..1000usize, 0..1000usize), 0..30);
    (
        (0..2usize, prop::collection::vec(0..1000usize, 1..5)),
        rows(),
        rows(),
    )
        .prop_map(
            |((mode, picks), left, right): ((usize, Vec<usize>), Rows, Rows)| {
                let exact = mode == 0;
                let pool = pool();
                let span = if exact { EXACT } else { pool.len() };
                let values: Vec<AttrValue> = picks.iter().map(|p| pool[p % span].clone()).collect();
                Case {
                    exact,
                    left: frame(&values, &left, 0),
                    right: frame(&values, &right, 100),
                }
            },
        )
}

fn frame(values: &[AttrValue], rows: &[(usize, usize)], value_base: i64) -> DataFrame {
    let pick = |i: usize| values[i % values.len()].clone();
    let k1: Column = rows.iter().map(|&(a, _)| pick(a)).collect();
    let k2: Column = rows.iter().map(|&(_, b)| pick(b)).collect();
    let v: Column = (0..rows.len() as i64)
        .map(|i| AttrValue::Int(value_base + i))
        .collect();
    DataFrame::from_columns(vec![
        ("k1".to_string(), k1),
        ("k2".to_string(), k2),
        ("v".to_string(), v),
    ])
    .expect("columns are equal length")
}

/// Strict identity for comparing outputs: type and bits, NaN included.
fn show<'a>(values: impl IntoIterator<Item = &'a AttrValue>) -> Vec<String> {
    values.into_iter().map(|v| format!("{v:?}")).collect()
}

fn dump(df: &DataFrame) -> Vec<(String, Vec<String>)> {
    df.column_names()
        .into_iter()
        .map(|name| (name.to_string(), show(df.column(name).unwrap().iter())))
        .collect()
}

// ---------------------------------------------- linear-scan reference copies

fn scan_groups(df: &DataFrame, keys: &[&str]) -> Vec<(Vec<AttrValue>, Vec<usize>)> {
    let key_cols: Vec<&Column> = keys.iter().map(|k| df.column(k).unwrap()).collect();
    let mut groups: Vec<(Vec<AttrValue>, Vec<usize>)> = Vec::new();
    for row in 0..df.n_rows() {
        let key: Vec<AttrValue> = key_cols
            .iter()
            .map(|c| c.get(row).expect("in range").clone())
            .collect();
        match groups
            .iter_mut()
            .find(|(k, _)| k.len() == key.len() && k.iter().zip(&key).all(|(a, b)| a == b))
        {
            Some((_, members)) => members.push(row),
            None => groups.push((key, vec![row])),
        }
    }
    groups
}

fn scan_unique(df: &DataFrame, column: &str) -> Vec<AttrValue> {
    let mut seen: Vec<AttrValue> = Vec::new();
    for v in df.column(column).unwrap().iter() {
        if !seen.iter().any(|s| s == v) {
            seen.push(v.clone());
        }
    }
    seen
}

fn scan_join(
    left: &DataFrame,
    right: &DataFrame,
    left_on: &str,
    right_on: &str,
    suffix: &str,
    keep_unmatched_left: bool,
) -> DataFrame {
    let left_key = left.column(left_on).unwrap();
    let right_key = right.column(right_on).unwrap();
    let mut pairs: Vec<(usize, Option<usize>)> = Vec::new();
    for l in 0..left.n_rows() {
        let lv = left_key.get(l).expect("in range");
        let mut matched = false;
        for r in 0..right.n_rows() {
            if right_key.get(r).expect("in range").approx_eq(lv) {
                pairs.push((l, Some(r)));
                matched = true;
            }
        }
        if !matched && keep_unmatched_left {
            pairs.push((l, None));
        }
    }
    let mut out = DataFrame::new();
    for name in left.column_names() {
        let col: Column = pairs
            .iter()
            .map(|&(l, _)| left.value(l, name).expect("in range").clone())
            .collect();
        out.add_column(name, col).unwrap();
    }
    for name in right.column_names() {
        if name == right_on {
            continue;
        }
        let out_name = if out.has_column(name) {
            format!("{name}{suffix}")
        } else {
            name.to_string()
        };
        let col: Column = pairs
            .iter()
            .map(|&(_, r)| match r {
                Some(r) => right.value(r, name).expect("in range").clone(),
                None => AttrValue::Null,
            })
            .collect();
        out.add_column(&out_name, col).unwrap();
    }
    out
}

proptest! {
    /// Group-by on one and two key columns: groups, key values, member
    /// rows and group order all match the scan.
    #[test]
    fn groupby_matches_the_scan(case in arb_case()) {
        let df = &case.left;
        for keys in [&["k1"][..], &["k1", "k2"][..]] {
            let hashed = key::partition(
                (0..df.n_rows()).map(|r| keys.iter().map(move |k| df.value(r, k).unwrap())),
            );
            prop_assert!(hashed.is_some() || !case.exact, "an in-domain frame must hash");
            let got = df.groupby(keys).unwrap();
            let want = scan_groups(df, keys);
            prop_assert_eq!(got.n_groups(), want.len());
            for ((gk, gm), (wk, wm)) in got.groups().iter().zip(&want) {
                prop_assert_eq!(show(gk), show(wk));
                prop_assert_eq!(gm, wm);
            }
        }
    }

    /// `unique` returns the scan's distinct values in first-occurrence
    /// order.
    #[test]
    fn unique_matches_the_scan(case in arb_case()) {
        for column in ["k1", "k2"] {
            let got = case.left.unique(column).unwrap();
            prop_assert_eq!(show(&got), show(&scan_unique(&case.left, column)));
        }
    }

    /// Inner and left joins produce the nested loop's rows in its order.
    #[test]
    fn joins_match_the_nested_loop(case in arb_case()) {
        let (l, r) = (&case.left, &case.right);
        let got = inner_join(l, r, "k1", "k1", "_r").unwrap();
        prop_assert_eq!(dump(&got), dump(&scan_join(l, r, "k1", "k1", "_r", false)));
        let got = left_join(l, r, "k1", "k2", "_r").unwrap();
        prop_assert_eq!(dump(&got), dump(&scan_join(l, r, "k1", "k2", "_r", true)));
        let got = left_join(r, l, "k2", "k1", "_l").unwrap();
        prop_assert_eq!(dump(&got), dump(&scan_join(r, l, "k2", "k1", "_l", true)));
    }
}
