//! The batch grace join against the row-at-a-time oracle
//! (`exec::reference::hash_join_partition_rows`, a `HashMap<Vec<Value>, _>`
//! join over tuples): for generated inputs — composite keys, NULL keys on
//! either side, `Int64` keys meeting `Date` keys, NaN and `-0.0` floats,
//! columns mixing variants, one hot key owning the whole build side, empty
//! probes — and every combination of budget, fanout, recursion depth and
//! input chunk size, the rows come out in the oracle's order, the join tally
//! is the oracle's, and the spill directory is empty afterwards.

use proptest::prelude::*;
use runtime_dynamic_optimization::common::{Batch, Tuple, Value};
use runtime_dynamic_optimization::exec::grace::{grace_join_partition, GraceContext};
use runtime_dynamic_optimization::exec::reference::hash_join_partition_rows;
use runtime_dynamic_optimization::storage::{SpillConfig, SpillManager};
use std::sync::Arc;

const BUDGETS: [u64; 4] = [1, 64, 4096, u64::MAX];
/// `0` is the adaptive fanout.
const FANOUTS: [usize; 3] = [2, 8, 0];
const DEPTHS: [usize; 3] = [0, 1, 3];
const CHUNK_SIZES: [usize; 2] = [3, 1024];

/// Floats that are never integer-valued except `-0.0` (which no integer
/// equals): the oracle's `Value` equality would let `Int64(1)` meet
/// `Float64(1.0)` whenever its hash map happens to compare them, and the
/// batch kernels never do.
const FLOATS: [f64; 5] = [f64::NAN, -0.0, 0.5, 1.5, 2.5];

/// What the key columns of a generated case hold.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `Int64` keys on the build side, `Date` keys on the probe side.
    IntMeetsDate,
    Floats,
    Strings,
    /// Every variant in one column: the `Mixed` representation.
    Mixed,
    /// One key value on every row: no hash splits it, the recursion bottoms
    /// out in the nested-loop fallback.
    HotKey,
}

const SHAPES: [Shape; 5] = [
    Shape::IntMeetsDate,
    Shape::Floats,
    Shape::Strings,
    Shape::Mixed,
    Shape::HotKey,
];

fn key(shape: Shape, probe_side: bool, seed: u8, v: i64) -> Value {
    if matches!(shape, Shape::HotKey) {
        return Value::Int64(7);
    }
    if seed.is_multiple_of(8) {
        return Value::Null;
    }
    match (shape, seed % 5) {
        (Shape::IntMeetsDate, _) if probe_side => Value::Date(v),
        (Shape::IntMeetsDate, _) | (Shape::Mixed, 0) => Value::Int64(v),
        (Shape::Mixed, 1) => Value::Date(v),
        (Shape::Floats, _) | (Shape::Mixed, 2) => Value::Float64(FLOATS[v as usize % 5]),
        (Shape::Strings, _) | (Shape::Mixed, 3) => Value::Utf8(format!("k{v}")),
        _ => Value::Bool(v % 2 == 0),
    }
}

/// `(key seed, key value, second key)` per row.
type Cells = Vec<(u8, i64, u8)>;

fn cells(max_rows: usize) -> impl Strategy<Value = Cells> {
    prop::collection::vec((any::<u8>(), 0i64..6, any::<u8>()), 0..max_rows)
}

/// Rows `[key, second key, payload]`; the second key is a small integer with
/// the occasional NULL, the payload numbers the rows.
fn rows(shape: Shape, probe_side: bool, cells: &Cells) -> Vec<Tuple> {
    cells
        .iter()
        .enumerate()
        .map(|(i, &(seed, v, second))| {
            Tuple::new(vec![
                key(shape, probe_side, seed, v),
                if second.is_multiple_of(11) {
                    Value::Null
                } else {
                    Value::Int64(i64::from(second % 3))
                },
                Value::Int64(i as i64 + if probe_side { 1_000 } else { 0 }),
            ])
        })
        .collect()
}

fn chunked(rows: &[Tuple], chunk: usize) -> Vec<Batch> {
    rows.chunks(chunk).map(|c| Batch::from_rows(3, c)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn batch_grace_join_matches_the_row_oracle(
        shape in 0usize..5,
        composite in any::<bool>(),
        build_cells in cells(60),
        probe_cells in cells(80),
    ) {
        let shape = SHAPES[shape];
        let build = rows(shape, false, &build_cells);
        // Every fourth case probes with nothing at all.
        let probe = match build_cells.len() % 4 {
            0 => Vec::new(),
            _ => rows(shape, true, &probe_cells),
        };
        let keys: &[usize] = if composite { &[0, 1] } else { &[0] };
        let (expected, expected_tally) = hash_join_partition_rows(&probe, &build, keys, keys);

        let manager =
            SpillManager::create(SpillConfig::default().with_page_size(512)).expect("manager");
        for budget in BUDGETS {
            for fanout in FANOUTS {
                for depth in DEPTHS {
                    for chunk in CHUNK_SIZES {
                        let mut ctx = GraceContext::new(Arc::clone(&manager), budget)
                            .with_max_depth(depth);
                        if fanout > 0 {
                            ctx = ctx.with_fanout(fanout);
                        }
                        let (out, tally) = grace_join_partition(
                            &chunked(&probe, chunk),
                            &chunked(&build, chunk),
                            keys,
                            keys,
                            &ctx,
                        )
                        .expect("grace join");
                        let what = format!(
                            "{shape:?} keys={keys:?} budget={budget} fanout={fanout} \
                             depth={depth} chunk={chunk}"
                        );
                        let out: Vec<Tuple> = out.iter().flat_map(Batch::to_rows).collect();
                        // Variant-exact: `Int64(1) == Date(1)` under `PartialEq`.
                        prop_assert_eq!(format!("{out:?}"), format!("{expected:?}"), "{}", what);
                        prop_assert_eq!(tally.join, expected_tally, "{}", what);
                        if budget == 1 && !build.is_empty() && !probe.is_empty() {
                            // Nothing fits a 1-byte budget: every chain of
                            // buckets ends in the nested-loop leaf.
                            prop_assert!(tally.fallbacks > 0, "{}: {:?}", what, tally);
                        }
                        prop_assert_eq!(
                            std::fs::read_dir(manager.dir()).expect("spill dir").count(),
                            0,
                            "{}: spill files left behind",
                            what
                        );
                    }
                }
            }
        }
    }
}
