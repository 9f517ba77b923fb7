//! Property-based tests of the substrate invariants (docs/TESTING.md).

use proptest::prelude::*;

use workshare_common::codec::{decode_row, encode_row, PageBuilder};
use workshare_common::{CmpOp, ColType, Column, Predicate, QueryBitmap, Schema, SelVec, Tuples, Value};
use workshare_sim::{CostKind, Machine, MachineConfig};

// ---------------------------------------------------------------------------
// Row codec
// ---------------------------------------------------------------------------

fn arb_coltype() -> impl Strategy<Value = ColType> {
    prop_oneof![
        Just(ColType::Int),
        Just(ColType::Float),
        (1usize..24).prop_map(ColType::Str),
    ]
}


proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_roundtrips_arbitrary_rows(tys in proptest::collection::vec(arb_coltype(), 1..6), seed in any::<u64>()) {
        let cols: Vec<Column> = tys
            .iter()
            .enumerate()
            .map(|(i, ty)| Column::new(&format!("c{i}"), *ty))
            .collect();
        let schema = Schema::new(cols);
        // Build a deterministic row from the seed.
        let mut row = Vec::new();
        for (i, ty) in tys.iter().enumerate() {
            let v = match ty {
                ColType::Int => Value::Int((seed as i64).wrapping_mul(i as i64 + 1)),
                ColType::Float => Value::Float((seed as f64) / (i as f64 + 1.5)),
                ColType::Str(n) => {
                    let len = (seed as usize + i) % (n + 1);
                    Value::str(&"x".repeat(len))
                }
            };
            row.push(v);
        }
        let mut buf = Vec::new();
        encode_row(&schema, &row, &mut buf);
        prop_assert_eq!(buf.len(), schema.row_width());
        let back = decode_row(&schema, &buf, 0);
        prop_assert_eq!(back, row);
    }

    #[test]
    fn pages_preserve_row_order(n in 1usize..200) {
        let schema = Schema::new(vec![
            Column::new("k", ColType::Int),
            Column::new("s", ColType::Str(6)),
        ]);
        let rows: Vec<Vec<Value>> = (0..n as i64)
            .map(|i| vec![Value::Int(i), Value::str(&format!("r{}", i % 100))])
            .collect();
        let mut b = PageBuilder::with_page_size(&schema, 256);
        for r in &rows {
            b.push(r);
        }
        let pages = b.finish();
        let decoded: Vec<_> = pages.iter().flat_map(|p| p.decode_all(&schema)).collect();
        prop_assert_eq!(decoded, rows);
    }
}

// ---------------------------------------------------------------------------
// A page read in place vs the same page decoded
// ---------------------------------------------------------------------------

/// A value of type `ty` drawn from `w`: small ranges so predicates select
/// some tuples and not others, and strings that are empty, full-width or
/// anything between.
fn value_of(ty: ColType, w: u64) -> Value {
    match ty {
        ColType::Int => Value::Int((w % 16) as i64 - 8),
        ColType::Float => Value::Float(((w % 16) as f64 - 8.0) / 2.0),
        ColType::Str(n) => {
            let len = match w % 3 {
                0 => 0,
                1 => n,
                _ => (w >> 8) as usize % (n + 1),
            };
            let c = (b'a' + ((w >> 16) % 3) as u8) as char;
            Value::str(&c.to_string().repeat(len))
        }
    }
}

/// A predicate over `tys` built from `words`: `Cmp`, `Between` and `InSet`
/// leaves over every column type (literals mostly of the column's type, one
/// in eight an `Int` whatever the column), under `And`, `Or` and `Not` up
/// to `depth` deep.
fn pred_of(tys: &[ColType], words: &mut dyn Iterator<Item = u64>, depth: u32) -> Predicate {
    let mut w = || words.next().unwrap_or(0);
    let kind = w() % if depth == 0 { 3 } else { 6 };
    let col = w() as usize % tys.len();
    let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    let op = ops[w() as usize % ops.len()];
    let set_len = 1 + w() as usize % 4;
    let mut lit = || {
        let x = w();
        value_of(if x % 8 == 0 { ColType::Int } else { tys[col] }, x >> 3)
    };
    match kind {
        0 => Predicate::Cmp { col, op, val: lit() },
        1 => {
            let (a, b) = (lit(), lit());
            Predicate::Between { col, lo: a.clone().min(b.clone()), hi: a.max(b) }
        }
        2 => Predicate::in_set(col, (0..set_len).map(|_| lit()).collect()),
        k => {
            let mut sub = || pred_of(tys, words, depth - 1);
            match k {
                3 => Predicate::And(vec![sub(), sub()]),
                4 => Predicate::Or(vec![sub(), sub()]),
                _ => Predicate::Not(Box::new(sub())),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_page_read_in_place_reads_and_selects_as_decoded(
        tys in proptest::collection::vec(arb_coltype(), 1..7),
        cells in proptest::collection::vec(any::<u64>(), 0..400),
        page_size in 64usize..1024,
        pred_words in proptest::collection::vec(any::<u64>(), 16..64),
        gather in any::<u64>(),
    ) {
        let cols: Vec<Column> = tys
            .iter()
            .enumerate()
            .map(|(i, ty)| Column::new(&format!("c{i}"), *ty))
            .collect();
        let schema = Schema::new(cols);
        let mut builder = PageBuilder::with_page_size(&schema, page_size.max(schema.row_width() + 4));
        for row in cells.chunks_exact(tys.len()) {
            let row: Vec<Value> = row.iter().zip(&tys).map(|(&w, &ty)| value_of(ty, w)).collect();
            builder.push(&row);
        }
        let preds: Vec<Predicate> = {
            let mut words = pred_words.into_iter();
            (0..4).map(|_| pred_of(&tys, &mut words, 2)).collect()
        };
        for page in builder.finish() {
            let decoded = page.decode_all(&schema);
            let rows = page.rows(&schema);
            prop_assert_eq!(rows.len(), decoded.len());
            for (i, row) in decoded.iter().enumerate() {
                for (col, want) in row.iter().enumerate() {
                    prop_assert!(rows.with_value(i, col, |v| v == want), "tuple {i} column {col}");
                    if tys[col] == ColType::Int {
                        prop_assert_eq!(rows.int(i, col), want.as_int());
                    }
                }
            }
            // The tuples a gather visits, and which of them start selected.
            let idx: Vec<u32> = (0..rows.len() as u32).filter(|i| gather >> (i % 64) & 1 == 1).collect();
            let mut from_page = SelVec::new();
            let mut from_rows = SelVec::new();
            for p in &preds {
                p.eval_batch_into(&rows, &mut from_page);
                p.eval_batch_into(&decoded, &mut from_rows);
                let want: Vec<usize> = (0..decoded.len()).filter(|&i| p.eval(&decoded[i])).collect();
                prop_assert_eq!(from_page.iter_ones().collect::<Vec<_>>(), want.clone(), "{:?}", p);
                prop_assert_eq!(from_rows.iter_ones().collect::<Vec<_>>(), want, "{:?}", p);
                for sel in [&mut from_page, &mut from_rows] {
                    sel.reset(idx.len(), true);
                    (0..idx.len()).filter(|j| j % 3 == 2).for_each(|j| sel.clear(j));
                }
                p.restrict_batch_gather(&rows, &idx, &mut from_page);
                p.restrict_batch_gather(&decoded, &idx, &mut from_rows);
                let want: Vec<usize> = (0..idx.len())
                    .filter(|&j| j % 3 != 2 && p.eval(&decoded[idx[j] as usize]))
                    .collect();
                prop_assert_eq!(from_page.iter_ones().collect::<Vec<_>>(), want.clone(), "{:?}", p);
                prop_assert_eq!(from_rows.iter_ones().collect::<Vec<_>>(), want, "{:?}", p);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// QueryBitmap vs reference set semantics
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitmap_matches_btreeset_model(
        xs in proptest::collection::btree_set(0usize..300, 0..40),
        ys in proptest::collection::btree_set(0usize..300, 0..40),
        refs in proptest::collection::btree_set(0usize..300, 0..40),
    ) {
        let mut a = QueryBitmap::zeros(300);
        for &x in &xs { a.set(x); }
        let mut e = QueryBitmap::zeros(300);
        for &y in &ys { e.set(y); }
        let mut referencing = QueryBitmap::zeros(300);
        for &r in &refs { referencing.set(r); }

        // Model: keep x if (x ∈ ys) or (x ∉ refs).
        let expect: std::collections::BTreeSet<usize> = xs
            .iter()
            .copied()
            .filter(|x| ys.contains(x) || !refs.contains(x))
            .collect();
        let mut t = a.clone();
        let any = t.and_filtered(Some(&e), &referencing);
        prop_assert_eq!(t.iter_ones().collect::<std::collections::BTreeSet<_>>(), expect.clone());
        prop_assert_eq!(any, !expect.is_empty());
        prop_assert_eq!(t.count_ones(), expect.len());
    }

    #[test]
    fn bitmap_or_and_roundtrip(
        xs in proptest::collection::btree_set(0usize..200, 0..30),
        ys in proptest::collection::btree_set(0usize..200, 0..30),
    ) {
        let mut a = QueryBitmap::zeros(1);
        for &x in &xs { a.set(x); }
        let mut b = QueryBitmap::zeros(1);
        for &y in &ys { b.set(y); }
        let mut u = a.clone();
        u.or_assign(&b);
        let union: std::collections::BTreeSet<usize> = xs.union(&ys).copied().collect();
        prop_assert_eq!(u.iter_ones().collect::<std::collections::BTreeSet<_>>(), union);
        let mut i = a.clone();
        i.and_assign(&b);
        let inter: std::collections::BTreeSet<usize> = xs.intersection(&ys).copied().collect();
        prop_assert_eq!(i.iter_ones().collect::<std::collections::BTreeSet<_>>(), inter);
    }
}

// ---------------------------------------------------------------------------
// QueryBitmap vs a word-vector model, across the inline / heap boundary
// ---------------------------------------------------------------------------

/// The model of a bitmap is its words; a bit past the end reads as zero,
/// and setting one zero-extends.
fn model_set(m: &mut Vec<u64>, i: usize) {
    if i / 64 >= m.len() {
        m.resize(i / 64 + 1, 0);
    }
    m[i / 64] |= 1 << (i % 64);
}

fn model_word(m: &[u64], i: usize) -> u64 {
    m.get(i).copied().unwrap_or(0)
}

fn model_ones(m: &[u64]) -> Vec<usize> {
    (0..m.len() * 64).filter(|&i| m[i / 64] >> (i % 64) & 1 == 1).collect()
}

fn hash_of<T: std::hash::Hash + ?Sized>(t: &T) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// A bitmap of `words` words with `sets` set (growing past `words` when a
/// slot lies beyond it), and its model.
fn modelled_bitmap(words: usize, sets: &[usize]) -> (QueryBitmap, Vec<u64>) {
    let mut b = QueryBitmap::zeros(words * 64);
    let mut m = vec![0u64; words];
    for &i in sets {
        b.set(i);
        model_set(&mut m, i);
    }
    (b, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Widths of 0–3 words: one word is stored inline, the rest on the heap,
    /// and `set` grows a bitmap across that boundary.
    #[test]
    fn bitmap_words_match_a_word_vector_model(
        widths in (0usize..4, 0usize..4, 0usize..4),
        sa in proptest::collection::vec(0usize..192, 0..10),
        sb in proptest::collection::vec(0usize..192, 0..10),
        sr in proptest::collection::vec(0usize..192, 0..10),
        clears in proptest::collection::vec(0usize..200, 0..6),
    ) {
        let (mut a, mut ma) = modelled_bitmap(widths.0, &sa);
        for &i in &clears {
            a.clear(i);
            if i / 64 < ma.len() {
                ma[i / 64] &= !(1 << (i % 64));
            }
        }
        prop_assert_eq!(a.words(), &ma[..]);
        prop_assert_eq!(a.capacity(), ma.len() * 64);
        for i in 0..200 {
            prop_assert_eq!(a.get(i), model_word(&ma, i / 64) >> (i % 64) & 1 == 1);
        }
        prop_assert_eq!(a.iter_ones().collect::<Vec<_>>(), model_ones(&ma));
        prop_assert_eq!(a.count_ones(), model_ones(&ma).len());

        // Equality and hashing see the words alone: a bitmap hashes as its
        // word slice, whichever form holds it.
        let rebuilt = QueryBitmap::from_words(ma.clone());
        prop_assert_eq!(&rebuilt, &a);
        prop_assert_eq!(hash_of(&a), hash_of(&ma[..]));
        prop_assert_eq!(hash_of(&rebuilt), hash_of(&a));
        let (b, mb) = modelled_bitmap(widths.1, &sb);
        prop_assert_eq!(a == b, ma == mb);

        let mut and = a.clone();
        let any = and.and_assign(&b);
        let mand: Vec<u64> = (0..ma.len()).map(|i| ma[i] & model_word(&mb, i)).collect();
        prop_assert_eq!(and.words(), &mand[..]);
        prop_assert_eq!(any, mand.iter().any(|w| *w != 0));

        let mut or = a.clone();
        or.or_assign(&b);
        let mor: Vec<u64> = (0..ma.len().max(mb.len()))
            .map(|i| model_word(&ma, i) | model_word(&mb, i))
            .collect();
        prop_assert_eq!(or.words(), &mor[..]);

        let (r, mr) = modelled_bitmap(widths.2, &sr);
        for (entry, me) in [(Some(&b), &mb[..]), (None, &[][..])] {
            let mut t = a.clone();
            let any = t.and_filtered(entry, &r);
            let mt: Vec<u64> = (0..ma.len())
                .map(|i| ma[i] & (model_word(me, i) | !model_word(&mr, i)))
                .collect();
            prop_assert_eq!(t.words(), &mt[..]);
            prop_assert_eq!(any, mt.iter().any(|w| *w != 0));
        }
    }
}

// ---------------------------------------------------------------------------
// Predicate evaluation vs naive model
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn between_equals_two_comparisons(v in any::<i64>(), lo in -50i64..50, hi in -50i64..50) {
        let row = vec![Value::Int(v)];
        let between = Predicate::between(0, lo, hi);
        let model = v >= lo && v <= hi;
        prop_assert_eq!(between.eval(&row), model);
    }

    #[test]
    fn in_set_equals_linear_scan(v in 0i64..40, set in proptest::collection::vec(0i64..40, 0..12)) {
        let row = vec![Value::Int(v)];
        let p = Predicate::in_set(0, set.iter().map(|&x| Value::Int(x)).collect());
        prop_assert_eq!(p.eval(&row), set.contains(&v));
    }

    #[test]
    fn de_morgan_holds(v in any::<i64>(), a in -20i64..20, b in -20i64..20) {
        let row = vec![Value::Int(v)];
        let p1 = Predicate::eq(0, a);
        let p2 = Predicate::eq(0, b);
        let not_or = Predicate::Not(Box::new(Predicate::Or(vec![p1.clone(), p2.clone()])));
        let and_not = Predicate::And(vec![
            Predicate::Not(Box::new(p1)),
            Predicate::Not(Box::new(p2)),
        ]);
        prop_assert_eq!(not_or.eval(&row), and_not.eval(&row));
    }
}

// ---------------------------------------------------------------------------
// Scheduler work conservation
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn scheduler_conserves_work(
        cores in 1u32..8,
        costs in proptest::collection::vec(1_000.0f64..100_000.0, 1..12),
    ) {
        let m = Machine::new(MachineConfig { cores, ..Default::default() });
        let total: f64 = costs.iter().sum();
        let costs2 = costs.clone();
        m.spawn("parent", move |ctx| {
            let hs: Vec<_> = costs2
                .iter()
                .map(|&c| ctx.machine().spawn("w", move |ctx| ctx.charge(CostKind::Misc, c)))
                .collect();
            for h in hs {
                h.join().unwrap();
            }
        })
        .join()
        .unwrap();
        let makespan = m.now_ns();
        let busy = m.busy_core_secs() * 1e9;
        // Work conservation: busy time equals charged work.
        prop_assert!((busy - total).abs() < total * 1e-6 + 10.0);
        // Makespan bounds: total/cores <= makespan <= total (+eps).
        prop_assert!(makespan >= total / cores as f64 - 10.0);
        prop_assert!(makespan <= total + 10.0);
        // The longest job lower-bounds the makespan.
        let longest = costs.iter().cloned().fold(0.0, f64::max);
        prop_assert!(makespan >= longest - 10.0);
    }
}
