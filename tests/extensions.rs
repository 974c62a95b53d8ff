//! Integration tests for the extension features: join kinds through SQL,
//! future-pipeline refinement, and progress confidence bounds.

use qprog::core::EstimationMode;
use qprog::plan::physical::PhysicalOptions;
use qprog::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(qprog::datagen::customer_table(
        "customer", 10_000, 1.0, 400, 1,
    ))
    .unwrap();
    // nation covers only the lower half of the domain → guaranteed misses
    c.register(qprog::datagen::nation_table("nation", 200))
        .unwrap();
    c
}

#[test]
fn sql_left_join_counts_match_set_algebra() {
    let session = Session::new(catalog());
    let total = 10_000i64;
    let inner = session
        .query("SELECT count(*) FROM customer JOIN nation ON customer.nationkey = nation.nationkey")
        .unwrap()
        .collect()
        .unwrap()[0]
        .get(0)
        .unwrap()
        .as_i64()
        .unwrap();
    let left = session
        .query(
            "SELECT count(*) FROM customer LEFT JOIN nation \
             ON customer.nationkey = nation.nationkey",
        )
        .unwrap()
        .collect()
        .unwrap()[0]
        .get(0)
        .unwrap()
        .as_i64()
        .unwrap();
    // nation is a PK (multiplicity ≤ 1), so: left = inner + unmatched, and
    // every customer appears exactly once in the left join.
    assert_eq!(left, total);
    assert!(inner < total, "test data must produce unmatched customers");
    // unmatched customers have NULL nation columns
    let rows = session
        .query(
            "SELECT * FROM customer LEFT JOIN nation \
             ON customer.nationkey = nation.nationkey",
        )
        .unwrap()
        .collect()
        .unwrap();
    let padded = rows.iter().filter(|r| r.get(0).unwrap().is_null()).count() as i64;
    assert_eq!(padded, total - inner);
}

#[test]
fn builder_semi_and_anti_join_partition_the_probe_side() {
    let session = Session::new(catalog());
    let b = session.builder();
    let semi = b
        .scan("customer")
        .unwrap()
        .semi_join(
            b.scan("nation").unwrap(),
            "nation.nationkey",
            "customer.nationkey",
        )
        .unwrap();
    let anti = b
        .scan("customer")
        .unwrap()
        .anti_join(
            b.scan("nation").unwrap(),
            "nation.nationkey",
            "customer.nationkey",
        )
        .unwrap();
    // semi/anti output only the probe columns
    assert_eq!(semi.schema.arity(), 2);
    let n_semi = session.query_plan(semi).unwrap().collect().unwrap().len();
    let n_anti = session.query_plan(anti).unwrap().collect().unwrap().len();
    assert_eq!(n_semi + n_anti, 10_000);
    assert!(n_semi > 0 && n_anti > 0);
}

#[test]
fn once_estimates_exact_for_all_kinds_after_preprocessing() {
    use qprog::plan::JoinAlgo;
    use qprog_core::join_est::JoinKind;
    let session = Session::new(catalog());
    let b = session.builder();
    for kind in [
        JoinKind::Inner,
        JoinKind::LeftOuter,
        JoinKind::Semi,
        JoinKind::Anti,
    ] {
        let plan = b
            .scan("customer")
            .unwrap()
            .join_build_kind(
                b.scan("nation").unwrap(),
                "nation.nationkey",
                "customer.nationkey",
                JoinAlgo::Hash,
                kind,
            )
            .unwrap();
        let mut q = session.query_plan(plan).unwrap();
        let first = q.step().unwrap();
        assert!(first.is_some(), "{kind:?}");
        let estimate = q
            .registry()
            .iter()
            .find(|(n, _)| *n == "hash_join")
            .map(|(_, m)| m.estimated_total())
            .unwrap();
        let mut count = 1u64;
        while q.step().unwrap().is_some() {
            count += 1;
        }
        assert_eq!(estimate, count as f64, "{kind:?}");
    }
}

#[test]
fn refinement_rescales_pending_aggregate() {
    // customer ⋈ customer2 is badly estimated by the optimizer under skew;
    // once the join pipeline converges, the pending GROUP BY's N_i should
    // scale by the same ratio — visible as a better mid-run fraction.
    let mut c = catalog();
    c.register(qprog::datagen::customer_table(
        "customer2",
        10_000,
        1.0,
        400,
        2,
    ))
    .unwrap();
    let session = Session::new(c);
    let mut q = session
        .query(
            "SELECT customer.nationkey, count(*) FROM customer \
             JOIN customer2 ON customer.nationkey = customer2.nationkey \
             GROUP BY customer.nationkey",
        )
        .unwrap();
    let tracker = q.tracker();
    // run the join's preprocessing by pulling one aggregate output row —
    // that drains everything; instead, step operator-by-operator is not
    // possible here, so check refined estimates at completion: they must
    // match the exact totals.
    let rows = q.collect().unwrap();
    assert!(!rows.is_empty());
    let refined = tracker.refined_estimates();
    for (i, (_, m)) in tracker.registry().iter().enumerate() {
        assert_eq!(refined[i], m.emitted() as f64);
    }
    assert_eq!(tracker.fraction(), 1.0);
}

#[test]
fn fraction_bounds_bracket_fraction_throughout_execution() {
    let session = Session::new(catalog()).with_options(PhysicalOptions {
        mode: EstimationMode::Once,
        ..PhysicalOptions::default()
    });
    let mut q = session
        .query("SELECT * FROM customer JOIN nation ON customer.nationkey = nation.nationkey")
        .unwrap();
    let tracker = q.tracker();
    let mut checked = 0;
    while q.step().unwrap().is_some() {
        let snap = tracker.snapshot();
        let (lo, hi) = snap.bounds();
        let point = snap.fraction();
        assert!(
            lo <= point + 1e-9 && point <= hi + 1e-9,
            "bounds [{lo}, {hi}] must bracket {point}"
        );
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        checked += 1;
    }
    assert!(checked > 0);
    assert_eq!(tracker.snapshot().bounds(), (1.0, 1.0));
}

#[test]
fn distinct_and_in_compose_with_joins() {
    let session = Session::new(catalog());
    let rows = session
        .query(
            "SELECT DISTINCT nation.name FROM customer \
             JOIN nation ON customer.nationkey = nation.nationkey \
             WHERE customer.nationkey IN (0, 1, 2)",
        )
        .unwrap()
        .collect()
        .unwrap();
    assert!(rows.len() <= 3);
    assert!(!rows.is_empty());
}
