//! Quickstart: run a SQL join with a live progress indicator.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use qprog::prelude::*;

fn main() -> QResult<()> {
    // 1. Generate a skewed customer table (Zipf z=1.5 over 500 nations)
    //    and its nation dimension, and register them in a catalog.
    let mut catalog = Catalog::new();
    catalog.register(qprog::datagen::customer_table(
        "customer", 200_000, 1.5, 500, 1,
    ))?;
    catalog.register(qprog::datagen::nation_table("nation", 500))?;

    // 2. Open a session (defaults: the paper's `once` estimation framework,
    //    10% block-level random samples delivered first by every scan).
    //    `SessionBuilder` is the one-stop entry point; observability sinks
    //    and a live monitor attach through `.observability(...)`.
    let session = SessionBuilder::new(catalog).build()?;

    // 3. Compile a query. EXPLAIN shows the optimizer's initial estimates —
    //    the numbers the progress indicator will refine online.
    let sql = "SELECT nation.name, count(*) AS customers \
               FROM customer JOIN nation ON customer.nationkey = nation.nationkey \
               WHERE customer.custkey < 150000 \
               GROUP BY nation.name \
               ORDER BY customers DESC LIMIT 10";
    let mut query = session.query(sql)?;
    println!("plan:\n{}", query.explain());

    // 4. Run it with a progress observer. The query publishes progress in
    //    its own thread at operator batch boundaries, so it is visible even
    //    while blocking operators (hash build, aggregation) are mid-phase,
    //    and once more at the end. Print a line per 10 points.
    //    `RunOptions` also composes a wall-clock deadline and an external
    //    cancellation token when you need them.
    let mut next_line = 0.0;
    let rows = query.run(RunOptions::new().observer(move |snapshot| {
        if snapshot.fraction() >= next_line || snapshot.is_complete() {
            println!(
                "progress {:5.1}%  (getnext so far: {}, estimated total: {:.0})",
                snapshot.fraction() * 100.0,
                snapshot.current(),
                snapshot.total()
            );
            next_line = snapshot.fraction() + 0.1;
        }
    }))?;

    println!("\ntop nations by customers:");
    for row in &rows {
        println!("  {row}");
    }
    Ok(())
}
