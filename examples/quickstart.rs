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

    // 4. Run it with a concurrent watcher: the tracker is cloneable and
    //    lock-free to read, so progress is visible even while blocking
    //    operators (hash build, aggregation) are mid-phase. The watcher
    //    exits when the query ends; dropping it takes a final sample.
    let watcher = query.watch(std::time::Duration::from_millis(50), |snapshot| {
        println!(
            "progress {:5.1}%  (getnext so far: {}, estimated total: {:.0})",
            snapshot.fraction() * 100.0,
            snapshot.current(),
            snapshot.total()
        );
    });
    // `RunOptions` also composes an in-thread observer callback, a wall-clock
    // deadline, and an external cancellation token when you need them.
    let rows = query.run(RunOptions::new());
    drop(watcher);
    let rows = rows?;

    println!("\ntop nations by customers:");
    for row in &rows {
        println!("  {row}");
    }
    Ok(())
}
