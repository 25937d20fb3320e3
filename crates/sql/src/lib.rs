//! A minimal SQL front end for `qprog`.
//!
//! Supports the query shape the paper's workloads need:
//!
//! ```sql
//! SELECT <exprs | aggregates | *>
//! FROM <table> [AS alias]
//! [JOIN <table> [AS alias] ON <col> = <col>]...
//! [WHERE <predicate>]
//! [GROUP BY <cols>]
//! [ORDER BY <cols> [ASC|DESC]]
//! [LIMIT <n>]
//! ```
//!
//! Pipeline of a query: [`lexer`] → [`parser`] (AST in [`ast`]) →
//! [`binder`] (name resolution against a
//! [`PlanBuilder`] catalog, producing a
//! [`LogicalPlan`]).

pub mod ast;
pub mod binder;
pub mod lexer;
pub mod parser;

use qprog_plan::{LogicalPlan, PlanBuilder};
use qprog_types::QResult;

/// Parse and bind a SQL query against a catalog in one call.
pub fn plan_sql(builder: &PlanBuilder, sql: &str) -> QResult<LogicalPlan> {
    let query = parser::parse(sql)?;
    binder::bind(builder, &query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_storage::{Catalog, Table};
    use qprog_types::{row, DataType, Field, Schema};

    fn builder() -> PlanBuilder {
        let mut c = Catalog::new();
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64),
            ]),
        );
        for i in 0..10 {
            t.push(row![i, i % 3]).unwrap();
        }
        c.register(t).unwrap();
        PlanBuilder::new(c)
    }

    #[test]
    fn end_to_end_plan() {
        let b = builder();
        let plan = plan_sql(&b, "SELECT a FROM t WHERE a < 5 ORDER BY a LIMIT 3").unwrap();
        assert_eq!(plan.schema.arity(), 1);
    }

    #[test]
    fn parse_errors_surface() {
        let b = builder();
        assert!(plan_sql(&b, "SELEC a FROM t").is_err());
        assert!(plan_sql(&b, "SELECT a FROM missing").is_err());
        assert!(plan_sql(&b, "SELECT nosuch FROM t").is_err());
    }
}
