//! Regenerates Table 1: the object/computation partitioner matrix of
//! the four evaluated methods.

use mcpart_bench::report::render_table;

fn main() {
    // No flags: anything on the command line is an error.
    mcpart_bench::BenchArgs::from_env(&[]);
    let rows = vec![
        vec![
            "GDP".to_string(),
            "Global Data Partitioning".to_string(),
            "graph partition of coarsened program DFG".to_string(),
            "RHOP".to_string(),
        ],
        vec![
            "Profile Max".to_string(),
            "RHOP".to_string(),
            "greedy (dynamic frequency order)".to_string(),
            "RHOP".to_string(),
        ],
        vec![
            "Naive".to_string(),
            "none".to_string(),
            "data object moves inserted post-partitioning".to_string(),
            "RHOP".to_string(),
        ],
        vec![
            "Unified Memory".to_string(),
            "n/a".to_string(),
            "no moves required for single, unified memory".to_string(),
            "RHOP".to_string(),
        ],
    ];
    print!(
        "{}",
        render_table(
            "Table 1: object and computation partitioning methods",
            &["Algorithm", "Object Partitioner", "Object Assignment", "Computation Partitioner"],
            &rows,
        )
    );
}
