//! The k-partition theorem of §3.2, live: slice the QFT into QFT-IA and
//! QFT-IE blocks any way you like, and the result is still the QFT —
//! verified both by the Type-II order checker and on states. Then the same
//! theorem at work physically: compile an IBM-Eagle-sized device end to
//! end from its full lattice.
//!
//! ```sh
//! cargo run --release --example partitioned_qft
//! ```

use qft_kernels::arch::devices;
use qft_kernels::ir::dag::{CircuitDag, DagMode};
use qft_kernels::ir::qft::{check_qft_circuit, qft_circuit, qft_partitioned, Partition};
use qft_kernels::sim::{StateBatch, StateVector};
use qft_kernels::{registry, CompileOptions, Target};

fn main() {
    // 1. Logical level: three very different partitions of a 10-qubit QFT.
    let n = 10u32;
    let partitions = [
        ("even 2-way", Partition::even(n, 2)),
        ("even 5-way", Partition::even(n, 5)),
        (
            "nested {0..3, {3..5, 5..10}}",
            Partition::Node(vec![
                Partition::Leaf(0..3),
                Partition::Node(vec![Partition::Leaf(3..5), Partition::Leaf(5..10)]),
            ]),
        ),
    ];
    let reference = qft_circuit(n as usize);
    for (name, p) in &partitions {
        let c = qft_partitioned(p);
        check_qft_circuit(&c).expect("partition order must satisfy Type II");
        // Same unitary as the textbook order, on a random state.
        let mut a = StateBatch::from_states(&[StateVector::random(n as usize, 42)]);
        let mut b = a.clone();
        a.apply_circuit(&c);
        b.apply_circuit(&reference);
        let fidelity = a.fidelities(&b)[0];
        println!(
            "{name:<28} gates={} fidelity vs textbook = {fidelity:.12}",
            c.len()
        );
        assert!((fidelity - 1.0).abs() < 1e-9);
    }

    // 2. The partition order is exactly what the relaxed DAG admits.
    let relaxed = CircuitDag::build(&reference, DagMode::Relaxed);
    println!(
        "\nrelaxed DAG: {} nodes, {} edges (strict program order would force a single chain per qubit)",
        relaxed.len(),
        relaxed.edge_count()
    );

    // 3. Physical level: an Eagle-sized heavy-hex machine, simplified per
    // Appendix 1, compiled and verified through the pipeline.
    let lattice = devices::ibm_eagle_like();
    let (hh, deleted) = lattice.simplify();
    let t = Target::heavy_hex(hh);
    let opts = CompileOptions::verified();
    let r = registry()
        .compile("heavyhex", &t, &opts)
        .expect("kernel must verify");
    println!(
        "\nEagle-like device: {} qubits ({} lattice links deleted in simplification)\n\
         QFT kernel: {} pairs, depth {}, {} SWAPs — verified.",
        t.n_qubits(),
        deleted,
        r.metrics.cphases,
        r.metrics.depth,
        r.metrics.swaps
    );
}
