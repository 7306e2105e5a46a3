//! Pipeline-API integration tests: registry round-trips, descriptive
//! errors, and `CompileResult` serde round-trips and pinned bytes.

use qft_kernels::ir::{GateKind, Layout, MappedCircuit, MappedCircuitBuilder, PhysicalQubit};
use qft_kernels::{
    available_compilers, registry, CompileError, CompileOptions, CompileResult, Target,
};

/// A small target every registered compiler can handle. The 4-qubit line
/// is routable by search, walkable by lnn-path, and native for `lnn`; the
/// device-specific mappers get their own family instead.
fn small_target_for(compiler: &str) -> Target {
    match compiler {
        "sycamore" => Target::sycamore(2).unwrap(),
        "heavyhex" => Target::heavy_hex_groups(2).unwrap(),
        "lattice" => Target::lattice_surgery(3).unwrap(),
        _ => Target::lnn(4).unwrap(),
    }
}

#[test]
fn all_seven_compilers_are_registered() {
    let names = available_compilers();
    for expected in [
        "lnn", "sycamore", "heavyhex", "lattice", "sabre", "optimal", "lnn-path",
    ] {
        assert!(
            names.contains(&expected),
            "{expected} missing from {names:?}"
        );
    }
    assert_eq!(names.len(), 7, "unexpected extra compilers: {names:?}");
}

#[test]
fn registry_round_trip_every_compiler_compiles_and_verifies() {
    // In-pipeline symbolic verification: adjacency, SWAP replay, and the
    // QFT interaction contract all checked for every registered compiler.
    let opts = CompileOptions::verified();
    for name in available_compilers() {
        let target = small_target_for(name);
        let c = registry().get(name).expect("listed name must resolve");
        assert_eq!(c.name(), name);
        assert!(!c.description().is_empty());
        assert!(c.supports(&target), "{name} must support {}", target.name());
        let r = c
            .compile(&target, &opts)
            .unwrap_or_else(|e| panic!("{name} on {}: {e}", target.name()));
        assert_eq!(r.compiler, name);
        assert_eq!(r.target, target.name());
        assert_eq!(r.n, target.n_qubits());
        assert_eq!(r.metrics.cphases, r.n * (r.n - 1) / 2);
        assert_eq!(r.metrics.hadamards, r.n);
        assert!(r.metrics.depth > 0);
    }
}

#[test]
fn compile_result_roundtrips_through_serde() {
    let target = Target::heavy_hex_groups(2).unwrap();
    let r = registry()
        .compile("heavyhex", &target, &CompileOptions::default())
        .unwrap();

    let json = serde_json::to_string(&r).expect("serialize CompileResult");
    let back: CompileResult = serde_json::from_str(&json).expect("deserialize CompileResult");

    assert_eq!(back.compiler, r.compiler);
    assert_eq!(back.target, r.target);
    assert_eq!(back.n, r.n);
    assert_eq!(back.metrics, r.metrics);
    assert_eq!(back.note, r.note);
    assert_eq!(back.circuit.ops(), r.circuit.ops());
    assert_eq!(back.circuit.initial_layout(), r.circuit.initial_layout());
    assert_eq!(back.circuit.final_layout(), r.circuit.final_layout());
    // The deserialized artifact is still a live object: QASM export works.
    assert_eq!(back.qasm(), r.qasm());
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Decoding `json` and encoding the result again must give `json` back,
/// both through `T` and through the untyped parse tree (which
/// `to_string_pretty` lays out).
fn assert_reencodes<T: serde::Serialize + serde::Deserialize>(json: &str, what: &str) {
    let back: T = serde_json::from_str(json).unwrap_or_else(|e| panic!("{what}: {e}"));
    let again = serde_json::to_string(&back).unwrap();
    assert!(again == json, "{what}: decode + encode changed the bytes");
    let tree = serde_json::parse(json).unwrap_or_else(|e| panic!("{what}: {e}"));
    let again = serde_json::to_string(&tree).unwrap();
    assert!(again == json, "{what}: parse + encode changed the bytes");
}

#[derive(serde::Serialize)]
struct Newtype(u64);

#[derive(serde::Serialize)]
enum Shape {
    Unit,
    Struct { id: Newtype, scale: f64 },
}

#[derive(serde::Serialize)]
struct Shapes {
    shapes: Vec<Shape>,
    label: Option<String>,
    missing: Option<u8>,
    pair: (u32, bool),
    shared: std::sync::Arc<i16>,
    empty: Vec<u8>,
}

#[derive(serde::Serialize)]
struct Empty {}

#[derive(serde::Serialize)]
struct Nested {
    name: String,
    rows: Vec<Empty>,
    inner: Shapes,
}

fn compact<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

#[test]
fn every_encoded_shape_and_primitive_has_pinned_text() {
    let shapes = || Shapes {
        shapes: vec![
            Shape::Unit,
            Shape::Struct {
                id: Newtype(7),
                scale: 2.0,
            },
        ],
        label: Some("x".to_string()),
        missing: None,
        pair: (3, true),
        shared: std::sync::Arc::new(-4),
        empty: vec![],
    };
    assert_eq!(
        compact(&shapes()),
        concat!(
            r#"{"shapes":["Unit",{"Struct":{"id":7,"scale":2.0}}],"#,
            r#""label":"x","missing":null,"pair":[3,true],"shared":-4,"empty":[]}"#,
        )
    );
    assert_eq!(compact(&u64::MAX), "18446744073709551615");
    assert_eq!(compact(&i64::MIN), "-9223372036854775808");
    assert_eq!(compact(&[0u8, 255][..]), "[0,255]");
    for (x, want) in [
        (0.0, "0.0"),
        (-0.0, "-0.0"),
        (1.5, "1.5"),
        (1e21, "1000000000000000000000.0"),
        (1e-7, "0.0000001"),
        (f64::NAN, "null"),
        (f64::INFINITY, "null"),
        (f64::NEG_INFINITY, "null"),
    ] {
        assert_eq!(compact(&x), want, "{x:?}");
    }
    assert_eq!(compact(&0.1f32), "0.10000000149011612");
    assert_eq!(
        compact("q\"b\\n\nr\rt\t\u{1}\u{7f}\u{e9}\u{1F600}"),
        "\"q\\\"b\\\\n\\nr\\rt\\t\\u0001\u{7f}\u{e9}\u{1F600}\""
    );

    let nested = Nested {
        name: "n".to_string(),
        rows: vec![Empty {}],
        inner: shapes(),
    };
    assert_eq!(
        serde_json::to_string_pretty(&nested).unwrap(),
        r#"{
  "name": "n",
  "rows": [
    {}
  ],
  "inner": {
    "shapes": [
      "Unit",
      {
        "Struct": {
          "id": 7,
          "scale": 2.0
        }
      }
    ],
    "label": "x",
    "missing": null,
    "pair": [
      3,
      true
    ],
    "shared": -4,
    "empty": []
  }
}"#
    );
}

/// One artifact: compiler, target, opt_level, AQFT degree, random initial
/// layout seed, and the FNV-1a of the wall-time-stripped artifact JSON.
type ArtifactCell = (
    &'static str,
    &'static str,
    u8,
    Option<u32>,
    Option<u64>,
    u64,
);

/// Captured from commit 16934d8, whose `PhysOp` stored each op's logical
/// annotations; an in-memory change must keep every artifact byte.
#[rustfmt::skip]
const ARTIFACT_JSON_DIGESTS: &[ArtifactCell] = &[
    ("lnn", "lnn:8", 1, None, None, 0xc14c31f2c7059b08),
    ("sycamore", "sycamore:2", 1, None, None, 0x93138b6c1cc7393e),
    ("heavyhex", "heavyhex:2", 1, None, None, 0x0af4f31b0142635b),
    ("lattice", "lattice:3", 1, None, None, 0x92241a90e2df31be),
    ("sabre", "lattice:3", 1, None, None, 0xcf667efe6a6059aa),
    ("optimal", "lnn:4", 1, None, None, 0xcd5c0b5733bbd406),
    ("lnn-path", "lattice:3", 1, None, None, 0x5e23b5f3dfacdc80),
    ("lnn", "lnn:8", 2, None, None, 0x5db70a4c1e96b371),
    ("lattice", "lattice:3", 2, None, None, 0x469300f277b033e6),
    ("sycamore", "sycamore:2", 2, Some(3), None, 0xfffd54f7daca3de3),
    ("lattice", "lattice:4", 1, Some(3), None, 0xd07477420420c6c0),
    ("sabre", "heavyhex:2", 1, None, Some(7), 0xd97eba899696594f),
    ("sabre", "lattice:3", 2, Some(3), Some(7), 0xc338cbf4e6536f7a),
];

#[test]
fn artifact_json_bytes_are_pinned_and_reencode_identically() {
    let diverged: Vec<String> = ARTIFACT_JSON_DIGESTS
        .iter()
        .filter_map(|&(compiler, spec, opt_level, degree, seed, expected)| {
            let mut opts = CompileOptions::default().with_opt_level(opt_level);
            opts.approximation = degree;
            if let Some(seed) = seed {
                opts = opts.with_seed(seed);
                opts.random_initial = true;
            }
            let t = Target::parse(spec).unwrap();
            let mut r = registry()
                .compile(compiler, &t, &opts)
                .unwrap_or_else(|e| panic!("{compiler} on {spec}: {e}"));
            r.strip_wall_times();
            let json = serde_json::to_string(&r).unwrap();
            assert_reencodes::<CompileResult>(&json, &format!("{compiler} on {spec}"));
            let got = fnv1a(json.as_bytes());
            (got != expected).then(|| {
                format!("{compiler} {spec} opt={opt_level} degree={degree:?} seed={seed:?}: {got:#018x}")
            })
        })
        .collect();
    assert!(
        diverged.is_empty(),
        "artifact JSON diverged on {} of {} cells:\n{}",
        diverged.len(),
        ARTIFACT_JSON_DIGESTS.len(),
        diverged.join("\n")
    );

    // No registry target has spare qubits, so a hand-built circuit pins
    // the annotation of a SWAP onto a spare: `"l1":null` after the move.
    let p = PhysicalQubit;
    let mut b = MappedCircuitBuilder::new(Layout::identity(2, 3));
    b.push_1q_phys(GateKind::H, p(0));
    b.push_swap_phys(p(1), p(2));
    b.push_swap_phys(p(1), p(0));
    b.push_2q_phys(GateKind::Cphase { k: 2 }, p(1), p(2));
    let json = serde_json::to_string(&b.finish()).unwrap();
    assert_eq!(
        json,
        concat!(
            r#"{"n_logical":2,"n_physical":3,"#,
            r#""initial":{"phys_of":[0,1],"log_of":[0,1,null]},"#,
            r#""final_layout":{"phys_of":[1,2],"log_of":[null,0,1]},"ops":["#,
            r#"{"kind":"H","p1":0,"p2":null,"l1":0,"l2":null},"#,
            r#"{"kind":"Swap","p1":1,"p2":2,"l1":1,"l2":null},"#,
            r#"{"kind":"Swap","p1":1,"p2":0,"l1":null,"l2":0},"#,
            r#"{"kind":{"Cphase":{"k":2}},"p1":1,"p2":2,"l1":0,"l2":1}]}"#,
        )
    );
    assert_reencodes::<MappedCircuit>(&json, "spare-qubit circuit");
}

#[test]
fn invalid_targets_surface_compile_errors_not_panics() {
    for result in [
        Target::sycamore(5),
        Target::sycamore(0),
        Target::heavy_hex_groups(0),
        Target::lattice_surgery(1),
        Target::lnn(1),
    ] {
        match result {
            Err(CompileError::InvalidTarget { reason }) => {
                assert!(!reason.is_empty());
            }
            Err(e) => panic!("wrong error kind: {e}"),
            Ok(t) => panic!("{} should have been rejected", t.name()),
        }
    }
}

#[test]
fn unknown_compiler_is_a_described_error() {
    let t = Target::lnn(4).unwrap();
    match registry().compile("qiskit", &t, &CompileOptions::default()) {
        Err(CompileError::UnknownCompiler { name, available }) => {
            assert_eq!(name, "qiskit");
            assert_eq!(available.len(), 7);
        }
        other => panic!("expected UnknownCompiler, got {other:?}"),
    }
}

#[test]
fn incompatible_compiler_target_pairs_error_cleanly() {
    let lattice = Target::lattice_surgery(3).unwrap();
    match registry().compile("sycamore", &lattice, &CompileOptions::default()) {
        Err(CompileError::UnsupportedTarget {
            compiler, target, ..
        }) => {
            assert_eq!(compiler, "sycamore");
            assert_eq!(target, "lattice-surgery-3x3");
        }
        other => panic!("expected UnsupportedTarget, got {other:?}"),
    }
}
