//! Property-based tests on the support library's core invariants.

use libwb::hash::{ContentHash, ContentHasher};
use libwb::{check, gen, CheckPolicy, CsrGraph, CsrMatrix, Dataset, Image};
use wb_prop::Gen;

/// Normal finite floats (any sign and mantissa, an exponent neither 0
/// nor max) plus exact zero; the text format round-trips them exactly.
fn finite_f32(g: &mut Gen) -> f32 {
    if g.bool() {
        f32::from_bits(g.int(0..2u32) << 31 | g.int(1..255u32) << 23 | g.int(0..1 << 23))
    } else {
        0.0
    }
}

fn finite_f32s(g: &mut Gen, n: usize) -> Vec<f32> {
    (0..n).map(|_| finite_f32(g)).collect()
}

fn any_dataset(g: &mut Gen) -> Dataset {
    match g.below(5) {
        0 => Dataset::Scalar(finite_f32(g)),
        1 => Dataset::Vector(g.vec(0..64, finite_f32)),
        2 => Dataset::IntVector(g.vec(0..64, |g| g.int(i32::MIN..=i32::MAX))),
        3 => {
            let (rows, cols) = (g.int(1..8), g.int(1..8));
            let data = finite_f32s(g, rows * cols);
            Dataset::Matrix { rows, cols, data }
        }
        _ => {
            let (w, h, ch) = (g.int(1..6), g.int(1..6), g.int(1..4));
            let data = finite_f32s(g, w * h * ch);
            Dataset::Image(Image::from_data(w, h, ch, data).expect("consistent"))
        }
    }
}

fn policy(abs_tol: f32, rel_tol: f32, max_reported: usize) -> CheckPolicy {
    CheckPolicy {
        abs_tol,
        rel_tol,
        max_reported,
    }
}

/// The text interchange format round-trips every dataset exactly.
#[test]
fn dataset_text_format_roundtrips() {
    wb_prop::check(256, |g| {
        let d = any_dataset(g);
        let back = Dataset::import(&d.export()).expect("import");
        assert_eq!(back, d);
    });
}

/// A random dimension header over a truncated body never panics or
/// over-allocates: import returns an error, or a dataset no larger than
/// the body that backs it. Sizes mix small counts with ones whose
/// products and sums overflow `usize`.
#[test]
fn hostile_headers_over_truncated_bodies_end_in_errors() {
    const TAGS: &[&str] = &[
        "vector", "ivector", "matrix", "image", "sparse", "graph", "scalar",
    ];
    const HUGE: &[usize] = &[
        1 << 32,
        (1 << 32) + 1,
        100_000_000_000_000,
        usize::MAX / 2 + 1,
        usize::MAX - 1,
        usize::MAX,
    ];
    wb_prop::check(512, |g| {
        let tag = *g.pick(TAGS);
        let dims = g.vec(0..4, |g| {
            if g.bool() {
                g.int(0..6usize)
            } else {
                *g.pick(HUGE)
            }
        });
        let body = g.vec(0..12, |g| g.int(0..4u32).to_string());
        let header: Vec<String> = dims.iter().map(usize::to_string).collect();
        let text = format!("{tag} {}\n{}\n", header.join(" "), body.join(" "));
        if let Ok(d) = Dataset::import(&text) {
            assert!(d.len() <= body.len(), "{text:?} invented values");
        }
    });
}

/// Comparing a dataset against itself always passes, under any
/// tolerance (reflexivity) — for finite data.
#[test]
fn compare_is_reflexive() {
    wb_prop::check(256, |g| {
        let d = any_dataset(g);
        let (abs, rel) = (g.float(0.0..1.0) as f32, g.float(0.0..1.0) as f32);
        let report = check::compare(&d, &d, &policy(abs, rel, 5));
        assert!(report.passed(), "{}", report.summary());
    });
}

/// The number of reported mismatches never exceeds the cap, and
/// the mismatch count never exceeds the element count.
#[test]
fn mismatch_reporting_is_bounded() {
    wb_prop::check(256, |g| {
        let a = g.vec(0..64, finite_f32);
        let b = g.vec(0..64, finite_f32);
        let cap = g.int(1..8);
        let n = a.len().min(b.len());
        let report = check::compare(
            &Dataset::Vector(a[..n].to_vec()),
            &Dataset::Vector(b[..n].to_vec()),
            &policy(0.0, 0.0, cap),
        );
        assert!(report.mismatches.len() <= cap);
        assert!(report.mismatch_count <= n);
    });
}

/// Widening the tolerance never turns a pass into a failure.
#[test]
fn tolerance_is_monotone() {
    wb_prop::check(256, |g| {
        let pairs = g.vec(1..32, |g| (finite_f32(g), finite_f32(g)));
        let (t1, t2) = (g.float(0.0..0.5) as f32, g.float(0.0..0.5) as f32);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let got = Dataset::Vector(pairs.iter().map(|p| p.0).collect());
        let want = Dataset::Vector(pairs.iter().map(|p| p.1).collect());
        let mismatches = |tol| check::compare(&got, &want, &policy(tol, 0.0, 1)).mismatch_count;
        assert!(mismatches(hi) <= mismatches(lo));
    });
}

/// CSR from_dense/to_dense is the identity on dense matrices.
#[test]
fn csr_dense_roundtrip() {
    wb_prop::check(256, |g| {
        let (r, c, seed) = (g.int(1..8), g.int(1..8), g.int(0..=u64::MAX));
        let dense = gen::random_matrix(r, c, seed);
        let m = CsrMatrix::from_dense(r, c, &dense).expect("build");
        assert_eq!(m.to_dense(), dense);
    });
}

/// SpMV against the dense product.
#[test]
fn spmv_matches_dense_product() {
    wb_prop::check(256, |g| {
        let (r, c, seed) = (g.int(1..8), g.int(1..8), g.int(0..=u64::MAX));
        let dense = gen::random_matrix(r, c, seed);
        let x = gen::random_vector(c, seed ^ 0xabc);
        let m = CsrMatrix::from_dense(r, c, &dense).expect("build");
        let y = m.spmv(&x).expect("shapes");
        for i in 0..r {
            let want: f32 = (0..c).map(|j| dense[i * c + j] * x[j]).sum();
            assert!((y[i] - want).abs() < 1e-3, "row {i}: {} vs {want}", y[i]);
        }
    });
}

/// BFS levels satisfy the frontier invariant: along every edge
/// (u, v), level[v] <= level[u] + 1 when u is reachable, and the
/// source has level 0.
#[test]
fn bfs_levels_are_consistent() {
    wb_prop::check(256, |g| {
        let (n, p, seed) = (g.int(1..30), g.float(0.0..0.3), g.int(0..=u64::MAX));
        let graph = gen::random_graph(n, p, seed);
        let levels = graph.bfs_levels(0).expect("source valid");
        assert_eq!(levels[0], 0);
        for u in 0..n {
            if levels[u] < 0 {
                continue;
            }
            for &v in graph.out(u) {
                assert!(levels[v] >= 0, "neighbor of reachable is reachable");
                assert!(levels[v] <= levels[u] + 1);
            }
        }
        // Every reachable non-source vertex has a predecessor one
        // level up.
        for v in 1..n {
            if levels[v] > 0 {
                let has_parent =
                    (0..n).any(|u| levels[u] == levels[v] - 1 && graph.out(u).contains(&v));
                assert!(has_parent, "vertex {v} at level {}", levels[v]);
            }
        }
    });
}

/// Connected-graph generation really is connected from node 0.
#[test]
fn connected_graphs_are_connected() {
    wb_prop::check(256, |g| {
        let (n, p, seed) = (g.int(1..40), g.float(0.0..0.2), g.int(0..=u64::MAX));
        let graph = gen::random_connected_graph(n, p, seed);
        let levels = graph.bfs_levels(0).expect("source valid");
        assert!(levels.iter().all(|&l| l >= 0));
    });
}

/// Generators are pure functions of (size, seed).
#[test]
fn generators_are_deterministic() {
    wb_prop::check(256, |g| {
        let (n, seed) = (g.int(0..128), g.int(0..=u64::MAX));
        assert_eq!(gen::random_vector(n, seed), gen::random_vector(n, seed));
        assert_eq!(
            gen::random_int_vector(n, 100, seed),
            gen::random_int_vector(n, 100, seed)
        );
    });
}

/// Graph CSR invariants hold for generated graphs.
#[test]
fn generated_graph_invariants() {
    wb_prop::check(256, |g| {
        let (n, p, seed) = (g.int(1..30), g.float(0.0..0.5), g.int(0..=u64::MAX));
        let graph = gen::random_graph(n, p, seed);
        assert_eq!(graph.row_ptr().len(), n + 1);
        assert_eq!(*graph.row_ptr().last().unwrap(), graph.num_edges());
        // Rebuilding through the constructor revalidates everything.
        let rebuilt = CsrGraph::new(n, graph.row_ptr().to_vec(), graph.neighbors().to_vec());
        assert!(rebuilt.is_ok());
    });
}

/// Digest of `bytes` written as successive `write_raw` calls, one per
/// piece between the given cut points.
fn hash_split(bytes: &[u8], cuts: &[usize]) -> ContentHash {
    let mut h = ContentHasher::new();
    let mut at = 0;
    for &cut in cuts {
        h.write_raw(&bytes[at..cut]);
        at = cut;
    }
    h.write_raw(&bytes[at..]);
    h.finish()
}

/// Any split of a byte string into successive raw writes gives the
/// digest of one write: the carry makes block boundaries a property of
/// the stream, not of the calls.
#[test]
fn digest_is_split_invariant() {
    wb_prop::check(512, |g| {
        let bytes = g.vec(0..80, |g| g.int(0..=255u8));
        let mut cuts = g.vec(0..8, |g| g.int(0..=bytes.len()));
        cuts.sort_unstable();
        assert_eq!(
            hash_split(&bytes, &cuts),
            hash_split(&bytes, &[]),
            "cuts {cuts:?}"
        );
    });
}

/// Length-prefixed fields never alias: moving bytes across a field
/// boundary, or splitting one field into two (an empty one included),
/// changes the digest.
#[test]
fn adjacent_fields_never_alias() {
    let fields = |fs: &[&[u8]]| {
        let mut h = ContentHasher::new();
        fs.iter().for_each(|f| {
            h.write_bytes(f);
        });
        h.finish()
    };
    assert_ne!(fields(&[b"ab", b"c"]), fields(&[b"a", b"bc"]));
    assert_ne!(
        fields(&[b"abc"]),
        fields(&[b"abc", b""]),
        "empty vs missing"
    );
    assert_ne!(fields(&[b""]), fields(&[]), "empty vs missing");
    wb_prop::check(512, |g| {
        let bytes = g.vec(0..40, |g| g.int(0..=255u8));
        let (i, j) = (g.int(0..=bytes.len()), g.int(0..=bytes.len()));
        if i == j {
            return;
        }
        let (a, b) = (bytes.split_at(i), bytes.split_at(j));
        assert_ne!(fields(&[a.0, a.1]), fields(&[b.0, b.1]), "cut {i} vs {j}");
        assert_ne!(fields(&[a.0, a.1]), fields(&[&bytes]), "one field vs two");
    });
}
