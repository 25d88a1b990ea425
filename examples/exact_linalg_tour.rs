//! The exact linear algebra substrate, standalone.
//!
//! Everything the reproduction decides — singularity, rank, spans,
//! solvability — rests on exact arithmetic. This example tours the
//! substrate as a general-purpose library: fraction-free determinants,
//! CRT reconstruction, Smith normal form, integer vs rational
//! solvability, the certified multi-prime CRT solve, and Sturm-counted
//! singular values.
//!
//! Run with: `cargo run --release --example exact_linalg_tour`

use ccmx::bigint::{bounds, Natural};
use ccmx::linalg::ring::IntegerRing;
use ccmx::linalg::{bareiss, crt, inverse, modular, smith, solve, svd, Matrix};
use ccmx::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);
    let zz = IntegerRing;

    // ------------------------------------------------------------------
    // 1. Determinants that overflow machine words.
    // ------------------------------------------------------------------
    println!("=== Exact determinants ===\n");
    let n = 8;
    let bits = 48;
    let m = Matrix::from_fn(n, n, |_, _| {
        Integer::from(rng.gen_range(-(1i64 << bits)..(1i64 << bits)))
    });
    let d1 = bareiss::det(&m);
    let d2 = modular::det_via_crt(&m, &Natural::power_of_two(bits as u64), 4);
    println!("{n}x{n} matrix of ±{bits}-bit entries:");
    println!("  Bareiss det   = {d1}");
    println!("  CRT det (4t)  = {d2}");
    assert_eq!(d1, d2);
    println!(
        "  det has {} bits (Hadamard bound allows {})\n",
        d1.bit_len(),
        bounds::hadamard_bound(n, &Natural::power_of_two(bits as u64)).bit_len()
    );

    // ------------------------------------------------------------------
    // 2. Smith normal form: the integer structure of a matrix.
    // ------------------------------------------------------------------
    println!("=== Smith normal form ===\n");
    let a = ccmx::linalg::matrix::int_matrix(&[&[2, 4, 4], &[-6, 6, 12], &[10, 4, 16]]);
    let s = smith::smith_normal_form(&a);
    assert!(smith::verify_smith(&a, &s));
    println!("A =\n{a}");
    println!(
        "invariant factors: {:?} (product = |det| = {})",
        s.invariant_factors()
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>(),
        bareiss::det(&a).magnitude()
    );

    // Integer vs rational solvability.
    let b = vec![
        Integer::from(2i64),
        Integer::from(0i64),
        Integer::from(2i64),
    ];
    println!(
        "\nA·x = (2,0,2): rational solvable = {}, integer solvable = {}",
        solve::is_solvable(&a, &b),
        smith::is_solvable_over_z(&a, &b)
    );
    let b2 = a.mul_vec(
        &zz,
        &[Integer::one(), Integer::from(2i64), Integer::from(-1i64)],
    );
    println!(
        "A·x = A·(1,2,-1): rational solvable = {}, integer solvable = {} (witness: {:?})",
        solve::is_solvable(&a, &b2),
        smith::is_solvable_over_z(&a, &b2),
        smith::solve_over_z(&a, &b2).map(|x| x.iter().map(|v| v.to_string()).collect::<Vec<_>>())
    );

    // ------------------------------------------------------------------
    // 3. Certified multi-prime CRT solve vs elimination.
    // ------------------------------------------------------------------
    println!("\n=== Certified CRT solve ===\n");
    let n = 6;
    let a6 = Matrix::from_fn(n, n, |_, _| Integer::from(rng.gen_range(-999i64..=999)));
    let b6: Vec<Integer> = (0..n)
        .map(|_| Integer::from(rng.gen_range(-999i64..=999)))
        .collect();
    if !bareiss::det(&a6).is_zero() {
        let x = crt::solve_q_int(&a6, &b6).unwrap();
        let e = solve::solve(&a6, &b6).unwrap();
        assert_eq!(x, e);
        println!(
            "6x6 random system: CRT and elimination agree; x₀ = {}",
            x[0]
        );
    }

    // ------------------------------------------------------------------
    // 4. SVD structure with exact distinct-σ counts.
    // ------------------------------------------------------------------
    println!("\n=== Exact SVD structure (Sturm) ===\n");
    for m in [
        ccmx::linalg::matrix::int_matrix(&[&[1, 0, 0], &[0, 2, 0], &[0, 0, 2]]),
        ccmx::linalg::matrix::int_matrix(&[&[1, 2, 3], &[2, 4, 6], &[0, 0, 1]]),
    ] {
        let st = svd::svd_structure(&m);
        println!(
            "matrix with rank {}: {} nonzero singular values, {} distinct (σ²-poly degree {})",
            st.rank,
            st.rank,
            svd::distinct_sigma_count(&st),
            st.sigma_squared_poly.len() - 1
        );
    }

    // ------------------------------------------------------------------
    // 5. Adjugate identity and field inverses.
    // ------------------------------------------------------------------
    println!("\n=== Adjugate & inverses ===\n");
    let m3 = ccmx::linalg::matrix::int_matrix(&[&[1, 2], &[3, 5]]);
    assert!(inverse::verify_adjugate(&m3));
    println!(
        "M·adj(M) = det(M)·I verified for det = {}",
        bareiss::det(&m3)
    );
    let f7 = ccmx::linalg::ring::PrimeField::new(10007);
    let mf = Matrix::from_fn(4, 4, |_, _| rng.gen_range(0..10007u64));
    match inverse::inverse(&f7, &mf) {
        Some(inv) => {
            assert_eq!(mf.mul(&f7, &inv), Matrix::identity(&f7, 4));
            println!("random 4x4 over GF(10007): inverse verified");
        }
        None => println!("random 4x4 over GF(10007): singular (rare)"),
    }
}
