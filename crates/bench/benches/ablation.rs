//! Ablations of the design choices called out in DESIGN.md §4:
//!
//! 1. Bareiss (fraction-free) vs naive rational elimination for exact
//!    determinants — the intermediate-size blow-up question.
//! 2. CRT-modular determinant vs Bareiss, serial vs threaded.
//! 3. Parallel vs serial truth-matrix enumeration.
//! 4. Serial vs row-parallel exact matmul.
//!
//! The sequential protocol runner is timed against a transported one in
//! E13 (`e13_transport`).

use ccmx_bench::{pi_zero, random_matrix, rng_for, singularity};
use ccmx_bigint::{Natural, Rational};
use ccmx_comm::truth::TruthMatrix;
use ccmx_linalg::parallel::par_matmul;
use ccmx_linalg::ring::{IntegerRing, RationalField};
use ccmx_linalg::{bareiss, gauss, modular};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_determinants(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_determinant");
    group.sample_size(10);
    for &(n, bits) in &[(6usize, 8u32), (8, 16), (10, 32)] {
        let mut rng = rng_for("abl-det");
        let m = random_matrix(n, bits, &mut rng);
        let mq = m.map(|e| Rational::from(e.clone()));
        let bound = Natural::power_of_two(bits as u64);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("bareiss_n{n}_b{bits}")),
            &m,
            |b, m| b.iter(|| bareiss::det(m)),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("rational_n{n}_b{bits}")),
            &mq,
            |b, mq| b.iter(|| gauss::det(&RationalField, mq)),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("crt_serial_n{n}_b{bits}")),
            &m,
            |b, m| b.iter(|| modular::det_via_crt(m, &bound, 1)),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("crt_threads4_n{n}_b{bits}")),
            &m,
            |b, m| b.iter(|| modular::det_via_crt(m, &bound, 4)),
        );
    }
    group.finish();
}

fn bench_solvers(c: &mut Criterion) {
    // Exact linear solves: rational elimination vs Cramer vs Dixon
    // p-adic lifting (the production technique).
    use ccmx_linalg::{dixon, solve};
    let mut group = c.benchmark_group("ablation_exact_solve");
    group.sample_size(10);
    for &(n, bits) in &[(4usize, 8u32), (6, 16), (8, 32)] {
        let mut rng = rng_for("abl-solve");
        let a = random_matrix(n, bits, &mut rng);
        let b: Vec<ccmx_bigint::Integer> = (0..n)
            .map(|_| ccmx_bigint::Integer::from(rand::Rng::gen_range(&mut rng, 0..(1i64 << bits))))
            .collect();
        if ccmx_linalg::bareiss::det(&a).is_zero() {
            continue;
        }
        group.bench_function(format!("elimination_n{n}_b{bits}"), |bch| {
            bch.iter(|| solve::solve(&a, &b).unwrap())
        });
        group.bench_function(format!("cramer_n{n}_b{bits}"), |bch| {
            bch.iter(|| solve::solve_cramer(&a, &b).unwrap())
        });
        group.bench_function(format!("dixon_n{n}_b{bits}"), |bch| {
            let mut rng2 = rng_for("abl-dixon");
            bch.iter(|| dixon::solve_dixon(&a, &b, &mut rng2).unwrap())
        });
    }
    group.finish();
}

fn bench_truth_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_truth_enumeration");
    group.sample_size(10);
    let f = singularity(4, 1);
    let p = pi_zero(4, 1);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| TruthMatrix::enumerate(&f, &p, t))
        });
    }
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_matmul");
    group.sample_size(10);
    let zz = IntegerRing;
    let mut rng = rng_for("abl-mm");
    let n = 24;
    let a = random_matrix(n, 24, &mut rng);
    let b_m = random_matrix(n, 24, &mut rng);
    group.bench_function("serial", |b| b.iter(|| a.mul(&zz, &b_m)));
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| par_matmul(&zz, &a, &b_m, t))
        });
    }
    group.finish();
}

fn bench_bigint(c: &mut Criterion) {
    // Multiplication around the Karatsuba threshold and Algorithm D
    // division — the limb kernels under every exact computation here.
    use ccmx_bigint::Natural;
    let mut group = c.benchmark_group("ablation_bigint");
    let mk = |limbs: usize, seed: u64| {
        let mut x = seed;
        Natural::from_limbs(
            (0..limbs)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    x | 1
                })
                .collect(),
        )
    };
    for limbs in [8usize, 32, 128, 512] {
        let a = mk(limbs, 1);
        let b = mk(limbs, 2);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("mul_{limbs}_limbs")),
            &limbs,
            |bch, _| bch.iter(|| &a * &b),
        );
    }
    for limbs in [16usize, 64, 256] {
        let a = mk(limbs, 3);
        let b = mk(limbs / 2, 4);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("div_rem_{limbs}_by_{}", limbs / 2)),
            &limbs,
            |bch, _| bch.iter(|| a.div_rem(&b)),
        );
    }
    let big = mk(64, 5);
    let modulus = mk(32, 6);
    group.bench_function("pow_mod_64_limbs", |bch| {
        bch.iter(|| ccmx_bigint::modular::pow_mod(&big, &Natural::from(65537u64), &modulus))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_determinants,
    bench_solvers,
    bench_truth_enumeration,
    bench_matmul,
    bench_bigint
);
criterion_main!(benches);
