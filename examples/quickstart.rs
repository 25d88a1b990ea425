//! Quickstart: the paper's objects in five minutes.
//!
//! Run with: `cargo run --release --example quickstart`

use ccmx::linalg::matrix::int_matrix;
use ccmx::prelude::*;

fn main() {
    println!("=== ccmx quickstart: Chu–Schnitger, SPAA 1989 ===\n");

    // ------------------------------------------------------------------
    // 1. Singularity testing is a two-party problem.
    // ------------------------------------------------------------------
    let dim = 4;
    let k = 3;
    let f = Singularity::new(dim, k);
    let enc = f.enc;
    let pi0 = Partition::pi_zero(&enc);
    println!(
        "Input: {dim}x{dim} matrix of {k}-bit entries = {} bits, split by π₀ ({} / {}).",
        enc.total_bits(),
        pi0.count_a(),
        pi0.count_b()
    );

    let m = int_matrix(&[
        &[1, 2, 0, 3],
        &[0, 1, 1, 1],
        &[2, 0, 1, 0],
        &[1, 2, 0, 3], // duplicate of row 0 → singular
    ]);
    let input = enc.encode(&m);
    println!("\nMatrix under test (row 3 duplicates row 0):\n{m}");

    // ------------------------------------------------------------------
    // 2. The deterministic upper bound: send everything.
    // ------------------------------------------------------------------
    let send_all = SendAll::new(f);
    let run = run_sequential(&send_all, &pi0, &input, 0);
    println!(
        "\n[send-all]     output = {:?} (singular), cost = {} bits — the Θ(k n²) upper bound",
        run.output,
        run.cost_bits()
    );
    assert!(run.output);

    // Two agent threads exchanging encoded, framed messages over an
    // in-memory link produce the identical transcript.
    let framed = run_mem_transport(&send_all, &pi0, &input, 0);
    assert_eq!(run, framed);
    println!("[send-all]     framed two-thread run reproduces the transcript bit-for-bit");

    // ------------------------------------------------------------------
    // 3. The randomized counterpoint (Leighton's bound).
    // ------------------------------------------------------------------
    let rand_proto = ModPrimeSingularity::new(dim, k, 30);
    let rrun = run_sequential(&rand_proto, &pi0, &input, 7);
    println!(
        "[mod-prime]    output = {:?}, cost = {} bits, error ≤ {:.2e} (one-sided)",
        rrun.output,
        rrun.cost_bits(),
        rand_proto.error_bound()
    );
    assert!(rrun.output, "one-sided: singular inputs are never missed");

    // ------------------------------------------------------------------
    // 4. Theorem 1.1's machinery: the restricted hard family.
    // ------------------------------------------------------------------
    let params = Params::new(5, 2);
    let inst = RestrictedInstance::zero(params);
    println!(
        "\nRestricted family at n = {}, k = {}: M is {}x{}, free blocks C {}x{}, D {}x{}, E {}x{}, y len {}.",
        params.n,
        params.k,
        params.dim(),
        params.dim(),
        params.h(),
        params.h(),
        params.h(),
        params.d_width(),
        params.h(),
        params.e_width(),
        params.n - 1
    );
    println!(
        "\nThe Fig. 1 skeleton (zero instance):\n{}",
        inst.assemble()
    );

    // Lemma 3.2 on this instance.
    let singular = ccmx::core::lemma32::m_is_singular(&inst);
    let member = ccmx::core::lemma32::bu_in_span_a(&inst);
    println!("\nLemma 3.2: singular(M) = {singular}, B·u ∈ Span(A) = {member} — equivalent.");

    // ------------------------------------------------------------------
    // 5. The headline numbers.
    // ------------------------------------------------------------------
    let big = Params::new(61, 8);
    let bound = ccmx::core::counting::theorem_bound(big);
    println!(
        "\nTheorem 1.1 at n = {}, k = {}: certified lower bound {:.0} bits; trivial upper bound {:.0} bits.",
        big.n,
        big.k,
        bound.lower_bound_bits,
        ccmx::core::counting::deterministic_upper_bound_bits(big)
    );
    let v = VlsiBounds::for_singularity_asymptotic(big.n, big.k);
    println!(
        "VLSI corollaries (I = k n²): AT² ≥ {:.2e}, AT ≥ {:.2e}, T ≥ {:.0} (area-optimal chips).",
        v.at2, v.at, v.time_if_area_optimal
    );
}
