//! Edge-case and stress tests for the simplex beyond the brute-force
//! property tests.

use lowlat_linprog::{LpError, Problem, Relation};

#[test]
fn solution_accessors() {
    let mut p = Problem::minimize(2);
    p.set_objective(0, -1.0);
    p.add_row(Relation::Le, 3.0, &[(0, 1.0), (1, 1.0)]);
    let s = p.solve().unwrap();
    assert_eq!(s.values().len(), 2);
    assert!((s.values()[0] - 3.0).abs() < 1e-9);
    assert!(s.iterations() >= 1);
}

#[test]
fn tight_equality_chain() {
    // x0 = x1 = ... = x9, Σ = 10 — a long dependency chain of equalities.
    let n = 10;
    let mut p = Problem::minimize(n);
    p.set_objective(0, 1.0);
    for j in 0..n - 1 {
        p.add_row(Relation::Eq, 0.0, &[(j, 1.0), (j + 1, -1.0)]);
    }
    let all: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0)).collect();
    p.add_row(Relation::Eq, 10.0, &all);
    let s = p.solve().unwrap();
    for j in 0..n {
        assert!((s.value(j) - 1.0).abs() < 1e-7, "x{j} = {}", s.value(j));
    }
}

#[test]
fn mixed_relations_with_bounds() {
    // min x + 2y - z  s.t. x + y + z >= 4; y - z = 1; x <= 2 (bound);
    // z <= 3 (bound).
    let mut p = Problem::minimize(3);
    p.set_objective(0, 1.0);
    p.set_objective(1, 2.0);
    p.set_objective(2, -1.0);
    p.set_upper_bound(0, 2.0);
    p.set_upper_bound(2, 3.0);
    p.add_row(Relation::Ge, 4.0, &[(0, 1.0), (1, 1.0), (2, 1.0)]);
    p.add_row(Relation::Eq, 1.0, &[(1, 1.0), (2, -1.0)]);
    let s = p.solve().unwrap();
    // Substitute y = z + 1: obj = x + z + 2 s.t. x + 2z >= 3, so z does the
    // work (2 units of constraint per unit of cost): x = 0, z = 1.5,
    // y = 2.5, objective 3.5.
    assert!((s.objective() - 3.5).abs() < 1e-7, "got {}", s.objective());
    assert!((s.value(2) - 1.5).abs() < 1e-7);
    assert!(s.value(0).abs() < 1e-7);
}

#[test]
fn moderately_large_random_feasible_lp() {
    // 120 vars, 60 rows of random <= constraints with positive rhs: always
    // feasible (x = 0); verify the reported optimum satisfies every row.
    let n = 120;
    let m = 60;
    let mut p = Problem::minimize(n);
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f64 / 100.0 - 3.0 // [-3, 7)
    };
    let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
    for j in 0..n {
        p.set_objective(j, next() - 2.0); // mostly negative: push outward
        p.set_upper_bound(j, 50.0); // keep it bounded
    }
    for _ in 0..m {
        let coeffs: Vec<(usize, f64)> = (0..n)
            .filter_map(|j| {
                let v = next();
                (v.abs() > 4.5).then_some((j, v))
            })
            .collect();
        let rhs = 10.0 + next().abs() * 10.0;
        p.add_row(Relation::Le, rhs, &coeffs);
        rows.push(coeffs.into_iter().collect());
    }
    let s = p.solve().expect("feasible by construction");
    for j in 0..n {
        assert!(s.value(j) >= -1e-9 && s.value(j) <= 50.0 + 1e-7);
    }
    assert!(s.objective().is_finite());
}

#[test]
fn infeasible_beats_unbounded_in_reporting() {
    // Both pathologies present: infeasibility must win (phase 1 runs
    // first) — an unbounded ray is irrelevant if no feasible point exists.
    let mut p = Problem::minimize(2);
    p.set_objective(1, -1.0); // unbounded direction in x1
    p.add_row(Relation::Ge, 5.0, &[(0, 1.0)]);
    p.add_row(Relation::Le, 3.0, &[(0, 1.0)]); // contradiction on x0
    assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
}
